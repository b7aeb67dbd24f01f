"""Every kernel key of intfunc.core, and the source core._kernel_source writes
for it.

A key is a zero set, a mode, a watched register and a loop kind (see
core._shape and core._LOOPS).  A key's source depends on its zero set only
through the dead registers (structurally constant and zero) and the
constant ones, so the first zero set, by bit mask, of each distinct (dead,
constant) pair stands for all of them: 676 of the 2**14 zero sets.  With 2
modes and the watched choices of each loop kind (none or a work register,
and RX or RY for the traced and checked kinds) that makes 66 248 keys.

tests/kernel_sources.sha256 pins one sha256 per class of keys (see
``kind``); tests/test_kernel_sources.py checks it without compiling a source.

Run as ``PYTHONPATH=src python tests/kernel_sources.py DIR`` to write each
key's source to DIR/<key name>.py, so that ``diff -r`` of the dumps of two
trees shows every kernel a change altered.  All keys come to about 200 MB
of text in 66 248 files.
"""

import hashlib
import sys
from collections import defaultdict
from functools import cache
from pathlib import Path

from intfunc import core

PIN = Path(__file__).with_name("kernel_sources.sha256")


def zero_sets():
    """All 2**14 sets of work registers at zero, in the order of their bit masks."""
    names = core.WORK_REGISTERS
    for mask in range(1 << len(names)):
        yield frozenset(name for n, name in enumerate(names) if mask >> n & 1)


def pair(zeros):
    """The (dead, constant) pair of a zero set."""
    constant = core._constant_registers(zeros)
    return constant & zeros, constant


@cache
def representatives():
    """The first zero set of each distinct (dead, constant) pair."""
    first = {}
    for zeros in zero_sets():
        first.setdefault(pair(zeros), zeros)
    return tuple(first.values())


def watched_choices(loop):
    """None, or the slot of a work register, or of any register when ``loop``
    is traced (the untraced loop cannot watch RX or RY)."""
    traced, _ = core._LOOPS[loop]
    return (None, *range(0 if traced else 2, len(core.ALL_REGISTERS)))


def keys():
    """Every key, in order: zero set, mode, loop kind, watched choice."""
    for zeros in representatives():
        for harmonized in (False, True):
            for loop in core._LOOPS:
                for watched in watched_choices(loop):
                    yield zeros, harmonized, watched, loop


def name(key):
    """A key as a file name: loop-mode-watched-zeros."""
    zeros, harmonized, watched, loop = key
    return "-".join([loop, "harmonized" if harmonized else "monotone",
                     "none" if watched is None else core.ALL_REGISTERS[watched],
                     "_".join(n for n in core.WORK_REGISTERS if n in zeros) or "none"])


@cache
def has_count_pair(zeros):
    """Whether a monotone shape with these zeros has a count pair: a live
    j-side pair whose source is constant and whose target, a work register,
    no other live pair feeds."""
    dead, constant = pair(zeros)
    live = [p for letter in "XY" for p in core._CASCADES[letter] if p[0] not in dead]
    return any(source in constant and target not in core.REGULATORS
               and [s for s, t in live if t == target] == [source]
               for source, target in live if source.endswith("Y"))


def kind(key):
    """The class of a key: its loop kind, its mode and, when monotone,
    whether it has a count pair."""
    zeros, harmonized, _, loop = key
    if harmonized:
        return f"{loop}/sign-harmonized"
    return f"{loop}/monotone/{'' if has_count_pair(zeros) else 'no-'}count-pair"


def digests():
    """The sha256 of each class: the name, source and ``recorded`` of each
    of its keys, in key order."""
    hashes = defaultdict(hashlib.sha256)
    for key in keys():
        source, recorded = core._kernel_source(*key)
        hashes[kind(key)].update(f"{name(key)}\n{source}\n{recorded}\n".encode())
    return {k: h.hexdigest() for k, h in sorted(hashes.items())}


def read_pin():
    """The class digests pinned in PIN, which has a "digest  class" line each."""
    return {k: digest for digest, k in (line.split() for line in PIN.read_text().splitlines())}


def write_pin():
    """Pin the current digests: run this after a change meant to alter kernels."""
    PIN.write_text("".join(f"{digest}  {k}\n" for k, digest in digests().items()))


def write_sources(directory, keys):
    """Write the source of each of ``keys`` to ``directory``/<name>.py."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for key in keys:
        (directory / f"{name(key)}.py").write_text(core._kernel_source(*key)[0])


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} DIR")
    write_sources(sys.argv[1], keys())
