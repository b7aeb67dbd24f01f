"""List the executable lines of src/intfunc that the test suite never runs.

Run from the repository root as

    python tests/line_trace.py [--allow tests/unrun_lines.txt] [pytest arguments]

It runs the suite (tests/, or the given pytest arguments) in this process
under sys.settrace, tracing only frames whose code lies in
src/intfunc/*.py, then prints each executable line that never ran, file by
file, with a count.  A line is executable when one of its module's code
objects, compiled here from the source, holds an instruction on it.

Only this process is traced: code that tests run as a subprocess, such as
``python -m intfunc.cli``, shows as unrun (cli.run and __main__), and so do
the imports under TYPE_CHECKING.  The run takes about 2.5 times as long as
the suite itself, so pytest does not collect it; CI runs it on one Python.

``--allow FILE`` names the lines that may stay unrun, one
``path: stripped line text`` entry per line (``#`` starts a comment line).
An entry is matched by its text, not its number, so an edit elsewhere in
the file leaves it valid.  The exit status is pytest's when that is not 0;
else 1 when an unlisted line never ran or a listed one ran (so the list
cannot go stale), marked "not allowed" or "listed but ran" in the report;
else 0.
"""

import sys
import threading
import types
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def executable_lines(path: Path) -> set[int]:
    """The lines on which some code object of the module at ``path`` has an
    instruction."""
    lines, codes = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def read_allowed(path: str) -> set[tuple[str, str]]:
    """The (path, stripped line text) entries of an allow list."""
    allowed = set()
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            name, _, text = line.partition(": ")
            allowed.add((name, text.strip()))
    return allowed


def main(args: list[str]) -> int:
    allowed = None
    if args[:1] == ["--allow"]:
        allowed, args = read_allowed(args[1]), args[2:]
    # Put this tree's package first, so its frames carry these file names.
    sys.path.insert(0, str(SRC))
    modules = sorted((SRC / "intfunc").glob("*.py"))
    ran = {str(path): set() for path in modules}

    def trace(frame, event, arg):
        # The same function traces the lines of each frame it returns for.
        lines = ran.get(frame.f_code.co_filename)
        if lines is None:
            return None
        lines.add(frame.f_lineno)
        return trace

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(args or [str(Path(__file__).parent)])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total, seen, failed = 0, set(), False
    for path in modules:
        name = path.relative_to(SRC.parent).as_posix()
        unrun = sorted(executable_lines(path) - ran[str(path)])
        text = path.read_text(encoding="utf-8").splitlines()
        print(f"{name}: {len(unrun)} lines never ran")
        for line in unrun:
            entry = (name, text[line - 1].strip())
            seen.add(entry)
            unlisted = allowed is not None and entry not in allowed
            failed |= unlisted
            print(f"  {line}: {entry[1]}" + ("  (not allowed)" if unlisted else ""))
        total += len(unrun)
    print(f"{total} executable lines never ran")
    if allowed is not None:
        for name, text in sorted(allowed - seen):
            print(f"listed but ran: {name}: {text}")
            failed = True
    return status or int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
