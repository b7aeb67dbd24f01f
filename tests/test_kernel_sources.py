"""The source of every kernel key, pinned per class by tests/kernel_sources.sha256.

No source is compiled here; tests/kernel_sources.py says how the keys are
enumerated and how to dump their sources for review.
"""

import random

import kernel_sources
from intfunc import core
from intfunc.curves import egg_figure_config, harmonic_config


def test_the_key_space():
    assert len(kernel_sources.representatives()) == 676
    assert sum(1 for _ in kernel_sources.keys()) == 66248


def test_sources_match_the_pin():
    # After a change meant to alter kernels, refresh the pin with
    # kernel_sources.write_pin() and name the changed classes in CHANGES.md.
    pinned, now = kernel_sources.read_pin(), kernel_sources.digests()
    changed = sorted(k for k in pinned.keys() | now.keys() if pinned.get(k) != now.get(k))
    assert not changed, f"kernel sources changed in: {', '.join(changed)}"


def test_a_zero_set_writes_the_sources_of_its_representative():
    representative = {kernel_sources.pair(zeros): zeros
                      for zeros in kernel_sources.representatives()}
    chosen = set(representative.values())
    others = [zeros for zeros in kernel_sources.zero_sets() if zeros not in chosen]
    rng = random.Random(26)
    for zeros in rng.sample(others, 300):
        stand_in = representative[kernel_sources.pair(zeros)]
        for harmonized in (False, True):
            for loop in core._LOOPS:
                watched = rng.choice(kernel_sources.watched_choices(loop))
                assert (core._kernel_source(zeros, harmonized, watched, loop)
                        == core._kernel_source(stand_in, harmonized, watched, loop))


def test_the_dump_writes_each_keys_source(tmp_path):
    harmonic = core._shape(harmonic_config(10**6))
    keys = [(*harmonic, core._UNTRACED), (*harmonic, core._TRACED),
            (*core._shape(egg_figure_config()), core._CHECKED)]
    assert keys[2][1], "the egg figure runs sign-harmonized"
    kernel_sources.write_sources(tmp_path, keys)
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
        f"{kernel_sources.name(key)}.py" for key in keys)
    for key in keys:
        path = tmp_path / f"{kernel_sources.name(key)}.py"
        assert path.read_text() == core._kernel_source(*key)[0]
