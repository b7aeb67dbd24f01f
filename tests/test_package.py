"""The package namespace: every public name loads its module on first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import intfunc
import intfunc.cli
import intfunc.io

# The intfunc.cli names kept for callers that still import them from there.
CLI_IO_NAMES = ("config_from_items", "format_config", "function_from_trace",
                "parse_config_items", "read_trace", "write_trace")


def _fresh(probe):
    """stdout of `probe` run in a fresh interpreter."""
    src = str(Path(intfunc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True).stdout


@pytest.mark.parametrize("name", intfunc.__all__)
def test_name_is_its_home_modules_object(name):
    home = importlib.import_module(f"intfunc.{intfunc._HOME[name]}")
    assert getattr(intfunc, name) is getattr(home, name)


def test_table_names_exactly_all():
    assert sorted(intfunc._HOME) == sorted(intfunc.__all__)
    assert set(intfunc.__all__) <= set(dir(intfunc))


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from intfunc import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(intfunc.__all__)


def test_unknown_name():
    with pytest.raises(AttributeError) as excinfo:
        intfunc.nope
    assert str(excinfo.value) == "module 'intfunc' has no attribute 'nope'"
    with pytest.raises(ImportError):
        exec("from intfunc import nope", {})


def test_cli_keeps_the_io_names():
    for name in CLI_IO_NAMES:
        assert getattr(intfunc.cli, name) is getattr(intfunc.io, name)
    with pytest.raises(AttributeError, match="has no attribute 'read_config'"):
        intfunc.cli.read_config


def test_loading_is_lazy():
    probe = ("import sys\n"
             "def loaded(): return sorted(m for m in sys.modules if m.startswith('intfunc.'))\n"
             "import intfunc; print(*loaded())\n"
             "intfunc.pi_bounds; print(*loaded())\n"
             "print(intfunc.render.Viewport is intfunc.Viewport, *loaded())\n"
             "import intfunc.cli; print(*loaded())\n")
    assert _fresh(probe).splitlines() == [
        "",
        "intfunc.core intfunc.curves",
        "True intfunc.core intfunc.curves intfunc.render",
        "intfunc.cli intfunc.core intfunc.curves intfunc.render",
    ]
