"""The package namespace: every public name loads its module on first use,
and every name an annotation reads is bound in its module."""

import ast
import builtins
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


def test_curves_loads_no_stdlib_module_of_its_own():
    # Importing intfunc.curves loads nothing outside intfunc beyond what the
    # stdlib modules that intfunc.core and intfunc.curves name load.  decimal
    # is left out of that list on purpose: format_bound's decimal is free at
    # start-up only because fractions already loads it.
    probe = ("import sys\n"
             "import __future__, array, enum, fractions, functools, itertools, math, "
             "operator, time, typing\n"
             "before = set(sys.modules)\n"
             "import intfunc.curves\n"
             "print(*sorted(m for m in set(sys.modules) - before if not m.startswith('intfunc')))\n")
    assert _fresh(probe).split() == []


def _module_bindings(body):
    """Names bound by module-level statements, inside if, try and with
    blocks too (a TYPE_CHECKING block among them), but not inside defs."""
    names = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(name.id for target in targets for name in ast.walk(target)
                         if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store))
        for block in ("body", "orelse", "finalbody"):
            names |= _module_bindings(getattr(node, block, []))
        for handler in getattr(node, "handlers", []):
            names |= _module_bindings(handler.body)
    return names


def _annotation_names(annotation):
    """The names an annotation reads, those in string annotations too."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from _annotation_names(ast.parse(node.value, mode="eval"))


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            yield from (arg.annotation for arg in [
                *arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs,
                arguments.vararg, arguments.kwarg] if arg is not None and arg.annotation)
            if node.returns:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


@pytest.mark.parametrize("path", sorted(Path(intfunc.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_annotation_names_resolve(path):
    # Every module postpones its annotations, so nothing checks these names at
    # import.  A type checker reads them in the module's namespace, where a
    # name imported only inside a function is missing; an import under
    # TYPE_CHECKING binds it there without loading its module at run time.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = _module_bindings(tree.body) | set(dir(builtins))
    unbound = {name for annotation in _annotations(tree)
               for name in _annotation_names(annotation)} - bound
    assert not unbound, f"{path.name}: annotation names not bound at module level: {unbound}"


def test_type_hints_need_the_type_checking_names():
    # These annotations name classes bound only under TYPE_CHECKING, as the
    # io and cli docstrings say: get_type_hints resolves them only when
    # localns binds those names.
    from fractions import Fraction
    from typing import get_type_hints

    from intfunc import IntegerFunction, IntegerScale, RealSampleSeries, Viewport, curves

    localns = {"Fraction": Fraction, "RealSampleSeries": RealSampleSeries, "Viewport": Viewport}
    returns = {intfunc.io.parse_rational: Fraction, intfunc.io._rational: Fraction,
               intfunc.io.read_samples_file: RealSampleSeries,
               intfunc.cli._parse_viewport: Viewport}
    for function, returned in returns.items():
        with pytest.raises(NameError):
            get_type_hints(function)
        assert get_type_hints(function, localns=localns)["return"] is returned
    # curves binds IntegerScale and Fraction itself, so these need no localns.
    assert get_type_hints(curves.digitize)["scale"] is IntegerScale
    assert get_type_hints(curves.digitize)["return"] is IntegerFunction
    assert get_type_hints(IntegerScale.__init__)["unit"] is Fraction
