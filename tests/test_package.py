"""The package's public names: the package's name -> module table is their one list, each module's ``__all__`` is
its row of it, and ``supervise`` re-exports them.

``import supervise`` loads no submodule: each name comes from the package's name -> module table on first access,
and each CLI subcommand loads only the modules it runs.  The test process has every module loaded already, so
those checks run in a fresh interpreter.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import supervise
from test_golden import CASES

NAMES = ("allocation", "effort", "errors", "flat", "hierarchy", "quant", "simulate", "structures")
MODULES = [importlib.import_module(f"supervise.{name}") for name in NAMES]
SRC = Path(__file__).resolve().parent.parent / "src"


def test_package_exports_exactly_the_module_lists():
    names = supervise.__all__
    assert len(names) == len(set(names))
    assert names == [name for module in MODULES for name in module.__all__] + ["__version__"]
    for module in MODULES:
        for name in module.__all__:
            assert getattr(supervise, name) is getattr(module, name)
    assert isinstance(supervise.__version__, str)
    assert not [name for name in names if name.startswith("require_")]


def test_each_module_list_is_its_row_of_the_table():
    """No module writes its own list of names, so the table cannot drift from a second copy."""
    assert tuple(supervise._EXPORTS) == NAMES
    for name, module in zip(NAMES, MODULES):
        assert module.__all__ is supervise._EXPORTS[name]
    literal = []
    for path in sorted((SRC / "supervise").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            if (any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)
                    and isinstance(getattr(node, "value", None), (ast.List, ast.Tuple))):
                literal.append(path.name)
    # the package's own list is the table's names plus __version__; the CLI's four names are not re-exported
    assert literal == ["__init__.py", "cli.py"]


def test_dir_lists_the_public_names_and_the_submodules():
    public = [name for name in dir(supervise) if not name.startswith("_")]
    assert public == sorted({*supervise.__all__, *NAMES} - {"__version__"})
    assert "__version__" in dir(supervise)
    with pytest.raises(AttributeError):
        supervise.no_such_name  # noqa: B018


def fresh_process(code: str, *args: str):
    """The JSON a fresh interpreter prints for ``code``, run with ``args``."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


_LOADED = "sorted(m.split('.', 1)[1] for m in sys.modules if m.startswith('supervise.'))"


def test_import_loads_no_submodule_and_simulate_stays_the_function():
    code = f"""
import json, sys, types
import supervise
loaded = {_LOADED}
import supervise.simulate
from supervise import *
print(json.dumps([loaded, isinstance(supervise.simulate, types.FunctionType), isinstance(simulate, types.FunctionType),
                  sys.modules["supervise.simulate"].simulate is supervise.simulate]))
"""
    assert fresh_process(code) == [[], True, True, True]


_BASE = ["cli", "effort", "errors"]
_ANALYTIC = ["_csv", *_BASE, "hierarchy"]
_COVERS = [*_BASE, "allocation", "structures"]
_SIMULATE = ["_csv", *_BASE, "hierarchy", "quant", "simulate", "structures"]
LOADED_BY = {
    "threshold_binary": _ANALYTIC,
    "threshold_quant": ["_csv", *_BASE, "quant"],
    "threshold_flat": ["_csv", *_BASE, "flat"],
    "equilibrium_effort": _ANALYTIC,
    "equilibrium_population": _ANALYTIC,
    "counterexample": _ANALYTIC,
    "defection": _ANALYTIC,
    "tree_build": [*_BASE, "structures"],
    "peg_build": [*_BASE, "structures"],
    "hierarchy_build": _COVERS,
    "allocate_exact": _COVERS,
    "allocate_greedy": _COVERS,
    "allocate_paper_greedy": _COVERS,
    "simulate_tree": _SIMULATE,
    "simulate_hierarchy": _SIMULATE,
}

_CLI_PROBE = f"""
import contextlib, io, json, sys
from supervise.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps([code, {_LOADED}]))
"""


@pytest.mark.parametrize("case", sorted(CASES))
def test_each_subcommand_loads_only_its_modules(case):
    assert fresh_process(_CLI_PROBE, json.dumps(CASES[case])) == [0, sorted(LOADED_BY[case])]
