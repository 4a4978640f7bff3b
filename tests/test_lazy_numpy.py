"""Only a Monte Carlo run loads numpy: ``import supervise`` and every other subcommand run without it.

The test process has numpy loaded already, so each check runs in a fresh interpreter.
"""

import json

import pytest

from test_golden import CASES
from test_package import fresh_process

_PROBE = """
import contextlib, io, json, sys
import supervise
after_import = "numpy" in sys.modules
from supervise.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps([after_import, code, "numpy" in sys.modules]))
"""


def _numpy_loaded(argv: list) -> tuple:
    """(numpy loaded by ``import supervise``, exit code, numpy loaded after ``main(argv)``), in a fresh interpreter."""
    return tuple(fresh_process(_PROBE, json.dumps(argv)))


@pytest.mark.parametrize("case", sorted(c for c in CASES if CASES[c][0] != "simulate"))
def test_analytic_and_structure_commands_run_without_numpy(case):
    assert _numpy_loaded(CASES[case]) == (False, 0, False)


@pytest.mark.parametrize("case", sorted(c for c in CASES if CASES[c][0] == "simulate"))
def test_simulate_loads_numpy(case):
    assert _numpy_loaded(CASES[case]) == (False, 0, True)
