"""Golden bytes: every subcommand's stdout and ``--out`` file on small fixed inputs, byte for byte.

The inputs live in ``golden/inputs`` and the expected bytes in ``golden/expected``.
After a change that is meant to alter the output, regenerate the expected files with

    PYTHONPATH=src python tests/test_golden.py

and record why in CHANGES.md.
"""

import contextlib
import io
from pathlib import Path

import pytest

from supervise.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"
EXPECTED = GOLDEN / "expected"


def _in(name: str) -> str:
    return str(INPUTS / name)


CASES = {
    "threshold_binary": [
        "threshold", "binary", "--effort", "simplelog", "--alpha", "1", "--epsilon", "0.2", "--k", "2",
    ],
    "threshold_quant": [
        "threshold", "quant", "--effort", "inversepower", "--alpha", "1", "--k", "4", "--c", "1", "--epsilon", "2.5",
    ],
    "threshold_flat": [
        "threshold", "flat", "--effort", "simplelog", "--alpha", "1", "--epsilon", "0.1", "--k", "3", "--C", "100",
        "--n-workers", "50",
    ],
    "equilibrium_effort": [
        "equilibrium", "--effort", "boundarylog", "--alpha", "0.5", "--k", "3", "--epsilon", "0.2", "--C", "30",
        "--depth", "4", "--m", "3",
    ],
    "equilibrium_population": [
        "equilibrium", "--population", _in("population.json"), "--k", "2", "--epsilon", "0.25", "--C", "16",
        "--depth", "4",
    ],
    "counterexample": ["counterexample", "--k", "2", "--C", "10", "--epsilon", "0.2", "--max-depth", "8"],
    "defection": ["defection", "--N", "10", "--k", "2", "--C", "5"],
    "tree_build": ["tree", "build", "--n-tasks", "10", "--k", "3", "--seed", "1"],
    "peg_build": ["peg", "build", "--n-workers", "8", "--n-tasks", "7", "--k", "3", "--redundancy", "2", "--seed", "2"],
    "hierarchy_build": ["hierarchy", "build", "--graph", _in("graph.json"), "--k", "2", "--seed", "5"],
    "allocate_exact": ["allocate", "--mode", "exact", "--graph", _in("graph.json")],
    "allocate_greedy": ["allocate", "--mode", "greedy", "--graph", _in("graph.json"), "--seed", "3"],
    "allocate_paper_greedy": ["allocate", "--mode", "paper-greedy", "--graph", _in("graph.json"), "--seed", "3"],
    "simulate_tree": [
        "simulate", "--structure", _in("tree.json"), "--strategies", _in("binary.json"), "--episodes", "2000",
        "--seed", "11",
    ],
    "simulate_hierarchy": [
        "simulate", "--structure", _in("hierarchy.json"), "--strategies", _in("gaussian.json"), "--episodes", "2000",
        "--seed", "2",
    ],
}
NO_OUT_FLAG = ("threshold", "defection")


def _run(argv: list) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert (code, err.getvalue()) == (0, "")
    return out.getvalue().encode("utf-8")


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_bytes(case, tmp_path):
    want = (EXPECTED / f"{case}.txt").read_bytes()
    assert _run(CASES[case]) == want
    if CASES[case][0] not in NO_OUT_FLAG:
        out = tmp_path / "out"
        assert _run(CASES[case] + ["--out", str(out)]) == b""
        assert out.read_bytes() == want


if __name__ == "__main__":
    EXPECTED.mkdir(exist_ok=True)
    for name, argv in sorted(CASES.items()):
        (EXPECTED / f"{name}.txt").write_bytes(_run(argv))
