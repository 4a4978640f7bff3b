"""Command line behavior: outputs, exit codes, file round trips, seeding."""

import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from supervise import build_supervision_tree
from supervise.cli import build_parser, fmt_decimal, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestFormatting:
    def test_integral_floats_print_bare(self):
        assert fmt_decimal(16.0) == "16"
        assert fmt_decimal(2.0) == "2"
        assert fmt_decimal(0.3) == "0.3"
        assert fmt_decimal(50.0 / 3.0) == "16.666666666666668"

    def test_integral_floats_from_2_to_the_53_print_as_repr(self):
        assert fmt_decimal(2.0**53 - 1) == "9007199254740991"
        assert fmt_decimal(-(2.0**53) + 1) == "-9007199254740991"
        assert fmt_decimal(2.0**53) == "9007199254740992.0"
        assert fmt_decimal(1e308) == "1e+308"

    def test_defection_at_c_1e308_prints_short_costs(self, capsys):
        """k C overflows, yet both costs are finite: 2e307 and 8e307, no longer printed with all 308 digits."""
        assert run_cli(capsys, "defection", "--N", "10", "--k", "2", "--C", "1e308") == (
            0, "defect (2e+307 < 8e+307)\n", ""
        )


class TestThreshold:
    def test_binary_anchor(self, capsys):
        code, out, err = run_cli(
            capsys, "threshold", "binary", "--effort", "simplelog", "--alpha", "1", "--epsilon", "0.25", "--k", "2"
        )
        assert (code, out, err) == (0, "16\n", "")

    def test_quant_anchor(self, capsys):
        code, out, err = run_cli(
            capsys, "threshold", "quant", "--effort", "inversepower", "--alpha", "1", "--k", "4", "--c", "1"
        )
        assert (code, out, err) == (0, "2\n", "")

    def test_quant_with_threshold_judges_proficiency(self, capsys):
        code, out, _ = run_cli(
            capsys, "threshold", "quant", "--effort", "inversepower", "--alpha", "1", "--k", "4", "--c", "1",
            "--epsilon", "2.5",
        )
        assert code == 0
        assert out == "2\nproficient true\n"

    def test_flat_reports_bound_feasibility_workload(self, capsys):
        code, out, _ = run_cli(
            capsys, "threshold", "flat", "--effort", "simplelog", "--alpha", "1", "--epsilon", "0.1", "--k", "3",
            "--C", "100", "--n-workers", "50",
        )
        assert code == 0
        assert out == "0.3\nfeasible true\nworkload 15\n"

    def test_flat_infeasible(self, capsys):
        code, out, _ = run_cli(
            capsys, "threshold", "flat", "--effort", "simplelog", "--alpha", "1", "--epsilon", "0.1", "--k", "3",
            "--C", "10",
        )
        assert code == 0
        assert out == "3\nfeasible false\n"

    def test_flat_requires_exactly_one_penalty(self, capsys):
        code, _, err = run_cli(
            capsys, "threshold", "flat", "--effort", "simplelog", "--epsilon", "0.1", "--k", "3"
        )
        assert code == 1 and err.startswith("error:")
        code2, _, err2 = run_cli(
            capsys, "threshold", "flat", "--effort", "simplelog", "--epsilon", "0.1", "--k", "3",
            "--C", "10", "--c", "1",
        )
        assert code2 == 1 and err2.startswith("error:")

    def test_domain_error_is_exit_one(self, capsys):
        code, _, err = run_cli(
            capsys, "threshold", "binary", "--effort", "simplelog", "--epsilon", "0.7", "--k", "2"
        )
        assert code == 1
        assert err.startswith("error:") and err.strip().endswith("0.7")

    @pytest.mark.parametrize(
        "argv",
        [
            ("quant", "--effort", "inversepower", "--k", "4", "--c", "1", "--epsilon", "nan"),
            ("quant", "--effort", "inversepower", "--k", "4", "--c", "1", "--epsilon", "-1"),
            ("flat", "--effort", "simplelog", "--epsilon", "0.1", "--k", "3", "--C", "100", "--n-workers", "-3"),
        ],
        ids=["quant epsilon nan", "quant epsilon negative", "flat n-workers negative"],
    )
    def test_flags_the_library_refuses(self, capsys, argv):
        code, out, err = run_cli(capsys, "threshold", *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("depth", ["1", "3"])
def test_an_inverse_power_error_above_one_is_one_error_line(capsys, depth):
    """Level 1's best response is sqrt(2) at k 2, C 1: at depth 1 the profile refuses it, and deeper the cascade
    refuses it as level 2's superior error; neither prints a row."""
    code, out, err = run_cli(capsys, "equilibrium", "--effort", "inversepower", "--alpha", "1", "--epsilon", "0.25",
                             "--k", "2", "--C", "1", "--depth", depth)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1 and err.strip().endswith("1.4142135623730951")


# Results past the float range, each refused with one error line naming the quantity.
NOT_FINITE_RESULTS = {
    "binary bound at k 10**308": (
        ["binary", "--effort", "simplelog", "--epsilon", "0.2", "--k", str(10**308)], "the penalty bound"
    ),
    "flat workload at 10**308 workers": (
        ["flat", "--effort", "simplelog", "--epsilon", "0.01", "--k", "50", "--C", "1", "--n-workers", str(10**308)],
        "the workload",
    ),
    "quant root where c / k underflows": (
        ["quant", "--effort", "inversepower", "--k", "4", "--c", "5e-324"], "the best-response variance"
    ),
    "flat bound where k / C overflows": (
        ["flat", "--effort", "simplelog", "--epsilon", "0.1", "--k", "3", "--C", "5e-324"],
        "the verification probability bound",
    ),
    # the inverse power's derivative is -inf where epsilon * epsilon underflows to 0
    "binary bound where the inverse power's epsilon squared underflows": (
        ["binary", "--effort", "inversepower", "--k", "2", "--epsilon", "1e-200"], "the penalty bound"
    ),
    "flat bound where the inverse power's epsilon squared underflows": (
        ["flat", "--effort", "inversepower", "--k", "1", "--epsilon", "1e-170", "--c", "1"],
        "the verification probability bound",
    ),
}


@pytest.mark.parametrize("case", sorted(NOT_FINITE_RESULTS))
def test_a_result_that_is_not_finite_is_one_error_line(capsys, case):
    argv, quantity = NOT_FINITE_RESULTS[case]
    code, out, err = run_cli(capsys, "threshold", *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {quantity}") and "not a finite float" in err and err.count("\n") == 1


class TestEquilibrium:
    def test_homogeneous_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "equilibrium", "--effort", "simplelog", "--k", "2", "--epsilon", "0.25", "--C", "16",
            "--depth", "3", "--D", "0",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "level,error,truthful"
        assert lines[1] == "0,0.0,true"
        assert lines[2] == "1,0.125,true"
        assert len(lines) == 5

    def test_population_file(self, capsys, tmp_path):
        pop = {
            "types": [
                {"id": "a", "weight": 0.8, "effort": {"family": "simplelog", "alpha": 0.8}},
                {"id": "b", "weight": 0.2, "effort": {"family": "simplelog", "alpha": 1.4}},
            ]
        }
        pf = tmp_path / "pop.json"
        pf.write_text(json.dumps(pop))
        out_file = tmp_path / "eq.csv"
        code, out, _ = run_cli(
            capsys, "equilibrium", "--population", str(pf), "--k", "2", "--epsilon", "0.25", "--C", "16",
            "--depth", "4", "--out", str(out_file),
        )
        assert code == 0 and out == ""
        text = out_file.read_text()
        assert text.splitlines()[0] == "type,level,error,truthful"
        assert {ln.split(",")[0] for ln in text.splitlines()[1:]} == {"a", "b"}

    def test_violating_population_is_exit_one(self, capsys, tmp_path):
        pop = {
            "types": [
                {"id": "a", "weight": 0.3, "effort": {"family": "simplelog", "alpha": 0.8}},
                {"id": "b", "weight": 0.7, "effort": {"family": "simplelog", "alpha": 1.4}},
            ]
        }
        pf = tmp_path / "pop.json"
        pf.write_text(json.dumps(pop))
        code, _, err = run_cli(
            capsys, "equilibrium", "--population", str(pf), "--k", "2", "--epsilon", "0.25", "--C", "16",
            "--depth", "4",
        )
        assert code == 1
        assert "assumption" in err


# Runs the CLI on its arguments and prints the process's own peak RSS in kB: getrusage(RUSAGE_SELF), as
# RUSAGE_CHILDREN would report the largest child the test process has waited for, whichever test started it.
_PEAK_RSS_PROBE = """
import resource, sys
from supervise.cli import main
code = main(sys.argv[1:])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
sys.exit(code)
"""
# Linux keeps ru_maxrss across exec, so a child started by the test process would report at least the test
# process's own peak; started by a bare interpreter instead, it reports at least that interpreter's, about 14 MB.
_LAUNCHER = "import subprocess, sys; sys.exit(subprocess.run([sys.executable, '-c', *sys.argv[1:]]).returncode)"


def _peak_rss_kb(*argv):
    """Runs the CLI on ``argv`` in a fresh process, which must succeed silently, and returns its peak RSS in kB."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", _LAUNCHER, _PEAK_RSS_PROBE, *argv],
                          env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    return int(proc.stdout)


def test_a_million_level_equilibrium_streams_in_bounded_memory(tmp_path):
    """The CSV of a profile whose cycle starts within 30 levels: the bytes written before rows came from a cached
    tail, and well under the 209 MB peak that storing and formatting every level took."""
    out = tmp_path / "eq.csv"
    peak = _peak_rss_kb("equilibrium", "--effort", "simplelog", "--alpha", "1.3", "--epsilon", "0.12", "--k", "3",
                        "--C", "40", "--depth", "1000000", "--out", str(out))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "fce4914a760437390cc20c1eefd04232cb7486ce8296eb11b537ca109dc1ae14"
    )
    assert peak < 50 * 1024


def test_a_million_level_trace_writes_the_bytes_of_the_trace_that_stored_every_level(capsys, tmp_path):
    """Above the bound the errors repeat from level 19 on; the rows past it come from the stored cycle."""
    out = tmp_path / "trace.csv"
    assert run_cli(capsys, "counterexample", "--k", "2", "--C", "40", "--epsilon", "0.2", "--max-depth", "1000000",
                   "--out", str(out)) == (0, "", "")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "559bd1f4a22356a31f5d6e41539e3802ccd09de18e7775f831d457ed5b4c3250"
    )


def test_a_ten_million_level_trace_streams_in_bounded_memory():
    """Well under the 1027 MB peak that storing every error took at this depth."""
    peak = _peak_rss_kb("counterexample", "--k", "2", "--C", "40", "--epsilon", "0.2", "--max-depth", "10000000",
                        "--out", os.devnull)
    assert peak < 50 * 1024


@pytest.mark.parametrize("sigma", [1e200, 1.3e154])
def test_a_gaussian_penalty_beyond_floats_is_one_error_line(tmp_path, sigma):
    """In a fresh process, so that a numpy warning or a traceback would reach the stderr read here."""
    tree_file, strategies = tmp_path / "tree.json", tmp_path / "strategies.json"
    tree_file.write_text(json.dumps(build_supervision_tree(1, 2, 0).to_json_dict()))
    strategies.write_text(json.dumps({"model": "gaussian", "c": 1.0, "workers": {"w0": [sigma, 0]}}))
    proc = subprocess.run([sys.executable, "-m", "supervise", "simulate", "--structure", str(tree_file),
                           "--strategies", str(strategies), "--episodes", "100"],
                          env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1


def test_a_reader_that_closes_stdout_early_gets_one_error_line():
    """In a fresh process: the profile's CSV is about 600 kB, far past a pipe's 64 KiB, so the run is still writing
    when the reader leaves, and neither that write nor the flush at interpreter exit may end in a traceback."""
    proc = subprocess.Popen([sys.executable, "-m", "supervise", "equilibrium", "--effort", "simplelog", "--epsilon",
                             "0.25", "--k", "2", "--C", "16", "--depth", "20000"],
                            env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(10) == b"level,erro"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err.startswith("error: cannot write stdout:") and err.count("\n") == 1
    assert "Traceback" not in err and "Exception ignored" not in err


class TestCounterexampleAndDefection:
    def test_trace_footer(self, capsys):
        code, out, _ = run_cli(
            capsys, "counterexample", "--k", "2", "--C", "10", "--epsilon", "0.2", "--max-depth", "50"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "level,error,truthful"
        assert "# crossing_level 2" in lines
        assert any(ln.startswith("# delta 0.08") for ln in lines)
        assert "# guaranteed_depth 3" in lines

    def test_defection_verdicts(self, capsys):
        assert run_cli(capsys, "defection", "--N", "5", "--k", "2", "--C", "10")[1] == "defect (4 < 6)\n"
        assert run_cli(capsys, "defection", "--N", "4", "--k", "2", "--C", "10")[1] == "indifferent (5 = 5)\n"
        out3 = run_cli(capsys, "defection", "--N", "3", "--k", "2", "--C", "10")[1]
        assert out3.startswith("truthful-compatible (")

    def test_defection_cost_beyond_floats_is_one_error_line(self, capsys):
        code, out, err = run_cli(capsys, "defection", "--N", "1", "--k", str(10**20), "--C", "1e308")
        assert code == 1 and out == "" and len(err.splitlines()) == 1 and err.startswith("error:")


class TestStructurePipeline:
    def test_tree_build_then_simulate(self, capsys, tmp_path):
        tree_file = tmp_path / "tree.json"
        code, _, _ = run_cli(
            capsys, "tree", "build", "--n-tasks", "4", "--k", "2", "--seed", "7", "--out", str(tree_file)
        )
        assert code == 0
        obj = json.loads(tree_file.read_text())
        assert set(obj) == {"levels", "edges", "shared"}
        strat = {
            "model": "uniform-wrong",
            "m": 2,
            "C": 16,
            "workers": {"w0": 0.125, "w1": 0.125, "supervisor": 0.0},
        }
        sf = tmp_path / "strat.json"
        sf.write_text(json.dumps(strat))
        code, out, _ = run_cli(
            capsys, "simulate", "--structure", str(tree_file), "--strategies", str(sf),
            "--episodes", "20000", "--seed", "11",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "worker,level,empirical,stderr,analytic,z"
        assert len(lines) == 3
        assert all(ln.split(",")[4] == "2.0" for ln in lines[1:])

    def test_peg_allocate_hierarchy_simulate(self, capsys, tmp_path):
        peg_file = tmp_path / "peg.json"
        code, _, _ = run_cli(
            capsys, "peg", "build", "--n-workers", "6", "--n-tasks", "5", "--k", "3", "--seed", "1",
            "--out", str(peg_file),
        )
        assert code == 0
        pobj = json.loads(peg_file.read_text())
        assert pobj["pegs"] == ["t0", "t1"]

        code, out, _ = run_cli(capsys, "allocate", "--mode", "exact", "--graph", str(peg_file))
        assert code == 0
        alloc = json.loads(out)
        assert alloc["size"] == 2 and alloc["ratio"] == 1.0

        code, out, _ = run_cli(capsys, "allocate", "--mode", "greedy", "--graph", str(peg_file), "--seed", "3")
        got = json.loads(out)
        assert got["size"] <= 3 * 2 and got["ratio"] <= 3.0

        code, out, _ = run_cli(
            capsys, "allocate", "--mode", "paper-greedy", "--graph", str(peg_file), "--seed", "3"
        )
        assert code == 0 and json.loads(out)["size"] >= 2

        hier_file = tmp_path / "hier.json"
        code, _, _ = run_cli(
            capsys, "hierarchy", "build", "--graph", str(peg_file), "--k", "2", "--seed", "5",
            "--out", str(hier_file),
        )
        assert code == 0
        hobj = json.loads(hier_file.read_text())
        assert set(hobj) == {"coverage", "graph", "tree", "tree_tasks"}

        workers = {w: 0.1 for w in hobj["graph"]["workers"]}
        for lv in hobj["tree"]["levels"][:-1]:
            workers.update({n: 0.05 for n in lv})
        sf = tmp_path / "hstrat.json"
        sf.write_text(json.dumps({"model": "uniform-wrong", "C": 16, "workers": workers}))
        code, out, _ = run_cli(
            capsys, "simulate", "--structure", str(hier_file), "--strategies", str(sf),
            "--episodes", "5000", "--seed", "2",
        )
        assert code == 0
        rows = out.splitlines()[1:]
        assert {r.split(",")[0] for r in rows} >= set(hobj["graph"]["workers"])

    def test_gaussian_simulate(self, capsys, tmp_path):
        tree_file = tmp_path / "tree1.json"
        run_cli(capsys, "tree", "build", "--n-tasks", "1", "--k", "2", "--seed", "0", "--out", str(tree_file))
        sf = tmp_path / "gstrat.json"
        sf.write_text(
            json.dumps({"model": "gaussian", "c": 2.0, "workers": {"w0": [1.0, 0.5], "supervisor": [0.8, -0.5]}})
        )
        code, out, _ = run_cli(
            capsys, "simulate", "--structure", str(tree_file), "--strategies", str(sf),
            "--episodes", "50000", "--seed", "4",
        )
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert row[4] == "5.28"
        assert abs(float(row[5])) <= 4.0


class TestStructureFilesValidated:
    def simulate(self, capsys, tmp_path, structure):
        tree = structure.get("tree", structure)
        workers = {n: 0.1 for lv in tree["levels"][:-1] for n in lv}
        workers.update({w: 0.1 for w in structure.get("graph", {}).get("workers", ())})
        sf = tmp_path / "structure.json"
        sf.write_text(json.dumps(structure))
        strat = tmp_path / "strat.json"
        strat.write_text(json.dumps({"model": "uniform-wrong", "C": 16, "workers": workers}))
        return run_cli(capsys, "simulate", "--structure", str(sf), "--strategies", str(strat), "--episodes", "100")

    def test_tree_missing_a_shared_task(self, capsys, tmp_path):
        obj = json.loads(run_cli(capsys, "tree", "build", "--n-tasks", "4", "--k", "2", "--seed", "7")[1])
        obj["shared"] = [s for s in obj["shared"] if s[1] != "w1"]
        code, out, err = self.simulate(capsys, tmp_path, obj)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1

    def test_coverage_naming_an_unknown_task(self, capsys, tmp_path):
        peg_file = tmp_path / "peg.json"
        run_cli(capsys, "peg", "build", "--n-workers", "6", "--n-tasks", "5", "--k", "3", "--seed", "1",
                "--out", str(peg_file))
        obj = json.loads(run_cli(capsys, "hierarchy", "build", "--graph", str(peg_file), "--k", "2", "--seed", "5")[1])
        obj["coverage"][0][1] = "zz"
        code, out, err = self.simulate(capsys, tmp_path, obj)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1

    def test_tree_level_holding_a_nested_list(self, capsys, tmp_path):
        obj = json.loads(run_cli(capsys, "tree", "build", "--n-tasks", "4", "--k", "2", "--seed", "7")[1])
        obj["levels"][-1][0] = [obj["levels"][-1][0]]
        code, out, err = self.simulate(capsys, tmp_path, obj)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err

    def test_hierarchy_over_an_empty_graph(self, capsys, tmp_path):
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps({"workers": [], "tasks": [], "edges": []}))
        code, out, err = run_cli(capsys, "hierarchy", "build", "--graph", str(graph), "--k", "2")
        assert (code, out) == (1, "")
        assert err == "error: input error: graph has no workers, so there is no one to supervise\n"


BINARY = {"model": "uniform-wrong", "m": 3, "C": 16, "workers": {"w0": 0.1, "supervisor": 0.0}}
GAUSSIAN = {"model": "gaussian", "c": 2.0, "workers": {"w0": [1.0, 0.5], "supervisor": [0.8, -0.5]}}


def _population(effort=None, **entry):
    """A two-type population file whose type ``a`` has ``entry`` and ``effort`` keys set (None drops one)."""
    a = {"id": "a", "weight": 0.8, "effort": {"family": "simplelog", "alpha": 0.8, **(effort or {})}, **entry}
    a["effort"] = {key: v for key, v in a["effort"].items() if v is not None}
    b = {"id": "b", "weight": 0.2, "effort": {"family": "simplelog", "alpha": 1.0}}
    return {"types": [a, b]}


class TestInputFilesPassedUnchanged:
    """File values reach the library's constructors as parsed, so the CLI refuses what the library refuses."""

    def run_file(self, capsys, tmp_path, obj):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(obj))
        if "types" in obj:
            argv = ["equilibrium", "--population", str(path), "--k", "2", "--epsilon", "0.25", "--C", "16",
                    "--depth", "4"]
        else:
            tree_file = tmp_path / "tree.json"
            run_cli(capsys, "tree", "build", "--n-tasks", "2", "--k", "2", "--out", str(tree_file))
            argv = ["simulate", "--structure", str(tree_file), "--strategies", str(path), "--episodes", "100"]
        return run_cli(capsys, *argv)

    @pytest.mark.parametrize(
        "obj",
        [
            {**BINARY, "workers": {"w0": True, "supervisor": 0.0}},
            {**BINARY, "workers": {"w0": "0.1", "supervisor": 0.0}},
            {**BINARY, "m": 2.7},
            {**BINARY, "C": "5"},
            {**GAUSSIAN, "workers": {"w0": [1.0, 0.5, 9.0], "supervisor": [0.8, -0.5]}},
            {**BINARY, "c": 1.0},
            _population(weight="0.8"),
            _population(effort={"alpha": "0.8"}),
            _population(effort={"alpha": True}),
            _population(effort={"family": "SimpleLog"}),
            _population(id=5),
            _population(effort={"beta": 2.0}),
            _population(bias=3),
            {**_population(), "extra": 1},
        ],
        ids=[
            "binary strategy a bool",
            "binary strategy a string",
            "m fractional",
            "C a string",
            "gaussian strategy of three numbers",
            "uniform-wrong with a c key",
            "weight a string",
            "alpha a string",
            "alpha a bool",
            "family capitalized",
            "id a number",
            "effort with an extra key",
            "type with a bias key",
            "population with an extra top-level key",
        ],
    )
    def test_refused(self, capsys, tmp_path, obj):
        code, out, err = self.run_file(capsys, tmp_path, obj)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "types", ["abc", ["abc"], {"id": "a", "weight": 1}], ids=["a string", "strings", "an object"]
    )
    def test_types_not_an_array_of_objects_is_refused_whole(self, capsys, tmp_path, types):
        """A string or an object is not split up into the letters or keys of its unknown keys."""
        code, out, err = self.run_file(capsys, tmp_path, {"types": types})
        assert (code, out) == (1, "")
        assert err == "error: population file needs types[].id/effort/weight: types must be an array of objects\n"

    def test_effort_without_alpha_takes_the_default(self, capsys, tmp_path):
        got = self.run_file(capsys, tmp_path, _population(effort={"alpha": None}))
        assert got[0] == 0 and got == self.run_file(capsys, tmp_path, _population(effort={"alpha": 1.0}))

    def test_strategy_for_an_absent_worker_is_ignored(self, capsys, tmp_path):
        junk = {**BINARY, "workers": {**BINARY["workers"], "nobody": "junk"}}
        code, out, err = self.run_file(capsys, tmp_path, junk)
        assert (code, err) == (0, "")
        assert out == self.run_file(capsys, tmp_path, BINARY)[1]


class TestSeedsAndReruns:
    def test_byte_identical_reruns(self, capsys):
        args = ("tree", "build", "--n-tasks", "13", "--k", "3", "--seed", "21")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("SUPERVISE_SEED", "21")
        _, out_env, _ = run_cli(capsys, "tree", "build", "--n-tasks", "13", "--k", "3")
        monkeypatch.delenv("SUPERVISE_SEED")
        _, out_flag, _ = run_cli(capsys, "tree", "build", "--n-tasks", "13", "--k", "3", "--seed", "21")
        _, out_default, _ = run_cli(capsys, "tree", "build", "--n-tasks", "13", "--k", "3")
        _, out_zero, _ = run_cli(capsys, "tree", "build", "--n-tasks", "13", "--k", "3", "--seed", "0")
        assert out_env == out_flag
        assert out_default == out_zero != out_flag  # without a seed or the variable, the run is at seed 0

    def test_negative_seed_is_exit_one(self, capsys, tmp_path):
        tree_file = tmp_path / "tree.json"
        run_cli(capsys, "tree", "build", "--n-tasks", "4", "--k", "2", "--out", str(tree_file))
        sf = tmp_path / "strat.json"
        sf.write_text(json.dumps({"model": "uniform-wrong", "workers": {"w0": 0.1, "w1": 0.1}}))
        code, _, err = run_cli(
            capsys, "simulate", "--structure", str(tree_file), "--strategies", str(sf), "--episodes", "10",
            "--seed", "-1",
        )
        assert code == 1 and err.startswith("error:") and "seed" in err

    def test_more_episodes_than_numpy_can_size_is_one_error_line(self, capsys, tmp_path):
        """2**60 float64 values overflow numpy's byte count; the count is refused before any array is made."""
        tree_file = tmp_path / "tree.json"
        run_cli(capsys, "tree", "build", "--n-tasks", "4", "--k", "2", "--out", str(tree_file))
        sf = tmp_path / "strat.json"
        sf.write_text(json.dumps({"model": "uniform-wrong", "workers": {"w0": 0.1, "w1": 0.1}}))
        code, out, err = run_cli(
            capsys, "simulate", "--structure", str(tree_file), "--strategies", str(sf), "--episodes", str(2**60),
        )
        assert (code, out) == (1, "") and err.count("\n") == 1
        assert err.startswith("error: episodes must be an integer in [2, 1152921504606846975], got 1152921504606846976")

    def test_more_episodes_than_memory_holds_is_one_error_line(self, capsys, tmp_path):
        """2**50 episodes pass the count check, but a Gaussian run's first float64 array, 8 PiB, cannot be allocated
        (a binary run takes its rows from counts and makes no episode array)."""
        tree_file = tmp_path / "tree.json"
        run_cli(capsys, "tree", "build", "--n-tasks", "4", "--k", "2", "--out", str(tree_file))
        sf = tmp_path / "strat.json"
        sf.write_text(json.dumps({"model": "gaussian", "workers": {"w0": [1.0, 0.0], "w1": [1.0, 0.0]}}))
        code, out, err = run_cli(
            capsys, "simulate", "--structure", str(tree_file), "--strategies", str(sf), "--episodes", str(2**50),
        )
        assert (code, out) == (1, "")
        assert err == "error: 1125899906842624 episodes need more memory than this process can allocate\n"

    def test_negative_seed_in_a_builder_is_exit_one(self, capsys):
        code, out, err = run_cli(capsys, "tree", "build", "--n-tasks", "7", "--k", "2", "--seed", "-1")
        assert (code, out) == (1, "") and err.startswith("error:") and "seed" in err

    def test_bad_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("SUPERVISE_SEED", "not-a-number")
        code, _, err = run_cli(capsys, "tree", "build", "--n-tasks", "3", "--k", "2")
        assert code == 1 and "SUPERVISE_SEED" in err


class TestUsageErrors:
    def test_unknown_flag_is_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["threshold", "binary", "--effort", "simplelog", "--epsilon", "0.25", "--k", "2", "--bogus", "1"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_unknown_subcommand_is_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_missing_file_is_exit_one(self, capsys):
        code, _, err = run_cli(capsys, "allocate", "--mode", "exact", "--graph", "/nonexistent.json")
        assert code == 1 and err.startswith("error:")


EQUILIBRIUM_ARGS = ["equilibrium", "--k", "2", "--epsilon", "0.2", "--C", "40", "--depth", "3"]
# Arguments the CLI refuses after parsing them, given the directory of the test's files, and the start of the one
# error line each prints.
REFUSALS = {
    "invalid JSON in an input file": (
        lambda d: ["allocate", "--mode", "exact", "--graph", str(d / "broken.json")], "error: invalid JSON in"
    ),
    "an input file that is not UTF-8": (
        lambda d: ["allocate", "--mode", "greedy", "--graph", str(d / "utf16.json")], "error: invalid JSON in"
    ),
    "an input integer past the digit limit": (
        lambda d: ["allocate", "--mode", "greedy", "--graph", str(d / "long-int.json")], "error: invalid JSON in"
    ),
    "an input file nested past the recursion limit": (
        lambda d: ["allocate", "--mode", "greedy", "--graph", str(d / "deep.json")], "error: invalid JSON in"
    ),
    "an --out that is a directory": (
        lambda d: ["tree", "build", "--n-tasks", "3", "--k", "2", "--out", str(d)], "error: cannot write"
    ),
    "equilibrium with --population and --effort": (
        lambda d: EQUILIBRIUM_ARGS + ["--population", str(d / "population.json"), "--effort", "simplelog"],
        "error: give either --population or --effort, not both",
    ),
    "equilibrium with neither --population nor --effort": (
        lambda d: EQUILIBRIUM_ARGS, "error: equilibrium needs --effort"
    ),
    "a population weight beyond the float range": (
        lambda d: EQUILIBRIUM_ARGS + ["--population", str(d / "huge-weight.json")], "error: population weight must be"
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_a_refused_run_prints_one_error_line(capsys, tmp_path, case):
    (tmp_path / "broken.json").write_text("{")
    (tmp_path / "utf16.json").write_bytes(b"\xff\xfe{}")
    (tmp_path / "long-int.json").write_text("1" * 5000)
    (tmp_path / "deep.json").write_text("[" * 100_000)
    for name, weight in (("population.json", 1.0), ("huge-weight.json", 10**400)):
        (tmp_path / name).write_text(json.dumps(
            {"types": [{"id": "a", "weight": weight, "effort": {"family": "simplelog", "alpha": 1.0}}]}
        ))
    argv, start = REFUSALS[case]
    code, out, err = run_cli(capsys, *argv(tmp_path))
    assert (code, out) == (1, "") and err.startswith(start) and err.count("\n") == 1


def _mode_choices(*command: str) -> list:
    parser = build_parser()
    for name in command:
        parser = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices[name]
    return next(a for a in parser._actions if a.dest == "mode").choices


def test_both_mode_lists_are_exactly_the_modes_the_cover_accepts(capsys, tmp_path):
    """The parser keeps its --mode choices as literals, so parsing loads no solver: each of them is one that
    ``_cover`` takes, and its refusal of any other mode names exactly them.  A paper-greedy hierarchy is built from
    the edge-deletion cover and passes validation when read back."""
    from supervise import (SAInstance, SuperviseError, SupervisionHierarchy, build_peg_assignment, sa_greedy,
                           sa_greedy_edge_deletion)
    from supervise.allocation import _cover

    modes = _mode_choices("allocate")
    assert _mode_choices("hierarchy", "build") == modes
    graph = build_peg_assignment(12, 10, 3, seed=1).graph
    for mode in modes:
        assert _cover(graph, mode, 3).size >= 1
    with pytest.raises(SuperviseError, match="unknown cover mode 'bogus'") as exc:
        _cover(graph, "bogus", 3)
    assert re.findall(r"'([^']*)'", str(exc.value).split("; use ", 1)[1]) == modes

    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph.to_json_dict()))
    code, out, err = run_cli(capsys, "hierarchy", "build", "--graph", str(path), "--k", "2", "--mode", "paper-greedy",
                             "--seed", "3")
    assert (code, err) == (0, "")
    h = SupervisionHierarchy.from_json_dict(json.loads(out))
    cover = sa_greedy_edge_deletion(SAInstance(graph, graph.k), 3)
    assert cover.cover_witness != sa_greedy(SAInstance(graph, graph.k), 3).cover_witness  # the modes differ here
    assert (h.graph, h.coverage, sorted(h.tree_tasks)) == (graph, cover.cover_witness, list(cover.tasks))


def test_allocate_prints_a_ratio_exactly_where_the_exact_solver_answers(capsys, tmp_path):
    """25 tasks are one past the exact solver's cap: the greedy cover prints no ratio, and exact mode refuses in words
    that fit the CLI as well as the library."""
    graph = tmp_path / "graph.json"
    for n, has_ratio in ((24, True), (25, False)):
        assert run_cli(capsys, "peg", "build", "--n-workers", str(n), "--n-tasks", str(n), "--k", "3", "--seed", "1",
                       "--out", str(graph))[0] == 0
        code, out, _ = run_cli(capsys, "allocate", "--mode", "greedy", "--graph", str(graph), "--seed", "3")
        assert code == 0 and ("ratio" in json.loads(out)) == has_ratio
        refusal = "" if has_ratio else f"error: exact solver caps at 24 tasks, got {n}; use a greedy cover instead\n"
        for argv in (["allocate"], ["hierarchy", "build", "--k", "2"]):
            code, _, err = run_cli(capsys, *argv, "--mode", "exact", "--graph", str(graph))
            assert (code, err) == (0 if has_ratio else 1, refusal)


# The analytic subcommands on valid arguments, with their float and integer flags.
ANALYTIC_RUNS = {
    "threshold binary": (
        ["threshold", "binary", "--effort", "simplelog", "--alpha", "1", "--epsilon", "0.2", "--k", "2"],
        ("alpha", "epsilon"), ("k",),
    ),
    "threshold quant": (
        ["threshold", "quant", "--effort", "inversepower", "--alpha", "1", "--k", "4", "--c", "1", "--epsilon", "2.5"],
        ("alpha", "c", "epsilon"), ("k",),
    ),
    "threshold flat": (
        ["threshold", "flat", "--effort", "simplelog", "--alpha", "1", "--epsilon", "0.1", "--k", "3", "--C", "100",
         "--n-workers", "50"],
        ("alpha", "epsilon", "C"), ("k", "n-workers"),
    ),
    "threshold flat quantitative": (
        ["threshold", "flat", "--effort", "inversepower", "--alpha", "1", "--epsilon", "2", "--k", "2", "--c", "1"],
        ("c",), (),
    ),
    "equilibrium simplelog": (
        ["equilibrium", "--effort", "simplelog", "--alpha", "1", "--epsilon", "0.2", "--k", "2", "--C", "40",
         "--depth", "3", "--m", "3"],
        ("alpha", "epsilon", "C", "e0", "D"), ("k", "depth", "m"),
    ),
    "equilibrium boundarylog": (
        ["equilibrium", "--effort", "boundarylog", "--alpha", "1", "--epsilon", "0.2", "--k", "2", "--C", "40",
         "--depth", "3", "--m", "3"],
        ("alpha", "epsilon", "C", "e0", "D"), ("k", "depth", "m"),
    ),
    "counterexample": (
        ["counterexample", "--k", "2", "--C", "10", "--epsilon", "0.2", "--max-depth", "8"],
        ("C", "epsilon"), ("k", "max-depth"),
    ),
    "defection": (["defection", "--N", "10", "--k", "2", "--C", "5"], ("C",), ("N", "k")),
}
BOUNDARY_FLOATS = ("0", "-1", "nan", "inf", "-inf", "1e-17", "1e-300", "5e-324", "1e308")
BOUNDARY_INTS = ("0", "-1")  # no size flag is made huge: the run would take as long as the size
SIZE_FLAGS = ("depth", "max-depth")
HUGE_INT = str(10**400)  # too large to convert to a float: every count that enters float arithmetic refuses it
FLAG_CASES = [
    (run, flag, value)
    for run, (_, floats, ints) in ANALYTIC_RUNS.items()
    for flags, values in ((floats, BOUNDARY_FLOATS), (ints, BOUNDARY_INTS))
    for flag in flags
    for value in values
] + [(run, flag, HUGE_INT) for run, (_, _, ints) in ANALYTIC_RUNS.items() for flag in ints if flag not in SIZE_FLAGS]


def _run_with_flag(capsys, argv, flag, value):
    """``argv`` with ``--flag`` set to ``value``: exit 0 with no ``inf`` or ``nan`` printed, 1 with one ``error:``
    line, or 2; never a traceback."""
    if f"--{flag}" in argv:
        at = argv.index(f"--{flag}")
        argv = argv[:at] + argv[at + 2:]
    try:
        code = main([*argv, f"--{flag}={value}"])
    except SystemExit as exc:  # argparse refusing the value
        code = exc.code
    out, err = capsys.readouterr()
    assert code in (0, 1, 2)
    if code == 1:
        assert len(err.splitlines()) == 1 and err.startswith("error:")
    if code == 0:
        assert not re.search(r"\b(inf|nan)\b", out), out
    return code, out


@pytest.mark.parametrize(
    "run,flag,value", FLAG_CASES, ids=[f"{r} --{f}={'1e400' if v == HUGE_INT else v}" for r, f, v in FLAG_CASES]
)
def test_boundary_flag_value_ends_in_an_exit_code(capsys, run, flag, value):
    code, out = _run_with_flag(capsys, ANALYTIC_RUNS[run][0], flag, value)
    if value == HUGE_INT:
        assert code == 1
    if code == 0 and run == "defection":
        costs = re.fullmatch(r"[a-z-]+ \((\S+) [<=>] (\S+)\)\n", out).groups()
        assert all(math.isfinite(float(cost)) for cost in costs), out
    if code == 0 and run == "counterexample":
        footer = dict(line[2:].split(" ", 1) for line in out.splitlines() if line.startswith("# "))
        assert footer["delta"] == "none" or math.isfinite(float(footer["delta"]))
        if footer["crossing_level"] != "none":
            assert int(footer["crossing_level"]) <= int(footer["guaranteed_depth"])


GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"
GRAPH_FILE, TREE_FILE, HIERARCHY_FILE = (str(GOLDEN_INPUTS / f"{n}.json") for n in ("graph", "tree", "hierarchy"))
# The structure subcommands on the golden inputs, with their integer flags.
STRUCTURE_RUNS = {
    "tree build": (["tree", "build", "--n-tasks", "10", "--k", "3", "--seed", "1"], ("n-tasks", "k", "seed")),
    "peg build": (
        ["peg", "build", "--n-workers", "8", "--n-tasks", "7", "--k", "3", "--redundancy", "2", "--seed", "2"],
        ("n-workers", "n-tasks", "k", "redundancy", "seed"),
    ),
    "hierarchy build": (["hierarchy", "build", "--graph", GRAPH_FILE, "--k", "2", "--seed", "5"], ("k", "seed")),
    "allocate exact": (["allocate", "--mode", "exact", "--graph", GRAPH_FILE], ("seed",)),
    "allocate greedy": (["allocate", "--mode", "greedy", "--graph", GRAPH_FILE, "--seed", "3"], ("seed",)),
    "allocate paper-greedy": (["allocate", "--mode", "paper-greedy", "--graph", GRAPH_FILE, "--seed", "3"], ("seed",)),
    "simulate tree": (
        ["simulate", "--structure", TREE_FILE, "--strategies", str(GOLDEN_INPUTS / "binary.json"),
         "--episodes", "200", "--seed", "11"],
        ("episodes", "seed"),
    ),
    "simulate hierarchy": (
        ["simulate", "--structure", HIERARCHY_FILE, "--strategies", str(GOLDEN_INPUTS / "gaussian.json"),
         "--episodes", "200", "--seed", "2"],
        ("episodes", "seed"),
    ),
}
STRUCTURE_FLAG_CASES = [
    (run, flag, value) for run, (_, ints) in STRUCTURE_RUNS.items() for flag in ints for value in BOUNDARY_INTS
]


@pytest.mark.parametrize(
    "run,flag,value", STRUCTURE_FLAG_CASES, ids=[f"{r} --{f}={v}" for r, f, v in STRUCTURE_FLAG_CASES]
)
def test_structure_flag_value_ends_in_an_exit_code(capsys, run, flag, value):
    code, _ = _run_with_flag(capsys, STRUCTURE_RUNS[run][0], flag, value)
    if flag == "seed" and value.startswith("-"):
        assert code == 1
