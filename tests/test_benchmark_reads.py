"""What the benchmark reads of the result types, checked at tier-1 speed.

``perfbench/workloads.py`` reads the analytic results' levels, flags and summaries.  This loads that file as it
is and runs each case of its tiny ``analytic`` setup through its own ``run_case``, ``check`` and ``canon``, so a
change to a result type that the benchmark would trip on fails here too.
"""

import importlib.util
import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _workloads():
    sys.path.insert(0, PERFBENCH)  # workloads.py imports its sibling tracing.py
    try:
        spec = importlib.util.spec_from_file_location("perfbench_workloads", os.path.join(PERFBENCH, "workloads.py"))
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses look their module up while the body runs
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(PERFBENCH)
    return module


def test_every_tiny_analytic_case_passes_the_benchmarks_check():
    analytic = _workloads().Analytic
    ctx = analytic.setup(1, "tiny")
    cases = [c for cases in ctx["sets"] for c in cases]
    assert len(cases) == 8
    for c in cases:
        r = analytic.run_case(ctx["mods"], c)
        assert analytic.check(c, r, {}), c
        assert analytic.canon(r)
