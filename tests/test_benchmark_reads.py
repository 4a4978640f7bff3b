"""What the benchmark reads of the result types and structures, checked at tier-1 speed.

``perfbench/workloads.py`` reads the analytic results' levels, flags and summaries, a sweep's argmin, a report's
rows, a cover's tasks and a hierarchy's tree tasks.  This loads that file as it is and runs its tiny setups
through its own code: each ``analytic`` case through ``run_case``, ``check`` and ``canon``, and one round each of
``build`` and ``montecarlo`` through ``run_round``, and one traced ``montecarlo`` round through its layer metrics,
so a change to a result type or a traced name that the benchmark would trip on fails here too.
"""

import importlib.util
import math
import os
import sys

import pytest

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


@pytest.mark.parametrize("name", ["Build", "MonteCarlo"])
def test_one_tiny_round_passes_the_benchmarks_checks(name):
    workloads = _workloads()
    workload = getattr(workloads, name)
    ctx = workload.setup(1, "tiny")
    runner = workloads.Runner(workloads.tracing.Tracer(), False, workload.reference)
    runner.hashing = True
    workload.run_round(runner, ctx, ctx["sets"][0])
    assert runner.ops and not runner.failed and not runner.errors, runner.errors


def test_one_tiny_traced_montecarlo_round_gives_finite_layer_metrics():
    """The layer metrics read the ``simulate.simulate_binary`` and ``simulate.simulate_quant`` spans."""
    workloads = _workloads()
    workload, tracing = workloads.MonteCarlo, workloads.tracing
    ctx = workload.setup(1, "tiny")
    tracer = tracing.Tracer()
    runner = workloads.Runner(tracer, False, workload.reference)
    tracer.install(workloads.package_modules(*tracing.LAYERS))
    try:
        workload.run_round(runner, ctx, ctx["sets"][0])
    finally:
        tracer.uninstall()
    assert runner.ops and not runner.failed and not runner.errors, runner.errors
    layers = workload.layers(runner, tracer, ctx)
    assert layers and all(math.isfinite(v) for v in layers.values()), layers
    # a span name the tracer no longer finds reads 0 ns, not an error
    assert all(v > 0 for name, v in layers.items() if "_ns_per_" in name), layers
