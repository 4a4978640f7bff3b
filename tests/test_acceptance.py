"""Acceptance gate: one test per shipped guarantee, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines with elapsed times.  Each criterion asserts its own runtime
budget, so a regression in speed fails the gate just like one in values.
"""

import contextlib
import math
import random
import time
import warnings

import numpy as np
import pytest

from supervise import (
    AssumptionError,
    DefectionAnalysis,
    EffortFunction,
    Family,
    PopulationModel,
    SchemeParams,
    WorkerType,
    best_response_flat,
    best_response_flat_quant,
    best_response_quant,
    best_response_under_superior,
    build_peg_assignment,
    build_supervision_hierarchy,
    build_supervision_tree,
    counterexample_trace,
    equilibrium_heterogeneous,
    equilibrium_homogeneous,
    expected_loss_pair,
    min_penalty_hierarchical,
    sa_exact,
    sa_greedy,
    vc_to_sa,
    Gaussian,
    SimConfig,
    UniformWrong,
    effort_eval,
    simulate_binary,
    simulate_quant,
)
from supervise.cli import main

from _oracles import brute_force_vc, effort_vec


@contextlib.contextmanager
def criterion(n: int, label: str, budget_seconds: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - t0
        print(f"\nACCEPTANCE {n} ({label}): FAIL ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - t0
    within = elapsed < budget_seconds
    verdict = "PASS" if within else "FAIL"
    print(f"\nACCEPTANCE {n} ({label}): {verdict} ({elapsed:.2f}s, budget {budget_seconds:g}s)")
    assert within, f"criterion {n} exceeded its {budget_seconds:g}s budget: {elapsed:.2f}s"


def test_criterion_1_threshold_anchors(capsys):
    with criterion(1, "threshold anchors", 1.0):
        code = main(["threshold", "binary", "--effort", "simplelog", "--alpha", "1",
                     "--epsilon", "0.25", "--k", "2"])
        out1 = capsys.readouterr().out
        assert code == 0 and out1 == "16\n"
        code = main(["threshold", "quant", "--effort", "inversepower", "--alpha", "1",
                     "--k", "4", "--c", "1"])
        out2 = capsys.readouterr().out
        assert code == 0 and out2 == "2\n"
    with capsys.disabled():
        print(capsys.readouterr().out, end="")


def test_criterion_2_tight_penalty_never_reaches_threshold():
    with criterion(2, "equilibria stay strictly below the threshold", 30.0):
        rng = np.random.default_rng(20240817)
        for i in range(200):
            fam = Family.SIMPLE_LOG if i % 2 == 0 else Family.BOUNDARY_LOG
            f = EffortFunction(family=fam, alpha=float(rng.uniform(0.2, 5.0)))
            k = int(rng.integers(1, 6))
            eps = float(rng.uniform(0.02, 0.48))
            bound = min_penalty_hierarchical(f, SchemeParams(k=k, epsilon=eps, C=1.0))
            params = SchemeParams(k=k, epsilon=eps, C=bound * (1.0 + 1e-6))
            prof = equilibrium_homogeneous(f, params, depth=10_000)
            assert prof.max_error < eps, (fam, f.alpha, k, eps, prof.max_error)
            assert prof.all_truthful


def test_criterion_3_undersized_penalty_crosses_quickly():
    with criterion(3, "undersized penalties force a crossing", 10.0):
        anchor = counterexample_trace(SchemeParams(k=2, epsilon=0.2, C=10.0), max_depth=50)
        assert anchor.crossing_level == 2
        assert anchor.delta == pytest.approx(0.08, rel=1e-12)
        assert anchor.guaranteed_depth == 3

        rng = np.random.default_rng(31)
        for _ in range(100):
            k = int(rng.integers(1, 5))
            eps = float(rng.uniform(0.005, 0.245))
            bound = k / (eps * (1.0 - 2.0 * eps))
            trace = counterexample_trace(
                SchemeParams(k=k, epsilon=eps, C=bound * 0.99), max_depth=1_000_000
            )
            assert trace.crossing_level is not None
            assert trace.crossing_level <= trace.guaranteed_depth
            for prev, cur in zip(trace.errors, trace.errors[1:]):
                if prev <= eps:
                    assert cur - prev > trace.delta


def test_criterion_4_best_responses_match_grid_search():
    with criterion(4, "analytic best responses equal grid search", 120.0):
        n_grid = 100_001  # one step = 1e-5 of the searched span

        def check_bounded(r, loss_vec, lo, hi):
            xs = np.linspace(lo, hi, n_grid)
            got = float(xs[int(np.argmin(loss_vec(xs)))])
            step = (hi - lo) / (n_grid - 1)
            if r.clamped:
                assert got >= hi - step
            else:
                assert abs(r.value - got) <= step

        rng = np.random.default_rng(12345)
        for _ in range(500):  # flat scheme, binary answers
            f = EffortFunction.simple_log(float(rng.uniform(0.2, 5.0)))
            k = int(rng.integers(1, 6))
            C = float(rng.uniform(5.0, 60.0)) * f.alpha
            p = float(rng.uniform(0.05, 1.0))
            r = best_response_flat(f, p, SchemeParams(k=k, epsilon=0.25, C=C))
            check_bounded(r, lambda xs: k * effort_vec(f, xs) + xs * p * C, 1e-6, 1.0)

        for i in range(500):  # one shared task with a superior
            fam = Family.SIMPLE_LOG if i % 2 == 0 else Family.BOUNDARY_LOG
            f = EffortFunction(family=fam, alpha=float(rng.uniform(0.2, 5.0)))
            k = int(rng.integers(1, 6))
            eps = 0.25
            bound = min_penalty_hierarchical(f, SchemeParams(k=k, epsilon=eps, C=1.0))
            C = float(rng.uniform(1.0, 4.0)) * bound
            e_w = float(rng.uniform(0.0, 0.24))
            pr = SchemeParams(k=k, epsilon=eps, C=C)
            r = best_response_under_superior(f, e_w, pr)
            D = pr.effective_D()
            hi = f.domain_hi

            def pair_loss(xs, f=f, k=k, C=C, D=D, e_w=e_w):
                return k * effort_vec(f, xs) + xs * (1 - e_w) * C + (1 - xs) * e_w * C + xs * e_w * D

            check_bounded(r, pair_loss, hi * 1e-6, hi)

        for _ in range(500):  # quadratic penalties, hierarchical
            f = EffortFunction.inverse_power(float(rng.uniform(0.2, 5.0)))
            k = int(rng.integers(1, 6))
            c = float(rng.uniform(0.2, 5.0))
            r = best_response_quant(f, k=k, c=c)
            hi = 2.0 * r.value + 1.0  # unbounded domain: search a window holding the root
            check_bounded(r, lambda xs: k * effort_vec(f, xs) + c * xs, hi * 1e-7, hi)

        for _ in range(500):  # quadratic penalties, flat
            f = EffortFunction.inverse_power(float(rng.uniform(0.2, 5.0)))
            k = int(rng.integers(1, 6))
            c = float(rng.uniform(0.2, 5.0))
            p = float(rng.uniform(0.05, 1.0))
            r = best_response_flat_quant(f, p, SchemeParams(k=k, epsilon=1.0, c=c))
            hi = 2.0 * r.value + 1.0
            check_bounded(r, lambda xs: k * effort_vec(f, xs) + xs * p * c, hi * 1e-7, hi)


def test_criterion_5_monte_carlo_concordance():
    with criterion(5, "sampled penalties match the formulas", 120.0):
        # binary: two workers under an exact supervisor, the worked loss instance
        tree = build_supervision_tree(4, 2, seed=1)
        f = EffortFunction.simple_log(1.0)
        pr = SchemeParams(k=2, epsilon=0.25, C=16.0, D=0.0)
        strategies = {"w0": 0.125, "w1": 0.125, tree.supervisor: 0.0}
        rep = simulate_binary(SimConfig(400_000, 2, UniformWrong(m=2, C=16.0), tree, strategies))
        for row in rep.rows:
            emp_loss = pr.k * effort_eval(f, 0.125) + row.empirical
            want = expected_loss_pair(f, 0.125, 0.0, pr)
            assert abs(emp_loss - want) <= 3.0 * row.stderr
            assert abs(row.z) <= 3.0

        # same check with three answer alternatives and the default both-wrong penalty
        pr3 = SchemeParams(k=2, epsilon=0.25, C=9.0, m=3)
        tree3 = build_supervision_tree(4, 2, seed=3)
        strat3 = {"w0": 0.2, "w1": 0.3, tree3.supervisor: 0.1}
        rep3 = simulate_binary(SimConfig(400_000, 7, UniformWrong(m=3, C=9.0), tree3, strat3))
        for row in rep3.rows:
            e_u = strat3[row.worker]
            emp_loss = pr3.k * effort_eval(f, e_u) + row.empirical
            want = expected_loss_pair(f, e_u, 0.1, pr3)
            assert abs(emp_loss - want) <= 3.0 * row.stderr

        # quantitative: the worked 5.28 instance at a million episodes
        tq = build_supervision_tree(1, 2, seed=0)
        cfg = SimConfig(1_000_000, 5, Gaussian(c=2.0), tq, {"w0": (1.0, 0.5), tq.supervisor: (0.8, -0.5)})
        (row,) = simulate_quant(cfg).rows
        assert row.analytic == pytest.approx(5.28, rel=1e-15)
        assert abs(row.z) <= 3.0


def test_criterion_6_allocation_suite():
    with criterion(6, "covering allocations: exactness, ratio, pegs", 60.0):
        rng = random.Random(60)
        checked = 0
        while checked < 100:  # vertex cover reduction vs exhaustion
            n = rng.randint(2, 10)
            verts = [f"v{i}" for i in range(n)]
            edges = [
                (verts[i], verts[j])
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.3
            ]
            if not edges:
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                inst = vc_to_sa(verts, edges)
            assert sa_exact(inst).size == len(brute_force_vc(verts, edges))
            checked += 1

        from test_allocation import make_instance

        for _ in range(200):  # factor-k guarantee of the greedy
            k = rng.randint(1, 4)
            inst = make_instance(rng, rng.randint(2, 20), rng.randint(1, 25), k)
            opt = sa_exact(inst).size
            got = sa_greedy(inst, seed=rng.randint(0, 10**6)).size
            assert got <= k * opt

        peg = build_peg_assignment(6, 5, 3, seed=0)  # anchor: 6 workers at k=3 need 2 pegs
        assert len(peg.peg_tasks) == 2
        covered = set()
        for t in peg.peg_tasks:
            covered |= set(peg.graph.task_workers[t])
        assert covered == set(peg.graph.workers)
        for _ in range(20):
            u = rng.randint(1, 40)
            k = rng.randint(1, 6)
            n_pegs = math.ceil(u / k)
            if k == 1:
                n_tasks = n_pegs  # no fill tasks to hand out
            else:
                extra = rng.randint(0, min(5, (u - 1) * (k - 1)))
                n_tasks = n_pegs + (k - 1) + extra
            p = build_peg_assignment(u, n_tasks, k, seed=rng.randint(0, 10**6))
            assert len(p.peg_tasks) == n_pegs


def test_criterion_7_structure_invariants_and_extension():
    with criterion(7, "structures validate; hierarchies extend truthfully", 30.0):
        rng = random.Random(7)
        for _ in range(200):
            tree = build_supervision_tree(rng.randint(1, 80), rng.randint(2, 6), seed=rng.randint(0, 10**6))
            tree.validate()

        f = EffortFunction.simple_log(1.0)
        for _ in range(50):
            k_reg = rng.randint(2, 4)
            u = rng.randint(2, 25)
            n_pegs = math.ceil(u / k_reg)
            extra = rng.randint(0, min(4, (u - 1) * (k_reg - 1)))
            n_tasks = n_pegs + (k_reg - 1) + extra
            peg = build_peg_assignment(u, n_tasks, k_reg, seed=rng.randint(0, 10**6))
            k_tree = rng.randint(2, 4)
            h = build_supervision_hierarchy(peg.graph, k=k_tree, seed=rng.randint(0, 10**6))
            h.validate()
            assert h.equilibrium_depth == h.tree.equilibrium_depth + 1

            # graph workers are one more best-response level: truthfulness carries over
            k_load = max(k_tree, peg.graph.k)
            eps = 0.25
            bound = min_penalty_hierarchical(f, SchemeParams(k=k_load, epsilon=eps, C=1.0))
            params = SchemeParams(k=k_load, epsilon=eps, C=bound * (1.0 + 1e-6))
            tree_prof = equilibrium_homogeneous(f, params, depth=max(h.tree.equilibrium_depth, 1))
            ext_prof = equilibrium_homogeneous(f, params, depth=h.equilibrium_depth)
            assert tree_prof.all_truthful
            assert ext_prof.all_truthful
            assert ext_prof.max_error < eps


def test_criterion_8_defection_anchor(capsys):
    with criterion(8, "collusion break-even at twice the task load", 1.0):
        d = DefectionAnalysis(5, 2, 10.0)
        assert d.verdict == "defect" and (d.defect_cost, d.deviate_cost) == (4.0, 6.0)
        assert DefectionAnalysis(3, 2, 10.0).verdict == "truthful-compatible"
        assert DefectionAnalysis(4, 2, 10.0).verdict == "indifferent"
        code = main(["defection", "--N", "5", "--k", "2", "--C", "10"])
        out = capsys.readouterr().out
        assert code == 0 and out == "defect (4 < 6)\n"
    with capsys.disabled():
        print(capsys.readouterr().out, end="")


def test_criterion_9_heterogeneous_suite():
    with criterion(9, "mixed populations: mean gate and truthfulness", 10.0):
        SL = EffortFunction.simple_log
        pr = SchemeParams(k=2, epsilon=0.25, C=16.0)
        good = PopulationModel(((WorkerType(SL(0.8), "a"), 0.8), (WorkerType(SL(1.4), "b"), 0.2)))
        het = equilibrium_heterogeneous(good, pr, depth=30)
        assert het.mean_sigma == pytest.approx(0.23, rel=1e-12)
        for te in het.types:
            if te.proficient:
                assert all(s.truthful for s in te.levels)

        rng = np.random.default_rng(9)
        for _ in range(20):  # random proficient-on-average mixtures
            alphas = rng.uniform(0.3, 1.6, size=3)
            w = rng.dirichlet(np.ones(3))
            sigmas = alphas * pr.k / (16.0 * 0.5)
            if float(w @ sigmas) > 0.25:
                continue
            pop = PopulationModel(tuple(
                (WorkerType(SL(float(a)), f"t{i}"), float(wi)) for i, (a, wi) in enumerate(zip(alphas, w))
            ))
            h = equilibrium_heterogeneous(pop, pr, depth=30)
            for te in h.types:
                if te.proficient:
                    assert all(s.truthful for s in te.levels)
            assert max(h.mean_errors) <= h.mean_sigma + 1e-12

        bad = PopulationModel(((WorkerType(SL(0.8), "a"), 0.3), (WorkerType(SL(1.4), "b"), 0.7)))
        with pytest.raises(AssumptionError, match="assumption"):
            equilibrium_heterogeneous(bad, pr, depth=30)
