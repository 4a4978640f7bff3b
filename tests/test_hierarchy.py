"""Hierarchical supervision: penalty bound, equilibria, tightness, defection."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from supervise import (
    AssumptionError,
    DefectionAnalysis,
    EffortFunction,
    EpsilonRangeError,
    PopulationModel,
    SchemeParams,
    SuperviseError,
    UniformWrong,
    WorkerType,
    best_response_under_superior,
    build_supervision_tree,
    counterexample_trace,
    equilibrium_heterogeneous,
    equilibrium_homogeneous,
    expected_loss_pair,
    expected_penalty_pair,
    level_info_bits,
    min_penalty_hierarchical,
    proficiency_sigma,
    profile_to_csv,
)

from _oracles import effort_vec, grid_argmin

SL = EffortFunction.simple_log


def params(k=2, eps=0.25, C=16.0, **kw):
    return SchemeParams(k=k, epsilon=eps, C=C, **kw)


class TestPenaltyBound:
    def test_worked_values(self):
        assert min_penalty_hierarchical(SL(1.0), params()) == pytest.approx(16.0, rel=1e-15)
        assert min_penalty_hierarchical(SL(1.0), params(eps=0.2)) == pytest.approx(50.0 / 3.0, rel=1e-15)

    def test_epsilon_gate(self):
        # the half line is the coin-flip boundary: no penalty can help there
        for bad in (0.5, 0.7):
            with pytest.raises(EpsilonRangeError):
                min_penalty_hierarchical(SL(1.0), SchemeParams(k=2, epsilon=bad, C=1.0))
        for bad in (0.0, -0.1):
            with pytest.raises(EpsilonRangeError):
                SchemeParams(k=2, epsilon=bad, C=1.0)

    @given(
        st.floats(min_value=0.1, max_value=10.0),
        st.integers(min_value=1, max_value=8),
        st.floats(min_value=0.02, max_value=0.48),
    )
    def test_positive_and_monotone_in_k(self, alpha, k, eps):
        b1 = min_penalty_hierarchical(SL(alpha), SchemeParams(k=k, epsilon=eps, C=1.0))
        b2 = min_penalty_hierarchical(SL(alpha), SchemeParams(k=k + 1, epsilon=eps, C=1.0))
        assert 0.0 < b1 < b2


class TestPairLoss:
    def test_worked_value(self):
        loss = expected_loss_pair(SL(1.0), e_u=0.125, e_w=0.0, params=params(D=0.0))
        assert loss == pytest.approx(2.0 * math.log(8.0) + 2.0, rel=1e-15)

    def test_penalty_components(self):
        # either side alone wrong costs C; both wrong costs D
        assert expected_penalty_pair(1.0, 0.0, C=16.0, D=5.0) == 16.0
        assert expected_penalty_pair(0.0, 1.0, C=16.0, D=5.0) == 16.0
        assert expected_penalty_pair(1.0, 1.0, C=16.0, D=5.0) == 5.0
        assert expected_penalty_pair(0.0, 0.0, C=16.0, D=5.0) == 0.0

    def test_implied_d_stays_within_c(self):
        """C (m-2)/(m-1) rounds one ulp past C at this m and overflows at C = 1e308, m = 4; pinned to C, it passes
        the pair penalty's D <= C check in the pair loss and in the simulator's expectation."""
        C, m = 694.6600510747157, 1004657366796102059
        assert C * (m - 2) / (m - 1) > C
        assert SchemeParams(k=1, epsilon=0.2, C=C, m=m).effective_D() == C
        assert SchemeParams(k=1, epsilon=0.2, C=1e308, m=4).effective_D() == 1e308
        assert UniformWrong(m=m, C=C).expected(0.1, 0.2) == expected_penalty_pair(0.1, 0.2, C, C)
        want = math.log(10.0) + expected_penalty_pair(0.1, 0.2, C, C)
        assert expected_loss_pair(SL(1.0), 0.1, 0.2, SchemeParams(k=1, epsilon=0.2, C=C, m=m)) == want

    def test_best_response_worked_value(self):
        r = best_response_under_superior(SL(1.0), e_w=0.0, params=params(D=0.0))
        assert r.value == pytest.approx(0.125, rel=1e-15)

    def test_at_bound_response_stays_proficient(self):
        # superior nearly at threshold, penalty at the bound: response stays below sigma
        r = best_response_under_superior(SL(1.0), e_w=0.24, params=params())
        assert r.value == pytest.approx(1.0 / 4.16, rel=1e-12)
        assert r.value < 0.25

    def test_wrong_majority_superior_clamps(self):
        # a superior wrong most of the time pushes the target nonnegative
        r = best_response_under_superior(SL(1.0), e_w=0.9, params=params(D=0.0))
        assert r.value == 1.0 and r.clamped

    def test_best_response_matches_grid(self):
        rng = np.random.default_rng(7)
        for _ in range(150):
            alpha = float(rng.uniform(0.2, 5.0))
            k = int(rng.integers(1, 6))
            C = float(rng.uniform(20.0, 80.0)) * alpha
            e_w = float(rng.uniform(0.0, 0.3))
            f = SL(alpha)
            pr = SchemeParams(k=k, epsilon=0.25, C=C)
            r = best_response_under_superior(f, e_w, pr)
            D = pr.effective_D()

            def loss(xs):
                return k * effort_vec(f, xs) + xs * (1 - e_w) * C + (1 - xs) * e_w * C + xs * e_w * D

            got, step = grid_argmin(loss, 1e-6, 1.0, 10_001)
            assert abs(r.value - got) <= step


class TestEquilibrium:
    def test_converges_below_threshold(self):
        prof = equilibrium_homogeneous(SL(1.0), params(C=16.0 + 1e-6), depth=20)
        assert len(prof.levels) == 21
        assert prof.all_truthful
        assert prof.max_error < 0.25
        errs = [s.error for s in prof.levels]
        assert errs == sorted(errs)  # monotone approach from an exact supervisor

    def test_depth_one(self):
        prof = equilibrium_homogeneous(SL(1.0), params(D=0.0), depth=1)
        assert [s.level for s in prof.levels] == [0, 1]
        assert prof.levels[1].error == pytest.approx(0.125, rel=1e-15)

    def test_supervisor_error_raises_whole_profile(self):
        base = equilibrium_homogeneous(SL(1.0), params(), depth=5)
        bumped = equilibrium_homogeneous(SL(1.0), params(), depth=5, e0=0.1)
        for s0, s1 in zip(base.levels[1:], bumped.levels[1:]):
            assert s1.error > s0.error

    def test_e0_must_be_below_threshold(self):
        with pytest.raises(SuperviseError):
            equilibrium_homogeneous(SL(1.0), params(), depth=3, e0=0.25)

    def test_bad_depth(self):
        with pytest.raises(SuperviseError):
            equilibrium_homogeneous(SL(1.0), params(), depth=0)

    def test_tight_penalty_margin_survives_many_levels(self):
        bound = min_penalty_hierarchical(SL(1.0), params())
        prof = equilibrium_homogeneous(SL(1.0), params(C=bound + 1e-6), depth=10_000)
        assert prof.max_error < 0.25
        assert prof.all_truthful

    def test_undersized_penalty_crosses(self):
        bound = min_penalty_hierarchical(SL(1.0), SchemeParams(k=2, epsilon=0.2, C=1.0))
        trace = counterexample_trace(SchemeParams(k=2, epsilon=0.2, C=bound * 0.99), max_depth=10_000)
        assert trace.crossing_level is not None


class TestProficiency:
    def test_sigma_worked_values(self):
        assert proficiency_sigma(SL(1.0), params(C=20.0)).value == pytest.approx(0.2, rel=1e-15)
        assert proficiency_sigma(SL(1.0), params(C=16.0)).value == pytest.approx(0.25, rel=1e-15)

    def test_sigma_dominates_responses_under_truthful_superiors(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            alpha = float(rng.uniform(0.2, 3.0))
            eps = float(rng.uniform(0.05, 0.45))
            k = int(rng.integers(1, 5))
            C = float(rng.uniform(1.5, 4.0)) * min_penalty_hierarchical(SL(alpha), SchemeParams(k=k, epsilon=eps, C=1.0))
            pr = SchemeParams(k=k, epsilon=eps, C=C)
            sigma = proficiency_sigma(SL(alpha), pr).value
            e_w = float(rng.uniform(0.0, eps * 0.999))
            r = best_response_under_superior(SL(alpha), e_w, pr)
            assert r.value < sigma or (r.value == sigma and e_w == eps)

    def test_population_mean_gate(self):
        pop_ok = PopulationModel(((WorkerType(SL(0.8), "a"), 0.8), (WorkerType(SL(1.4), "b"), 0.2)))
        eq = equilibrium_heterogeneous(pop_ok, params(), depth=1)
        assert [te.sigma for te in eq.types] == pytest.approx([0.2, 0.35], rel=1e-12)
        assert eq.mean_sigma == pytest.approx(0.23, rel=1e-12)

        pop_bad = PopulationModel(((WorkerType(SL(0.8), "a"), 0.3), (WorkerType(SL(1.4), "b"), 0.7)))
        with pytest.raises(AssumptionError, match=r"weighted mean sigma 0\.30499999"):
            equilibrium_heterogeneous(pop_bad, params(), depth=1)


class TestHeterogeneous:
    def test_point_mass_equals_homogeneous(self):
        pop = PopulationModel(((WorkerType(SL(1.0)), 1.0),))
        het = equilibrium_heterogeneous(pop, params(), depth=12)
        hom = equilibrium_homogeneous(SL(1.0), params(), depth=12)
        assert [s.error for s in het.types[0].levels] == [s.error for s in hom.levels]

    def test_proficient_types_stay_truthful(self):
        pop = PopulationModel(((WorkerType(SL(0.8), "a"), 0.8), (WorkerType(SL(1.4), "b"), 0.2)))
        het = equilibrium_heterogeneous(pop, params(), depth=30)
        assert het.mean_sigma == pytest.approx(0.23, rel=1e-12)
        a, b = het.types
        assert a.proficient and not b.proficient
        assert all(s.truthful for s in a.levels)
        assert max(s.error for s in b.levels) <= b.sigma + 1e-12

    def test_mean_error_stays_below_mean_sigma(self):
        pop = PopulationModel(((WorkerType(SL(0.8), "a"), 0.8), (WorkerType(SL(1.4), "b"), 0.2)))
        het = equilibrium_heterogeneous(pop, params(), depth=30)
        assert max(het.mean_errors) <= het.mean_sigma + 1e-12

    def test_violating_mixture_rejected(self):
        pop = PopulationModel(((WorkerType(SL(0.8), "a"), 0.3), (WorkerType(SL(1.4), "b"), 0.7)))
        with pytest.raises(AssumptionError):
            equilibrium_heterogeneous(pop, params(), depth=5)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(SuperviseError):
            PopulationModel(((WorkerType(SL(1.0), "a"), 0.5), (WorkerType(SL(1.0), "b"), 0.6)))


class TestCounterexample:
    def test_anchor_instance(self):
        trace = counterexample_trace(SchemeParams(k=2, epsilon=0.2, C=10.0), max_depth=50)
        assert trace.errors[1] == pytest.approx(0.2, rel=1e-15)
        assert trace.errors[2] == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert trace.crossing_level == 2
        assert trace.delta == pytest.approx(0.08, rel=1e-12)
        assert trace.guaranteed_depth == 3
        assert trace.crossing_level is not None

    def test_steps_exceed_delta_while_below_threshold(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            eps = float(rng.uniform(0.02, 0.24))
            k = int(rng.integers(1, 5))
            bound = k / (eps * (1.0 - 2.0 * eps))
            pr = SchemeParams(k=k, epsilon=eps, C=bound * 0.99)
            trace = counterexample_trace(pr, max_depth=100_000)
            assert trace.crossing_level is not None
            assert trace.crossing_level <= trace.guaranteed_depth
            for prev, cur in zip(trace.errors, trace.errors[1:]):
                if prev <= eps:
                    assert cur - prev > trace.delta

    def test_at_bound_no_crossing(self):
        bound = 2.0 / (0.2 * 0.6)
        trace = counterexample_trace(SchemeParams(k=2, epsilon=0.2, C=bound), max_depth=5_000)
        assert trace.crossing_level is None
        assert trace.delta is None and trace.guaranteed_depth is None

    def test_divergence_flagged(self):
        trace = counterexample_trace(SchemeParams(k=2, epsilon=0.2, C=3.0), max_depth=10)
        assert trace.diverged_at == 1
        assert trace.crossing_level == 1  # 2/3 exceeds eps and the half line at once

    def test_gates(self):
        with pytest.raises(EpsilonRangeError):
            counterexample_trace(SchemeParams(k=2, epsilon=0.3, C=10.0), max_depth=5)
        with pytest.raises(SuperviseError):
            counterexample_trace(SchemeParams(k=2, epsilon=0.2, C=10.0, m=3), max_depth=5)
        with pytest.raises(SuperviseError):
            counterexample_trace(SchemeParams(k=2, epsilon=0.2, C=10.0), max_depth=0)


class TestDefection:
    def test_worked_trichotomy(self):
        d5 = DefectionAnalysis(5, 2, 10.0)
        assert (d5.verdict, d5.defect_cost, d5.deviate_cost) == ("defect", 4.0, 6.0)
        d4 = DefectionAnalysis(4, 2, 10.0)
        assert d4.verdict == "indifferent" and d4.defect_cost == d4.deviate_cost == 5.0
        d3 = DefectionAnalysis(3, 2, 10.0)
        assert d3.verdict == "truthful-compatible" and d3.defect_cost > d3.deviate_cost

    def test_costs_are_rounded_once(self):
        """k C overflows at C = 1e308, yet both costs are finite: 2e307 and 8e307, each rounded once."""
        d = DefectionAnalysis(10, 2, 1e308)
        assert (d.defect_cost, d.deviate_cost) == (2e307, 8e307)
        with pytest.raises(SuperviseError, match="exceeds the float range"):
            DefectionAnalysis(1, 10**20, 1e308)  # the cost itself, 1e328, is beyond a float

    @given(st.integers(min_value=1, max_value=500), st.integers(min_value=1, max_value=50), st.floats(min_value=0.1, max_value=100.0))
    def test_verdict_matches_costs(self, N, k, C):
        d = DefectionAnalysis(N, k, C)
        if d.verdict == "defect":
            assert N > 2 * k and d.defect_cost < d.deviate_cost
        elif d.verdict == "indifferent":
            assert N == 2 * k and d.defect_cost == pytest.approx(d.deviate_cost)
        else:
            assert N < 2 * k and d.defect_cost > d.deviate_cost


class TestLevelInfoBits:
    def test_worked_values(self):
        assert level_info_bits(10**6, 10) == 3
        assert level_info_bits(1, 10) == 0
        assert level_info_bits(10, 10) == 0
        assert level_info_bits(11, 10) == 0  # one level of two workers under the supervisor
        assert level_info_bits(4, 2) == 0
        assert level_info_bits(2**20, 2) == 5

    def test_exact_at_power_boundaries(self):
        # float log2 would stumble exactly here: 10**17 tasks make 16 worker levels at k = 10, one more makes 17
        assert level_info_bits(10**15, 10) == 4
        assert level_info_bits(10**16, 10) == 4
        assert level_info_bits(10**17, 10) == 4
        assert level_info_bits(10**17 + 1, 10) == 5

    def test_counts_the_worker_levels_of_the_built_trees(self):
        for k in range(2, 7):
            for N in range(1, 301):
                tree = build_supervision_tree(N, k, 0)
                assert level_info_bits(N, k) == (tree.equilibrium_depth - 1).bit_length(), (N, k)

    def test_gates(self):
        with pytest.raises(SuperviseError):
            level_info_bits(0, 2)
        with pytest.raises(SuperviseError):
            level_info_bits(5, 1)


class TestCsvExports:
    def test_profile_golden(self):
        prof = equilibrium_homogeneous(SL(1.0), params(D=0.0), depth=1)
        assert profile_to_csv(prof) == "level,error,truthful\n0,0.0,true\n1,0.125,true\n"

    def test_trace_golden(self):
        trace = counterexample_trace(SchemeParams(k=2, epsilon=0.2, C=10.0), max_depth=50)
        text = "".join(trace.csv_chunks())
        assert text.splitlines()[0] == "level,error,truthful"
        assert text.splitlines()[1] == "0,0.0,true"
        assert text.splitlines()[2] == "1,0.2,false"

    def test_heterogeneous_has_type_column(self):
        pop = PopulationModel(((WorkerType(SL(0.8), "a"), 0.8), (WorkerType(SL(1.4), "b"), 0.2)))
        het = equilibrium_heterogeneous(pop, params(), depth=2)
        lines = "".join(het.csv_chunks()).splitlines()
        assert lines[0] == "type,level,error,truthful"
        assert {ln.split(",")[0] for ln in lines[1:]} == {"a", "b"}
