"""Result types store only what defines them: level numbers, flags, summaries, the trace's gain, the defection costs
and a sweep's argmin are derived, so none of them can disagree with the numbers it summarizes.  Each result checks
its fields, and every result the library returns rebuilds from its own fields."""

import dataclasses
import math
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from supervise import (
    AssumptionError,
    CounterexampleTrace,
    DefectionAnalysis,
    EffortFunction,
    EquilibriumProfile,
    FlatBound,
    HeterogeneousEquilibrium,
    PopulationModel,
    QuantEquilibrium,
    QuantWorkerType,
    Root,
    SchemeParams,
    SimReport,
    SweepResult,
    TypeEquilibrium,
    TypeQuantProfile,
    WorkerType,
    counterexample_trace,
    equilibrium_heterogeneous,
    equilibrium_homogeneous,
    min_penalty_hierarchical,
    min_verification_probability_binary,
    quant_equilibrium,
    sweep_quant,
)

FIELDS = {
    EquilibriumProfile: ("prefix", "period", "depth", "threshold"),
    TypeEquilibrium: ("prefix", "period", "depth", "threshold", "worker", "weight", "sigma", "sigma_clamped"),
    HeterogeneousEquilibrium: ("types",),
    CounterexampleTrace: ("prefix", "period", "depth", "threshold", "k", "C"),
    TypeQuantProfile: ("worker", "weight", "vstar", "clamped", "threshold"),
    QuantEquilibrium: ("types", "depth"),
    FlatBound: ("bound",),
    DefectionAnalysis: ("N", "k", "C"),
    SweepResult: ("values", "mean_losses"),
    SimReport: ("rows", "episodes", "seed"),
}


def test_each_result_stores_only_its_defining_fields():
    assert {cls: tuple(f.name for f in dataclasses.fields(cls)) for cls in FIELDS} == FIELDS
    assert sum(map(len, FIELDS.values())) == 35


def _type(sigma, weight=1.0):
    """A type whose levels hold 0.0, then 0.1 from level 1 on: the mean error repeats from level 2 when the
    weights of the types that hold these levels sum to 1."""
    return TypeEquilibrium(prefix=(Root(0.0), Root(0.1), Root(0.1)), period=1, depth=5, threshold=0.25,
                           worker=WorkerType(EffortFunction.simple_log()), weight=weight, sigma=sigma,
                           sigma_clamped=False)


def _trace(*errors, k=2, C=3.0):
    return CounterexampleTrace(prefix=tuple(Root(e) for e in errors), period=0, depth=len(errors) - 1,
                               threshold=0.2, k=k, C=C)


def test_a_profile_flags_an_error_above_its_threshold_untruthful():
    profile = EquilibriumProfile(prefix=(Root(0.0), Root(0.3)), period=0, depth=1, threshold=0.25)
    assert profile.levels == ((0, 0.0, True, False), (1, 0.3, False, False))
    assert not profile.all_truthful and profile.max_error == 0.3


def test_a_profile_with_a_level_exactly_at_its_threshold_is_not_all_truthful():
    """Truthful means below the threshold, and a C at the printed bound can put a level exactly there."""
    profile = EquilibriumProfile(prefix=(Root(0.0), Root(0.25)), period=0, depth=1, threshold=0.25)
    assert not profile.all_truthful and profile.levels[1] == (1, 0.25, False, False)


def test_a_profiles_levels_are_numbered_by_position_and_keep_the_clamp():
    profile = EquilibriumProfile(prefix=(Root(0.0), Root(1.0, True), Root(1.0, True)), period=1, depth=4,
                                 threshold=0.25)
    assert profile.levels == ((0, 0.0, True, False), *((u, 1.0, False, True) for u in range(1, 5)))


def test_a_traces_crossing_and_divergence_are_read_from_its_last_root():
    assert (_trace(0.0, 0.1).crossing_level, _trace(0.0, 0.1).diverged_at) == (None, None)
    assert (_trace(0.0, 0.1, 0.3).crossing_level, _trace(0.0, 0.1, 0.3).diverged_at) == (2, None)
    assert (_trace(0.0, 0.6).crossing_level, _trace(0.0, 0.6).diverged_at) == (1, 1)
    assert _trace(0.0, 0.2).crossing_level is None  # landing on epsilon is no crossing
    with pytest.raises(TypeError):
        CounterexampleTrace(prefix=(Root(0.0), Root(0.1)), period=0, depth=1, threshold=0.2, k=2, C=3.0,
                            crossing_level=7)


def test_a_traces_gain_and_guaranteed_depth_are_read_from_k_C_and_epsilon():
    a = 0.2 * (1.0 - 2.0 * 0.2)
    assert _trace(0.0, 0.1, k=2, C=3.0).delta == a * (2 / a - 3.0) / 3.0
    assert _trace(0.0, 0.1, k=2, C=3.0).guaranteed_depth == 1
    assert _trace(0.0, 0.1, k=2, C=16.0).guaranteed_depth == math.ceil(0.2 / (a * (2 / a - 16.0) / 16.0))
    assert (_trace(0.0, 0.1, C=2 / a).delta, _trace(0.0, 0.1, C=2 / a).guaranteed_depth) == (None, None)
    with pytest.raises(TypeError):  # a gain that disagrees with k, C and epsilon cannot be stored
        CounterexampleTrace(prefix=(Root(0.0), Root(0.1)), period=0, depth=1, threshold=0.2, k=2, C=10.0,
                            delta=5.0, guaranteed_depth=999)


def test_proficiency_and_the_mean_sigma_are_read_from_the_types():
    assert not _type(0.4).proficient and _type(0.25).proficient
    assert HeterogeneousEquilibrium((_type(0.4),)).mean_sigma == 0.4
    assert HeterogeneousEquilibrium((_type(0.4, 0.5), _type(0.1, 0.5))).mean_sigma == 0.25


def test_flat_feasibility_is_read_from_the_bound():
    assert not FlatBound(3.0).feasible and FlatBound(1.0).feasible
    with pytest.raises(TypeError):
        FlatBound(3.0, feasible=True)


@pytest.mark.parametrize("N, verdict", [(10, "defect"), (4, "indifferent"), (3, "truthful-compatible")])
def test_the_defection_verdict_is_read_from_N_and_k(N, verdict):
    d = DefectionAnalysis(N=N, k=2, C=1.0)
    assert (d.verdict, d.defect_cost, d.deviate_cost) == (verdict, 2 / N, (N - 2) / N)
    with pytest.raises(TypeError):  # costs that disagree with N, k and C cannot be stored
        DefectionAnalysis(N=10, k=2, C=1.0, defect_cost=99.0, deviate_cost=0.0)


def test_a_sweeps_argmin_is_the_first_least_mean_loss():
    result = SweepResult(values=(1.0, 2.0, 3.0, 4.0), mean_losses=(5.0, 1.0, 3.0, 1.0))
    assert (result.best_index, result.best_value) == (1, 2.0)
    assert SweepResult((1.0, 2.0), (math.inf, math.inf)).best_index == 0
    with pytest.raises(TypeError):  # an argmin that is not a grid point cannot be stored
        SweepResult(values=(1.0, 2.0), mean_losses=(5.0, 1.0), best_index=0, best_value=7.0)


def test_a_quant_types_truthful_flag_is_read_from_its_threshold():
    worker = QuantWorkerType(EffortFunction.inverse_power())
    below, above = (TypeQuantProfile(worker, 0.5, v, False, 1.0) for v in (0.5, 1.5))
    assert below.truthful and not above.truthful
    assert not QuantEquilibrium((below, above), 3).all_truthful


def _rebuilt(result):
    """``result`` built anew from its own fields, and its parts from theirs."""
    if isinstance(result, HeterogeneousEquilibrium):
        return HeterogeneousEquilibrium(tuple(map(_rebuilt, result.types)))
    return dataclasses.replace(result)


def test_the_librarys_extreme_values_rebuild_from_their_fields():
    """A bound that underflows to 0.0, an inf mean loss, and a sigma clamped at 1.0."""
    bound = min_verification_probability_binary(EffortFunction.simple_log(1e-300),
                                                SchemeParams(k=1, epsilon=1.0, C=1e300))
    assert bound.bound == 0.0 and _rebuilt(bound) == bound
    sweep = sweep_quant(EffortFunction.inverse_power(2.0), 1, 1.0, [5e-324, 1.0], 10, 0)
    assert sweep.mean_losses[0] == math.inf and _rebuilt(sweep) == sweep
    params = SchemeParams(k=2, epsilon=0.25, C=10.0)
    pop = PopulationModel(((WorkerType(EffortFunction.simple_log(3.0), "clamped"), 0.05),
                           (WorkerType(EffortFunction.simple_log(0.1), "able"), 0.95)))
    eq = equilibrium_heterogeneous(pop, params, 50)
    assert (eq.types[0].sigma, eq.types[0].sigma_clamped) == (1.0, True) and _rebuilt(eq) == eq


@st.composite
def _schemes(draw):
    """A scheme for one of the binary families, with C at, just above or well above the bound, and m 2, 3 or 5."""
    f = EffortFunction(draw(st.sampled_from(("simplelog", "boundarylog"))), draw(st.floats(0.05, 20.0)))
    k, eps = draw(st.integers(1, 6)), draw(st.floats(0.01, 0.49, exclude_min=True, exclude_max=True))
    C = min_penalty_hierarchical(f, SchemeParams(k=k, epsilon=eps)) * draw(st.sampled_from((1.0, 1 + 1e-6, 1.5, 3.0)))
    return f, SchemeParams(k=k, epsilon=eps, C=C, m=draw(st.sampled_from((2, 3, 5))))


# a scheme at the bound whose profile alternates between two errors one ulp apart from level 150 on
PERIOD_2_F = EffortFunction.boundary_log(1.4221666759590161)
PERIOD_2 = SchemeParams(k=5, epsilon=0.42712130234109225, C=min_penalty_hierarchical(
    PERIOD_2_F, SchemeParams(k=5, epsilon=0.42712130234109225)) * (1 + 1e-6))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_schemes(), st.floats(0.0, 1.0, exclude_max=True),
       st.lists(st.tuples(st.floats(0.1, 2.0), st.floats(0.05, 1.0)), min_size=1, max_size=3),
       st.integers(1, 3000))
@example((PERIOD_2_F, PERIOD_2), 0.0, [(1.0, 1.0)], 2000)
def test_every_returned_profile_and_mixture_rebuilds_from_its_fields(scheme, e0_share, drawn, depth):
    """Homogeneous profiles, and mixtures of 1-3 scaled types of one family, with e0 anywhere in [0, eps); the
    draws reach periods 0, 1 and 2 for both, the period-2 profile above among them."""
    f, params = scheme
    e0 = params.epsilon * e0_share
    profile = equilibrium_homogeneous(f, params, depth, e0)
    assert _rebuilt(profile) == profile
    total = sum(w for _, w in drawn)
    pop = PopulationModel(tuple((WorkerType(EffortFunction(f.family, f.alpha * a), f"t{j}"), w / total)
                                for j, (a, w) in enumerate(drawn)))
    try:
        eq = equilibrium_heterogeneous(pop, params, depth, e0)
    except AssumptionError:  # an improficient population
        return
    assert _rebuilt(eq) == eq


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.integers(1, 6), st.floats(0.001, 0.249), st.floats(0.2, 3.0), st.integers(1, 10**6))
def test_every_returned_trace_rebuilds_from_its_fields(k, eps, factor, max_depth):
    """C from a fifth to three times the bound k / (eps (1 - 2 eps)): traces that cross, repeat or stop at depth."""
    trace = counterexample_trace(SchemeParams(k=k, epsilon=eps, C=factor * k / (eps * (1.0 - 2.0 * eps))), max_depth)
    assert _rebuilt(trace) == trace


# a scheme whose profiles repeat within 40 levels, so that a deep result stores few roots
DEEP = SchemeParams(k=3, epsilon=0.12, C=40.0)
DEEP_RESULTS = {
    "profile of a million levels": lambda: equilibrium_homogeneous(EffortFunction.simple_log(1.3), DEEP, 10**6),
    "two types of 250k levels": lambda: equilibrium_heterogeneous(PopulationModel(
        tuple((WorkerType(EffortFunction.simple_log(a), tid), 0.5) for tid, a in (("a", 1.3), ("b", 1.0)))
    ), DEEP, 250_000),
    # at C equal to the bound the errors climb towards epsilon and never repeat: every level is a stored root
    "profile of 300k levels that never repeats": lambda: equilibrium_homogeneous(
        EffortFunction.simple_log(1.0), SchemeParams(k=2, epsilon=0.25, C=16.0), 300_000
    ),
    # each block of 100 levels starts at a new phase of a long cycle, so each needs a table of its own
    "profile of a million levels whose period is 4099": lambda: EquilibriumProfile(
        prefix=tuple(Root(u / 2**20) for u in (*range(4099), 0)), period=4099, depth=10**6, threshold=0.25
    ),
    "two quant types of 250k levels": lambda: quant_equilibrium(
        [(QuantWorkerType(EffortFunction.inverse_power(a), id=tid), 0.5) for tid, a in (("sharp", 1.0), ("noisy", 9.0))],
        1, 1.0, 2.0, 250_000,
    ),
}


@pytest.mark.parametrize("case", sorted(DEEP_RESULTS))
def test_csv_chunks_streams_in_bounded_memory(case):
    """Draining ``csv_chunks()`` holds one chunk of rows at a time: a ``"".join`` inside the method would peak at
    the text's size, over twice the 4 MB bound here.  The stored roots' rows, and the rows past them, are drawn at
    4096 a chunk."""
    result = DEEP_RESULTS[case]()
    tracemalloc.start()
    try:
        size = sum(map(len, result.csv_chunks()))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20 < size / 2, (peak, size)
