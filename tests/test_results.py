"""Result types store only what defines them: level numbers, flags and summaries are derived, so none of them can
disagree with the numbers it summarizes."""

import dataclasses

import pytest

from supervise import (
    CounterexampleTrace,
    DefectionAnalysis,
    EffortFunction,
    EquilibriumProfile,
    FlatBound,
    HeterogeneousEquilibrium,
    QuantEquilibrium,
    QuantWorkerType,
    Root,
    TypeEquilibrium,
    TypeQuantProfile,
    WorkerType,
)

FIELDS = {
    EquilibriumProfile: ("prefix", "period", "depth", "threshold"),
    TypeEquilibrium: ("prefix", "period", "depth", "threshold", "worker", "weight", "sigma", "sigma_clamped"),
    HeterogeneousEquilibrium: ("types",),
    CounterexampleTrace: ("prefix", "period", "depth", "threshold", "k", "C", "delta", "guaranteed_depth"),
    TypeQuantProfile: ("worker", "weight", "vstar", "clamped", "threshold"),
    QuantEquilibrium: ("types", "depth"),
    FlatBound: ("bound",),
    DefectionAnalysis: ("N", "k", "C", "defect_cost", "deviate_cost"),
}


def test_each_result_stores_only_its_defining_fields():
    assert {cls: tuple(f.name for f in dataclasses.fields(cls)) for cls in FIELDS} == FIELDS
    assert sum(map(len, FIELDS.values())) == 34


def _type(sigma, weight=1.0):
    return TypeEquilibrium(prefix=(Root(0.0), Root(0.1)), period=1, depth=5, threshold=0.25,
                           worker=WorkerType(EffortFunction.simple_log()), weight=weight, sigma=sigma,
                           sigma_clamped=False)


def _trace(*errors):
    return CounterexampleTrace(prefix=tuple(Root(e) for e in errors), period=0, depth=len(errors) - 1,
                               threshold=0.2, k=2, C=3.0, delta=0.1, guaranteed_depth=2)


def test_a_profile_flags_an_error_above_its_threshold_untruthful():
    profile = EquilibriumProfile(prefix=(Root(0.0), Root(0.3)), period=0, depth=1, threshold=0.25)
    assert profile.levels == ((0, 0.0, True, False), (1, 0.3, False, False))
    assert not profile.all_truthful and profile.max_error == 0.3


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
        CounterexampleTrace(prefix=(Root(0.0), Root(0.1)), period=0, depth=1, threshold=0.2, k=2, C=3.0, delta=0.1,
                            guaranteed_depth=2, crossing_level=7)


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
    assert DefectionAnalysis(N=N, k=2, C=1.0, defect_cost=2 / N, deviate_cost=(N - 2) / N).verdict == verdict


def test_a_quant_types_truthful_flag_is_read_from_its_threshold():
    worker = QuantWorkerType(EffortFunction.inverse_power())
    below, above = (TypeQuantProfile(worker, 0.5, v, False, 1.0) for v in (0.5, 1.5))
    assert below.truthful and not above.truthful
    assert not QuantEquilibrium((below, above), 3).all_truthful
