"""The equilibrium cascades and the divergence trace that stop at the first repeated error, and the writers that
write the rows past it from a cached tail, against their frozen level-by-level originals."""

import math
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import supervise._csv
import supervise.hierarchy
from supervise import (
    AssumptionError,
    EffortFunction,
    PopulationModel,
    SchemeParams,
    SuperviseError,
    QuantWorkerType,
    Root,
    WorkerType,
    counterexample_trace,
    equilibrium_heterogeneous,
    equilibrium_homogeneous,
    min_penalty_hierarchical,
    proficiency_sigma,
    profile_to_csv,
    quant_equilibrium,
)

import _oracles

BINARY_FAMILIES = ("simplelog", "boundarylog")


def _above_bound(f, k, eps, factor):
    """The scheme whose C is ``factor`` times the hierarchical bound."""
    return SchemeParams(k=k, epsilon=eps, C=min_penalty_hierarchical(f, SchemeParams(k=k, epsilon=eps)) * factor)


# a scheme at the bound whose profile alternates between two errors one ulp apart from level 150 on
PERIOD_2_F = EffortFunction.boundary_log(1.4221666759590161)
PERIOD_2 = _above_bound(PERIOD_2_F, 5, 0.42712130234109225, 1 + 1e-6)


def _rows(levels):
    return tuple((s.level, s.error.hex(), s.truthful, s.clamped) for s in levels)


def _bits(roots):
    """The stored roots' bits, read without unrolling the levels."""
    return tuple((r.value.hex(), r.clamped) for r in roots)


def _outcome(cascade, *args):
    """Every level's bits, or the class and message of the SuperviseError ``cascade(*args)`` raises."""
    try:
        result = cascade(*args)
    except SuperviseError as exc:
        return type(exc), str(exc)
    if hasattr(result, "levels"):
        return _rows(result.levels)
    return tuple(_rows(te.levels) for te in result.types), result.mean_sigma.hex()


def _first_repeat(errors):
    """The first level whose error equals an earlier level's, or None."""
    seen = set()
    for t, e in enumerate(errors):
        if e in seen:
            return t
        seen.add(e)
    return None


@st.composite
def schemes(draw, f):
    """k 1-6, epsilon in (0.01, 0.49), C from a fifth to three times the bound, and m 2-4 or an explicit D."""
    k = draw(st.integers(1, 6))
    eps = draw(st.floats(0.01, 0.49, exclude_min=True, exclude_max=True))
    C = min_penalty_hierarchical(f, SchemeParams(k=k, epsilon=eps)) * draw(st.floats(0.2, 3.0))
    if draw(st.booleans()):
        return SchemeParams(k=k, epsilon=eps, C=C, m=draw(st.integers(2, 4)))
    return SchemeParams(k=k, epsilon=eps, C=C, D=C * draw(st.floats(0.0, 1.0)))


@st.composite
def cascade_inputs(draw, families):
    """Depths 1-40 reach the first repeat or stop short of it; depths up to 3000 copy most levels."""
    f = EffortFunction(draw(st.sampled_from(families)), draw(st.floats(0.05, 20.0)))
    params = draw(schemes(f))
    e0 = params.epsilon * draw(st.floats(0.0, 1.0, exclude_max=True))
    return f, params, draw(st.one_of(st.integers(1, 40), st.integers(40, 3000))), e0


@settings(max_examples=300, derandomize=True)
@given(cascade_inputs(BINARY_FAMILIES + ("inversepower",)))
def test_homogeneous_cascade_matches_the_frozen_original(inputs):
    """Clamped, untruthful and truthful profiles, at depths below and far beyond the first repeat; an inverse
    power error above 1 fails as a superior error one level down."""
    assert _outcome(equilibrium_homogeneous, *inputs) == _outcome(_oracles.equilibrium_homogeneous, *inputs)


# Type ids, some of which the csv module must quote, and some holding ``%``, which a format over the rows would read.
TYPE_IDS = st.sampled_from(
    ("t0", "t1", "", "a,b", 'say "hi"', "two\nlines", " padded ", "cr\r", "100%", "%d", "%%s")
)


def _population(f, drawn, ids=None):
    """Types of ``f``'s family or the inverse power, each ``(family, scale, weight)``, with weights normalized."""
    total = sum(w for _, _, w in drawn)
    ids = ids or [f"t{j}" for j in range(len(drawn))]
    return PopulationModel(tuple(
        (WorkerType(EffortFunction(f.family if family == "same" else family, f.alpha * scale), tid), w / total)
        for tid, (family, scale, w) in zip(ids, drawn)
    ))


TYPE_DRAWS = st.lists(
    st.tuples(st.sampled_from(("same", "inversepower")), st.floats(0.1, 2.0), st.floats(0.05, 1.0)),
    min_size=1, max_size=3,
)


def _heterogeneous_outcomes_agree(*args):
    """The library's outcome is the frozen original's.  Where the original raised its "internal consistency
    failure" for a proficient type with an untruthful level, the library must report exactly that: the first such
    type is the one the original names.  Where the original stored a sigma above 1, the library refuses the first
    such sigma."""
    frozen = _outcome(_oracles.equilibrium_heterogeneous, *args)
    if isinstance(frozen[0], tuple):  # the original returned levels
        sigmas = [te.sigma for te in _oracles.equilibrium_heterogeneous(*args).types if te.sigma > 1.0]
        if sigmas:
            return _outcome(equilibrium_heterogeneous, *args) == (
                SuperviseError, f"sigma must lie in [0, 1], got {sigmas[0]!r}"
            )
    if frozen[0] is SuperviseError and frozen[1].startswith("internal consistency failure"):
        flagged = [te.worker.id for te in equilibrium_heterogeneous(*args).types
                   if te.proficient and not all(s.truthful for s in te.levels)]
        return bool(flagged) and frozen[1] == (
            f"internal consistency failure: proficient type {flagged[0]!r} produced an untruthful level"
        )
    return _outcome(equilibrium_heterogeneous, *args) == frozen


@settings(max_examples=300, derandomize=True)
@given(cascade_inputs(BINARY_FAMILIES), TYPE_DRAWS, st.booleans())
def test_heterogeneous_cascade_matches_the_frozen_original(inputs, drawn, at_bound):
    """1-3 types of the scheme's family or the inverse power, scaled, with C as drawn or at the first type's printed
    bound, where levels can land on epsilon; an improficient population is refused before the cascade."""
    f, params, depth, e0 = inputs
    if at_bound:
        params = SchemeParams(k=params.k, epsilon=params.epsilon, C=min_penalty_hierarchical(f, params), m=params.m)
    assert _heterogeneous_outcomes_agree(_population(f, drawn), params, depth, e0)


@settings(max_examples=200, derandomize=True)
@given(cascade_inputs(BINARY_FAMILIES), TYPE_DRAWS, st.sampled_from((2, 3, 5)))
def test_each_types_sigma_is_proficiency_sigma_bit_for_bit(inputs, drawn, m):
    """The population gate takes one step of the cascade's map, at epsilon with D = 0: each type stores
    proficiency_sigma's root, and the population is refused exactly where their weighted mean exceeds epsilon,
    also at m 3 and 5, where the cascade itself runs with D > 0.  A type whose root lies above 1 is refused, by
    proficiency_sigma and by the mixture that would store it."""
    f, params, depth, e0 = inputs
    params = SchemeParams(k=params.k, epsilon=params.epsilon, C=params.C, m=m)
    pop = _population(f, drawn)
    roots = [_oracles.proficiency_sigma(wt.effort, params) for wt, _ in pop.types]
    for (wt, _), r in zip(pop.types, roots):
        if r.value <= 1.0:
            assert proficiency_sigma(wt.effort, params) == r
        else:
            with pytest.raises(SuperviseError, match=re.escape(f"sigma must lie in [0, 1], got {r.value!r}")):
                proficiency_sigma(wt.effort, params)
    if math.fsum(w * r.value for (_, w), r in zip(pop.types, roots)) > params.epsilon:
        with pytest.raises(AssumptionError, match="weighted mean sigma"):
            equilibrium_heterogeneous(pop, params, depth, e0)
        return
    above = [r.value for r in roots if r.value > 1.0]
    if above:
        with pytest.raises(SuperviseError, match=re.escape(f"sigma must lie in [0, 1], got {above[0]!r}")):
            equilibrium_heterogeneous(pop, params, depth, e0)
        return
    types = equilibrium_heterogeneous(pop, params, depth, e0).types
    assert [(te.sigma.hex(), te.sigma_clamped) for te in types] == [(r.value.hex(), r.clamped) for r in roots]


def test_the_frozen_originals_refusal_at_the_printed_bound_is_the_librarys_untruthful_flag():
    """One type at the bound lands on epsilon from level 22: the frozen original raises, the library flags it."""
    f = EffortFunction.simple_log(1.662654510706954)
    params = SchemeParams(k=3, epsilon=0.07707797678400585, C=76.50726314200946)
    args = (PopulationModel(((WorkerType(f, "a"), 1.0),)), params, 2000)
    with pytest.raises(SuperviseError, match="internal consistency failure: proficient type 'a'"):
        _oracles.equilibrium_heterogeneous(*args)
    assert _heterogeneous_outcomes_agree(*args)


def test_types_of_one_curve_at_its_printed_bound_match_the_frozen_original():
    """200 seeded draws of 1-3 types that share one curve, with C at the curve's printed bound, so that the mean
    error is each type's own and can land on epsilon.  Every outcome is the frozen original's, and at least a tenth
    of the draws land a proficient type on epsilon, where the original refuses: 47 did when written, and 45 others
    were refused before the cascade, their sigma rounding above epsilon."""
    rng = random.Random("one curve at its printed bound")
    landed = 0
    for _ in range(200):
        f = EffortFunction(rng.choice(BINARY_FAMILIES), rng.uniform(0.05, 20.0))
        k, eps = rng.randint(1, 6), rng.uniform(0.01, 0.49)
        params = SchemeParams(k=k, epsilon=eps, C=min_penalty_hierarchical(f, SchemeParams(k=k, epsilon=eps)))
        weights = [rng.uniform(0.05, 1.0) for _ in range(rng.randint(1, 3))]
        pop = PopulationModel(tuple((WorkerType(f, f"t{j}"), w / sum(weights)) for j, w in enumerate(weights)))
        depth = rng.choice((rng.randint(1, 40), rng.randint(40, 3000)))
        args = (pop, params, depth, eps * rng.choice((0.0, rng.random())))
        assert _heterogeneous_outcomes_agree(*args)
        try:
            types = equilibrium_heterogeneous(*args).types
        except AssumptionError:  # sigma rounded above epsilon
            continue
        landed += any(s.error == eps for te in types if te.proficient for s in te.levels)
    assert landed >= 20


def _homogeneous_csvs(f, params, depth, e0=0.0):
    """The profile's CSV, and the frozen writer's over the frozen cascade's levels."""
    new = profile_to_csv(equilibrium_homogeneous(f, params, depth, e0))
    return new, _oracles.profile_to_csv(_oracles.equilibrium_homogeneous(f, params, depth, e0).levels)


def _heterogeneous_csvs(pop, params, depth, e0=0.0):
    """The equilibrium's CSV and mean errors, and the frozen writer's and the frozen cascade's."""
    new = equilibrium_heterogeneous(pop, params, depth, e0)
    old = _oracles.equilibrium_heterogeneous(pop, params, depth, e0)
    frozen_csv = _oracles.heterogeneous_to_csv((te.worker.id, te.levels) for te in old.types)
    return ("".join(new.csv_chunks()), [e.hex() for e in new.mean_errors]), (
        frozen_csv, [e.hex() for e in old.mean_errors]
    )


@settings(max_examples=200, derandomize=True)
@given(cascade_inputs(BINARY_FAMILIES))
def test_profile_csv_matches_the_frozen_writer(inputs):
    new, frozen = _homogeneous_csvs(*inputs)
    assert new == frozen


@settings(max_examples=200, derandomize=True)
@given(cascade_inputs(BINARY_FAMILIES), TYPE_DRAWS, st.lists(TYPE_IDS, min_size=3, max_size=3))
def test_heterogeneous_csv_and_mean_errors_match_the_frozen_writer(inputs, drawn, ids):
    f, params, depth, e0 = inputs
    pop = _population(f, drawn, ids)
    try:
        new, frozen = _heterogeneous_csvs(pop, params, depth, e0)
    except SuperviseError:  # an improficient population; the cascade gate compares the refusals
        return
    assert new == frozen


@settings(max_examples=100, derandomize=True)
@given(
    st.lists(st.tuples(TYPE_IDS, st.floats(0.1, 3.0)), min_size=1, max_size=3),
    st.integers(1, 4), st.floats(0.1, 10.0), st.floats(0.1, 3.0), st.integers(1, 3000),
)
def test_quant_csv_matches_the_frozen_writer(types, k, c, eps, depth):
    """Unbiased types, so the population is accepted; each profile is one variance from level 1 to depth."""
    pop = [(QuantWorkerType(EffortFunction.inverse_power(a), 0.0, tid), 1 / len(types)) for tid, a in types]
    eq = quant_equilibrium(pop, k, c, eps, depth)
    assert "".join(eq.csv_chunks()) == _oracles.quant_to_csv(eq)


def _named_cases():
    """The schemes and depths named in the cascade gates: a period of 2, a clamp at 1.0, and depths one below, at
    and one above the first repeat, where the one below repeats nothing within the depth.  Each comes with
    populations of types given as ``(alpha scale, weight)`` pairs: one type alone, whose mean errors keep the
    profile's period, and two types; the clamped type needs a cheap second one to be proficient on average."""
    populations = (((1.0, 1.0),), ((1.0, 0.6), (0.5, 0.4)))
    clamped = (EffortFunction.simple_log(1.0), SchemeParams(k=2, epsilon=0.2, C=0.5))
    cases = {
        "period 2": (PERIOD_2_F, PERIOD_2, 400, populations),
        "clamped at 1.0": (*clamped, 50, (((1.0, 0.1), (0.01, 0.9)),)),
    }
    for family in BINARY_FAMILIES:
        f = EffortFunction(family, 0.7)
        params = _above_bound(f, 3, 0.1, 1.5)
        repeat = _first_repeat([s.error for s in _oracles.equilibrium_homogeneous(f, params, 2000).levels])
        for name, depth in (("one below", repeat - 1), ("at", repeat), ("one above", repeat + 1)):
            cases[f"{family} {name} the first repeat"] = (f, params, depth, populations)
    return cases


NAMED_CASES = _named_cases()


@pytest.mark.parametrize("case", sorted(NAMED_CASES))
def test_named_profiles_write_the_frozen_bytes(case):
    f, params, depth, populations = NAMED_CASES[case]
    new, frozen = _homogeneous_csvs(f, params, depth)
    assert new == frozen
    for types in populations:
        pop = PopulationModel(tuple(
            (WorkerType(EffortFunction(f.family, f.alpha * scale), tid), w)
            for tid, (scale, w) in zip(('a,"b"', ""), types)
        ))
        new, frozen = _heterogeneous_csvs(pop, params, depth)
        assert new == frozen


def test_a_deep_heterogeneous_csv_crosses_chunk_boundaries_in_the_frozen_bytes():
    """Three types, each more than two chunks of 4096 rows past its prefix, so rows of a quoted id and of ids
    holding ``%`` are written on both sides of the chunk boundaries."""
    pop = PopulationModel(tuple(
        (WorkerType(EffortFunction(PERIOD_2_F.family, PERIOD_2_F.alpha * scale), tid), w)
        for tid, scale, w in (('a,"b"', 1.0, 0.5), ("100%", 0.5, 0.3), ("%d", 0.8, 0.2))
    ))
    new, frozen = _heterogeneous_csvs(pop, PERIOD_2, 3 * 4096)
    assert new[0].count("\n100%,") > 2 * 4096 and new[0].count("\n%d,") > 2 * 4096
    assert new == frozen


def _prefix_lengths(period):
    """Prefixes of period + 1 to 2 period + 1 rows, which end at every residue modulo a period up to 7 and at a few
    of a longer one, and prefixes whose last level is 97, 998 or 9997, so that the rows past them cross from 2 to 3,
    3 to 4 and 4 to 5 digits inside their first chunk."""
    lengths = range(period + 1, 2 * period + 2)
    if period > 7:
        lengths = (period + 1, period + 2, period + 37, 2 * period, 2 * period + 1)
    return sorted({*lengths, *(n for n in (98, 999, 9998) if n > period)})


@pytest.mark.parametrize("period", (*range(1, 6), 7, 100, 101))
def test_cyclic_rows_match_the_frozen_writer_at_every_phase(period):
    """Each profile runs two chunks of 4096 rows and 0, 1, period - 1 or period more past its prefix, so its rows
    cross two chunk boundaries and its last chunk ends at several phases; the periods 7, 100 and 101 do not divide
    a block of 100 levels, equal it and exceed it.  Four profiles are written in one call, under keys that the csv
    module must quote or that hold ``%``.  The chunks are the frozen writer's, one for one, and the lines those of
    the level-by-level writer."""
    keys = ((), ('a,"b"',), ("100%", "%d"), ("two\nlines", "%%s"))
    header = ["key", "level", "error", "truthful"]
    for n in _prefix_lengths(period):
        prefix = [(u, 1 / (u + 3), supervise._csv.bool_word(u % 3 == 0)) for u in range(n)]
        rows = [(u, *prefix[u if u < n else n - period + (u - n) % period][1:]) for u in range(n + 2 * 4096 + period)]
        # each key's lines to the deepest profile, without the header; a quoted newline splits a row in two lines
        lines = {key: _oracles.write_csv(header, (key + row for row in rows)).splitlines()[1:] for key in keys}
        per_row = {key: len(lines[key]) // len(rows) for key in keys}
        for extra in sorted({0, 1, period - 1, period}):
            depth = n - 1 + 2 * 4096 + extra
            profiles = [(key, prefix, period, depth) for key in keys]
            new = list(supervise._csv.cyclic_csv_chunks(header, profiles))
            assert new == list(_oracles.cyclic_csv_chunks(header, profiles)), (n, extra)
            frozen = [",".join(header)] + [line for key in keys for line in lines[key][: per_row[key] * (depth + 1)]]
            assert "".join(new).splitlines() == frozen, (n, extra)  # a list diff names the first line cheaply


def test_below_the_first_repeat_nothing_repeats():
    """The profile one level short of the first repeat stores every level and no period."""
    f, params, depth, _ = NAMED_CASES["simplelog one below the first repeat"]
    profile = equilibrium_homogeneous(f, params, depth)
    assert (profile.period, len(profile.prefix)) == (0, depth + 1)


def test_a_profile_a_billion_levels_deep_is_its_prefix():
    """Returned at once, with the period, depth and maximum error of the same scheme's profile 400 levels deep."""
    t0 = time.perf_counter()
    profile = equilibrium_homogeneous(PERIOD_2_F, PERIOD_2, 10**9)
    assert time.perf_counter() - t0 < 1.0
    frozen = _oracles.equilibrium_homogeneous(PERIOD_2_F, PERIOD_2, 400)
    assert (profile.period, profile.depth) == (2, 10**9)
    assert profile.max_error == frozen.max_error and profile.all_truthful == frozen.all_truthful
    assert _bits(profile.prefix) == _bits(Root(s.error, s.clamped) for s in frozen.levels[:len(profile.prefix)])


def test_period_two_profile_matches_the_frozen_original():
    profile = equilibrium_homogeneous(PERIOD_2_F, PERIOD_2, 400)
    errors = [s.error for s in profile.levels]
    assert errors[398] == errors[400] != errors[399]
    assert _rows(profile.levels) == _rows(_oracles.equilibrium_homogeneous(PERIOD_2_F, PERIOD_2, 400).levels)


def test_clamped_fixed_point_matches_the_frozen_original():
    """The target -0.25 lies above SimpleLog's supremum -1, so level 1 clamps to 1.0 and so does every level after."""
    f, params = EffortFunction.simple_log(1.0), SchemeParams(k=2, epsilon=0.2, C=0.5)
    profile = equilibrium_homogeneous(f, params, 50)
    assert _rows(profile.levels[1:]) == tuple((t, (1.0).hex(), False, True) for t in range(1, 51))
    assert _rows(profile.levels) == _rows(_oracles.equilibrium_homogeneous(f, params, 50).levels)


@pytest.mark.parametrize("family", ["simplelog", "boundarylog"])
def test_depth_at_the_first_repeat_matches_the_frozen_original(family):
    f = EffortFunction(family, 0.7)
    params = _above_bound(f, 3, 0.1, 1.5)
    repeat = _first_repeat([s.error for s in _oracles.equilibrium_homogeneous(f, params, 2000).levels])
    assert repeat is not None and repeat > 2
    for depth in (repeat - 1, repeat, repeat + 1):
        assert _rows(equilibrium_homogeneous(f, params, depth).levels) == _rows(
            _oracles.equilibrium_homogeneous(f, params, depth).levels
        )


def test_cascades_stop_solving_at_the_first_repeat(monkeypatch):
    """The solver runs once per level up to the first repeat, and once per type for sigma; deeper levels are copies."""
    pop = PopulationModel(((WorkerType(PERIOD_2_F, "a"), 0.5), (WorkerType(EffortFunction.boundary_log(0.5)), 0.5)))
    calls = []
    solve = supervise.hierarchy.solve_deriv_equals
    monkeypatch.setattr(supervise.hierarchy, "solve_deriv_equals", lambda f, t: calls.append(1) or solve(f, t))

    profile = equilibrium_homogeneous(PERIOD_2_F, PERIOD_2, 2000)
    assert len(calls) == _first_repeat([s.error for s in profile.levels]) < 200
    calls.clear()
    eq = equilibrium_heterogeneous(pop, PERIOD_2, 2000)
    assert len(calls) == 2 * (1 + _first_repeat(eq.mean_errors)) < 200


@settings(max_examples=300, derandomize=True)
@given(cascade_inputs(BINARY_FAMILIES + ("inversepower",)), st.booleans())
def test_a_one_type_population_is_the_homogeneous_profile(inputs, at_bound):
    """With C as drawn or at the printed bound itself, where levels can land on epsilon and are reported untruthful;
    a type improficient by itself is refused."""
    f, params, depth, e0 = inputs
    if at_bound:
        params = SchemeParams(k=params.k, epsilon=params.epsilon, C=min_penalty_hierarchical(f, params), m=params.m)
    try:
        (te,) = equilibrium_heterogeneous(PopulationModel(((WorkerType(f), 1.0),)), params, depth, e0).types
    except AssumptionError:
        return
    profile = equilibrium_homogeneous(f, params, depth, e0)
    assert (_bits(te.prefix), te.period, te.depth, te.threshold) == (
        _bits(profile.prefix), profile.period, profile.depth, profile.threshold
    )


def test_a_proficient_type_at_the_printed_bound_is_reported_not_refused():
    """At the bound ``supervise threshold binary`` prints, the levels settle on epsilon itself: flagged untruthful in
    the type's levels, exactly as in the homogeneous profile."""
    f = EffortFunction.simple_log(1.662654510706954)
    params = SchemeParams(k=3, epsilon=0.07707797678400585, C=76.50726314200946)
    assert min_penalty_hierarchical(f, params) == params.C
    (te,) = equilibrium_heterogeneous(PopulationModel(((WorkerType(f), 1.0),)), params, 2000).types
    assert te.proficient and te.levels[22] == (22, params.epsilon, False, False)
    assert _rows(te.levels) == _rows(equilibrium_homogeneous(f, params, 2000).levels)


@settings(max_examples=300, derandomize=True)
@given(cascade_inputs(BINARY_FAMILIES), TYPE_DRAWS, st.floats(1 + 1e-9, 3.0))
def test_types_above_their_own_bound_stay_truthful(inputs, drawn, factor):
    """C is ``factor`` times the first type's bound; every type whose own bound times 1 + 1e-9 is at most C is
    proficient and below epsilon at every level, in any population that is proficient on average."""
    f, params, depth, e0 = inputs
    C = min_penalty_hierarchical(f, params) * factor
    params = SchemeParams(k=params.k, epsilon=params.epsilon, C=C, m=params.m)
    try:
        eq = equilibrium_heterogeneous(_population(f, drawn), params, depth, e0)
    except AssumptionError:
        return
    above = [te for te in eq.types if min_penalty_hierarchical(te.worker.effort, params) * (1 + 1e-9) <= C]
    assert all(te.proficient and all(s.truthful for s in te.levels) for te in above)


def _trace_outcome(trace, to_csv, params, max_depth):
    """Every error's bits, the summaries and the CSV bytes, or the class and message of the SuperviseError."""
    try:
        t = trace(params, max_depth)
    except SuperviseError as exc:
        return type(exc), str(exc)
    summaries = (t.crossing_level, t.delta, t.guaranteed_depth, t.diverged_at)
    return [e.hex() for e in t.errors], [x.hex() if isinstance(x, float) else x for x in summaries], to_csv(t)


def _traces_agree(params, max_depth):
    new = _trace_outcome(counterexample_trace, lambda t: "".join(t.csv_chunks()), params, max_depth)
    return new == _trace_outcome(_oracles.counterexample_trace, _oracles.trace_to_csv, params, max_depth)


@st.composite
def trace_inputs(draw):
    """k 1-6, epsilon in (0.005, 0.245), C from half to three times the bound k / (eps (1 - 2 eps)), and max_depth
    1-40 or up to 3000: below the bound the trace crosses epsilon, above it the errors repeat."""
    k = draw(st.integers(1, 6))
    eps = draw(st.floats(0.005, 0.245, exclude_min=True, exclude_max=True))
    C = k / (eps * (1.0 - 2.0 * eps)) * draw(st.floats(0.5, 3.0))
    return SchemeParams(k=k, epsilon=eps, C=C), draw(st.one_of(st.integers(1, 40), st.integers(40, 3000)))


@settings(max_examples=300, derandomize=True)
@given(trace_inputs())
def test_trace_matches_the_frozen_original(inputs):
    assert _traces_agree(*inputs)


@pytest.mark.parametrize("k, eps, C, max_depth", [
    (2, 0.2, 3.0, 10),  # diverges at level 1, at 2/3
    (1, 0.1, 0.5, 10),  # diverges at level 1, at 2
    (1, 0.2, 2.0, 10),  # level 1's error is 1/2 exactly, which counts as a divergence
    (2, 0.2, 10.0, 50),  # level 1 lands on epsilon itself, which is no crossing; level 2 crosses
    (2, 0.2, 2 / (0.2 * 0.6), 5000),  # at the bound
    (2, 0.2, 40.0, 1),  # stops at max_depth before the first repeat
    (2, 0.2, 40.0, 19),  # max_depth at the first repeat
    (2, 0.2, 40.0, 20000),
    (2, 0.3, 10.0, 5),  # refused: epsilon out of range
    (2, 0.2, 5e-324, 5),  # refused: no finite per-level gain
])
def test_named_traces_match_the_frozen_original(k, eps, C, max_depth):
    assert _traces_agree(SchemeParams(k=k, epsilon=eps, C=C), max_depth)


def test_a_trace_a_billion_levels_deep_is_its_prefix():
    """Above the bound the errors repeat from level 19 on: the trace stores 20 levels and period 1, at once."""
    t0 = time.perf_counter()
    trace = counterexample_trace(SchemeParams(k=2, epsilon=0.2, C=40.0), 10**9)
    assert time.perf_counter() - t0 < 1.0
    assert (len(trace.prefix), trace.period, trace.depth, trace.crossing_level) == (20, 1, 10**9, None)
    frozen = _oracles.counterexample_trace(SchemeParams(k=2, epsilon=0.2, C=40.0), 100)
    assert tuple(r.value for r in trace.prefix) == frozen.errors[:20]
