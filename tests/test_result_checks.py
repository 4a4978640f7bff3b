"""The checks of the stored results, which run as passes in C, raise what the frozen walks over their roots raise:
the first fault's class and message, for hand-made prefixes that hold one fault each, or none."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from supervise import (
    CounterexampleTrace,
    EffortFunction,
    EquilibriumProfile,
    HeterogeneousEquilibrium,
    Root,
    SuperviseError,
    TypeEquilibrium,
    WorkerType,
)

import _oracles

THRESHOLD = 0.2  # in range for the profiles (below 1/2) and for the trace (below 1/4)
WORKER = WorkerType(EffortFunction.simple_log(1.0))

# A fault replaces the root at one position.  "int" and "subclass" are no faults: the C passes refuse them, and the
# walk accepts them.
ROOT_FAULTS = {
    "not a root": lambda e: e,
    "a root tuple": lambda e: (e, False),
    "bool": lambda e: Root(True),
    "str": lambda e: Root(str(e)),
    "nan": lambda e: Root(math.nan),
    "inf": lambda e: Root(math.inf),
    "above 1": lambda e: Root(1.0 + e),
    "below 0": lambda e: Root(-e - 0.01),
    "above the threshold": lambda e: Root(THRESHOLD + e),
    "int": lambda e: Root(0),
    "subclass": lambda e: type("SubRoot", (Root,), {})(e),
}
FAULTS = (None, *ROOT_FAULTS, "early repeat", "late repeat", "wrong period", "period out of range", "a list",
          "empty", "depth short", "threshold")
# faults of the scalar fields of a type, or of a mixture of valid types
TYPE_FAULTS = (None, "weight nan", "weight bool", "sigma str", "sigma above 1", "sigma below 0", "sigma_clamped int",
               "worker")
MIXTURE_FAULTS = (None, "a list", "not a type", "period", "depth", "level 0", "two types")


@st.composite
def faulted_fields(draw):
    """``(prefix, period, depth)`` of a prefix of 1-8 distinct errors below the threshold that stops at its first
    repeat, with one fault drawn from FAULTS at a drawn position."""
    n = draw(st.integers(1, 8))
    errors = draw(st.lists(st.floats(0.0, THRESHOLD, exclude_max=True), min_size=n, max_size=n, unique=True))
    period = draw(st.integers(0, n - 1)) if n > 1 else 0
    if period:
        errors[-1] = errors[n - 1 - period]
    depth = n - 1 + (draw(st.integers(0, 50)) if period else 0)
    roots = [Root(e) for e in errors]
    fault, pos = draw(st.sampled_from(FAULTS)), draw(st.integers(0, n - 1))
    if fault in ROOT_FAULTS:
        roots[pos] = ROOT_FAULTS[fault](errors[pos])
    elif fault == "early repeat" and n > 2:
        roots[1] = roots[0]
    elif fault == "late repeat" and pos:
        roots[-1] = Root(errors[pos - 1])
    elif fault == "wrong period":
        period = draw(st.integers(0, n - 1).filter(lambda p: p != period)) if n > 1 else period
    elif fault == "period out of range":
        period = draw(st.sampled_from((-1, n, True)))
    elif fault == "depth short":
        depth = n - 2
    elif fault == "empty":
        roots = []
    prefix = roots if fault == "a list" else tuple(roots)
    threshold = draw(st.sampled_from(("0.2", 0.5, math.nan))) if fault == "threshold" else THRESHOLD
    return prefix, period, depth, threshold


def _outcome(make, *args, **kwargs):
    """The class and message of the SuperviseError ``make`` raises, or None."""
    try:
        make(*args, **kwargs)
    except SuperviseError as exc:
        return type(exc), str(exc)
    return None


@settings(max_examples=400, derandomize=True)
@given(faulted_fields())
def test_a_profile_refuses_the_first_fault_of_the_walk(fields):
    assert _outcome(EquilibriumProfile, *fields) == _outcome(_oracles.check_profile, *fields)


@settings(max_examples=400, derandomize=True)
@given(faulted_fields(), st.sampled_from((2, 1, 6, 0)),
       st.one_of(st.floats(1.0, 100.0), st.sampled_from((0.0, -1.0, 5e-324))))
def test_a_trace_refuses_the_first_fault_of_the_walk(fields, k, C):
    """k and C drawn with some out of range, and C tiny enough for no finite gain."""
    assert _outcome(CounterexampleTrace, *fields, k, C) == _outcome(_oracles.check_trace, *fields, k, C)


def _type_fields(fault, weight=1.0):
    fields = {"worker": WORKER, "weight": weight, "sigma": 0.1, "sigma_clamped": False}
    if fault:
        key, value = {
            "weight nan": ("weight", math.nan), "weight bool": ("weight", True), "sigma str": ("sigma", "x"),
            "sigma above 1": ("sigma", 1.5), "sigma below 0": ("sigma", -0.5),
            "sigma_clamped int": ("sigma_clamped", 0), "worker": ("worker", EffortFunction.simple_log()),
        }[fault]
        fields[key] = value
    return fields


@settings(max_examples=600, derandomize=True)
@given(faulted_fields(), st.sampled_from(TYPE_FAULTS), st.sampled_from(MIXTURE_FAULTS))
def test_a_type_and_its_mixture_refuse_the_first_fault_of_the_walk(fields, type_fault, mixture_fault):
    """A type checks its roots but not their repeat, which the mixture that holds it checks on its mean errors: a
    type of weight 1 alone, or two of weight 1/2 with the same roots, have the type's errors as their mean errors."""
    prefix, period, depth, threshold = fields
    scalars = _type_fields(type_fault, 0.5 if mixture_fault == "two types" else 1.0)
    new = _outcome(TypeEquilibrium, prefix, period, depth, threshold, **scalars)
    assert new == _outcome(_oracles.check_type, prefix, period, depth, threshold, **scalars)
    if new is not None:
        return
    fields = dict(prefix=prefix, period=period, depth=depth, threshold=threshold, **scalars)
    row = TypeEquilibrium(**fields)
    types = (row,)
    other = {
        "period": dict(period=period + 1, depth=depth + 1),
        "depth": dict(depth=depth + 1 + (period == 0)),
        "level 0": dict(prefix=(Root(0.125), *prefix[1:])),
        "two types": {},
    }.get(mixture_fault)
    if other is not None and _outcome(TypeEquilibrium, **{**fields, **other}) is None:
        types = (row, TypeEquilibrium(**{**fields, **other}))
    if mixture_fault == "a list":
        types = list(types)
    elif mixture_fault == "not a type":
        types = (row, prefix)
    assert _outcome(HeterogeneousEquilibrium, types) == _outcome(_oracles.check_heterogeneous, types)


def test_the_faults_are_refused():
    """Each fault that the walk refuses is refused by the C passes too, by name."""
    roots = (Root(0.0), Root(0.1))
    for name, bad, message in (
        ("nan", Root(math.nan), "level error must be a real that is not NaN, got nan"),
        ("above 1", Root(1.5), "level error must lie in [0, 1], got 1.5"),
        ("below 0", Root(-0.5), "level error must lie in [0, 1], got -0.5"),
        ("inf", Root(math.inf), "level error must lie in [0, 1], got inf"),
        ("bool", Root(True), "level error must be a real that is not NaN, got True"),
    ):
        for make in (EquilibriumProfile, lambda *f: TypeEquilibrium(*f, **_type_fields(None))):
            assert _outcome(make, (*roots, bad), 0, 2, THRESHOLD) == (SuperviseError, message), name
    # a trace's divergent error may lie above 1, also at infinity
    assert _outcome(CounterexampleTrace, (*roots, Root(math.inf)), 0, 2, THRESHOLD, 2, 10.0) is None
    assert _outcome(EquilibriumProfile, (Root(0), Root(0.1)), 0, 1, THRESHOLD) is None
