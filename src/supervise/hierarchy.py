"""Hierarchical supervision with binary-verifiable answers.

A worker is judged by its superior on one shared task.  If exactly one of the
two is wrong they disagree and the worker pays C; if both are wrong they
disagree only when their wrong answers differ, costing D <= C.  The expected
loss of a worker with error e_u under a superior with error e_w is

    L(e_u, e_w) = k f(e_u) + e_u (1 - e_w) C + (1 - e_u) e_w C + e_u e_w D

which is strictly convex in e_u, so the best response solves

    f'(e_u) = ((2 e_w - 1) C - e_w D) / k.

Choosing C at least ``f'(eps) k / (2 eps - 1)`` makes every best response to a
superior with error below eps land strictly below eps as well, so truthful
play propagates down the hierarchy from an accurate supervisor — at any
depth.  This module computes that penalty bound, the per-pair losses and best
responses, equilibrium profiles for homogeneous and mixed populations, the
divergence trace showing the bound is needed, the collusion (defection)
analysis, and the bits of level information a worker needs.  The profiles and
the trace share one loop over e_t = g(e_{t-1}), whose step keeps its own roots:
each result stores the solver's roots up to the first repeated error and its
period, and derives every flag.  A result checks its roots in a few passes in
C, and walks them one at a time only to name the first fault.  Each also
writes its rows as CSV, in chunks, through its ``csv_chunks()`` method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
from operator import attrgetter, itemgetter, mul
from typing import Callable, Iterator, NamedTuple, Sequence

from . import _EXPORTS
from ._csv import bool_word, cyclic_csv_chunks
from .effort import EffortFunction, Root, SchemeParams, effort_deriv, effort_eval, solve_deriv_equals
from .errors import FLOAT_MAX, AssumptionError, EpsilonRangeError, SuperviseError
from .errors import require_instance, require_int, require_number, require_prob, require_real, require_weight
from .errors import require_weights

__all__ = _EXPORTS["hierarchy"]

# the getters and type sets of the checks' passes in C
_VALUE, _PREFIX, _SHAPE = attrgetter("value"), attrgetter("prefix"), attrgetter("period", "depth", "threshold")
_FIRST, _ROOT, _FLOAT = itemgetter(0), frozenset((Root,)), frozenset((float,))


@dataclass(frozen=True)
class WorkerType:
    """A worker class: an effort curve plus an identifying label."""

    effort: EffortFunction
    id: str = "worker"

    def __post_init__(self) -> None:
        require_instance(self.effort, EffortFunction, "worker type effort")
        require_instance(self.id, str, "worker type id")


@dataclass(frozen=True)
class PopulationModel:
    """A finite mixture of worker types with sampling weights."""

    types: tuple[tuple[WorkerType, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "types", require_weights(self.types, WorkerType))


class LevelState(NamedTuple):
    level: int
    error: float
    truthful: bool
    clamped: bool = False


def _require_hierarchical_threshold(eps: float) -> float:
    if not (0.0 < eps < 0.5):
        raise EpsilonRangeError(f"epsilon range: hierarchical scheme needs epsilon in (0, 1/2), got {eps!r}")
    return eps


def _require_hierarchical_epsilon(params: SchemeParams) -> float:
    return _require_hierarchical_threshold(require_instance(params, SchemeParams, "params").epsilon)


def _require_trace_threshold(eps: float) -> float:
    if not (0.0 < eps < 0.25):
        raise EpsilonRangeError(f"epsilon range: divergence trace needs epsilon in (0, 1/4), got {eps!r}")
    return eps


def _require_first_repeat(errors: Sequence[float], period: int) -> None:
    """Refuse errors of levels 0..n-1 unless they stop at the first error that repeats an earlier level's, and
    ``period``, in [0, n - 1], is the distance between the two (0 if no error repeats).  This is where ``_cascade``
    stops.  One set of levels 0..n-2 decides; the walk below only names the first fault."""
    n, last = len(errors), errors[-1]
    earlier = set(errors[:-1])
    if len(earlier) == n - 1 and (errors[n - 1 - period] == last if period else last not in earlier):
        return
    first_level = {}
    for i, e in enumerate(errors[:-1]):
        if first_level.setdefault(e, i) != i:
            raise SuperviseError(f"prefix must stop at its first repeated error, at level {i}")
    if first_level.get(last, n - 1) != n - 1 - period:
        raise SuperviseError(
            f"period {period} does not match the prefix, whose last level {n - 1} repeats level "
            f"{first_level.get(last, 'none')}"
        )


def _errors_hold(errors: list, unit: bool) -> bool:
    """Whether ``errors`` are floats, none NaN, and with ``unit`` all in [0, 1]: one pass in C for each rule."""
    return (_FLOAT.issuperset(map(type, errors)) and not any(map(math.isnan, errors))
            and (not unit or 0.0 <= min(errors) and max(errors) <= 1.0))


def _unrolled(prefix: tuple, period: int, depth: int) -> Iterator:
    """Items n..depth of the sequence that starts with ``prefix`` (n items) and then repeats with ``period``."""
    n = len(prefix)
    return (prefix[n - period + (u - n) % period] for u in range(n, depth + 1))


@dataclass(frozen=True)
class _CyclicLevels:
    """Levels 0..depth stored as the solver's roots that define them.

    Stored: ``prefix``, the roots of levels 0..n-1 (level 0 is ``Root(e0)``), whose errors are probabilities in
    [0, 1] unless ``_unit_errors`` is false; ``period``; ``depth``; ``threshold``, which lies in the scheme's epsilon
    range.  Every level u from n to depth repeats the level ``period`` above it, so ``period`` is 0 only when the
    prefix already ends at ``depth``.  Derived, and built anew on each access: ``levels``, all depth + 1 rows,
    numbered by position and truthful when the error is below the threshold.
    """

    prefix: tuple[Root, ...]
    period: int
    depth: int
    threshold: float

    _require_threshold = staticmethod(_require_hierarchical_threshold)
    _unit_errors = True

    def __post_init__(self) -> None:
        # Root itself checks nothing, as the solver builds one per call: a few passes in C check every root's type
        # and error, and only a prefix that fails them is walked, to raise the first fault
        prefix = self.prefix
        if not (type(prefix) is tuple and prefix and _ROOT.issuperset(map(type, prefix))
                and _errors_hold(self._errors(), self._unit_errors)):
            self._walk_roots()
        n = len(prefix)
        require_int(self.period, "period", 0, hi=n - 1)
        require_int(self.depth, "depth", n - 1)
        if self.period == 0 and self.depth != n - 1:
            raise SuperviseError(f"period 0 needs depth {n - 1}, the prefix's last level, got depth {self.depth}")
        self._require_threshold(require_real(self.threshold, "threshold"))

    def _walk_roots(self) -> None:
        """Raise the first fault among the roots: the prefix's type, then each root's error in level order."""
        if not (self.prefix and isinstance(self.prefix, tuple) and all(isinstance(r, Root) for r in self.prefix)):
            raise SuperviseError(f"prefix must be a nonempty tuple of Root values, got {self.prefix!r}")
        for r in self.prefix:
            require_number(r.value, "level error")
            if self._unit_errors:
                require_prob(r.value, "level error")

    def _errors(self) -> list:
        """The prefix's errors, in a list: the interpreter keeps freed tuples of under 20 items for reuse, and the
        checks' tuples raised the peak memory of a run of many results."""
        return list(map(_VALUE, self.prefix))

    @property
    def levels(self) -> tuple[LevelState, ...]:
        eps, rows = self.threshold, enumerate(chain(self.prefix, _unrolled(self.prefix, self.period, self.depth)))
        return tuple(LevelState(u, r.value, r.value < eps, r.clamped) for u, r in rows)

    def _csv_profile(self, key: tuple = ()) -> tuple:
        """These levels as ``cyclic_csv_chunks`` takes them, ``(key, prefix rows, period, depth)``; the rows are
        made as they are written."""
        eps = self.threshold
        return key, ((u, r.value, bool_word(r.value < eps)) for u, r in enumerate(self.prefix)), self.period, self.depth

    def csv_chunks(self) -> Iterator[str]:
        """The ``level,error,truthful`` rows in chunks; see ``cyclic_csv_chunks``."""
        return cyclic_csv_chunks(["level", "error", "truthful"], (self._csv_profile(),))


@dataclass(frozen=True)
class EquilibriumProfile(_CyclicLevels):
    """Per-level equilibrium errors; level 0 is the supervisor.

    Stored: the roots of the levels up to the first one whose error repeats an earlier level's (all levels to
    ``depth`` if none does), the ``period`` between the two (0 if none), the ``depth`` and the ``threshold``.
    Derived: ``levels`` and the summaries, which read only the prefix.  As the prefix must stop at the first
    repeat, profiles with equal levels compare equal.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        _require_first_repeat(self._errors(), self.period)

    @property
    def all_truthful(self) -> bool:
        return all(r.value < self.threshold for r in self.prefix)

    @property
    def max_error(self) -> float:
        return max(r.value for r in self.prefix)


@dataclass(frozen=True)
class TypeEquilibrium(_CyclicLevels):
    """One type's levels in a mixed population.

    Stored: the type's roots up to the first level whose population-mean error repeats an earlier level's, the
    period of that repeat, the depth, the threshold, the type and its population weight, and the type's ``sigma``,
    an error probability in [0, 1], and whether the solver clamped it.  The :class:`HeterogeneousEquilibrium` that
    holds the type checks the repeat.  Derived: ``levels`` and ``proficient``.
    """

    worker: WorkerType
    weight: float
    sigma: float
    sigma_clamped: bool

    def __post_init__(self) -> None:
        super().__post_init__()
        sigma = self.sigma
        require_instance(self.worker, WorkerType, "worker")
        require_weight(self.weight)
        require_number(sigma, "sigma")
        require_prob(sigma, "sigma")
        require_instance(self.sigma_clamped, bool, "sigma_clamped")

    @property
    def proficient(self) -> bool:
        return self.sigma <= self.threshold


@dataclass(frozen=True)
class HeterogeneousEquilibrium:
    """Per-type equilibrium profiles; the population summaries are derived from them.

    The types share one level-0 root and one prefix length, period, depth and threshold, and their prefixes stop
    at the first repeated population-mean error, level 0's being the supervisor's error itself, as in the cascade."""

    types: tuple[TypeEquilibrium, ...]

    def __post_init__(self) -> None:
        types = self.types
        if not (isinstance(types, tuple) and all(map(isinstance, types, repeat(TypeEquilibrium)))):
            raise SuperviseError(f"types must be TypeEquilibrium rows in a tuple, got {types!r}")
        prefixes = tuple(map(_PREFIX, types))
        if len(set(zip(map(len, prefixes), map(_SHAPE, types), map(_FIRST, prefixes)))) != 1:
            raise SuperviseError("an equilibrium needs at least one type, and its types one prefix length, period, "
                                 "depth and threshold, and one level-0 root")
        first = types[0]
        _require_first_repeat((first.prefix[0].value, *self._prefix_means()[1:]), first.period)

    def _prefix_means(self) -> tuple[float, ...]:
        """The weighted mean error of each prefix level, summed as the cascade sums it."""
        return tuple(map(math.fsum, zip(*(map(mul, repeat(t.weight), t._errors()) for t in self.types))))

    @property
    def mean_sigma(self) -> float:
        return math.fsum(t.weight * t.sigma for t in self.types)

    @property
    def mean_errors(self) -> tuple[float, ...]:
        """Population-mean error at each level (level 0 = supervisor)."""
        first, means = self.types[0], self._prefix_means()
        return means + tuple(_unrolled(means, first.period, first.depth))

    def csv_chunks(self) -> Iterator[str]:
        """The ``type,level,error,truthful`` rows, one type after another, in chunks; see ``cyclic_csv_chunks``."""
        return cyclic_csv_chunks(["type", "level", "error", "truthful"],
                                 (t._csv_profile((t.worker.id,)) for t in self.types))


def min_penalty_hierarchical(f: EffortFunction, params: SchemeParams) -> float:
    """Smallest disagreement penalty that keeps best responses below epsilon.

    Equals ``f'(eps) k / (2 eps - 1)``; both factors are negative, so the
    bound is positive and grows as eps shrinks or the task load k grows.
    """
    require_instance(f, EffortFunction, "f")
    eps = _require_hierarchical_epsilon(params)
    bound = effort_deriv(f, eps) * params.k / (2.0 * eps - 1.0)
    if not math.isfinite(bound):
        raise SuperviseError(f"the penalty bound f'(eps) k / (2 eps - 1) is not a finite float at k={params.k}, "
                             f"epsilon={eps!r}")
    return bound


def expected_penalty_pair(e_u: float, e_w: float, C: float, D: float) -> float:
    """Expected disagreement penalty between error levels e_u and e_w; needs C > 0 and D in [0, C]."""
    require_prob(e_u, "worker error")
    require_prob(e_w, "superior error")
    C = require_real(C, "C", 0.0, lo_open=True)
    require_real(D, "D", 0.0, C)
    return e_u * (1.0 - e_w) * C + (1.0 - e_u) * e_w * C + e_u * e_w * D


def expected_loss_pair(f: EffortFunction, e_u: float, e_w: float, params: SchemeParams) -> float:
    """Expected loss of a worker at e_u judged by a superior at e_w."""
    require_instance(f, EffortFunction, "f")
    require_instance(params, SchemeParams, "params")
    require_prob(e_w, "superior error")
    return params.k * effort_eval(f, e_u) + expected_penalty_pair(e_u, e_w, params.require_C(), params.effective_D())


def best_response_under_superior(f: EffortFunction, e_w: float, params: SchemeParams) -> Root:
    """Loss-minimizing error against a superior playing error e_w.

    Solves ``f'(e) = ((2 e_w - 1) C - e_w D) / k``.  A target at or above the
    supremum of f' (-alpha for SimpleLog, 0 for BoundaryLog and the inverse
    power) admits no interior stationary point; the result is then the
    maximal-error corner, flagged as clamped unless f' attains the target there.
    An error above 1, which the inverse power can give, is refused.
    """
    require_prob(e_w, "superior error")
    require_instance(params, SchemeParams, "params")
    root = solve_deriv_equals(f, _response_target(e_w, params.require_C(), params.effective_D(), params.k))
    require_prob(root.value, "best response error")
    return root


def _response_target(e_w: float, C: float, D: float, k: int) -> float:
    """f' at the best response to a superior at e_w, whatever the worker's f."""
    return ((2.0 * e_w - 1.0) * C - e_w * D) / k


def _validate_e0(e0: float, eps: float) -> float:
    e0 = require_prob(e0, "supervisor error")
    if e0 >= eps:
        raise SuperviseError(f"supervisor error must lie below epsilon={eps!r}, got {e0!r}")
    return e0


def _cascade(step: Callable, e0: float, depth: int, stop: Callable | None = None) -> tuple[int, int]:
    """Iterate e_t = step(e_{t-1}) from e0 over levels 1..depth, up to the first repeat, and return ``(levels,
    period)``: how many levels the step solved, and the period.  The step keeps its own records of each level.

    Each level depends only on the error above it, so once an error repeats an earlier level's (e0's included),
    the levels in between repeat to ``depth``: the loop stops there and returns the period between the two.  It
    stops with period 0 at the first error for which ``stop`` holds, and at ``depth``.
    """
    seen = {e0: 0}  # error -> its level
    e = e0
    for t in range(1, depth + 1):
        e = step(e)
        period = t - seen.setdefault(e, t)
        if period or (stop is not None and stop(e)):
            return t, period
    return depth, 0


def _mixture_step(efforts: list, weights: list, C: float, D: float, k: int, columns: list[list]) -> Callable:
    """The cascade's map for a mixture of types, each an effort curve with a weight: from a superior's error (a
    float) to the weighted mean of the types' best responses.  It appends each type's root to that type's column."""
    solve, types = solve_deriv_equals, tuple(zip(efforts, weights, [column.append for column in columns]))

    def step(e_prev: float) -> float:
        if not 0.0 <= e_prev <= 1.0:
            require_prob(e_prev, "superior error")
        target = _response_target(e_prev, C, D, k)  # the same for every type
        terms = []
        for f, w, append in types:
            root = solve(f, target)
            append(root)
            terms.append(w * root.value)
        return math.fsum(terms)

    return step


def _mixture_levels(efforts: list, weights: list, params: SchemeParams, depth: int, e0: float) -> tuple[list, int]:
    """Each type's roots, ``Root(e0)`` first, up to the first repeated mean error, and the period, when at every
    level each type best-responds to the weighted mean error of the level above."""
    head = Root(e0)
    columns = [[head] for _ in efforts]
    _, period = _cascade(_mixture_step(efforts, weights, params.require_C(), params.effective_D(), params.k, columns),
                         e0, depth)
    return list(map(tuple, columns)), period


def equilibrium_homogeneous(
    f: EffortFunction, params: SchemeParams, depth: int, e0: float = 0.0
) -> EquilibriumProfile:
    """Top-down equilibrium of a uniform population.

    Level t best-responds to level t-1, starting from the supervisor's error
    e0 at level 0.  A single pass is exact because a worker's loss depends on
    the levels below it only through its own effort term.  This is the
    one-type case of ``equilibrium_heterogeneous``'s cascade, whose mean
    error is the type's own error.
    """
    require_instance(f, EffortFunction, "f")
    eps = _require_hierarchical_epsilon(params)
    e0 = _validate_e0(e0, eps)
    require_int(depth, "depth", 1)
    (prefix,), period = _mixture_levels([f], [1.0], params, depth, e0)
    return EquilibriumProfile(prefix=prefix, period=period, depth=depth, threshold=eps)


def proficiency_sigma(f: EffortFunction, params: SchemeParams) -> Root:
    """The error a worker of this type best-responds with to a superior at error eps, counting D as 0.

    The root of ``f'(sigma) = C (2 eps - 1) / k``; the type is proficient for
    the scheme exactly when sigma <= eps.  Solver clamps propagate.  A sigma
    above 1, which the inverse power can give, is refused.
    """
    eps = _require_hierarchical_epsilon(params)
    root = solve_deriv_equals(f, _response_target(eps, params.require_C(), 0.0, params.k))
    require_prob(root.value, "sigma")
    return root


def equilibrium_heterogeneous(
    pop: PopulationModel, params: SchemeParams, depth: int, e0: float = 0.0
) -> HeterogeneousEquilibrium:
    """Per-type equilibrium when workers are drawn i.i.d. from a mixture.

    Each worker knows only the distribution of its superior, so at level t
    every type best-responds to the population-mean error of level t-1.  The
    population must be proficient on average (weighted mean sigma <= eps);
    otherwise no truthfulness claim holds and the request is rejected.  Each
    level's ``truthful`` flag reports whether a type stays below eps; with C
    at the bound a proficient type can land exactly on eps.
    """
    require_instance(pop, PopulationModel, "pop")
    eps = _require_hierarchical_epsilon(params)
    e0 = _validate_e0(e0, eps)
    require_int(depth, "depth", 1)

    efforts, weights = [wt.effort for wt, _ in pop.types], [w for _, w in pop.types]
    # the gate is one step of the cascade's map, to a superior at eps with D = 0: each type's sigma, and their mean
    sigma_columns = [[] for _ in efforts]
    mean_sigma = _mixture_step(efforts, weights, params.require_C(), 0.0, params.k, sigma_columns)(eps)
    if not mean_sigma <= eps:
        raise AssumptionError(f"population proficiency assumption violated: weighted mean sigma {mean_sigma!r} exceeds "
                              f"epsilon {eps!r}")

    prefixes, period = _mixture_levels(efforts, weights, params, depth, e0)
    types = tuple(
        TypeEquilibrium(prefix=prefix, period=period, depth=depth, threshold=eps, worker=wt, weight=w,
                        sigma=root.value, sigma_clamped=root.clamped)
        for (wt, w), (root,), prefix in zip(pop.types, sigma_columns, prefixes)
    )
    return HeterogeneousEquilibrium(types=types)


@dataclass(frozen=True)
class CounterexampleTrace(_CyclicLevels):
    """Divergence trace with an undersized penalty.

    With cost ``f(x) = -ln x``, two answers, an exact supervisor, and C below
    the hierarchical bound, the recursion ``e_t = k / ((1 - 2 e_{t-1}) C)``
    gains more than ``delta = a d / C`` per step while below eps
    (a = eps (1 - 2 eps), d = k/a - C), so it must cross eps by level
    ``ceil(eps / delta)``, and at the earliest at level 1.  When C is at or
    above the bound the gap d is not positive: delta and the guaranteed depth
    are None and the trace simply documents that no crossing occurs.

    Stored: the roots of the levels up to the crossing (the only level above
    eps, and then the period is 0) or the first repeated error, the period,
    ``depth`` (the crossing level or else the maximum depth), ``threshold``,
    eps in (0, 1/4), and ``k`` and ``C``.  Derived: ``levels``, ``errors``,
    from the last root ``crossing_level`` and ``diverged_at`` (if its error is
    >= 1/2), and from eps, k and C ``delta`` and ``guaranteed_depth``.
    """

    k: int
    C: float

    _require_threshold = staticmethod(_require_trace_threshold)
    _unit_errors = False  # a divergent error may lie above 1

    def __post_init__(self) -> None:
        super().__post_init__()
        require_int(self.k, "k", 1, hi=FLOAT_MAX)
        require_real(self.C, "C", 0.0, lo_open=True)
        errors = self._errors()
        if max(errors[:-1], default=-math.inf) > self.threshold:  # no error is NaN
            raise SuperviseError("a trace stops at its first error above the threshold")
        _require_first_repeat(errors, self.period)
        self.delta  # refuses a bound or a gain that is not a finite float

    @property
    def delta(self) -> float | None:
        """The gain ``a d / C`` per level below eps, or None when C is at or above the bound."""
        eps = self.threshold
        a = eps * (1.0 - 2.0 * eps)
        bound = self.k / a
        if not math.isfinite(bound):
            raise EpsilonRangeError(f"epsilon range: epsilon {eps!r} is too small for a finite bound "
                                    f"k/(eps (1 - 2 eps))")
        d = bound - self.C  # positive exactly when C is below the hierarchical bound
        if not d > 0.0:
            return None
        # equals a^2 d / (k - a d), as k - a d = a C; that difference rounds to 0 when C or eps is tiny
        delta = a * d / self.C
        if not math.isfinite(delta):
            raise SuperviseError(f"C {self.C!r} is too small for a finite per-level gain a d / C")
        return delta

    @property
    def guaranteed_depth(self) -> int | None:
        """``ceil(eps / delta)``, and at least 1, the level by which the trace must cross; None with delta."""
        delta = self.delta
        return None if delta is None else max(1, math.ceil(self.threshold / delta))  # eps / delta may underflow to 0

    @property
    def errors(self) -> tuple[float, ...]:
        errors = tuple(r.value for r in self.prefix)
        return errors + tuple(_unrolled(errors, self.period, self.depth))

    @property
    def crossing_level(self) -> int | None:
        return len(self.prefix) - 1 if self.prefix[-1].value > self.threshold else None

    @property
    def diverged_at(self) -> int | None:
        return self.crossing_level if self.prefix[-1].value >= 0.5 else None


def counterexample_trace(params: SchemeParams, max_depth: int) -> CounterexampleTrace:
    """Iterate the undersized-penalty recursion until it crosses epsilon.

    Fixed to the unit SimpleLog cost and two-answer tasks (D = 0), where the
    recursion has the closed form above.  Stops at the first level whose
    error exceeds epsilon, which is a divergence when that error is 1/2 or
    more, at the first repeated error, or at max_depth.  Every error before
    the crossing is at most eps < 1/4, so no denominator is below C/2.
    """
    eps = _require_trace_threshold(require_instance(params, SchemeParams, "params").epsilon)
    if params.m != 2 or (params.D is not None and params.D != 0.0):
        raise SuperviseError("divergence trace is defined for two-answer tasks (m=2, D=0)")
    require_int(max_depth, "max_depth", 1)
    C, k = params.require_C(), params.k

    errors = [0.0]

    def step(e: float) -> float:
        e = k / ((1.0 - 2.0 * e) * C)
        errors.append(e)
        return e

    levels, period = _cascade(step, 0.0, max_depth, eps.__lt__)
    return CounterexampleTrace(prefix=tuple(map(Root, errors)), period=period,
                               depth=levels if errors[-1] > eps else max_depth, threshold=eps, k=k, C=C)


@dataclass(frozen=True)
class DefectionAnalysis:
    """Collusion check: does a constant agreed answer beat honest work?

    In a colluding chain of N workers over shared tasks, playing the agreed
    constant costs each worker k C / N (only the boundary with the honest
    supervisor disagrees), while deviating back to truth costs (N - k) C / N.
    Defection wins when N > 2k, the two tie at N = 2k, and honesty wins below.

    Stored: ``N``, ``k`` and ``C``; the costs and the verdict are derived.
    """

    N: int
    k: int
    C: float

    def __post_init__(self) -> None:
        require_int(self.N, "N", 1, hi=FLOAT_MAX)
        require_int(self.k, "k", 1, hi=FLOAT_MAX)
        object.__setattr__(self, "C", require_real(self.C, "C", 0.0, lo_open=True))  # costs are shares of a float
        self.defect_cost, self.deviate_cost  # refuses a cost beyond the float range

    @property
    def defect_cost(self) -> float:
        return _share_of(self.k, self.C, self.N)

    @property
    def deviate_cost(self) -> float:
        return _share_of(self.N - self.k, self.C, self.N)

    @property
    def verdict(self) -> str:
        return "defect" if self.N > 2 * self.k else "indifferent" if self.N == 2 * self.k else "truthful-compatible"


def _share_of(count: int, C: float, N: int) -> float:
    """``count * C / N`` rounded once, so a product above the float range cannot turn a finite cost into inf."""
    num, den = C.as_integer_ratio()
    try:
        return count * num / (N * den)  # integers are exact, and their true quotient is rounded once
    except OverflowError:
        raise SuperviseError(f"the cost {count} * C / {N} exceeds the float range at C={C!r}") from None


def level_info_bits(N: int, k: int) -> int:
    """Bits a worker needs to learn its level in the trees ``build_supervision_tree(N, k, seed)`` makes.

    Naming one of their worker levels takes the ceiling of log2 of their
    count, and 0 bits when there is one.  Exact integer arithmetic.
    """
    require_int(N, "N", 1)
    require_int(k, "k", 2)
    from .structures import _level_widths  # local import: importing this module does not load the builders

    return (len(_level_widths(N, k)) - 3).bit_length()  # the widths hold the tasks and the supervisor too


def profile_to_csv(profile: EquilibriumProfile) -> str:
    """A profile's ``level,error,truthful`` rows as one string."""
    require_instance(profile, EquilibriumProfile, "profile")
    return "".join(profile.csv_chunks())  # perfbench times this name; it leaves with ROADMAP item 11
