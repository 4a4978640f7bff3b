"""Independent reference implementations the analytic code is checked against.

Deliberately slow and dumb: bisection on the derivative, dense grid argmin on
the loss itself, exhaustive search over covers, the quadratic originals of
the peg builder and the edge-deletion cover, the disjoint-worker greedy as
it was before graphs stored their rows sorted, the supervision tree's
builder, maps and validation as they were before they worked in whole-level
passes, the simulator's helpers as they were before they left numpy's module
functions for array methods, its binary answer sampler as it was before
it stopped drawing offsets at m = 2, and
the equilibrium cascades as they were before they stopped at a repeat,
with result types of their own that store every level, and the best
responses they call as they were before they refused an error above 1,
the checks of the profiles, the mixture and the trace as they were before
they ran in passes in C, the CSV writers for those profiles as they were
before they wrote repeated rows from a cached tail, the cyclic CSV writer
as it was before it wrote a hundred levels as one join, the divergence
trace and its writer as they were before the trace stopped at its first
repeated error, the Monte Carlo engine as it was before it drew one task
at a time, and as it was before it reused its arrays, with the answer
models' array formulas and the sweeps' draws of
that time, and its binary half as it was before binary rows were taken
from counts; and the exact joint law of a binary task's counts.
Written straight from the defining formulas, or frozen before the fast paths
existed; the tests compare the two and neither side imports the other's
algorithm.
"""

from __future__ import annotations

import collections
import csv
import functools
import io
import itertools
import math
import random
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from supervise import (
    AssignmentGraph,
    Root,
    AssumptionError,
    EffortFunction,
    EpsilonRangeError,
    LevelState,
    ModelMismatchError,
    PegAssignment,
    PopulationModel,
    SAInstance,
    SASolution,
    SchemeParams,
    SimConfig,
    SimReport,
    SizingError,
    SuperviseError,
    SupervisionHierarchy,
    SupervisionTree,
    UniformWrong,
    WorkerStats,
    WorkerType,
    effort_deriv,
    effort_eval,
    expected_penalty_pair,
    expected_penalty_quant,
    solve_deriv_equals,
)
from supervise.allocation import _check_cover
from supervise.effort import implied_D
from supervise.errors import FLOAT_MAX, require_instance, require_int, require_number, require_prob, require_real
from supervise.errors import require_weight
from supervise.hierarchy import _require_hierarchical_epsilon, _require_hierarchical_threshold, _require_trace_threshold
from supervise.hierarchy import _response_target, _validate_e0
from supervise.simulate import Structure, _z
from supervise.structures import _id_rows, _json_fields, _sorted_rows
from supervise import TypeEquilibrium as _TypeRow


def bisect_deriv(f: EffortFunction, target: float) -> float:
    """Root of f'(e) = target by plain bisection on the increasing derivative.

    The caller must pick a target attained in the interior, i.e. strictly
    between f'(0+) = -inf and the supremum of f' on the domain.
    """
    lo = 1e-300
    hi = f.domain_hi
    if not math.isfinite(hi):
        hi = 1.0
        while effort_deriv(f, hi) < target:
            hi *= 2.0
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if effort_deriv(f, mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def effort_vec(f: EffortFunction, x: np.ndarray) -> np.ndarray:
    """Vectorized effort cost, written from the closed forms."""
    x = np.asarray(x, dtype=float)
    name = f.family.value
    if name == "simplelog":
        return -f.alpha * np.log(x)
    if name == "boundarylog":
        return f.alpha * np.log(1.0 / (2.0 * x)) ** 2
    return f.alpha / x


def grid_argmin(loss_vec, lo: float, hi: float, n: int = 100_001) -> tuple[float, float]:
    """(argmin over a uniform n-point grid of [lo, hi], grid step)."""
    xs = np.linspace(lo, hi, n)
    vals = loss_vec(xs)
    return float(xs[int(np.argmin(vals))]), (hi - lo) / (n - 1)


def brute_force_vc(vertices, edges) -> set:
    """Smallest vertex cover by exhausting subsets in increasing size."""
    vs = sorted(set(vertices))
    es = [(u, v) for u, v in edges]
    for r in range(len(vs) + 1):
        for sub in itertools.combinations(vs, r):
            s = set(sub)
            if all(u in s or v in s for u, v in es):
                return s
    raise AssertionError("the full vertex set always covers")


def brute_force_cover(worker_tasks: dict) -> set:
    """Smallest task set hitting every worker's task list, by exhaustion."""
    tasks = sorted({t for ts in worker_tasks.values() for t in ts})
    for r in range(len(tasks) + 1):
        for sub in itertools.combinations(tasks, r):
            s = set(sub)
            if all(s.intersection(ts) for ts in worker_tasks.values()):
                return s
    raise AssertionError("the full task set always covers")


# The peg builder and the edge-deletion cover as they were before the library replaced their quadratic loops
# with a heap and a Fenwick tree, frozen verbatim: the fast versions must give equal structures, covers and errors.


def build_peg_assignment(
    n_workers: int, n_tasks: int, k: int, seed: int, redundancy: int = 1
) -> PegAssignment:
    """Peg construction: disjoint worker groups on the first tasks, then fill.

    The first ``ceil(n_workers / k)`` tasks each take one group of (at most)
    k workers, giving a small set that touches everyone.  Remaining edges are
    dealt round-robin to the least-loaded non-peg tasks so every task reaches
    the requested redundancy and every worker ends at exactly k distinct
    tasks.  Fill edges never touch pegs — that keeps the peg groups disjoint.
    """
    for name, v in (("n_workers", n_workers), ("n_tasks", n_tasks), ("k", k), ("redundancy", redundancy)):
        require_int(v, name, 1, SizingError)
    n_pegs = math.ceil(n_workers / k)
    if n_tasks < n_pegs:
        raise SizingError(f"sizing: need at least {n_pegs} tasks to peg {n_workers} workers at k={k}, got {n_tasks}")
    n_fill_tasks = n_tasks - n_pegs
    if k >= 2 and n_fill_tasks < k - 1:
        raise SizingError(
            f"sizing: need at least {n_pegs + k - 1} tasks so each worker finds {k - 1} distinct non-peg tasks"
        )
    last_group = n_workers - k * (n_pegs - 1)
    if redundancy > min(k, last_group):
        raise SizingError(
            f"sizing: peg multiplicity is only {min(k, last_group)}; redundancy {redundancy} unreachable"
        )
    if n_workers * (k - 1) < redundancy * n_fill_tasks:
        raise SizingError(
            f"sizing: {n_workers * (k - 1)} fill edges cannot give {n_fill_tasks} tasks redundancy {redundancy}"
        )

    rng = random.Random(require_int(seed, "seed", 0))
    workers = [f"u{i}" for i in range(n_workers)]
    tasks = [f"t{j}" for j in range(n_tasks)]
    pegs = tasks[:n_pegs]
    fill_tasks = tasks[n_pegs:]

    edges: list[tuple[str, str]] = []
    for i, t in enumerate(pegs):
        for w in workers[i * k : (i + 1) * k]:
            edges.append((w, t))

    # stable least-loaded selection; the seeded jitter only breaks ties
    jitter = {t: rng.random() for t in fill_tasks}
    load = {t: 0 for t in fill_tasks}
    for w in workers:
        chosen = sorted(fill_tasks, key=lambda t: (load[t], jitter[t], t))[: k - 1]
        for t in chosen:
            edges.append((w, t))
            load[t] += 1

    graph = AssignmentGraph(workers=tuple(workers), tasks=tuple(tasks), edges=tuple(edges))
    peg = PegAssignment(graph=graph, peg_tasks=tuple(pegs))
    if min(load.values(), default=redundancy) < redundancy:
        raise SizingError("sizing: fill could not reach the requested redundancy")
    return peg


def sa_greedy_edge_deletion(inst: SAInstance, seed: int) -> SASolution:
    """Edge-deletion greedy: take the task of one random live edge at a time.

    Deleting all edges at either endpoint keeps every worker covered (a
    worker loses its edges only once some chosen task covers it), but a
    single task is gained per round, so no factor-k ratio argument applies.
    Provided for comparison; measure, don't rely on it.
    """
    rng = random.Random(require_int(seed, "seed", 0))
    edges = sorted(inst.graph.edges)
    chosen: set[str] = set()
    while edges:
        w, t = edges[rng.randrange(len(edges))]
        chosen.add(t)
        edges = [(w2, t2) for (w2, t2) in edges if w2 != w and t2 != t]
    picked = tuple(sorted(chosen))
    return SASolution(tasks=picked, cover_witness=_check_cover(inst, picked))


# The disjoint-worker greedy as it was before graphs stored their rows sorted, frozen verbatim: it sorted the
# uncovered workers before every pick, and the library now draws from a list that stays sorted.


def sa_greedy(inst: SAInstance, seed: int) -> SASolution:
    """Disjoint-worker greedy: within factor k of the optimum.

    Repeatedly pick a seeded-random still-uncovered worker and take all of
    its (at most k) tasks.  Any two picked workers share no task — otherwise
    the second was already covered — so an optimal cover spends at least one
    distinct task per picked worker, giving |S| <= k * |OPT|.
    """
    rng = random.Random(require_int(seed, "seed", 0))
    uncovered = set(inst.graph.workers)
    chosen: set[str] = set()
    while uncovered:
        u = rng.choice(sorted(uncovered))
        chosen.update(inst.graph.worker_tasks[u])
        uncovered = {w for w in uncovered if not chosen.intersection(inst.graph.worker_tasks[w])}
    picked = tuple(sorted(chosen))
    return SASolution(tasks=picked, cover_witness=_check_cover(inst, picked))


# The supervision tree as it was before it was built and validated in whole-level and whole-column passes, frozen
# verbatim: the builder appended one row per child and kept every worker's tasks, the maps were rebuilt one row at a
# time, and validation built ``worker_tasks``.  ``TreeByRows`` normalizes its fields as the library's tree does; the
# library's tree must give the same rows, the same maps and the same first error message.


@dataclass(frozen=True)
class TreeByRows:
    levels: tuple[tuple[str, ...], ...]
    edges: tuple[tuple[str, str], ...]
    shared: tuple[tuple[str, str, str], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", _id_rows(self.levels, "levels", 0))
        for key, width in (("edges", 2), ("shared", 3)):
            object.__setattr__(self, key, _sorted_rows(getattr(self, key), key, width))
        self.validate()

    @functools.cached_property
    def children(self) -> dict[str, tuple[str, ...]]:
        out: dict[str, list[str]] = {}
        for p, c in self.edges:
            out.setdefault(p, []).append(c)
        return {p: tuple(cs) for p, cs in out.items()}

    @functools.cached_property
    def parent(self) -> dict[str, str]:
        out: dict[str, str] = {}
        for p, c in self.edges:
            if c in out:
                raise SuperviseError(f"node {c!r} has two parents")
            out[c] = p
        return out

    @functools.cached_property
    def worker_tasks(self) -> dict[str, tuple[str, ...]]:
        bottom, shared = set(self.levels[-2]), {(p, c): t for p, c, t in self.shared}
        return {w: cs if w in bottom else tuple(shared[(w, c)] for c in cs) for w, cs in self.children.items()}

    def validate(self) -> None:
        if len(self.levels) < 3:
            raise SuperviseError("tree needs at least supervisor, one worker level, and tasks")
        if len(self.levels[0]) != 1:
            raise SuperviseError("level 0 must hold exactly the supervisor")
        node_level = {n: i for i, lv in enumerate(self.levels) for n in lv}
        if len(node_level) != sum(map(len, self.levels)):
            seen: set[str] = set()
            for n in itertools.chain.from_iterable(self.levels):
                if n in seen:
                    raise SuperviseError(f"node {n!r} appears twice")
                seen.add(n)
        for p, c in self.edges:
            if node_level.get(c) != node_level.get(p, -2) + 1:
                raise SuperviseError(f"edge ({p!r}, {c!r}) does not connect adjacent levels")
        parent, children = self.parent, self.children
        if len(parent) != len(node_level) - 1:
            n = next(n for lv in self.levels[1:] for n in lv if n not in parent)
            raise SuperviseError(f"node {n!r} has no parent")
        if len(children) != len(node_level) - len(self.levels[-1]):
            n = next(n for lv in self.levels[:-1] for n in lv if n not in children)
            raise SuperviseError(f"node {n!r} has no children")
        leaf_level = len(self.levels) - 1
        worker_edges = {(p, c) for p, c in self.edges if node_level[c] != leaf_level}
        pairs = [(p, c) for p, c, _ in self.shared]
        missing = worker_edges.difference(pairs)
        if missing:
            p, c = min(missing)
            raise SuperviseError(f"missing shared task for edge ({p!r}, {c!r})")
        if len(pairs) != len(worker_edges):
            raise SuperviseError("shared holds a triple that is not the one task of a worker->worker edge")
        worker_tasks = self.worker_tasks
        for p, c, t in self.shared:
            if t not in worker_tasks[c]:
                raise SuperviseError(f"shared task {t!r} not performed by child {c!r}")

    def to_json_dict(self) -> dict:
        return {
            "levels": [list(lv) for lv in self.levels],
            "edges": [list(e) for e in self.edges],
            "shared": [list(s) for s in self.shared],
        }

    @classmethod
    def from_json_dict(cls, obj) -> "TreeByRows":
        return cls(**_json_fields(obj, "levels", "edges", "shared"))


def build_supervision_tree_over(
    task_ids, k: int, seed: int, worker_prefix: str = "w", supervisor_id: str = "supervisor"
) -> TreeByRows:
    tasks = _id_rows(task_ids, "task ids")
    if len(set(tasks)) != len(tasks) or not tasks:
        raise SuperviseError("task ids must be nonempty and unique")
    require_int(k, "branching factor k", 2, SizingError)
    forbidden = set(tasks) | {supervisor_id}
    rng = random.Random(require_int(seed, "seed", 0))

    levels_rev: list[tuple[str, ...]] = [tuple(tasks)]
    edges: list[tuple[str, str]] = []
    shared: list[tuple[str, str, str]] = []
    worker_tasks: dict[str, tuple[str, ...]] = {}
    fresh = (name for name in (f"{worker_prefix}{i}" for i in itertools.count()) if name not in forbidden)

    current = tasks
    bottom, top = True, False
    while not top:
        top = not bottom and len(current) <= k
        parents = [supervisor_id] if top else [next(fresh) for _ in range(-(-len(current) // k))]
        for j, p in enumerate(parents):
            chunk = current[j * k : (j + 1) * k]
            for c in chunk:
                edges.append((p, c))
            if bottom:
                worker_tasks[p] = tuple(chunk)
            else:
                picks = []
                for c in chunk:
                    t = rng.choice(worker_tasks[c])
                    shared.append((p, c, t))
                    picks.append(t)
                worker_tasks[p] = tuple(picks)
        levels_rev.append(tuple(parents))
        current = parents
        bottom = False

    return TreeByRows(levels=tuple(reversed(levels_rev)), edges=tuple(edges), shared=tuple(shared))


# The simulator's answer and summary helpers as they were before numpy became a lazy import and their module
# functions became array methods, frozen verbatim: the rewrites must give the same bits.


def _offset_answers(truth: np.ndarray, wrong: np.ndarray, offset: np.ndarray, m: int) -> np.ndarray:
    """The truth where ``wrong`` is false, else the truth shifted by ``offset`` (in 1..m-1) mod m."""
    return (truth + np.where(wrong, offset, 0)) % m


def _mean_stderr(x: np.ndarray) -> tuple[float, float]:
    n = x.shape[0]
    return float(np.mean(x)), float(np.std(x, ddof=1) / math.sqrt(n))


# The best response to a superior and the proficiency sigma as they were before they refused an error above 1,
# frozen verbatim: the frozen cascades below call them, so their outcomes stay those of that time.


def best_response_under_superior(f: EffortFunction, e_w: float, params: SchemeParams) -> Root:
    require_prob(e_w, "superior error")
    require_instance(params, SchemeParams, "params")
    return solve_deriv_equals(f, _response_target(e_w, params.require_C(), params.effective_D(), params.k))


def proficiency_sigma(f: EffortFunction, params: SchemeParams) -> Root:
    eps = _require_hierarchical_epsilon(params)
    return solve_deriv_equals(f, _response_target(eps, params.require_C(), 0.0, params.k))


# The equilibrium cascades as they were before they stopped at the first repeated error, frozen verbatim: every
# level, computed or copied, must have the same bits, and every refusal the same class and message.  Their results
# are the profile types of that time, which store every level.


@dataclass(frozen=True)
class EquilibriumProfile:
    """Per-level equilibrium errors; level 0 is the supervisor."""

    levels: tuple[LevelState, ...]
    threshold: float

    @property
    def all_truthful(self) -> bool:
        return all(s.truthful for s in self.levels)

    @property
    def max_error(self) -> float:
        return max(s.error for s in self.levels)


@dataclass(frozen=True)
class TypeEquilibrium:
    worker: WorkerType
    weight: float
    sigma: float
    sigma_clamped: bool
    proficient: bool
    levels: tuple[LevelState, ...]


@dataclass(frozen=True)
class HeterogeneousEquilibrium:
    """Per-type equilibrium profiles plus the population proficiency summary."""

    types: tuple[TypeEquilibrium, ...]
    mean_sigma: float
    threshold: float

    @property
    def mean_errors(self) -> tuple[float, ...]:
        """Population-mean error at each level (level 0 = supervisor)."""
        depth = len(self.types[0].levels)
        out = []
        for i in range(depth):
            out.append(math.fsum(t.weight * t.levels[i].error for t in self.types))
        return tuple(out)


def equilibrium_homogeneous(
    f: EffortFunction, params: SchemeParams, depth: int, e0: float = 0.0
) -> EquilibriumProfile:
    """Top-down equilibrium of a uniform population.

    Level t best-responds to level t-1, starting from the supervisor's error
    e0 at level 0.  A single pass is exact because a worker's loss depends on
    the levels below it only through its own effort term.
    """
    eps = _require_hierarchical_epsilon(params)
    e0 = _validate_e0(e0, eps)
    require_int(depth, "depth", 1)
    levels = [LevelState(0, e0, e0 < eps, False)]
    e_prev = e0
    for t in range(1, depth + 1):
        r = best_response_under_superior(f, e_prev, params)
        levels.append(LevelState(t, r.value, r.value < eps, r.clamped))
        e_prev = r.value
    return EquilibriumProfile(levels=tuple(levels), threshold=eps)


def equilibrium_heterogeneous(
    pop: PopulationModel, params: SchemeParams, depth: int, e0: float = 0.0
) -> HeterogeneousEquilibrium:
    """Per-type equilibrium when workers are drawn i.i.d. from a mixture.

    Each worker knows only the distribution of its superior, so at level t
    every type best-responds to the population-mean error of level t-1.  The
    population must be proficient on average (weighted mean sigma <= eps);
    otherwise no truthfulness claim holds and the request is rejected.
    Proficient types are guaranteed truthful at every level — the result is
    re-checked and a violation (impossible for valid inputs) raises.
    """
    eps = _require_hierarchical_epsilon(params)
    e0 = _validate_e0(e0, eps)
    require_int(depth, "depth", 1)

    sigma_roots = [proficiency_sigma(wt.effort, params) for wt, _ in pop.types]
    mean_sigma = math.fsum(w * root.value for (_, w), root in zip(pop.types, sigma_roots))
    if not mean_sigma <= eps:
        raise AssumptionError(
            "population proficiency assumption violated: "
            f"weighted mean sigma {mean_sigma!r} exceeds epsilon {eps!r}"
        )

    per_type: list[list[LevelState]] = [[LevelState(0, e0, e0 < eps, False)] for _ in pop.types]
    mean_prev = e0
    for t in range(1, depth + 1):
        errs = []
        for i, (wt, w) in enumerate(pop.types):
            r = best_response_under_superior(wt.effort, mean_prev, params)
            per_type[i].append(LevelState(t, r.value, r.value < eps, r.clamped))
            errs.append(r.value)
        mean_prev = math.fsum(w * e for (_, w), e in zip(pop.types, errs))

    types = tuple(
        TypeEquilibrium(
            worker=wt,
            weight=w,
            sigma=root.value,
            sigma_clamped=root.clamped,
            proficient=root.value <= eps,
            levels=tuple(states),
        )
        for (wt, w), root, states in zip(pop.types, sigma_roots, per_type)
    )
    for te in types:
        if te.proficient and not all(s.truthful for s in te.levels):
            raise SuperviseError(
                f"internal consistency failure: proficient type {te.worker.id!r} "
                "produced an untruthful level"
            )
    return HeterogeneousEquilibrium(types=types, mean_sigma=mean_sigma, threshold=eps)


# The checks of the stored profiles, types, mixtures and traces as they were before they ran as passes in C: a walk
# over the roots one at a time, frozen verbatim, with two rules added at their places in the walk, that a profile's
# or a type's level error lies in [0, 1] (a trace's may lie above 1), and that a type's sigma does.  Each takes a
# result's fields and raises the first fault's SuperviseError, or returns None when the fields make a result.


def check_first_repeat(errors, period) -> None:
    *head, last = errors
    first_level = {}
    for i, e in enumerate(head):
        if first_level.setdefault(e, i) != i:
            raise SuperviseError(f"prefix must stop at its first repeated error, at level {i}")
    n = len(errors)
    if first_level.get(last, n - 1) != n - 1 - period:
        raise SuperviseError(
            f"period {period} does not match the prefix, whose last level {n - 1} repeats level "
            f"{first_level.get(last, 'none')}"
        )


def _check_levels(prefix, period, depth, threshold, require_threshold, unit_errors) -> None:
    if not (prefix and isinstance(prefix, tuple) and all(isinstance(r, Root) for r in prefix)):
        raise SuperviseError(f"prefix must be a nonempty tuple of Root values, got {prefix!r}")
    for r in prefix:
        require_number(r.value, "level error")
        if unit_errors:  # the added rule
            require_prob(r.value, "level error")
    n = len(prefix)
    require_int(period, "period", 0, hi=n - 1)
    require_int(depth, "depth", n - 1)
    if period == 0 and depth != n - 1:
        raise SuperviseError(f"period 0 needs depth {n - 1}, the prefix's last level, got depth {depth}")
    require_threshold(require_real(threshold, "threshold"))


def check_profile(prefix, period, depth, threshold) -> None:
    _check_levels(prefix, period, depth, threshold, _require_hierarchical_threshold, True)
    check_first_repeat([r.value for r in prefix], period)


def check_type(prefix, period, depth, threshold, worker, weight, sigma, sigma_clamped) -> None:
    _check_levels(prefix, period, depth, threshold, _require_hierarchical_threshold, True)
    require_instance(worker, WorkerType, "worker")
    require_weight(weight)
    require_number(sigma, "sigma")
    require_prob(sigma, "sigma")  # the added rule
    require_instance(sigma_clamped, bool, "sigma_clamped")


def check_heterogeneous(types) -> None:
    """``types`` as the library's TypeEquilibrium rows, which have passed ``check_type``."""
    if not (isinstance(types, tuple) and all(isinstance(t, _TypeRow) for t in types)):
        raise SuperviseError(f"types must be TypeEquilibrium rows in a tuple, got {types!r}")
    if len({(len(t.prefix), t.period, t.depth, t.threshold, t.prefix[0]) for t in types}) != 1:
        raise SuperviseError("an equilibrium needs at least one type, and its types one prefix length, period, "
                             "depth and threshold, and one level-0 root")
    first = types[0]
    means = tuple(map(math.fsum, zip(*([t.weight * r.value for r in t.prefix] for t in types))))
    check_first_repeat((first.prefix[0].value, *means[1:]), first.period)


def check_trace(prefix, period, depth, threshold, k, C) -> None:
    _check_levels(prefix, period, depth, threshold, _require_trace_threshold, False)
    require_int(k, "k", 1, hi=FLOAT_MAX)
    require_real(C, "C", 0.0, lo_open=True)
    if any(r.value > threshold for r in prefix[:-1]):
        raise SuperviseError("a trace stops at its first error above the threshold")
    check_first_repeat([r.value for r in prefix], period)
    eps = threshold
    a = eps * (1.0 - 2.0 * eps)
    bound = k / a
    if not math.isfinite(bound):
        raise EpsilonRangeError(f"epsilon range: epsilon {eps!r} is too small for a finite bound "
                                f"k/(eps (1 - 2 eps))")
    d = bound - C
    if d > 0.0 and not math.isfinite(a * d / C):
        raise SuperviseError(f"C {C!r} is too small for a finite per-level gain a d / C")


# The CSV writers as they were before they wrote the rows past a profile's first repeat from a cached tail, frozen
# verbatim over every level, with the one writer and the boolean spelling they called.


def write_csv(header, rows) -> str:
    """A header line plus one line per row; floats keep full precision."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def bool_word(b: bool) -> str:
    return "true" if b else "false"


def profile_to_csv(levels: tuple[LevelState, ...]) -> str:
    """Serialize a single profile as ``level,error,truthful`` rows."""
    return write_csv(["level", "error", "truthful"], ((s.level, s.error, bool_word(s.truthful)) for s in levels))


def heterogeneous_to_csv(types) -> str:
    """Per-type profiles, given as ``(type id, levels)`` pairs, as ``type,level,error,truthful`` rows."""
    return write_csv(
        ["type", "level", "error", "truthful"],
        ((tid, s.level, s.error, bool_word(s.truthful)) for tid, levels in types for s in levels),
    )


def quant_to_csv(eq) -> str:
    """Profiles as ``type,level,vstar,truthful`` rows."""
    return write_csv(
        ["type", "level", "vstar", "truthful"],
        ((tp.worker.id, t, tp.vstar, bool_word(tp.truthful)) for tp in eq.types for t in range(1, eq.depth + 1)),
    )


# The cyclic CSV writer as it was before it wrote a block of 100 levels as one join: each chunk of the rows past a
# profile's prefix was one ``%`` format of the level numbers over a template of the cycle's rows, frozen verbatim.

_CHUNK_ROWS = 4096


def _lines(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def cyclic_csv_chunks(header, profiles):
    """CSV text of ``header`` and of each profile's levels, in chunks of at most 4096 rows."""
    yield _lines((header,))
    for key, prefix, period, depth in profiles:
        prefix, last = iter(prefix), collections.deque(maxlen=period)
        while chunk := list(itertools.islice(prefix, _CHUNK_ROWS)):
            last.extend(chunk)
            yield _lines(map(key.__add__, chunk))
        if not last:  # period 0: the prefix ends at depth
            continue
        lead = _lines(((*key, 0),))[:-2].replace("%", "%%")  # the key columns and their comma, without "0\n"
        rows = [lead + "%d" + _lines(((0, *row[1:]),))[1:].replace("%", "%%") for row in last]
        cycle_rows, phase = "".join(rows), 0  # the first row after the prefix repeats the cycle's first
        for start in range(last[-1][0] + 1, depth + 1, _CHUNK_ROWS):  # from the level after the prefix
            stop = min(start + _CHUNK_ROWS, depth + 1)
            head = rows[phase : phase + stop - start]
            cycles, rest = divmod(stop - start - len(head), period)
            yield ("".join(head) + cycle_rows * cycles + "".join(rows[:rest])) % tuple(range(start, stop))
            phase = (phase + stop - start) % period


# The divergence trace and its CSV writer as they were before the trace stopped at its first repeated error, frozen
# verbatim with the result type of that time, which stores every error.


@dataclass(frozen=True)
class CounterexampleTrace:
    k: int
    C: float
    epsilon: float
    errors: tuple[float, ...]
    crossing_level: int | None
    delta: float | None
    guaranteed_depth: int | None
    diverged_at: int | None


def counterexample_trace(params: SchemeParams, max_depth: int) -> CounterexampleTrace:
    """Iterate the undersized-penalty recursion until it crosses epsilon.

    Fixed to the unit SimpleLog cost and two-answer tasks (D = 0), where the
    recursion has the closed form e_t = k / ((1 - 2 e_{t-1}) C).  Stops at the first level whose
    error exceeds epsilon, at a divergence (error leaving [0, 1/2)), or at
    max_depth.
    """
    eps = params.epsilon
    if not (0.0 < eps < 0.25):
        raise EpsilonRangeError(f"epsilon range: divergence trace needs epsilon in (0, 1/4), got {eps!r}")
    if params.m != 2 or (params.D is not None and params.D != 0.0):
        raise SuperviseError("divergence trace is defined for two-answer tasks (m=2, D=0)")
    require_int(max_depth, "max_depth", 1)
    C = params.require_C()
    k = params.k

    a = eps * (1.0 - 2.0 * eps)
    bound = k / a
    if not math.isfinite(bound):
        raise EpsilonRangeError(f"epsilon range: epsilon {eps!r} is too small for a finite bound k/(eps (1 - 2 eps))")
    d = bound - C  # positive exactly when C is below the hierarchical bound
    if d > 0.0:
        # equals a^2 d / (k - a d), as k - a d = a C; that difference rounds to 0 when C or eps is tiny
        delta: float | None = a * d / C
        if not math.isfinite(delta):
            raise SuperviseError(f"C {C!r} is too small for a finite per-level gain a d / C")
        guaranteed_depth: int | None = max(1, math.ceil(eps / delta))  # eps / delta may underflow to 0
    else:
        delta = None
        guaranteed_depth = None

    errors = [0.0]
    crossing_level: int | None = None
    diverged_at: int | None = None
    for t in range(1, max_depth + 1):
        e_prev = errors[-1]
        denom = (1.0 - 2.0 * e_prev) * C
        e_t = k / denom if denom != 0.0 else math.inf
        errors.append(e_t)
        if not (0.0 <= e_t < 0.5):
            diverged_at = t
        if e_t > eps:
            crossing_level = t
            break
    return CounterexampleTrace(
        k=k,
        C=C,
        epsilon=eps,
        errors=tuple(errors),
        crossing_level=crossing_level,
        delta=delta,
        guaranteed_depth=guaranteed_depth,
        diverged_at=diverged_at,
    )


def trace_to_csv(trace: CounterexampleTrace) -> str:
    """Divergence trace as ``level,error,truthful`` rows."""
    return write_csv(
        ["level", "error", "truthful"],
        ((level, e, bool_word(e < trace.epsilon)) for level, e in enumerate(trace.errors)),
    )


# The answer models' array formulas as they were before the engine reused its arrays, frozen verbatim, as
# functions of the model's fields: the two engines below call these, never the library models' methods.  The
# strategies are taken as the library's checks return them, floats.


def model_strategy(model, s):
    if isinstance(model, UniformWrong):
        return float(s)
    sigma, bias = s
    return (float(sigma), float(bias))


def model_truth(model, rng: np.random.Generator, n: int) -> np.ndarray:
    if isinstance(model, UniformWrong):
        return rng.integers(0, model.m, size=n)
    return rng.standard_normal(n)


def _sample_binary_answers(rng: np.random.Generator, truth: np.ndarray, e: float, m: int) -> np.ndarray:
    """Answers that equal the truth w.p. 1-e, else land uniformly off it."""
    n = truth.shape[0]
    wrong = rng.random(n) < e  # thresholded at once, so the float uniforms are freed before the next draw
    return _offset_answers(truth, wrong, rng.integers(1, m, size=n), m)


# The library's in-place modulo as it was when answers were truth + offset, frozen verbatim but for its name; the
# engine now keeps the offsets and draws no truth.


def _offset_answers_in_place(truth: np.ndarray, offset: np.ndarray, m: int, scratch: np.ndarray) -> np.ndarray:
    """``(truth + offset) mod m`` for offsets in 0..m-1, written over ``offset``; ``scratch`` is any 8-byte array of
    its length.  The sum is below 2 m <= 2**63, so the modulo is one conditional subtract of m: as unsigned
    integers, sum - m wraps above the sum exactly where the sum is below m, and the smaller one is the answer."""
    import numpy as np

    offset += truth
    total, less_m = offset.view(np.uint64), scratch.view(np.uint64)
    np.minimum(total, np.subtract(total, m, out=less_m), out=total)
    return offset


# The binary answer sampler as it was before m = 2 stopped calling ``integers(1, m)``, frozen verbatim but for
# the in-place modulo, which is ``_offset_answers_in_place`` above (checked against the original): it fills the
# run's reused arrays, and at every m it asks the generator for the offsets.


def sample_binary_answers_with_offsets(rng: np.random.Generator, truth: np.ndarray, e: float, m: int,
                                       work) -> np.ndarray:
    wrong = np.less(rng.random(out=work.floats), e, out=work.flags)
    offset = rng.integers(1, m, size=truth.shape[0])
    wrong_ints = work.floats.view(np.int64)
    wrong_ints[...] = wrong  # a copy widens the flags: a cast inside a multiply takes a buffer
    offset *= wrong_ints
    return _offset_answers_in_place(truth, offset, m, work.floats)


def model_answer(model, rng: np.random.Generator, truth: np.ndarray, s) -> np.ndarray:
    if isinstance(model, UniformWrong):
        return _sample_binary_answers(rng, truth, s, model.m)
    sigma, bias = s
    return truth + bias + sigma * rng.standard_normal(truth.shape[0])


def model_penalty(model, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if isinstance(model, UniformWrong):
        return model.C * (a != b)
    return model.c * (a - b) ** 2


def model_expected(model, s_worker, s_superior) -> float:
    if isinstance(model, UniformWrong):
        return expected_penalty_pair(s_worker, s_superior, model.C, implied_D(model.C, model.m))
    return expected_penalty_quant(*s_worker, *s_superior, model.c)


def _strategies(config: SimConfig, supervisor: str, pairs) -> dict:
    """Each worker's strategy, a left-out supervisor playing the model's exact one, as both engines below look
    them up."""
    model = config.answer_model
    strategy = {}
    for w in sorted({w for p, c, _, _ in pairs for w in (p, c)}):
        if w in config.strategies:
            s = config.strategies[w]
        elif w == supervisor:
            s = model.exact
        else:
            raise SuperviseError(f"strategies must cover worker {w!r}")
        strategy[w] = model_strategy(model, s)
    return strategy


# The Monte Carlo engine as it was before it drew one task at a time, frozen verbatim but calling the model
# formulas and the strategy lookup above: it held every task's truth and every (worker, task) answer for all
# episodes at once.  Its draw order differs, so the two engines agree in their analytic columns exactly and in
# their empirical ones within sampling error.


def _supervision_pairs(structure: Structure) -> tuple[str, list[tuple[str, str, str, int]]]:
    """The supervisor, and (superior, worker, shared task, worker level) for every judged worker."""
    if isinstance(structure, SupervisionTree):
        tree = structure
        extra: list[tuple[str, str, str, int]] = []
    elif isinstance(structure, SupervisionHierarchy):
        tree = structure.tree
        leaf_owner = {t: tree.parent[t] for t in tree.task_ids}
        graph_level = tree.depth - 1
        extra = [(leaf_owner[t], w, t, graph_level) for w, t in structure.coverage]
    else:
        raise ModelMismatchError(f"unsupported structure type {type(structure).__name__}")
    level_of = {n: i for i, lv in enumerate(tree.levels) for n in lv}
    pairs = [(p, c, t, level_of[c]) for p, c, t in tree.shared]
    return tree.supervisor, pairs + extra


def simulate(config: SimConfig) -> SimReport:
    """Sample the answer model's penalty on every supervision pair of the structure.

    Pairs are read in the structure's stored row order, which is sorted, and rows are reported by level and worker.
    """
    model = config.answer_model
    supervisor, pairs = _supervision_pairs(config.structure)
    strategy = _strategies(config, supervisor, pairs)

    rng = np.random.default_rng(config.seed)
    truth = {t: model_truth(model, rng, config.episodes) for t in sorted({t for _, _, t, _ in pairs})}
    combos = sorted({(w, t) for p, c, t, _ in pairs for w in (p, c)})
    # one answer per (worker, task): the same draw serves every pair that reads it
    answers = {(w, t): model_answer(model, rng, truth[t], strategy[w]) for w, t in combos}

    rows = []
    for p, w, t, level in pairs:
        # bound, so it is freed after the next pair's array exists: ~8 % faster on wide trees
        pen = model_penalty(model, answers[(w, t)], answers[(p, t)])
        emp, se = _mean_stderr(pen)
        analytic = model_expected(model, strategy[w], strategy[p])
        rows.append(WorkerStats(w, level, emp, se, analytic, _z(emp, analytic, se)))
    rows.sort(key=lambda r: (r.level, r.worker))
    return SimReport(rows=tuple(rows), episodes=config.episodes, seed=config.seed)


# The Monte Carlo engine as it was when it drew one task at a time and before it reused its arrays, frozen verbatim
# but calling the model formulas, the strategy lookup and the summary helper above, whose bits its array-method
# summary had: each task's truth, answers and penalties were fresh arrays, and each pair's mean and stderr two
# numpy reductions.  Its Gaussian answers are one normal array per performer, as the engine drew them until it
# drew each task relative to its roots, one array a row, so the two engines' Gaussian rows share a law, not bits.


def simulate_task_by_task(config: SimConfig) -> SimReport:
    model = config.answer_model
    supervisor, pairs = _supervision_pairs(config.structure)
    strategy = _strategies(config, supervisor, pairs)

    rng = np.random.default_rng(config.seed)
    rows = []
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reaches a pair's mean or stderr, refused below
        for _, task_pairs in itertools.groupby(sorted(pairs, key=itemgetter(2)), itemgetter(2)):
            task_pairs = list(task_pairs)
            truth = model_truth(model, rng, config.episodes)
            # one answer per performer of the task: the same draw serves every pair that reads it
            performers = sorted({w for p, c, _, _ in task_pairs for w in (p, c)})
            answer = {w: model_answer(model, rng, truth, strategy[w]) for w in performers}
            for p, w, _, level in task_pairs:
                emp, se = _mean_stderr(model_penalty(model, answer[w], answer[p]))
                if not (math.isfinite(emp) and math.isfinite(se)):
                    raise SuperviseError(f"the sampled penalty of worker {w!r} under {p!r} has a mean or stderr "
                                         f"beyond the float range")
                analytic = model_expected(model, strategy[w], strategy[p])
                rows.append(WorkerStats(w, level, emp, se, analytic, _z(emp, analytic, se)))
            del truth, answer  # before the next task's draws, so that one task's arrays are alive at a time
    rows.sort(key=lambda r: (r.level, r.worker))
    return SimReport(rows=tuple(rows), episodes=config.episodes, seed=config.seed)


# The binary half of the Monte Carlo engine as it was before binary rows were taken from counts, frozen verbatim but
# for its names: the answer model's two array methods are functions of the model here, and its loop keeps only the
# binary case.  It drew every episode's answer offset into reused arrays and summarised each pair's penalty array,
# so the count engine must give rows of the same law, not the same bits.


class DenseWork:
    """The episode-length arrays one run makes once and reuses: the penalty array, and the answer array of each
    performer slot and a float and a bool scratch array, which only binary answers use, each made on first use."""

    def __init__(self, n: int) -> None:
        self.penalty = np.empty(n)
        self._answers: dict[int, np.ndarray] = {}
        self._empty = functools.partial(np.empty, n)

    floats = functools.cached_property(lambda self: self._empty(float))
    flags = functools.cached_property(lambda self: self._empty(bool))

    def answer(self, slot: int, dtype: type) -> np.ndarray:
        """The answer array of a performer slot; a run's model asks for every slot in one dtype."""
        a = self._answers.get(slot)
        if a is None:
            a = self._answers[slot] = self._empty(dtype)
        return a


def dense_binary_answer(model, rng: np.random.Generator, e: float, work: DenseWork, slot: int) -> np.ndarray:
    """The answer's offset from the truth, in the pooled answer array of the performer's slot: 0 where it is
    right, w.p. 1 - e, else uniform in 1..m-1.  At m = 2 it is the wrong flag itself."""
    if model.m == 2:
        return np.less(rng.random(out=work.floats), e, out=work.answer(slot, bool))
    a = work.answer(slot, np.int64)
    a[...] = np.less(rng.random(out=work.floats), e, out=work.flags)  # a copy: a cast in a multiply takes a buffer
    a *= rng.integers(1, model.m, size=a.shape[0])
    return a


def dense_binary_penalty(model, a: np.ndarray, b: np.ndarray, work: DenseWork) -> np.ndarray:
    """``C * (a != b)``, written into ``work.penalty``."""
    x = work.penalty
    x[...] = np.not_equal(a, b, out=work.flags)  # a copy widens the flags: a cast inside a multiply takes a buffer
    x *= model.C
    return x


def _dense_mean_stderr(x: np.ndarray) -> tuple[float, float]:
    """``x.mean()`` and ``x.std(ddof=1) / sqrt(n)`` by numpy's own steps, taken once; ``x`` is overwritten."""
    n = x.shape[0]
    mean = x.sum() / n
    x -= mean
    x *= x
    return float(mean), math.sqrt(x.sum() / (n - 1)) / math.sqrt(n)


def simulate_dense_binary(config: SimConfig) -> SimReport:
    """Sample the answer model's penalty on every supervision pair of the structure.

    Tasks are drawn one at a time, in the sorted order of ``structure.judged``; rows are reported by level and worker.
    """
    model = require_instance(config, SimConfig, "config").answer_model
    structure = config.structure
    strategy = {}
    for w in sorted({w for _, p, c, _ in structure.judged for w in (p, c)}):
        if w in config.strategies:
            s = config.strategies[w]
        elif w == structure.supervisor:
            s = model.exact
        else:
            raise SuperviseError(f"strategies must cover worker {w!r}")
        strategy[w] = model.strategy(w, s)

    rng = np.random.default_rng(config.seed)
    rows = []
    with np.errstate(over="ignore", invalid="ignore"):  # overflows: refused below
        work = DenseWork(config.episodes)
        for _, task_pairs in itertools.groupby(structure.judged, itemgetter(0)):
            task_pairs = list(task_pairs)
            # one answer per performer of the task: the same draw serves every pair that reads it
            performers = sorted({w for _, p, c, _ in task_pairs for w in (p, c)})
            answer = {w: dense_binary_answer(model, rng, strategy[w], work, i) for i, w in enumerate(performers)}
            for _, p, w, level in task_pairs:
                emp, se = _dense_mean_stderr(dense_binary_penalty(model, answer[w], answer[p], work))
                if not (math.isfinite(emp) and math.isfinite(se)):
                    raise SuperviseError(f"the sampled penalty of worker {w!r} under {p!r} has a mean or stderr "
                                         f"beyond the float range")
                analytic = model.expected(strategy[w], strategy[p])
                rows.append(WorkerStats(w, level, emp, se, analytic, _z(emp, analytic, se)))
    rows.sort(key=lambda r: (r.level, r.worker))
    return SimReport(rows=tuple(rows), episodes=config.episodes, seed=config.seed)


# The joint law of a binary task's disagreement counts, written from the answer model: in each episode every
# performer answers right w.p. 1 - e and else one of the m - 1 wrong answers uniformly, independently of the others
# and of the other episodes.  One episode's law is enumerated over every performer's answer, and the counts' law is
# its n-fold convolution.


def binary_count_law(rows, model, strategy, episodes: int) -> dict[tuple[int, ...], float]:
    """The probability of each tuple of disagreement counts of ``rows``, one task's ``(task, superior, worker,
    level)`` rows, in their order, over ``episodes`` episodes."""
    performers = sorted({w for _, p, c, _ in rows for w in (p, c)})
    episode = collections.Counter()
    for answers in itertools.product(range(model.m), repeat=len(performers)):  # answer 0 is the right one
        prob = math.prod((1.0 - strategy[w]) if a == 0 else strategy[w] / (model.m - 1)
                         for w, a in zip(performers, answers))
        answer = dict(zip(performers, answers))
        episode[tuple(int(answer[p] != answer[c]) for _, p, c, _ in rows)] += prob
    law = {(0,) * len(rows): 1.0}
    for _ in range(episodes):
        step = collections.Counter()
        for counts, p0 in law.items():
            for flags, p1 in episode.items():
                step[tuple(map(sum, zip(counts, flags)))] += p0 * p1
        law = step
    return dict(law)


# The three sweeps' draws and their grid loop as they were before the binary sweeps answered from one sorted pass
# and the quadratic one reused its array, frozen verbatim: each grid point recomputed its loss over every episode.
# They return the mean losses, which must match the library's to the bit.


def _sweep_losses(f, k, grid, episodes, seed, draw) -> tuple[float, ...]:
    penalty = draw(np.random.default_rng(seed), episodes)
    return tuple(k * effort_eval(f, v) + float(penalty(v)) for v in map(float, grid))


def sweep_flat_losses(f, params: SchemeParams, p, grid, episodes, seed) -> tuple[float, ...]:
    C = params.C

    def draw(rng, n):
        checked = rng.random(n) < p
        u_wrong = rng.random(n)
        return lambda e: C * (checked & (u_wrong < e)).mean()

    return _sweep_losses(f, params.k, grid, episodes, seed, draw)


# The library's pair sweep draws no truth; its bit coupling patches this hook onto a generator of its own.
def pair_truth(rng, m, n):
    return rng.integers(0, m, size=n)


def sweep_pair_losses(f, params: SchemeParams, e_w, grid, episodes, seed) -> tuple[float, ...]:
    C, m = params.C, params.m

    def draw(rng, n):
        truth = pair_truth(rng, m, n)
        a_sup = _sample_binary_answers(rng, truth, e_w, m)
        u_wrong = rng.random(n)
        offset = rng.integers(1, m, size=n)
        return lambda e: C * (_offset_answers(truth, u_wrong < e, offset, m) != a_sup).mean()

    return _sweep_losses(f, params.k, grid, episodes, seed, draw)


def sweep_quant_losses(f, k, c, grid, episodes, seed, sigma_w=1.0, bias_w=0.0) -> tuple[float, ...]:
    def draw(rng, n):
        z_u = rng.standard_normal(n)
        z_w = rng.standard_normal(n)
        diff_base = bias_w + sigma_w * z_w  # truth cancels in x - y
        return lambda v: c * ((math.sqrt(v) * z_u - diff_base) ** 2).mean()

    return _sweep_losses(f, k, grid, episodes, seed, draw)
