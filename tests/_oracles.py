"""Independent reference implementations the analytic code is checked against.

Deliberately slow and dumb: bisection on the derivative, dense grid argmin on
the loss itself, exhaustive search over covers, the quadratic originals of
the peg builder and the edge-deletion cover, the disjoint-worker greedy as
it was before graphs stored their rows sorted, the simulator's helpers as
they were before they left numpy's module functions for array methods, and
the equilibrium cascades as they were before they stopped at a repeat,
with result types of their own that store every level, the CSV writers
for those profiles as they were before they wrote repeated rows from a
cached tail, the divergence trace and its writer as they were before
the trace stopped at its first repeated error, and the Monte Carlo engine as
it was before it drew one task at a time.
Written straight from the defining formulas, or frozen before the fast paths
existed; the tests compare the two and neither side imports the other's
algorithm.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from supervise import (
    AssignmentGraph,
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
    WorkerStats,
    WorkerType,
    best_response_under_superior,
    effort_deriv,
    proficiency_sigma,
)
from supervise.allocation import _check_cover
from supervise.errors import require_int
from supervise.hierarchy import _require_hierarchical_epsilon, _validate_e0
from supervise.simulate import Structure, _z


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


# The simulator's answer and summary helpers as they were before numpy became a lazy import and their module
# functions became array methods, frozen verbatim: the rewrites must give the same bits.


def _offset_answers(truth: np.ndarray, wrong: np.ndarray, offset: np.ndarray, m: int) -> np.ndarray:
    """The truth where ``wrong`` is false, else the truth shifted by ``offset`` (in 1..m-1) mod m."""
    return (truth + np.where(wrong, offset, 0)) % m


def _mean_stderr(x: np.ndarray) -> tuple[float, float]:
    n = x.shape[0]
    return float(np.mean(x)), float(np.std(x, ddof=1) / math.sqrt(n))


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


# The Monte Carlo engine as it was before it drew one task at a time, frozen verbatim: it held every task's truth
# and every (worker, task) answer for all episodes at once.  Its draw order differs, so the two engines agree in
# their analytic columns exactly and in their empirical ones within sampling error.


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
    strategy = {}
    for w in sorted({w for p, c, _, _ in pairs for w in (p, c)}):
        if w in config.strategies:
            s = config.strategies[w]
        elif w == supervisor:
            s = model.exact
        else:
            raise SuperviseError(f"strategies must cover worker {w!r}")
        strategy[w] = model.strategy(w, s)

    import numpy as np

    rng = np.random.default_rng(config.seed)
    truth = {t: model.truth(rng, config.episodes) for t in sorted({t for _, _, t, _ in pairs})}
    combos = sorted({(w, t) for p, c, t, _ in pairs for w in (p, c)})
    # one answer per (worker, task): the same draw serves every pair that reads it
    answers = {(w, t): model.answer(rng, truth[t], strategy[w]) for w, t in combos}

    rows = []
    for p, w, t, level in pairs:
        # bound, so it is freed after the next pair's array exists: ~8 % faster on wide trees
        pen = model.penalty(answers[(w, t)], answers[(p, t)])
        emp, se = _mean_stderr(pen)
        analytic = model.expected(strategy[w], strategy[p])
        rows.append(WorkerStats(w, level, emp, se, analytic, _z(emp, analytic, se)))
    rows.sort(key=lambda r: (r.level, r.worker))
    return SimReport(rows=tuple(rows), episodes=config.episodes, seed=config.seed)
