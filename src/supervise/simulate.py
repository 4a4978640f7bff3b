"""Monte Carlo verification of the analytic losses.

One loop serves every structure and both answer models.  The answer model
says how a worker's answer is drawn from the worker's strategy, what a
disagreement costs, and what that cost is expected to be.  :class:`UniformWrong`
covers binary tasks: answered correctly with probability 1 - e and otherwise
uniformly among the m - 1 wrong answers.  :class:`Gaussian` covers quantitative
tasks: answers normal around the truth with a per-worker bias and variance.
Draws are independent across workers, tasks, and episodes.  Penalties are
charged on each worker's one shared task with its superior, and the empirical
means are reported next to the analytic expectations with a z-score, so a run
is a statistical test of the formulas, not a replacement for them.

Every row and every sweep is drawn from its sufficient statistics, never from
episode arrays.  No truth is drawn, since every penalty depends only on each
answer's offset from it.  A binary penalty is C times a disagreement flag, so a
row is the mean ``C * (n / N)`` and ddof=1 stderr
``C * sqrt(n (N - n) / (N (N - 1))) / sqrt(N)`` of the pair's disagreement
count n over N episodes.  A task's root performer is wrong in a ~ Bin(N, e)
episodes; a worker c judged by p, wrong in a_p, is wrong with p in
i ~ Bin(a_p, e_c) and alone in r ~ Bin(N - a_p, e_c), and at m >= 3 answers
like p in s ~ Bin(i, 1/(m - 1)) of the i (at m = 2 in all i).  Then
n = (a_p - i) + r + (i - s), and c is wrong in a_c = i + r.  Answers are
independent across performers and, given two wrong answers, agreement is
independent across the edges of a task's forest, so a task's rows have the
joint law that sampling every episode gives them.  A Gaussian answer's offset
is ``bias + sigma * z``.  A task's sample means and centred cross-product
matrix are drawn at once (:func:`_sufficient`, by Bartlett's decomposition), and
a row (w, p) with centred sum of squares S and mean gap mu has mean
``c (S / N + mu²)``.  Its stderr is the normal-theory plug-in
``c sqrt((2 s⁴ + 4 mu² s²) / N)`` with ``s² = S / (N - 1)``: the sample's fourth
moment is not a function of these statistics, so a Gaussian stderr is
model-based, where a binary one is exactly the empirical one.

Effort costs are deterministic in the strategy and are not sampled; report
rows therefore compare the penalty component.  The parameter sweeps, which do
need the effort term to have an interior optimum, take the effort function
explicitly and add it analytically, in one loop over the strategy grid.  Their
grid points share one draw, as common random numbers do: a binary sweep's counts
below every point come from one walk of nested binomials (:func:`_below`), and
the quadratic sweep's sums from one :func:`_sufficient` draw.

Determinism and memory: a structure lists its judged pairs as ``judged`` rows,
sorted by shared task, and one seeded generator serves the tasks in that
order.  The answer model's scorer takes each task's rows parents first, sorted
stably on their level.  A binary task draws for each row a for a root superior
not yet drawn, then i, r and, at m >= 3, s.  A Gaussian task draws its
performers' means and their Bartlett factor.  Both hold only counts and a
task's small matrices, so a run's cost and memory grow with its pairs, not its
episodes, and a sweep's with its grid.  Structures store their rows sorted, so
equal structures give equal reports however their JSON rows were ordered, and
identical configs produce identical reports.

numpy is imported inside the functions that use it, when they run, so
importing the package, and every subcommand but ``simulate``, runs without it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter, mul, sub
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, NamedTuple, Sequence, Union

from . import _EXPORTS
from ._csv import cyclic_csv_chunks
from .effort import EffortFunction, SchemeParams, effort_eval, implied_D
from .errors import FLOAT_MAX, ModelMismatchError, SuperviseError, require_instance, require_int, require_number
from .errors import require_prob, require_real
from .hierarchy import expected_penalty_pair
from .quant import expected_penalty_quant
from .structures import SupervisionHierarchy, SupervisionTree

if TYPE_CHECKING:
    import numpy as np

__all__ = _EXPORTS["simulate"]


# The largest episode count, 2**60 - 1 on a 64-bit build: one bound for both models and the sweeps.  numpy's binomial
# takes its count as an int64, so the bound must lie below 2**63; it stays where float64 episode arrays once put it,
# so that the episode counts a run accepts have not changed.
_EPISODES_MAX = sys.maxsize // 8


@dataclass(frozen=True)
class UniformWrong:
    """Binary-verifiable answers over m alternatives; disagreement costs C.

    A worker's strategy is its error probability.
    """

    m: int = 2
    C: float = 1.0
    exact = 0.0  # the strategy of a supervisor the strategies leave out

    def __post_init__(self) -> None:
        require_int(self.m, "m", 2, hi=FLOAT_MAX)
        object.__setattr__(self, "C", require_real(self.C, "C", 0.0, lo_open=True))

    def strategy(self, worker: str, e: object) -> float:
        return require_prob(e, f"binary strategy for {worker!r}", ModelMismatchError)

    def scorer(self, rng: np.random.Generator, strategy: Mapping[str, float], n: int) -> Callable[[list], Iterator]:
        """A task's ``judged`` rows, parents first, to each row and its mean and stderr, from its disagreement count
        over n episodes."""
        C, m, binomial = self.C, self.m, rng.binomial

        def score(task_pairs: list) -> Iterator[tuple[tuple, tuple[float, float]]]:
            wrong = {}  # the episodes in which each performer of the task is wrong
            for row in task_pairs:
                _, p, w, _ = row
                if p not in wrong:
                    wrong[p] = binomial(n, strategy[p])
                a_p, e = wrong[p], strategy[w]
                i = binomial(a_p, e)  # wrong with the superior
                r = binomial(n - a_p, e)  # wrong alone
                s = i if m == 2 else binomial(i, 1 / (m - 1))  # wrong alike
                wrong[w] = i + r
                d = (a_p - i) + r + (i - s)  # Python ints, so d (n - d) is exact
                yield row, (C * (d / n), C * math.sqrt(d * (n - d) / (n * (n - 1))) / math.sqrt(n))

        return score

    def expected(self, e_worker: float, e_superior: float) -> float:
        return expected_penalty_pair(e_worker, e_superior, self.C, implied_D(self.C, self.m))


@dataclass(frozen=True)
class Gaussian:
    """Real-valued answers; squared disagreement weighted by c.

    A worker's strategy is a ``(sigma, bias)`` pair.
    """

    c: float = 1.0
    exact = (0.0, 0.0)  # the strategy of a supervisor the strategies leave out

    def __post_init__(self) -> None:
        object.__setattr__(self, "c", require_real(self.c, "c", 0.0, lo_open=True))

    def strategy(self, worker: str, sv: object) -> tuple[float, float]:
        if not (isinstance(sv, (list, tuple)) and len(sv) == 2):  # a string, bytes or mapping would unpack too
            raise ModelMismatchError(f"quantitative strategy for {worker!r} must be a (sigma, bias) pair, got {sv!r}")
        sigma, bias = sv
        return (
            require_real(sigma, f"sigma for {worker!r}", 0.0, error=ModelMismatchError),
            require_real(bias, f"bias for {worker!r}", error=ModelMismatchError),
        )

    def scorer(self, rng: np.random.Generator, strategy: Mapping[str, tuple], n: int) -> Callable[[list], Iterator]:
        """A task's ``judged`` rows to each row and the mean and stderr of its ``c * (a - b) ** 2`` over n episodes,
        from one :func:`_sufficient` draw for the task's performers.  A row (w, p) has centred sum of squares
        ``S = |sigma_w A_w - sigma_p A_p|²``, a difference of rows that cancels nothing, and mean gap
        ``mu = ā_w - ā_p``; its mean is ``c (S / n + mu²)`` and its stderr ``c sqrt((2 s⁴ + 4 mu² s²) / n)`` with
        ``s² = S / (n - 1)``, in Python floats, so a sum beyond the float range is inf, not a numpy warning."""
        c = self.c

        def score(task_pairs: list) -> Iterator[tuple[tuple, tuple[float, float]]]:
            slot = {}  # each performer's index in the draw, in the order the rows name them
            for _, p, w, _ in task_pairs:
                slot.setdefault(p, len(slot))
                slot.setdefault(w, len(slot))
            means, rows = _sufficient(rng, [strategy[x] for x in slot], n)
            for row in task_pairs:
                _, p, w, _ = row
                S = sum(d * d for d in map(sub, rows[slot[w]], rows[slot[p]]))
                mu = means[slot[w]] - means[slot[p]]
                s2 = S / (n - 1)
                yield row, (c * (S / n + mu * mu), c * math.sqrt(s2 / n) * math.sqrt(2 * s2 + 4 * mu * mu))

        return score

    def expected(self, s_worker: tuple[float, float], s_superior: tuple[float, float]) -> float:
        return expected_penalty_quant(*s_worker, *s_superior, self.c)


def _sufficient(
    rng: np.random.Generator, performers: Sequence[tuple[float, float]], n: int
) -> tuple[list[float], list[list[float]]]:
    """The sample means of q performers' answers ``bias + sigma z`` over n episodes, and a factor of their centred
    cross-product matrix: row i is ``sigma_i A_i``, so the matrix is the rows' Gram matrix.

    The means are ``bias_i + sigma_i z_i / sqrt(n)``.  The matrix is independent of them and Wishart(n - 1,
    diag sigma²), drawn by Bartlett's decomposition: A is lower triangular, ``A_ii² ~ χ²(n - 1 - i)`` (twice a
    standard gamma), with standard normals below the diagonal.  A column whose degrees of freedom are not positive
    is 0, the singular Wishart of a task with more performers than n - 1, so a row holds min(q, n - 1) columns.  A
    task costs at most q + q (q - 1) / 2 normals and q gammas, whatever n is.
    """
    q, cols = len(performers), min(len(performers), n - 1)
    z = iter(rng.standard_normal(q + sum(min(i, cols) for i in range(q))).tolist())
    # one scalar call a column: given a list of shapes, numpy converts and checks it, at several times a draw's cost
    diagonal = [math.sqrt(2 * rng.standard_gamma((n - 1 - j) / 2)) for j in range(cols)]
    root_n = math.sqrt(n)
    means = [bias + sigma * (next(z) / root_n) for sigma, bias in performers]
    rows = []
    for i, (sigma, _) in enumerate(performers):
        a = [next(z) for _ in range(min(i, cols))] + diagonal[i : i + 1]
        rows.append([sigma * x for x in a] + [0.0] * (cols - len(a)))
    return means, rows


def _require_run(episodes: int, seed: int) -> None:
    require_int(episodes, "episodes", 2, hi=_EPISODES_MAX)
    require_int(seed, "seed", 0)  # numpy generators take no negative seed


@dataclass(frozen=True)
class SimConfig:
    episodes: int
    seed: int
    answer_model: Union[UniformWrong, Gaussian]
    structure: Union[SupervisionTree, SupervisionHierarchy]
    strategies: Mapping[str, object]

    def __post_init__(self) -> None:
        _require_run(self.episodes, self.seed)
        if not isinstance(self.answer_model, (UniformWrong, Gaussian)):
            raise ModelMismatchError(f"unsupported answer model {type(self.answer_model).__name__}")
        if not isinstance(self.structure, (SupervisionTree, SupervisionHierarchy)):
            raise ModelMismatchError(f"unsupported structure type {type(self.structure).__name__}")
        if not isinstance(self.strategies, Mapping):
            raise ModelMismatchError(f"strategies must map worker ids to strategies, got {self.strategies!r}")


class WorkerStats(NamedTuple):
    worker: str
    level: int
    empirical: float
    stderr: float
    analytic: float
    z: float


@dataclass(frozen=True)
class SimReport:
    """One row per judged worker, by level and worker, and the run's episode count and seed."""

    rows: tuple[WorkerStats, ...]
    episodes: int
    seed: int

    def __post_init__(self) -> None:
        if not (isinstance(self.rows, tuple) and all(isinstance(r, WorkerStats) for r in self.rows)):
            raise SuperviseError(f"rows must be a tuple of WorkerStats rows, got {self.rows!r}")
        for r in self.rows:
            require_instance(r.worker, str, "worker")
            require_int(r.level, "level", 0)
            for name, x in zip(WorkerStats._fields[2:], r[2:]):
                require_number(x, name)  # infinities pass: _z returns inf for a zero stderr
        _require_run(self.episodes, self.seed)

    @property
    def max_abs_z(self) -> float:
        return max((abs(r.z) for r in self.rows), default=0.0)

    def csv_chunks(self) -> Iterator[str]:
        """The rows as CSV, 4096 at a time: a period-0 profile of the report's rows."""
        return cyclic_csv_chunks(WorkerStats._fields, (((), self.rows, 0, 0),))

    def to_csv(self) -> str:
        return "".join(self.csv_chunks())  # perfbench hashes this name; it leaves with ROADMAP item 11


def _z(emp: float, analytic: float, stderr: float) -> float:
    if stderr > 0:
        return (emp - analytic) / stderr
    return 0.0 if emp == analytic else math.inf


def simulate(config: SimConfig) -> SimReport:
    """Sample the answer model's penalty on every supervision pair of the structure.

    Tasks are drawn one at a time, in the sorted order of ``structure.judged``, each task's rows parents first, from
    their sufficient statistics; rows are reported by level and worker.
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

    import numpy as np

    rng = np.random.default_rng(config.seed)
    rows = []
    score = model.scorer(rng, strategy, config.episodes)
    for _, task_pairs in groupby(structure.judged, itemgetter(0)):
        # parents first: a superior's level is below its worker's, and the sort is stable
        for (_, p, w, level), (emp, se) in score(sorted(task_pairs, key=itemgetter(3))):
            if not (math.isfinite(emp) and math.isfinite(se)):
                raise SuperviseError(f"the sampled penalty of worker {w!r} under {p!r} has a mean or stderr "
                                     f"beyond the float range")
            analytic = model.expected(strategy[w], strategy[p])
            rows.append(WorkerStats(w, level, emp, se, analytic, _z(emp, analytic, se)))
    rows.sort(key=lambda r: (r.level, r.worker))
    return SimReport(rows=tuple(rows), episodes=config.episodes, seed=config.seed)


def simulate_binary(config: SimConfig) -> SimReport:
    """:func:`simulate` for a config that must carry a :class:`UniformWrong` model."""
    if not isinstance(require_instance(config, SimConfig, "config").answer_model, UniformWrong):
        raise ModelMismatchError("simulate_binary needs a UniformWrong answer model")
    return simulate(config)


def simulate_quant(config: SimConfig) -> SimReport:
    """:func:`simulate` for a config that must carry a :class:`Gaussian` model."""
    if not isinstance(require_instance(config, SimConfig, "config").answer_model, Gaussian):
        raise ModelMismatchError("simulate_quant needs a Gaussian answer model")
    return simulate(config)


def _require_grid(values: tuple) -> tuple:
    if len(values) < 2:
        raise SuperviseError("strategy grid needs at least two points")
    return values


@dataclass(frozen=True)
class SweepResult:
    """Empirical loss over a strategy grid of at least two finite points (a loss may be inf, not NaN), and its
    argmin, derived: ``best_index`` is the first least mean loss and ``best_value`` the grid point there."""

    values: tuple[float, ...]
    mean_losses: tuple[float, ...]

    def __post_init__(self) -> None:
        if not (isinstance(self.values, tuple) and isinstance(self.mean_losses, tuple)
                and len(self.values) == len(self.mean_losses)):
            raise SuperviseError("values and mean_losses must be tuples of one length")
        for v in _require_grid(self.values):
            require_real(v, "grid point")
        for loss in self.mean_losses:
            require_number(loss, "mean loss")

    @property
    def best_index(self) -> int:
        return self.mean_losses.index(min(self.mean_losses))

    @property
    def best_value(self) -> float:
        return self.values[self.best_index]


def _sweep(
    f: EffortFunction,
    k: int,
    grid: Sequence[float],
    episodes: int,
    seed: int,
    draw: Callable[[np.random.Generator, int, tuple], Callable[[float], float]],
) -> SweepResult:
    """Loss ``k f(v) + penalty(v)`` at every grid point, and its argmin.

    ``draw(rng, episodes, values)`` samples once for the whole grid and returns
    ``penalty``, so every grid point sees the same random numbers.
    """
    require_instance(f, EffortFunction, "f")
    try:
        vals = tuple(float(v) for v in grid)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SuperviseError(f"strategy grid must hold reals: {exc}") from exc
    _require_grid(vals)
    import numpy as np

    rng = np.random.default_rng(require_int(seed, "seed", 0))
    n = require_int(episodes, "episodes", 1, hi=_EPISODES_MAX)
    efforts = [k * effort_eval(f, v) for v in vals]  # first: a point outside f's domain raises a domain error
    penalty = draw(rng, n, vals)
    losses = []
    for v, effort in zip(vals, efforts):
        mean = penalty(v)
        if not math.isfinite(mean):
            raise SuperviseError(f"the sampled penalty at grid point {v!r} has a mean beyond the float range")
        losses.append(effort + mean)
    return SweepResult(values=vals, mean_losses=tuple(losses))


def _below(binomial: Callable[[int, float], int], n: int, points: Sequence[float]) -> Callable[[float], int]:
    """``e -> #{u < e}`` over n uniforms, at grid points clamped to [0, 1], with the joint law of thresholding the
    same uniforms at every point: the distinct points are walked in ascending order, and the count below e_j is
    ``c_{j-1} + Bin(n - c_{j-1}, (e_j - e_{j-1}) / (1 - e_{j-1}))``, from e_0 = 0 and c_0 = 0."""
    clamp = lambda e: min(max(e, 0.0), 1.0)  # noqa: E731
    below, lo, c = {}, 0.0, 0
    for e in sorted(set(map(clamp, points))):
        if e > lo:
            c += binomial(n - c, (e - lo) / (1.0 - lo))
            lo = e
        below[e] = c
    return lambda e: below[clamp(e)]


def sweep_flat(
    f: EffortFunction, params: SchemeParams, p: float, grid: Sequence[float], episodes: int, seed: int
) -> SweepResult:
    """Empirical flat loss k f(e) + C [checked][wrong] over an error grid.

    Common random numbers across grid points: the loss at e is C #{checked and u < e} / n for the same uniforms at
    every e, so the argmin is far less noisy than independent runs of the same length.  The checked count is drawn
    as K ~ Bin(n, p), and the counts below the grid points by one :func:`_below` walk over the K checked episodes.
    """
    p = require_prob(p, "verification probability")
    C = require_instance(params, SchemeParams, "params").require_C()

    def draw(rng: np.random.Generator, n: int, points: tuple) -> Callable[[float], float]:
        below = _below(rng.binomial, rng.binomial(n, p), points)
        return lambda e: C * (below(e) / n)

    return _sweep(f, params.k, grid, episodes, seed, draw)


def sweep_pair(
    f: EffortFunction, params: SchemeParams, e_w: float, grid: Sequence[float], episodes: int, seed: int
) -> SweepResult:
    """Empirical pair loss against a superior playing error e_w.

    The superior is wrong in a ~ Bin(n, e_w) episodes, and a wrong worker would answer like it in
    s ~ Bin(a, 1/(m - 1)) of them (s = a at m = 2): the count law of :class:`UniformWrong`'s scorer for a root
    superior.  A worker playing e disagrees in the superior's wrong episodes but the alike ones it gets wrong, and
    in the right superior's episodes it gets wrong, so the loss at e is C (a + R(e) - S(e)) / n, where R walks the
    n - a episodes of a right superior and S the s alike ones (:func:`_below`).  Wrong answers are uniform, so the
    one both-wrong penalty the draws realize is ``implied_D(C, m)``; a params with another D is refused.
    """
    e_w = require_prob(e_w, "superior error")
    C, m = require_instance(params, SchemeParams, "params").require_C(), params.m
    if (D := params.effective_D()) != implied_D(C, m):
        raise ModelMismatchError(
            f"sweep_pair samples uniformly wrong answers, so D must be implied_D(C, m) = {implied_D(C, m)!r}, got {D!r}"
        )

    def draw(rng: np.random.Generator, n: int, points: tuple) -> Callable[[float], float]:
        binomial = rng.binomial
        a = binomial(n, e_w)
        s = a if m == 2 else binomial(a, 1 / (m - 1))
        right, alike = _below(binomial, n - a, points), _below(binomial, s, points)
        return lambda e: C * ((a + right(e) - alike(e)) / n)

    return _sweep(f, params.k, grid, episodes, seed, draw)


def sweep_quant(
    f: EffortFunction,
    k: int,
    c: float,
    grid: Sequence[float],
    episodes: int,
    seed: int,
    sigma_w: float = 1.0,
    bias_w: float = 0.0,
) -> SweepResult:
    """Empirical quadratic loss k f(v) + c (x - y)^2 over a variance grid.

    The worker's answer is ``sqrt(v) z`` and the superior's offset ``y = bias_w + sigma_w w``, so the loss at v is
    ``c (v Szz - 2 sqrt(v) Szy + Syy) / n`` in the raw sums of z², z y and y², taken from one :func:`_sufficient`
    draw for the performers (1, 0) and (sigma_w, bias_w).
    """
    require_int(k, "k", 1, hi=FLOAT_MAX)
    require_real(c, "c", 0.0, lo_open=True)
    require_real(sigma_w, "sigma_w", 0.0)
    require_real(bias_w, "bias_w")

    def draw(rng: np.random.Generator, n: int, points: tuple) -> Callable[[float], float]:
        (m_z, m_y), (a_z, a_y) = _sufficient(rng, ((1.0, 0.0), (sigma_w, bias_w)), n)
        Szz = sum(map(mul, a_z, a_z)) + n * m_z * m_z
        Szy = sum(map(mul, a_z, a_y)) + n * m_z * m_y
        Syy = sum(map(mul, a_y, a_y)) + n * m_y * m_y
        return lambda v: c * ((v * Szz - 2 * math.sqrt(v) * Szy + Syy) / n)

    return _sweep(f, k, grid, episodes, seed, draw)
