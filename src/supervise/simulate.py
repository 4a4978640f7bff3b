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

No truth is drawn: each answer is drawn as its offset from the truth, and
every penalty depends only on those offsets.  A binary offset is 0 where the
answer is right, else uniform in 1..m-1; at m = 2 it is the wrong flag itself.
Two binary answers differ exactly when their offsets differ, since adding one
truth mod m maps offsets to answers one to one.  A Gaussian offset is
``bias + sigma * z``, and the truth cancels from the difference of two answers.
So the penalties have the distribution they would have with any truth drawn.

Effort costs are deterministic in the strategy and are not sampled; report
rows therefore compare the penalty component.  The parameter sweeps, which do
need the effort term to have an interior optimum, take the effort function
explicitly and add it analytically, in one loop over the strategy grid.

Determinism and memory: one seeded generator draws the tasks one at a time,
in sorted id order, one answer per performer of the task in sorted worker
order.  That task's pairs are then scored, so peak memory is one task's arrays:
one answer array per performer and three episode-length arrays (at m >= 3 one
more while an offset is drawn), whatever the size of the structure.  Those
arrays are made once per run and reused for every task: one float and one bool
scratch array, one penalty array, and one answer array per performer position,
of bools at m = 2, int64 offsets at larger m and floats for Gaussian answers.
Structures store their rows sorted, so equal structures give equal reports
however their JSON rows were ordered; with numpy's fixed-order reductions,
identical configs produce identical reports.

The binary sweeps sort their uniforms once: a grid point's loss is a count of
the uniforms below it, read with one binary search.

numpy is imported inside the functions that use it, when they run, so
importing the package, and every subcommand but ``simulate``, runs without it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import partial
from itertools import groupby
from operator import itemgetter
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


# The largest answer-set size: an offset, below m, is an int64 draw.  Any m up to 2**63 would fit; the bound is
# the one answers of the form truth + offset, below 2 m, needed, kept so that the same models are refused.
_M_MAX = 2**62
# The largest episode count whose float64 array numpy can size: its byte count must fit an intp.
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
        require_int(self.m, "m", 2, hi=_M_MAX)
        object.__setattr__(self, "C", require_real(self.C, "C", 0.0, lo_open=True))

    def strategy(self, worker: str, e: object) -> float:
        return require_prob(e, f"binary strategy for {worker!r}", ModelMismatchError)

    def answer(self, rng: np.random.Generator, e: float, work: _Work, slot: int) -> np.ndarray:
        """The answer's offset from the truth, in the pooled answer array of the performer's slot: 0 where it is
        right, w.p. 1 - e, else uniform in 1..m-1.  At m = 2 it is the wrong flag itself."""
        import numpy as np

        if self.m == 2:
            return np.less(rng.random(out=work.floats), e, out=work.answer(slot, bool))
        a = work.answer(slot, np.int64)
        a[...] = np.less(rng.random(out=work.floats), e, out=work.flags)  # a copy: a cast in a multiply takes a buffer
        a *= rng.integers(1, self.m, size=a.shape[0])
        return a

    def penalty(self, a: np.ndarray, b: np.ndarray, work: _Work) -> np.ndarray:
        """``C * (a != b)``, written into ``work.penalty``."""
        import numpy as np

        x = work.penalty
        x[...] = np.not_equal(a, b, out=work.flags)  # a copy widens the flags: a cast inside a multiply takes a buffer
        x *= self.C
        return x

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

    def answer(self, rng: np.random.Generator, s: tuple[float, float], work: _Work, slot: int) -> np.ndarray:
        """The answer's offset from the truth, ``bias + sigma * z``, in the pooled answer array of the performer's
        slot."""
        sigma, bias = s
        a = rng.standard_normal(out=work.answer(slot, float))
        a *= sigma
        a += bias
        return a

    def penalty(self, a: np.ndarray, b: np.ndarray, work: _Work) -> np.ndarray:
        """``c * (a - b) ** 2``, written into ``work.penalty``."""
        import numpy as np

        x = np.square(np.subtract(a, b, out=work.penalty), out=work.penalty)
        x *= self.c
        return x

    def expected(self, s_worker: tuple[float, float], s_superior: tuple[float, float]) -> float:
        return expected_penalty_quant(*s_worker, *s_superior, self.c)


Structure = Union[SupervisionTree, SupervisionHierarchy]


def _require_run(episodes: int, seed: int) -> None:
    require_int(episodes, "episodes", 2, hi=_EPISODES_MAX)
    require_int(seed, "seed", 0)  # numpy generators take no negative seed


@dataclass(frozen=True)
class SimConfig:
    episodes: int
    seed: int
    answer_model: Union[UniformWrong, Gaussian]
    structure: Structure
    strategies: Mapping[str, object]

    def __post_init__(self) -> None:
        _require_run(self.episodes, self.seed)
        if not isinstance(self.answer_model, (UniformWrong, Gaussian)):
            raise ModelMismatchError(f"unsupported answer model {type(self.answer_model).__name__}")
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


def _supervision_pairs(structure: Structure) -> tuple[str, list[tuple[str, str, str, int]]]:
    """The supervisor, and (superior, worker, shared task, worker level) for every judged worker."""
    if isinstance(structure, SupervisionTree):
        tree = structure
        extra: list[tuple[str, str, str, int]] = []
    elif isinstance(structure, SupervisionHierarchy):
        tree = structure.tree
        extra = [(tree.parent[t], w, t, structure.equilibrium_depth) for w, t in structure.coverage]
    else:
        raise ModelMismatchError(f"unsupported structure type {type(structure).__name__}")
    level_of = {n: i for i, lv in enumerate(tree.levels) for n in lv}
    pairs = [(p, c, t, level_of[c]) for p, c, t in tree.shared]
    return tree.supervisor, pairs + extra


class _Work:
    """The episode-length arrays one run makes once and reuses: a float and a bool scratch array, the penalty
    array, and the answer array of each performer slot, made when the slot is first used."""

    def __init__(self, n: int) -> None:
        import numpy as np

        self.floats, self.flags, self.penalty = np.empty(n), np.empty(n, dtype=bool), np.empty(n)
        self._answers: dict[int, np.ndarray] = {}
        self._empty = partial(np.empty, n)

    def answer(self, slot: int, dtype: type) -> np.ndarray:
        """The answer array of a performer slot; a run's model asks for every slot in one dtype."""
        a = self._answers.get(slot)
        if a is None:
            a = self._answers[slot] = self._empty(dtype)
        return a


def _mean_stderr(x: np.ndarray) -> tuple[float, float]:
    """``x.mean()`` and ``x.std(ddof=1) / sqrt(n)`` by numpy's own steps, taken once; ``x`` is overwritten."""
    n = x.shape[0]
    mean = x.sum() / n
    x -= mean
    x *= x
    return float(mean), math.sqrt(x.sum() / (n - 1)) / math.sqrt(n)


def _z(emp: float, analytic: float, stderr: float) -> float:
    if stderr > 0:
        return (emp - analytic) / stderr
    return 0.0 if emp == analytic else math.inf


def simulate(config: SimConfig) -> SimReport:
    """Sample the answer model's penalty on every supervision pair of the structure.

    Tasks are drawn one at a time, in sorted id order, and rows are reported by level and worker.
    """
    model = require_instance(config, SimConfig, "config").answer_model
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
    work = _Work(config.episodes)
    rows = []
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reaches a pair's mean or stderr, refused below
        for _, task_pairs in groupby(sorted(pairs, key=itemgetter(2)), itemgetter(2)):
            task_pairs = list(task_pairs)
            # one answer per performer of the task: the same draw serves every pair that reads it
            performers = sorted({w for p, c, _, _ in task_pairs for w in (p, c)})
            answer = {w: model.answer(rng, strategy[w], work, i) for i, w in enumerate(performers)}
            for p, w, _, level in task_pairs:
                emp, se = _mean_stderr(model.penalty(answer[w], answer[p], work))
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
    draw: Callable[[np.random.Generator, int], Callable[[float], float]],
) -> SweepResult:
    """Loss ``k f(v) + penalty(v)`` at every grid point, and its argmin.

    ``draw(rng, episodes)`` samples once and returns ``penalty``, so every
    grid point sees the same random numbers.
    """
    require_instance(f, EffortFunction, "f")
    try:
        vals = tuple(float(v) for v in grid)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SuperviseError(f"strategy grid must hold reals: {exc}") from exc
    _require_grid(vals)
    import numpy as np

    losses = []
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reaches a mean penalty, refused below
        rng = np.random.default_rng(require_int(seed, "seed", 0))
        penalty = draw(rng, require_int(episodes, "episodes", 1, hi=_EPISODES_MAX))
        for v in vals:
            effort = k * effort_eval(f, v)  # first: a point outside f's domain raises a domain error, not the penalty's
            mean = float(penalty(v))
            if not math.isfinite(mean):
                raise SuperviseError(f"the sampled penalty at grid point {v!r} has a mean beyond the float range")
            losses.append(effort + mean)
    return SweepResult(values=vals, mean_losses=tuple(losses))


def _count_below(u: np.ndarray, weight: np.ndarray) -> Callable[[float], int]:
    """``e -> sum(weight[u < e])``: ``u`` is sorted once and its weights summed in that order, so a query is one
    binary search, and O(n log n + G log n) answers G queries."""
    import numpy as np

    order = u.argsort()
    prefix = np.zeros(u.shape[0] + 1, dtype=np.int64)
    np.cumsum(weight[order], dtype=np.int64, out=prefix[1:])
    u = u[order]
    return lambda e: int(prefix[u.searchsorted(e)])


def sweep_flat(
    f: EffortFunction, params: SchemeParams, p: float, grid: Sequence[float], episodes: int, seed: int
) -> SweepResult:
    """Empirical flat loss k f(e) + C [checked][wrong] over an error grid.

    Common random numbers across grid points: the same uniforms are
    thresholded at each e, so the argmin is far less noisy than independent
    runs of the same length.  The loss at e is C #{checked and u < e} / n.
    """
    p = require_prob(p, "verification probability")
    C = require_instance(params, SchemeParams, "params").require_C()

    def draw(rng: np.random.Generator, n: int) -> Callable[[float], float]:
        checked = rng.random(n) < p
        count = _count_below(rng.random(n), checked)
        return lambda e: C * (count(e) / n)

    return _sweep(f, params.k, grid, episodes, seed, draw)


def sweep_pair(
    f: EffortFunction, params: SchemeParams, e_w: float, grid: Sequence[float], episodes: int, seed: int
) -> SweepResult:
    """Empirical pair loss against a superior playing error e_w.

    With d_r an episode's disagreement when the worker answers right and d_w when it answers wrong, the loss at e
    is C (sum d_r + sum over u < e of (d_w - d_r)) / n.  The answers are drawn as offsets from the truth, as in
    :func:`simulate`, after one truth draw that is never read: it keeps the stream, and so the losses, the sweep had
    when it added the truth to the offsets.  Wrong answers are uniform, so the one both-wrong penalty the draws
    realize is ``implied_D(C, m)``; a params with another D is refused.
    """
    e_w = require_prob(e_w, "superior error")
    C, m = require_instance(params, SchemeParams, "params").require_C(), require_int(params.m, "m", 2, hi=_M_MAX)
    if (D := params.effective_D()) != implied_D(C, m):
        raise ModelMismatchError(
            f"sweep_pair samples uniformly wrong answers, so D must be implied_D(C, m) = {implied_D(C, m)!r}, got {D!r}"
        )

    def draw(rng: np.random.Generator, n: int) -> Callable[[float], float]:
        import numpy as np

        work = _Work(n)
        rng.integers(0, m, size=n)  # the unread truth
        a_sup = UniformWrong(m, C).answer(rng, e_w, work, 0)
        u_wrong = rng.random(n)
        # a right worker's offset is 0, a wrong one's uniform in 1..m-1: at m = 2, integers(1, 2) draws nothing
        d_w = np.not_equal(rng.integers(1, m, size=n), a_sup)
        d_r = np.not_equal(a_sup, 0, out=work.flags)
        base = int(np.count_nonzero(d_r))
        count = _count_below(u_wrong, d_w.view(np.int8) - d_r.view(np.int8))
        return lambda e: C * ((base + count(e)) / n)

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
    """Empirical quadratic loss k f(v) + c (x - y)^2 over a variance grid."""
    require_int(k, "k", 1, hi=FLOAT_MAX)
    require_real(c, "c", 0.0, lo_open=True)
    require_real(sigma_w, "sigma_w", 0.0)
    require_real(bias_w, "bias_w")

    def draw(rng: np.random.Generator, n: int) -> Callable[[float], float]:
        import numpy as np

        z_u = rng.standard_normal(n)
        diff_base = bias_w + sigma_w * rng.standard_normal(n)  # truth cancels in x - y
        x = np.empty(n)

        def penalty(v: float) -> float:
            np.square(np.subtract(np.multiply(z_u, math.sqrt(v), out=x), diff_base, out=x), out=x)
            return c * x.mean()

        return penalty

    return _sweep(f, k, grid, episodes, seed, draw)
