"""Choosing few tasks that touch every worker.

A worker performing at most k tasks is "touched" by a task set S when S meets
its task list; the goal is the smallest such S, since that is what a
supervisor must grade to judge everyone.  Treating each worker's task list as
a hyperedge of size <= k over the task vertices makes this a minimum hitting
set, which drives both solvers below: exact enumeration for small instances
and a factor-k greedy built on disjoint picked hyperedges.

The exact solver enumerates task subsets in increasing cardinality with
bitmask pruning (capped at 24 tasks), exponential in the task count;
vertex-cover instances embed by making each graph edge a two-task worker,
which is why nothing faster should be expected.  The literal edge-deletion
variant `sa_greedy_edge_deletion` picks one random worker/task edge at a time
and keeps only the task; it produces valid covers but carries no
approximation-ratio claim here.  Both greedies run one loop, drawing each
pick from a Fenwick tree over the still-live rows (workers, or edges), so for
u workers and E edges `sa_greedy` costs O(E log u) and the variant O(E log E).
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Sequence

from . import _EXPORTS
from .errors import InstanceTooLargeError, SuperviseError, require_instance, require_int
from .structures import AssignmentGraph, _fresh_ids, _id_rows, _sorted_rows

__all__ = _EXPORTS["allocation"]

_EXACT_TASK_CAP = 24


@dataclass(frozen=True)
class SAInstance:
    """An assignment graph plus the degree bound k used in ratio claims."""

    graph: AssignmentGraph
    k: int

    def __post_init__(self) -> None:
        if require_instance(self.graph, AssignmentGraph, "graph").k > require_int(self.k, "k", 1):
            raise SuperviseError(f"the largest worker degree {self.graph.k} exceeds k={self.k}")


@dataclass(frozen=True)
class SASolution:
    """A covering task set and one ``(worker, covering task)`` row per worker, stored sorted, as graph rows are."""

    tasks: tuple[str, ...]
    cover_witness: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tasks", _sorted_rows(self.tasks, "tasks"))
        object.__setattr__(self, "cover_witness", _sorted_rows(self.cover_witness, "cover_witness", 2))

    @property
    def size(self) -> int:
        return len(self.tasks)


def _check_cover(inst: SAInstance, tasks: Iterable[str]) -> tuple[tuple[str, str], ...]:
    chosen = set(tasks)
    witness = []
    for w, ts in inst.graph.worker_tasks.items():
        for t in ts:
            if t in chosen:  # a worker's tasks are sorted: the smallest covering one
                witness.append((w, t))
                break
        else:
            raise SuperviseError(f"worker {w!r} not covered")
    return tuple(witness)


def sa_exact(inst: SAInstance) -> SASolution:
    """Minimum covering task set by exhaustive search.

    Iterative deepening over subset size; within a size, subsets are explored
    in lexicographic task-id order with suffix-reachability pruning, so the
    returned optimum is the lexicographically smallest one.  Instances over
    24 tasks raise InstanceTooLargeError, which callers read as "no optimum".
    """
    tasks = require_instance(inst, SAInstance, "inst").graph.tasks
    if len(tasks) > _EXACT_TASK_CAP:
        raise InstanceTooLargeError(
            f"exact solver caps at {_EXACT_TASK_CAP} tasks, got {len(tasks)}; use a greedy cover instead"
        )
    workers = inst.graph.workers
    widx = {w: i for i, w in enumerate(workers)}
    full = (1 << len(workers)) - 1
    covers = []
    for t in tasks:
        mask = 0
        for w in inst.graph.task_workers.get(t, ()):
            mask |= 1 << widx[w]
        covers.append(mask)
    # suffix[i] = everything tasks[i:] can still cover
    suffix = [0] * (len(tasks) + 1)
    for i in range(len(tasks) - 1, -1, -1):
        suffix[i] = suffix[i + 1] | covers[i]

    chosen: list[int] = []

    def dfs(start: int, covered: int, remaining: int) -> bool:
        if covered == full:
            return True
        if remaining == 0 or covered | suffix[start] != full:
            return False
        for i in range(start, len(tasks) - remaining + 1):
            chosen.append(i)
            if dfs(i + 1, covered | covers[i], remaining - 1):
                return True
            chosen.pop()
        return False

    for size in range(0, len(tasks) + 1):
        chosen.clear()
        if dfs(0, 0, size):
            picked = tuple(tasks[i] for i in chosen)
            return SASolution(tasks=picked, cover_witness=_check_cover(inst, picked))
    raise SuperviseError("unreachable: a validated graph gives every worker a task")  # pragma: no cover


def _nth_live(fenwick: list[int], r: int) -> int:
    """The 0-based position of the r-th (0-based) live entry among the n counted by ``fenwick``.

    ``fenwick[j]`` counts the live positions in (j - lowbit(j), j], 1-based; the r-th live position sits after
    the longest prefix holding at most r live ones, found by one descent from the largest power of two <= n.
    """
    n, pos = len(fenwick) - 1, 0
    step = 1 << n.bit_length() >> 1
    while step:
        if pos + step <= n and fenwick[pos + step] <= r:
            pos += step
            r -= fenwick[pos]
        step >>= 1
    return pos


def _deletion_cover(inst: SAInstance, seed: int, n: int, pick: Callable) -> SASolution:
    """The cover made by picking a seeded-random live row among ``n`` until none is live.

    ``pick(row)`` returns the tasks that picking the row chooses and the rows it deletes, the picked row among them.
    A Fenwick tree counts the live rows, so the ``rng.randrange(live)``-th is found by one descent and a row is
    deleted in O(log n).  ``rng.choice(seq)`` is ``seq[rng._randbelow(len(seq))]`` and ``rng.randrange(n)`` is
    ``rng._randbelow(n)``, so the picks are those of ``rng.choice`` over the list of live rows rebuilt after each pick.
    """
    rng = random.Random(require_int(seed, "seed", 0))
    live = n
    fenwick = [j & -j for j in range(n + 1)]  # all rows start live
    alive = [True] * n
    chosen: set[str] = set()
    while live:
        row = _nth_live(fenwick, rng.randrange(live))
        if not alive[row]:  # wrong counts: a dead pick deletes nothing, so the loop would never end
            raise AssertionError(f"the Fenwick descent picked row {row}, which is already deleted")
        tasks, deleted = pick(row)
        chosen.update(tasks)
        for i in deleted:
            if alive[i]:
                alive[i] = False
                live -= 1
                j = i + 1
                while j <= n:
                    fenwick[j] -= 1
                    j += j & -j
    return SASolution(tasks=tuple(chosen), cover_witness=_check_cover(inst, chosen))


def sa_greedy(inst: SAInstance, seed: int) -> SASolution:
    """Disjoint-worker greedy: within factor k of the optimum.

    Repeatedly pick a seeded-random still-uncovered worker and take all of
    its (at most k) tasks.  Any two picked workers share no task — otherwise
    the second was already covered — so an optimal cover spends at least one
    distinct task per picked worker, giving |S| <= k * |OPT|.

    O(E log u) for u workers and E edges: the rows are the workers in sorted
    order, and a pick deletes every worker that performs a task it takes.
    """
    workers = require_instance(inst, SAInstance, "inst").graph.workers
    worker_tasks, task_workers = inst.graph.worker_tasks, inst.graph.task_workers
    index = {w: i for i, w in enumerate(workers)}

    def pick(i: int) -> tuple[tuple[str, ...], list[int]]:
        ts = worker_tasks[workers[i]]  # an uncovered worker performs no chosen task yet
        return ts, [index[w] for t in ts for w in task_workers[t]]

    return _deletion_cover(inst, seed, len(workers), pick)


def sa_greedy_edge_deletion(inst: SAInstance, seed: int) -> SASolution:
    """Edge-deletion greedy: take the task of one random live edge at a time.

    Deleting all edges at either endpoint keeps every worker covered (a
    worker loses its edges only once some chosen task covers it), but a
    single task is gained per round, so no factor-k ratio argument applies.
    Provided for comparison; measure, don't rely on it.

    O(E log E) for E edges: the rows are the edges in sorted order, and a pick
    deletes the edges at both of its endpoints, through their index lists.
    """
    edges = require_instance(inst, SAInstance, "inst").graph.edges
    of_worker: dict[str, list[int]] = {}
    of_task: dict[str, list[int]] = {}
    for i, (w, t) in enumerate(edges):
        of_worker.setdefault(w, []).append(i)
        of_task.setdefault(t, []).append(i)

    def pick(i: int) -> tuple[tuple[str], list[int]]:
        w, t = edges[i]
        return (t,), of_worker[w] + of_task[t]

    return _deletion_cover(inst, seed, len(edges), pick)


def _cover(graph: AssignmentGraph, mode: str, seed: int) -> SASolution:
    """The cover by the solver ``mode`` names: the one mode list, for hierarchies and ``supervise allocate``."""
    inst = SAInstance(graph=graph, k=graph.k)
    if mode == "exact":
        return sa_exact(inst)
    if mode == "greedy":
        return sa_greedy(inst, seed)
    if mode == "paper-greedy":
        return sa_greedy_edge_deletion(inst, seed)
    raise SuperviseError(f"unknown cover mode {mode!r}; use 'exact', 'greedy' or 'paper-greedy'")


def vc_to_sa(vertices: Sequence[str], edges: Sequence[tuple[str, str]]) -> SAInstance:
    """Embed vertex cover: each graph edge becomes a worker with two tasks.

    A task set touching every worker is exactly a vertex set touching every
    edge, so optima coincide and the exact solver doubles as a vertex-cover
    solver (k = 2).  Isolated vertices constrain nothing and are dropped with
    a warning.  Vertex ids are strings, as graph ids are.
    """
    vs = _id_rows(vertices, "vertices")
    if len(set(vs)) != len(vs):
        raise SuperviseError("duplicate vertex ids")
    seen = set()
    norm: list[tuple[str, str]] = []
    vset = set(vs)
    for u, v in _id_rows(edges, "edges", 2):
        if u == v:
            raise SuperviseError(f"self-loop at {u!r} cannot be covered meaningfully")
        if u not in vset or v not in vset:
            raise SuperviseError(f"edge ({u!r}, {v!r}) references unknown vertex")
        key = (min(u, v), max(u, v))
        if key in seen:
            continue
        seen.add(key)
        norm.append(key)
    touched = {x for e in norm for x in e}
    isolated = sorted(set(vs) - touched)
    if isolated:
        warnings.warn(f"dropping isolated vertices (they constrain nothing): {isolated}", stacklevel=2)
    workers = tuple(islice(_fresh_ids("e", vset), len(norm)))  # no edge worker id is a vertex's
    g_edges = tuple((w, x) for w, e in zip(workers, norm) for x in e)
    graph = AssignmentGraph(workers=workers, tasks=tuple(touched), edges=g_edges)
    return SAInstance(graph=graph, k=2)
