"""Builders for the three supervision topologies.

* A supervision tree: tasks at the bottom, workers above them with at most k
  tasks each, each higher node sharing exactly one task with each of its at
  most k children, and a single supervisor at the root.
* A peg assignment: a k-regular bipartite worker/task graph whose first
  ``ceil(n_workers / k)`` tasks ("pegs") are covered by pairwise-disjoint
  worker groups, so a small task subset touches every worker.
* A supervision hierarchy: an arbitrary assignment graph topped by a tree
  built over a covering task subset, connecting every worker to the root.

All construction is seeded and deterministic: the same seed reproduces the
same structure byte for byte.  A structure is validated once, when it is
constructed, so one that exists is valid and a composite trusts its parts.

Structures store string rows, which they compare, print and write as JSON.
A tree's checks read integer columns kept beside its rows: its builder makes
the columns and derives the rows, and rows from a caller or from JSON are
mapped to columns first.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count, cycle, groupby, islice, repeat
from operator import add, eq, itemgetter
from typing import TYPE_CHECKING, Collection, Iterable, Iterator, Mapping, Sequence

from . import _EXPORTS
from .errors import SizingError, SuperviseError, require_instance, require_int

if TYPE_CHECKING:
    from array import array

__all__ = _EXPORTS["structures"]


_PARENT, _CHILD, _PICK = itemgetter(0), itemgetter(1), itemgetter(2)  # the columns of edge and shared rows


def _id_rows(items, key: str, width: int | None = None) -> tuple:
    """``items`` as a tuple of string ids, or with ``width`` as rows of that many ids (0: any number).

    Every array, the outer one and each row, is a list or a tuple; anything else raises a SuperviseError naming
    ``key``.  Constructors apply this to their id fields, so ``from_json_dict`` hands JSON values straight over.
    """
    rows = items if width is not None and isinstance(items, (list, tuple)) else [items]
    # map and chain keep the per-id checks in C: a 100k-task tree at k = 3 has 150 005 edge and 50 005 shared rows,
    # which hold 450 025 ids
    if not (
        all(map(isinstance, rows, repeat((list, tuple))))
        and (not width or set(map(len, rows)) <= {width})
        and all(map(isinstance, chain.from_iterable(rows), repeat(str)))
    ):
        shape = "string ids" if width is None else f"arrays of {width or 'any number of'} string ids"
        raise SuperviseError(f"{key!r} must be an array of {shape}")
    return tuple(items) if width is None else tuple(map(tuple, items))


def _sorted_rows(items, key: str, width: int | None = None) -> tuple:
    """``_id_rows``, sorted: the one order in which a structure stores its rows, and so its JSON lists them."""
    return tuple(sorted(_id_rows(items, key, width)))


def _json_fields(obj: Mapping, *keys: str) -> dict:
    """The named fields of structure JSON ``obj``; a missing one reads None, which the constructor refuses."""
    return {key: obj.get(key) if isinstance(obj, Mapping) else None for key in keys}


@dataclass(frozen=True)
class AssignmentGraph:
    """Bipartite worker/task graph, its rows stored sorted; ``k``, its degree bound, is the largest worker degree."""

    workers: tuple[str, ...]
    tasks: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        for key, width in (("workers", None), ("tasks", None), ("edges", 2)):
            object.__setattr__(self, key, _sorted_rows(getattr(self, key), key, width))
        self.validate()

    def validate(self) -> None:
        wset, tset = set(self.workers), set(self.tasks)
        if len(wset) != len(self.workers) or len(tset) != len(self.tasks):
            raise SuperviseError("duplicate worker or task ids")
        if wset & tset:
            raise SuperviseError(f"worker and task ids must be disjoint: {sorted(wset & tset)}")
        if len(set(self.edges)) != len(self.edges):
            raise SuperviseError("duplicate edges")
        for w, t in self.edges:
            if w not in wset or t not in tset:
                raise SuperviseError(f"edge ({w!r}, {t!r}) references unknown endpoint")
        for w, ts in self.worker_tasks.items():
            if not ts:
                raise SuperviseError(f"input error: worker {w!r} has no tasks")

    @cached_property
    def k(self) -> int:
        """The largest worker degree (1 for a graph without workers)."""
        return max(map(len, self.worker_tasks.values()), default=1)

    @cached_property
    def worker_tasks(self) -> dict[str, tuple[str, ...]]:
        out: dict[str, list[str]] = {w: [] for w in self.workers}
        for w, t in self.edges:
            out[w].append(t)
        return {w: tuple(ts) for w, ts in out.items()}

    @cached_property
    def task_workers(self) -> dict[str, tuple[str, ...]]:
        out: dict[str, list[str]] = {t: [] for t in self.tasks}
        for w, t in self.edges:
            out[t].append(w)
        return {t: tuple(ws) for t, ws in out.items()}

    def to_json_dict(self) -> dict:
        return {
            "workers": list(self.workers),
            "tasks": list(self.tasks),
            "edges": [list(e) for e in self.edges],
        }

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "AssignmentGraph":
        return cls(**_json_fields(obj, "workers", "tasks", "edges"))


@dataclass(frozen=True)
class SupervisionTree:
    """Level lists (root first, tasks last), parent->child edges, shared tasks.

    ``levels`` keep their order; ``edges`` and ``shared`` are stored sorted.
    ``shared`` holds one ``(parent, child, task)`` triple per worker->worker
    edge: the one task both perform, on which the parent judges the child.
    What each worker performs, ``worker_tasks``, follows from these.

    The rows are stored; ``validate`` reads integer columns kept beside them:
    each node's parent position in the level above and, level by level, the
    position of the task on which each worker is judged.  The builder derives
    the rows from its columns.  Rows given to the constructor, to
    ``dataclasses.replace`` or to ``from_json_dict`` are mapped to columns
    first, and only a tree that fails the checks has its rows walked, to name
    the first fault.
    """

    levels: tuple[tuple[str, ...], ...]
    edges: tuple[tuple[str, str], ...]
    shared: tuple[tuple[str, str, str], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", _id_rows(self.levels, "levels", 0))
        for key, width in (("edges", 2), ("shared", 3)):
            object.__setattr__(self, key, _sorted_rows(getattr(self, key), key, width))
        object.__setattr__(self, "_columns", _tree_columns(self.levels, self.edges, self.shared))
        self.validate()

    @classmethod
    def _of_columns(cls, levels: tuple, parents: tuple, picks: array) -> SupervisionTree:
        """The tree of these levels and columns, its rows derived from them and sorted: the builder's constructor."""
        heads = [list(map(above.__getitem__, up)) for above, up in zip(levels, parents)]  # each node's parent, by level
        edges = chain.from_iterable(map(zip, heads, levels[1:]))
        # the levels between the root and the tasks hold the workers, judged in the order of the picks
        workers = chain.from_iterable(levels[1:-1])
        shared = zip(chain.from_iterable(heads[:-1]), workers, map(levels[-1].__getitem__, picks))
        tree = cls.__new__(cls)
        for key, value in (("levels", levels), ("edges", tuple(sorted(edges))), ("shared", tuple(sorted(shared))),
                           ("_columns", (parents, picks))):
            object.__setattr__(tree, key, value)
        tree.validate()
        return tree

    @property
    def depth(self) -> int:
        return len(self.levels)

    @property
    def supervisor(self) -> str:
        return self.levels[0][0]

    @property
    def task_ids(self) -> tuple[str, ...]:
        return self.levels[-1]

    @property
    def equilibrium_depth(self) -> int:
        """Worker levels below the supervisor."""
        return len(self.levels) - 2

    @cached_property
    def children(self) -> dict[str, tuple[str, ...]]:
        return {p: tuple(map(_CHILD, rows)) for p, rows in groupby(self.edges, _PARENT)}

    @cached_property
    def parent(self) -> dict[str, str]:
        return dict(zip(map(_CHILD, self.edges), map(_PARENT, self.edges)))

    @cached_property
    def worker_tasks(self) -> dict[str, tuple[str, ...]]:
        """A bottom worker performs its children; a higher worker its shared pick for each child, in child order."""
        bottom, shared = set(self.levels[-2]), {(p, c): t for p, c, t in self.shared}
        return {w: cs if w in bottom else tuple(shared[(w, c)] for c in cs) for w, cs in self.children.items()}

    @cached_property
    def judged(self) -> tuple[tuple[str, str, str, int], ...]:
        """One ``(task, superior, worker, worker level)`` row per judged worker, sorted, so grouped by task.  Each
        worker has one ``shared`` row, under its parent: judged once, from one level up, on any task it is a forest."""
        level = {n: i for i, lv in enumerate(self.levels[1:-1], 1) for n in lv}
        return tuple(sorted((t, p, c, level[c]) for p, c, t in self.shared))

    def validate(self) -> None:
        """Check the columns: at least three levels, none empty, under one supervisor; unique ids; each node's
        parent in the level above; each bottom worker judged on one of its own tasks, and each higher worker on a
        task that one of its children was judged on, so that every node but the tasks has a child."""
        if not _tree_columns_hold(self.levels, self._columns):
            self._raise_first_fault()

    def _raise_first_fault(self) -> None:
        """Walk the rows, and raise the first fault in the order the row checks have always been made."""
        levels, edges, shared = self.levels, self.edges, self.shared
        if len(levels) < 3:
            raise SuperviseError("tree needs at least supervisor, one worker level, and tasks")
        if len(levels[0]) != 1:
            raise SuperviseError("level 0 must hold exactly the supervisor")
        node_level: dict[str, int] = {}
        for i, lv in enumerate(levels):
            for n in lv:
                if n in node_level:
                    raise SuperviseError(f"node {n!r} appears twice")
                node_level[n] = i
        for p, c in edges:
            if node_level.get(c) != node_level.get(p, -2) + 1:
                raise SuperviseError(f"edge ({p!r}, {c!r}) does not connect adjacent levels")
        parent: dict[str, str] = {}
        for p, c in edges:
            if c in parent:
                raise SuperviseError(f"node {c!r} has two parents")
            parent[c] = p
        for n in chain.from_iterable(levels[1:]):
            if n not in parent:
                raise SuperviseError(f"node {n!r} has no parent")
        heads = set(map(_PARENT, edges))
        for n in chain.from_iterable(levels[:-1]):
            if n not in heads:
                raise SuperviseError(f"node {n!r} has no children")
        # one triple per worker->worker edge
        pairs = [(p, c) for p, c, _ in shared]
        worker_edges = {(p, c) for p, c in edges if node_level[c] != len(levels) - 1}
        missing = worker_edges.difference(pairs)
        if missing:
            p, c = min(missing)
            raise SuperviseError(f"missing shared task for edge ({p!r}, {c!r})")
        if len(pairs) != len(worker_edges):
            raise SuperviseError("shared holds a triple that is not the one task of a worker->worker edge")
        worker_tasks = self.worker_tasks
        for p, c, t in shared:
            if t not in worker_tasks[c]:
                raise SuperviseError(f"shared task {t!r} not performed by child {c!r}")

    def to_json_dict(self) -> dict:
        return {
            "levels": [list(lv) for lv in self.levels],
            "edges": [list(e) for e in self.edges],
            "shared": [list(s) for s in self.shared],
        }

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "SupervisionTree":
        return cls(**_json_fields(obj, "levels", "edges", "shared"))


def _column(positions: Iterable[int]) -> array:
    """``positions`` as a compact integer column; filled from a list in one pass, not one append per item.
    ``array`` loads here, on first use, so that a cold CLI run that makes no tree does not load it."""
    from array import array

    return array("q", list(positions))


def _tree_columns(levels: tuple, edges: tuple, shared: tuple) -> tuple[tuple[array, ...], array] | None:
    """The columns that a tree's rows map to, or None if they map to none: they do not when a node below the root
    lacks one parent in the level above, or a worker lacks one triple, under that parent, whose pick is a task."""
    if len(levels) < 3:
        return None
    up = dict(zip(map(_CHILD, edges), map(_PARENT, edges)))
    judged = dict(zip(map(_CHILD, shared), map(_PICK, shared)))
    workers = tuple(chain.from_iterable(levels[1:-1]))
    if not (
        len(up) == len(edges) == len(workers) + len(levels[-1])
        and len(judged) == len(shared) == len(workers)
        and all(map(eq, map(up.get, map(_CHILD, shared)), map(_PARENT, shared)))
    ):
        return None
    try:
        parents = tuple(
            _column(map(dict(zip(above, count())).__getitem__, map(up.__getitem__, level)))
            for above, level in zip(levels, levels[1:])
        )
        return parents, _column(map(dict(zip(levels[-1], count())).__getitem__, map(judged.__getitem__, workers)))
    except KeyError:
        return None


def _tree_columns_hold(levels: tuple, columns: tuple | None) -> bool:
    """Whether ``levels`` and their integer columns make a tree; ``validate`` lists what is checked."""
    if columns is None or len(levels) < 3:
        return False
    parents, picks = columns
    sizes = tuple(map(len, levels))
    if not all(sizes) or sizes[0] != 1 or len(set(chain.from_iterable(levels))) != sum(sizes):
        return False
    for above, size, up in zip(sizes, sizes[1:], parents):
        if len(up) != size or min(up) < 0 or max(up) >= above:
            return False
    if len(picks) != sum(sizes[1:-1]) or min(picks) < 0 or max(picks) >= sizes[-1]:
        return False
    # bottom up: ``judge`` maps a task position to the position of the one node allowed to be judged on it.  At
    # the bottom that is the task's parent; higher, the parent of the worker judged on it.  A pick lies in its
    # worker's subtree, so the picks of one level differ, and a dict holds them all.  A worker that passes has a
    # child, and so has the supervisor, over a level that is not empty
    judge, end = parents[-1].__getitem__, len(picks)
    for size, up in zip(sizes[-2:0:-1], parents[-2::-1]):
        level, end = picks[end - size : end], end - size
        if not all(map(eq, map(judge, level), range(size))):
            return False
        judge = dict(zip(level, up)).get
    return True


def build_supervision_tree(n_tasks: int, k: int, seed: int) -> SupervisionTree:
    """Build a tree over freshly named tasks ``t0..t{n-1}``."""
    require_int(n_tasks, "n_tasks", 1, SizingError)
    # names made here are unique strings, and no worker name starts with "t", so none needs a check or a skip
    return _build_tree(tuple([f"t{i}" for i in range(n_tasks)]), set(), k, seed, "w", "supervisor")


def build_supervision_tree_over(
    task_ids: Sequence[str],
    k: int,
    seed: int,
    worker_prefix: str = "w",
    supervisor_id: str = "supervisor",
) -> SupervisionTree:
    """Build a supervision tree bottom-up over the given task ids.

    Tasks are chunked into groups of at most k under the bottom workers; each
    further level takes at most k children per parent, the last parent taking
    the remainder, until at most k nodes remain under the supervisor.  Each
    parent's shared task per child is drawn seeded-uniformly from that
    child's tasks; sibling subtrees are task-disjoint so the picks are
    automatically distinct.  The picks are drawn a level at a time, with the
    same draws, from the same stream, as one ``rng.choice`` per worker.
    """
    tasks = _id_rows(task_ids, "task ids")
    forbidden = set(tasks)
    if len(forbidden) != len(tasks) or not tasks:
        raise SuperviseError("task ids must be nonempty and unique")
    return _build_tree(tasks, forbidden, k, seed, worker_prefix, supervisor_id)


def _level_widths(n_tasks: int, k: int) -> list[int]:
    """The level sizes of the tree over ``n_tasks`` tasks at branching k, bottom up: the tasks, then a level of
    ``ceil(width / k)`` workers over each level until at most k workers remain, then 1 for the supervisor."""
    widths = [n_tasks, -(-n_tasks // k)]
    while widths[-1] > k:
        widths.append(-(-widths[-1] // k))
    return widths + [1]


def _fresh_ids(prefix: str, taken: Collection[str]) -> Iterator[str]:
    """``prefix0``, ``prefix1``, ..., skipping the ids in ``taken``: a counter never repeats a name, so only the
    given ids need skipping."""
    return (name for i in count() if (name := f"{prefix}{i}") not in taken)


def _build_tree(
    tasks: tuple[str, ...], forbidden: set[str], k: int, seed: int, worker_prefix: str, supervisor_id: str
) -> SupervisionTree:
    """The tree over ``tasks``, unique string ids, whose worker names skip the ids in ``forbidden`` and the
    supervisor's."""
    require_int(k, "branching factor k", 2, SizingError)
    forbidden.add(require_instance(supervisor_id, str, "supervisor_id"))
    rng = random.Random(require_int(seed, "seed", 0))
    fresh = _fresh_ids(worker_prefix, forbidden)

    widths = _level_widths(len(tasks), k)
    # each node of a level above takes the next chunk of at most k children: child j's parent is j // k, so the
    # column is each position above k times over, in order (k may be far larger than the level); bottom up
    parents = [_column(sorted(list(range(above)) * min(k, width))[:width]) for width, above in zip(widths, widths[1:])]
    levels: list[tuple[str, ...]] = [tasks]  # bottom up, like parents
    picks: list[list[int]] = []
    judged_on: Sequence[int] = range(len(tasks))  # the task position on which each node of a level is judged
    for n_workers in widths[1:-1]:  # a worker is judged on a task drawn from those its chunk of children is judged on
        judged_on = _chunk_picks(rng, judged_on, k)
        picks.append(judged_on)
        levels.append(tuple(islice(fresh, n_workers)))
    levels.append((supervisor_id,))

    flat = _column(chain.from_iterable(reversed(picks)))  # top down, like the levels
    return SupervisionTree._of_columns(tuple(reversed(levels)), tuple(reversed(parents)), flat)


def _chunk_picks(rng: random.Random, below: Sequence[int], k: int) -> list[int]:
    """One item drawn from each chunk of k in ``below``, the last chunk perhaps shorter: the draws of
    ``rng.choice`` over each chunk in turn, and the same stream consumed.

    ``rng.choice(seq)`` is ``seq[rng._randbelow(len(seq))]``, and ``rng._randbelow(k)`` draws
    ``rng.getrandbits(k.bit_length())`` until a draw falls below k.  The filter makes those draws for all full
    chunks at once, in C, without slicing a chunk; the one shorter last chunk keeps its ``rng.choice``.
    """
    rest = len(below) % k
    end = len(below) - rest
    draws = islice(filter(k.__gt__, map(rng.getrandbits, repeat(k.bit_length()))), end // k)
    out = list(map(below.__getitem__, map(add, range(0, end, k), draws)))
    if rest:
        out.append(rng.choice(below[end:]))
    return out


@dataclass(frozen=True)
class PegAssignment:
    """A k-regular assignment graph plus its peg task set."""

    graph: AssignmentGraph
    peg_tasks: tuple[str, ...]

    def __post_init__(self) -> None:
        require_instance(self.graph, AssignmentGraph, "graph")
        self.validate()

    def validate(self) -> None:
        tw = self.graph.task_workers
        for w, ts in self.graph.worker_tasks.items():
            if len(ts) != self.graph.k:
                raise SuperviseError(f"worker {w!r} degree {len(ts)} != k")
        covered: set[str] = set()
        for t in self.peg_tasks:
            ws = set(tw.get(t, ()))
            if ws & covered:
                raise SuperviseError(f"peg {t!r} overlaps another peg's workers")
            covered |= ws
        if covered != set(self.graph.workers):
            raise SuperviseError("peg tasks do not cover every worker")


def build_peg_assignment(
    n_workers: int, n_tasks: int, k: int, seed: int, redundancy: int = 1
) -> PegAssignment:
    """Peg construction: disjoint worker groups on the first tasks, then fill.

    The first ``ceil(n_workers / k)`` tasks each take one group of (at most)
    k workers, giving a small set that touches everyone.  Remaining edges are
    dealt round-robin to the least-loaded non-peg tasks so every task reaches
    the requested redundancy and every worker ends at exactly k distinct
    tasks.  Fill edges never touch pegs — that keeps the peg groups disjoint.
    No heap or per-worker sort is needed: one sort of the T fill tasks, then O(1) per edge.
    """
    for name, v in (("n_workers", n_workers), ("n_tasks", n_tasks), ("k", k), ("redundancy", redundancy)):
        require_int(v, name, 1, SizingError)
    n_pegs = -(-n_workers // k)
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

    # Each worker takes the k-1 least-loaded fill tasks, ties broken by seeded jitter, then id.  Loads never
    # differ by more than one, so the picks walk the fill tasks cyclically in (jitter, id) order, and every
    # task ends with at least n_workers * (k - 1) // n_fill_tasks edges, which the check above keeps >= redundancy.
    jitter = [rng.random() for _ in fill_tasks]
    picks = cycle([t for _, t in sorted(zip(jitter, fill_tasks))])
    for w in workers:
        edges.extend((w, t) for t in islice(picks, k - 1))

    graph = AssignmentGraph(workers=tuple(workers), tasks=tuple(tasks), edges=tuple(edges))
    return PegAssignment(graph=graph, peg_tasks=tuple(pegs))


def _refuse_idle_tasks(graph: AssignmentGraph, tree_tasks: Collection[str] = ()) -> None:
    """Refuse a graph task that no worker performs and the tree does not hold: nothing would connect it."""
    for t in graph.tasks:
        if not graph.task_workers[t] and t not in tree_tasks:
            raise SuperviseError(f"input error: task {t!r} has no workers, hierarchy would be disconnected")


@dataclass(frozen=True)
class SupervisionHierarchy:
    """Assignment graph + a supervision tree over a covering task subset.

    ``coverage`` holds one ``(graph worker, tree task)`` row per graph worker,
    sorted: the task on which the bottom tree worker performing it judges the
    graph worker.
    """

    graph: AssignmentGraph
    tree: SupervisionTree
    coverage: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        require_instance(self.graph, AssignmentGraph, "graph")
        require_instance(self.tree, SupervisionTree, "tree")
        object.__setattr__(self, "coverage", _sorted_rows(self.coverage, "coverage", 2))
        self.validate()

    @property
    def tree_tasks(self) -> tuple[str, ...]:
        """The covering task subset: the tree's leaves."""
        return self.tree.task_ids

    @property
    def equilibrium_depth(self) -> int:
        """Graph workers sit one level below the tree's bottom workers."""
        return self.tree.equilibrium_depth + 1

    @property
    def supervisor(self) -> str:
        return self.tree.supervisor

    @cached_property
    def judged(self) -> tuple[tuple[str, str, str, int], ...]:
        """The tree's ``judged`` rows and one per coverage row, sorted.  Each graph worker has one, under the bottom
        tree worker above its task, and tree ids are not graph ids: still judged once, from one level up, a forest."""
        tree, level = self.tree, self.equilibrium_depth
        return tuple(sorted(chain(tree.judged, ((t, tree.parent[t], w, level) for w, t in self.coverage))))

    def validate(self) -> None:
        graph, tree = self.graph, self.tree
        tree_tasks = set(tree.task_ids)
        if not tree_tasks <= set(graph.tasks):
            raise SuperviseError("tree tasks must be a subset of the graph's tasks")
        graph_ids = set(graph.workers).union(graph.tasks)
        clash = sorted(n for lv in tree.levels[:-1] for n in lv if n in graph_ids)
        if clash:
            raise SuperviseError(f"tree worker ids must not reuse graph ids: {clash[:5]}")
        covered = [w for w, _ in self.coverage]
        if len(set(covered)) != len(covered):
            raise SuperviseError("coverage names a worker twice")
        if set(covered) != set(graph.workers):
            odd = sorted(set(covered) ^ set(graph.workers))[:5]
            raise SuperviseError(f"coverage must name exactly the graph's workers; differs on {odd}")
        for w, t in self.coverage:
            if t not in tree_tasks or t not in graph.worker_tasks[w]:
                raise SuperviseError(f"worker {w!r} lacks a valid covering task")
        # the tree is connected and every graph worker reaches it through coverage,
        # so only a task outside the tree with no workers can be cut off
        _refuse_idle_tasks(graph, tree_tasks)

    def to_json_dict(self) -> dict:
        return {
            "coverage": [list(row) for row in self.coverage],
            "graph": self.graph.to_json_dict(),
            "tree": self.tree.to_json_dict(),
            "tree_tasks": sorted(self.tree_tasks),
        }

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "SupervisionHierarchy":
        if not isinstance(obj, Mapping):
            raise SuperviseError("hierarchy JSON must be an object with graph/tree/tree_tasks/coverage")
        graph, tree = AssignmentGraph.from_json_dict(obj.get("graph")), SupervisionTree.from_json_dict(obj.get("tree"))
        if sorted(_id_rows(obj.get("tree_tasks"), "tree_tasks")) != sorted(tree.task_ids):
            raise SuperviseError("tree_tasks must list the tree's leaves, once each")
        return cls(graph=graph, tree=tree, coverage=obj.get("coverage"))


def build_supervision_hierarchy(
    graph: AssignmentGraph, k: int, seed: int, mode: str = "greedy"
) -> SupervisionHierarchy:
    """Cover all workers with few tasks, then supervise the cover with a tree.

    The covering set comes from the allocation module, by one of ``supervise
    allocate``'s modes (seeded greedy by default).  Every graph worker is
    judged on its covering task by the bottom tree worker performing it, so
    graph workers form one extra layer under the tree.
    """
    require_instance(graph, AssignmentGraph, "graph")
    require_int(k, "branching factor k", 2, SizingError)
    if not graph.workers:  # the cover would be empty, and the tree builder would name task ids the user never gave
        raise SuperviseError("input error: graph has no workers, so there is no one to supervise")
    _refuse_idle_tasks(graph)  # before the cover solver, whose own limits would otherwise be reported first
    from .allocation import _cover  # local import: allocation builds on these graph types

    sol = _cover(graph, mode, seed)
    forbidden = set(graph.workers).union(graph.tasks)
    sup = "supervisor"
    while sup in forbidden:
        sup += "_"
    # every solver returns distinct graph tasks, which ``SASolution`` stores as sorted strings: they need no check
    tree = _build_tree(sol.tasks, forbidden, k, seed, "h", sup)
    return SupervisionHierarchy(graph=graph, tree=tree, coverage=sol.cover_witness)
