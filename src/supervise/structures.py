"""Builders for the three supervision topologies.

* A supervision tree: tasks at the bottom, workers above them with at most k
  tasks each, each higher node sharing exactly one task with each of its at
  most k children, and a single supervisor at the root.  Workers never learn
  who judges them — the exported worker view carries level and tasks only.
* A peg assignment: a k-regular bipartite worker/task graph whose first
  ``ceil(n_workers / k)`` tasks ("pegs") are covered by pairwise-disjoint
  worker groups, so a small task subset touches every worker.
* A supervision hierarchy: an arbitrary assignment graph topped by a tree
  built over a covering task subset, connecting every worker to the root.

All construction is seeded and deterministic: the same seed reproduces the
same structure byte for byte.  A structure is validated once, when it is
constructed, so one that exists is valid and a composite trusts its parts.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import SizingError, SuperviseError, require_int

__all__ = [
    "AssignmentGraph",
    "SupervisionTree",
    "PegAssignment",
    "SupervisionHierarchy",
    "build_supervision_tree",
    "build_supervision_tree_over",
    "build_peg_assignment",
    "build_supervision_hierarchy",
]


def _json_ids(obj: Mapping, key: str, width: int | None = None) -> tuple:
    """``obj[key]`` as a tuple of string ids, or with ``width`` as rows of that many ids (0: any number).

    Ids are JSON strings, as ``to_json_dict`` writes them; anything else raises a SuperviseError naming the key.
    """
    items = obj.get(key) if isinstance(obj, Mapping) else None
    rows = items if width is not None and isinstance(items, list) else [items]
    for row in rows:
        if not isinstance(row, list) or (width and len(row) != width) or not all(isinstance(x, str) for x in row):
            shape = "string ids" if width is None else f"arrays of {width or 'any number of'} string ids"
            raise SuperviseError(f"structure JSON needs {key!r} as an array of {shape}")
    return tuple(items) if width is None else tuple(map(tuple, items))


@dataclass(frozen=True)
class AssignmentGraph:
    """Bipartite worker/task graph; ``k`` bounds every worker's degree."""

    workers: tuple[str, ...]
    tasks: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "workers", tuple(str(w) for w in self.workers))
        object.__setattr__(self, "tasks", tuple(str(t) for t in self.tasks))
        object.__setattr__(self, "edges", tuple((str(w), str(t)) for w, t in self.edges))
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
        require_int(self.k, "k", 1)
        for w in self.workers:
            d = len(self.worker_tasks.get(w, ()))
            if d == 0:
                raise SuperviseError(f"input error: worker {w!r} has no tasks")
            if d > self.k:
                raise SuperviseError(f"worker {w!r} has degree {d} > k={self.k}")

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
            "workers": sorted(self.workers),
            "tasks": sorted(self.tasks),
            "edges": sorted([w, t] for w, t in self.edges),
        }

    @classmethod
    def from_json_dict(cls, obj: Mapping, k: int | None = None) -> "AssignmentGraph":
        workers, tasks, edges = _json_ids(obj, "workers"), _json_ids(obj, "tasks"), _json_ids(obj, "edges", 2)
        if k is None:
            degs: dict[str, int] = {}
            for w, _ in edges:
                degs[w] = degs.get(w, 0) + 1
            k = max(degs.values(), default=1)
        return cls(workers=workers, tasks=tasks, edges=edges, k=k)


@dataclass(frozen=True)
class SupervisionTree:
    """Level lists (root first, tasks last), parent->child edges, shared tasks.

    ``shared`` maps worker->worker edges to the one task both perform;
    ``worker_tasks`` lists what each worker actually performs.  Both are
    derivable from the construction and recomputed when loading JSON.
    """

    levels: tuple[tuple[str, ...], ...]
    edges: tuple[tuple[str, str], ...]
    shared: tuple[tuple[str, str, str], ...]
    worker_tasks: dict[str, tuple[str, ...]] = field(compare=False)
    k: int

    def __post_init__(self) -> None:
        self.validate()

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
        out: dict[str, list[str]] = {}
        for p, c in self.edges:
            out.setdefault(p, []).append(c)
        return {p: tuple(cs) for p, cs in out.items()}

    @cached_property
    def parent(self) -> dict[str, str]:
        out: dict[str, str] = {}
        for p, c in self.edges:
            if c in out:
                raise SuperviseError(f"node {c!r} has two parents")
            out[c] = p
        return out

    @cached_property
    def shared_task(self) -> dict[tuple[str, str], str]:
        return {(p, c): t for p, c, t in self.shared}

    def validate(self) -> None:
        if len(self.levels) < 3:
            raise SuperviseError("tree needs at least supervisor, one worker level, and tasks")
        if len(self.levels[0]) != 1:
            raise SuperviseError("level 0 must hold exactly the supervisor")
        seen: set[str] = set()
        for lv in self.levels:
            for n in lv:
                if n in seen:
                    raise SuperviseError(f"node {n!r} appears twice")
                seen.add(n)
        node_level = {n: i for i, lv in enumerate(self.levels) for n in lv}
        for p, c in self.edges:
            if node_level.get(c) != node_level.get(p, -2) + 1:
                raise SuperviseError(f"edge ({p!r}, {c!r}) does not connect adjacent levels")
        parent = self.parent
        for i, lv in enumerate(self.levels):
            if i == 0:
                continue
            for n in lv:
                if n not in parent:
                    raise SuperviseError(f"node {n!r} has no parent")
        children = self.children
        last_worker_level = len(self.levels) - 2
        for i in range(last_worker_level + 1):
            for n in self.levels[i]:
                cs = children.get(n, ())
                if not (1 <= len(cs) <= self.k):
                    raise SuperviseError(f"node {n!r} has {len(cs)} children; need 1..{self.k}")
                if i == last_worker_level:
                    # bottom workers perform exactly their leaf tasks
                    if tuple(sorted(self.worker_tasks[n])) != tuple(sorted(cs)):
                        raise SuperviseError(f"bottom worker {n!r} tasks != leaf children")
                else:
                    picks = []
                    for c in cs:
                        t = self.shared_task.get((n, c))
                        if t is None:
                            raise SuperviseError(f"missing shared task for edge ({n!r}, {c!r})")
                        if t not in self.worker_tasks[c]:
                            raise SuperviseError(f"shared task {t!r} not performed by child {c!r}")
                        picks.append(t)
                    if len(set(picks)) != len(picks):
                        raise SuperviseError(f"node {n!r} shares one task with two children")
                    if tuple(sorted(self.worker_tasks[n])) != tuple(sorted(picks)):
                        raise SuperviseError(f"node {n!r} tasks != its shared picks")

    def worker_views(self) -> list[dict]:
        """What each worker may know: its level and its tasks.  No parents."""
        views = []
        for i in range(len(self.levels) - 1):
            for w in self.levels[i]:
                views.append({"worker": w, "level": i, "tasks": sorted(self.worker_tasks[w])})
        return views

    def to_json_dict(self) -> dict:
        return {
            "levels": [list(lv) for lv in self.levels],
            "edges": sorted([p, c] for p, c in self.edges),
            "shared": sorted([p, c, t] for p, c, t in self.shared),
        }

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "SupervisionTree":
        levels, edges, shared = _json_ids(obj, "levels", 0), _json_ids(obj, "edges", 2), _json_ids(obj, "shared", 3)
        children: dict[str, list[str]] = {}
        for p, c in edges:
            children.setdefault(p, []).append(c)
        k = max((len(cs) for cs in children.values()), default=1)
        shared_map = {(p, c): t for p, c, t in shared}
        worker_tasks: dict[str, tuple[str, ...]] = {}
        if len(levels) >= 2:
            for w in levels[-2]:
                worker_tasks[w] = tuple(children.get(w, ()))
            for i in range(len(levels) - 3, -1, -1):
                for w in levels[i]:
                    worker_tasks[w] = tuple(shared_map[(w, c)] for c in children.get(w, ()) if (w, c) in shared_map)
        return cls(levels=levels, edges=edges, shared=shared, worker_tasks=worker_tasks, k=k)


def build_supervision_tree(n_tasks: int, k: int, seed: int) -> SupervisionTree:
    """Build a tree over freshly named tasks ``t0..t{n-1}``."""
    require_int(n_tasks, "n_tasks", 1, SizingError)
    return build_supervision_tree_over([f"t{i}" for i in range(n_tasks)], k, seed)


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
    automatically distinct.
    """
    tasks = [str(t) for t in task_ids]
    if len(set(tasks)) != len(tasks) or not tasks:
        raise SuperviseError("task ids must be nonempty and unique")
    require_int(k, "branching factor k", 2, SizingError)
    forbidden = set(tasks) | {supervisor_id}
    rng = random.Random(seed)

    levels_rev: list[tuple[str, ...]] = [tuple(tasks)]
    edges: list[tuple[str, str]] = []
    shared: list[tuple[str, str, str]] = []
    worker_tasks: dict[str, tuple[str, ...]] = {}

    wid = 0

    def fresh_worker() -> str:
        nonlocal wid
        name = f"{worker_prefix}{wid}"
        while name in forbidden:
            wid += 1
            name = f"{worker_prefix}{wid}"
        wid += 1
        forbidden.add(name)
        return name

    current = tasks
    bottom, top = True, False
    while not top:
        top = not bottom and len(current) <= k  # at most k workers left: the supervisor's level
        parents = [supervisor_id] if top else [fresh_worker() for _ in range(math.ceil(len(current) / k))]
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

    return SupervisionTree(
        levels=tuple(reversed(levels_rev)),
        edges=tuple(edges),
        shared=tuple(shared),
        worker_tasks=worker_tasks,
        k=k,
    )


@dataclass(frozen=True)
class PegAssignment:
    """A k-regular assignment graph plus its peg task set."""

    graph: AssignmentGraph
    peg_tasks: tuple[str, ...]

    def __post_init__(self) -> None:
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

    rng = random.Random(seed)
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

    graph = AssignmentGraph(workers=tuple(workers), tasks=tuple(tasks), edges=tuple(edges), k=k)
    peg = PegAssignment(graph=graph, peg_tasks=tuple(pegs))
    if min(load.values(), default=redundancy) < redundancy:
        raise SizingError("sizing: fill could not reach the requested redundancy")
    return peg


@dataclass(frozen=True)
class SupervisionHierarchy:
    """Assignment graph + a supervision tree over a covering task subset."""

    graph: AssignmentGraph
    tree: SupervisionTree
    tree_tasks: tuple[str, ...]
    coverage: dict[str, str] = field(compare=False)

    def __post_init__(self) -> None:
        self.validate()

    @property
    def equilibrium_depth(self) -> int:
        """Graph workers sit one level below the tree's bottom workers."""
        return self.tree.equilibrium_depth + 1

    def validate(self) -> None:
        tree_tasks = set(self.tree_tasks)
        if not tree_tasks <= set(self.graph.tasks):
            raise SuperviseError("tree tasks must be a subset of the graph's tasks")
        if set(self.tree.task_ids) != tree_tasks:
            raise SuperviseError("tree leaves disagree with the covering task set")
        edge_set = set(self.graph.edges)
        for w in self.graph.workers:
            t = self.coverage.get(w)
            if t is None or t not in tree_tasks or (w, t) not in edge_set:
                raise SuperviseError(f"worker {w!r} lacks a valid covering task")
        # connectivity of the union graph
        adj: dict[str, set[str]] = {}

        def link(a: str, b: str) -> None:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)

        for w, t in self.graph.edges:
            link(w, t)
        for p, c in self.tree.edges:
            link(p, c)
        nodes = set(self.graph.workers) | set(self.graph.tasks)
        for lv in self.tree.levels:
            nodes |= set(lv)
        seen = {self.tree.supervisor}
        stack = [self.tree.supervisor]
        while stack:
            n = stack.pop()
            for nb in adj.get(n, ()):
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if seen != nodes:
            raise SuperviseError(f"hierarchy is not connected; unreachable: {sorted(nodes - seen)[:5]}")

    def to_json_dict(self) -> dict:
        return {
            "coverage": sorted([w, t] for w, t in self.coverage.items()),
            "graph": self.graph.to_json_dict(),
            "tree": self.tree.to_json_dict(),
            "tree_tasks": sorted(self.tree_tasks),
        }

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "SupervisionHierarchy":
        if not isinstance(obj, Mapping):
            raise SuperviseError("hierarchy JSON must be an object with graph/tree/tree_tasks/coverage")
        return cls(
            graph=AssignmentGraph.from_json_dict(obj.get("graph")),
            tree=SupervisionTree.from_json_dict(obj.get("tree")),
            tree_tasks=_json_ids(obj, "tree_tasks"),
            coverage=dict(_json_ids(obj, "coverage", 2)),
        )


def _clash_free_prefix(base: str, forbidden: Iterable[str]) -> str:
    names = set(forbidden)
    prefix = base
    while any(n.startswith(prefix) for n in names):
        prefix += base
    return prefix


def build_supervision_hierarchy(
    graph: AssignmentGraph, k: int, seed: int, mode: str = "greedy"
) -> SupervisionHierarchy:
    """Cover all workers with few tasks, then supervise the cover with a tree.

    The covering set comes from the allocation module (seeded greedy by
    default, exact on request).  Every graph worker is judged on its covering
    task by the bottom tree worker performing it, so graph workers form one
    extra layer under the tree.
    """
    require_int(k, "branching factor k", 2, SizingError)
    for t in graph.tasks:
        if not graph.task_workers.get(t):
            raise SuperviseError(f"input error: task {t!r} has no workers, hierarchy would be disconnected")
    from .allocation import SAInstance, sa_exact, sa_greedy  # local import: allocation builds on these graph types

    inst = SAInstance(graph=graph, k=max(k, graph.k))
    if mode == "greedy":
        sol = sa_greedy(inst, seed)
    elif mode == "exact":
        sol = sa_exact(inst)
    else:
        raise SuperviseError(f"unknown cover mode {mode!r}; use 'greedy' or 'exact'")

    cover = sorted(sol.tasks)
    forbidden = set(graph.workers) | set(graph.tasks)
    prefix = _clash_free_prefix("h", forbidden)
    sup = "supervisor"
    while sup in forbidden:
        sup += "_"
    tree = build_supervision_tree_over(cover, k, seed, worker_prefix=prefix, supervisor_id=sup)
    return SupervisionHierarchy(graph=graph, tree=tree, tree_tasks=tuple(cover), coverage=dict(sol.cover_witness))
