"""Assignment graphs, supervision trees, peg assignments, hierarchies."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supervise import (
    AssignmentGraph,
    SAInstance,
    SASolution,
    PegAssignment,
    SimConfig,
    SizingError,
    SuperviseError,
    SupervisionHierarchy,
    SupervisionTree,
    UniformWrong,
    build_peg_assignment,
    build_supervision_hierarchy,
    build_supervision_tree,
    build_supervision_tree_over,
    sa_greedy,
    simulate,
)

import _oracles
from _oracles import brute_force_cover

SEEDS = st.integers(0, 2**32 - 1)


class TestAssignmentGraph:
    def g(self, **kw):
        base = dict(
            workers=("u0", "u1"),
            tasks=("t0", "t1"),
            edges=(("u0", "t0"), ("u1", "t0"), ("u1", "t1")),
        )
        base.update(kw)
        return AssignmentGraph(**base)

    def test_valid_graph_and_lookups(self):
        g = self.g()
        assert g.worker_tasks["u1"] == ("t0", "t1")
        assert set(g.task_workers["t0"]) == {"u0", "u1"}

    def test_rejects_duplicates_and_unknowns(self):
        with pytest.raises(SuperviseError):
            self.g(workers=("u0", "u0"))
        with pytest.raises(SuperviseError):
            self.g(edges=(("u0", "t0"), ("u0", "t0"), ("u1", "t0")))
        with pytest.raises(SuperviseError):
            self.g(edges=(("u0", "tX"), ("u1", "t0")))
        with pytest.raises(SuperviseError):
            self.g(tasks=("t0", "u0"))  # namespaces must not overlap

    def test_rejects_idle_and_overloaded_workers(self):
        with pytest.raises(SuperviseError, match="input error"):
            self.g(edges=(("u1", "t0"),))  # u0 performs nothing
        with pytest.raises(SuperviseError):
            SAInstance(self.g(), k=1)  # u1 has two tasks

    def test_fields_are_the_json_rows_and_k_is_derived(self):
        assert [f.name for f in dataclasses.fields(AssignmentGraph)] == ["workers", "tasks", "edges"]
        assert self.g().k == 2
        assert self.g(edges=(("u0", "t0"), ("u1", "t1"))).k == 1

    def test_json_round_trip_infers_k(self):
        g = self.g(workers=("u1", "u0"), edges=(("u1", "t1"), ("u0", "t0"), ("u1", "t0")))
        obj = g.to_json_dict()
        assert set(obj) == {"workers", "tasks", "edges"}
        g2 = AssignmentGraph.from_json_dict(obj)
        assert g2.k == 2  # max degree
        assert g2 == g
        assert g2.to_json_dict() == obj


class TestTreeConstruction:
    @pytest.mark.parametrize(
        "n,k,sizes",
        [(4, 2, [1, 2, 4]), (9, 3, [1, 3, 9]), (1, 2, [1, 1, 1]), (5, 2, [1, 2, 3, 5]), (100, 4, [1, 2, 7, 25, 100])],
    )
    def test_level_shapes(self, n, k, sizes):
        tree = build_supervision_tree(n, k, seed=0)
        assert [len(lv) for lv in tree.levels] == sizes
        assert tree.equilibrium_depth == len(sizes) - 2
        assert tree.depth == len(sizes)

    def test_many_random_trees_validate(self):
        rng = random.Random(2024)
        for _ in range(60):
            n = rng.randint(1, 60)
            k = rng.randint(2, 6)
            tree = build_supervision_tree(n, k, seed=rng.randint(0, 10**6))
            tree.validate()
            assert set(tree.task_ids) == {f"t{i}" for i in range(n)}
            for w, ts in tree.worker_tasks.items():
                assert 1 <= len(ts) <= k

    def test_determinism_and_json_round_trip(self):
        a = build_supervision_tree(17, 3, seed=9)
        b = build_supervision_tree(17, 3, seed=9)
        assert a.to_json_dict() == b.to_json_dict()
        back = SupervisionTree.from_json_dict(a.to_json_dict())
        back.validate()
        assert back == a
        assert back.to_json_dict() == a.to_json_dict()
        assert {w: set(ts) for w, ts in back.worker_tasks.items()} == {
            w: set(ts) for w, ts in a.worker_tasks.items()
        }

    def test_custom_ids_and_clashes(self):
        for tasks, prefix, worker_levels in [
            (["a", "b", "w0"], "w", [["w1", "w2"]]),
            # fresh names count up from 0 and skip the ones tasks hold, so the skipped numbers are never used
            (["a", "b", "w0", "w1", "w3"], "w", [["w6", "w7"], ["w2", "w4", "w5"]]),
            # a prefix holding a format field and a percent sign is pasted as given
            (["a", "b", "h{0}%0", "h{0}%1", "h{0}%3"], "h{0}%",
             [["h{0}%6", "h{0}%7"], ["h{0}%2", "h{0}%4", "h{0}%5"]]),
        ]:
            tree = build_supervision_tree_over(tasks, 2, seed=0, worker_prefix=prefix)
            tree.validate()
            # a task named like a default worker must not collide with one
            workers = {n for lv in tree.levels[:-1] for n in lv}
            assert not workers & set(tasks)
            assert [list(lv) for lv in tree.levels[1:-1]] == worker_levels

    def test_rejects_bad_input(self):
        with pytest.raises(SizingError):
            build_supervision_tree(4, 1, seed=0)
        with pytest.raises(SizingError):
            build_supervision_tree(0, 2, seed=0)
        with pytest.raises(SuperviseError):
            build_supervision_tree_over(["a", "a"], 2, seed=0)

    def test_branching_factor_beyond_floats_builds_the_one_worker_tree(self):
        assert build_supervision_tree(3, 10**400, 0) == build_supervision_tree(3, 3, 0)

    def test_validate_catches_tampering(self):
        tree = build_supervision_tree(4, 2, seed=0)
        # shared pick pointing at a task the child does not perform
        (p, c, _t), *rest = tree.shared
        other = next(t for t in tree.task_ids if t not in tree.worker_tasks[c])
        with pytest.raises(SuperviseError):
            dataclasses.replace(tree, shared=((p, c, other), *rest))
        # an edge skipping a level
        with pytest.raises(SuperviseError):
            dataclasses.replace(tree, edges=tree.edges + ((tree.supervisor, tree.task_ids[0]),))


class TestPegAssignment:
    def test_anchor_two_pegs(self):
        peg = build_peg_assignment(6, 5, 3, seed=0)
        assert peg.peg_tasks == ("t0", "t1")
        assert set(peg.graph.task_workers["t0"]) == {"u0", "u1", "u2"}
        assert set(peg.graph.task_workers["t1"]) == {"u3", "u4", "u5"}

    def test_fill_edges_avoid_pegs(self):
        peg = build_peg_assignment(9, 8, 4, seed=5)
        groups = {t: set(peg.graph.task_workers[t]) for t in peg.peg_tasks}
        for w, t in peg.graph.edges:
            if t in groups:
                assert w in groups[t]

    def test_remainder_group(self):
        peg = build_peg_assignment(5, 6, 3, seed=1)
        assert peg.peg_tasks == ("t0", "t1")
        assert len(peg.graph.task_workers["t1"]) == 2  # 5 - 3 leftover workers

    def test_k_one_degenerates_to_one_peg_per_worker(self):
        peg = build_peg_assignment(3, 3, 1, seed=0)
        assert len(peg.peg_tasks) == 3
        assert all(len(ts) == 1 for ts in peg.graph.worker_tasks.values())

    def test_redundancy_honored(self):
        peg = build_peg_assignment(8, 6, 3, seed=2, redundancy=2)
        fill = [t for t in peg.graph.tasks if t not in set(peg.peg_tasks)]
        for t in fill:
            assert len(peg.graph.task_workers[t]) >= 2

    def test_sizing_errors(self):
        with pytest.raises(SizingError):
            build_peg_assignment(6, 1, 3, seed=0)  # fewer tasks than pegs
        with pytest.raises(SizingError):
            build_peg_assignment(6, 3, 3, seed=0)  # no room for k-1 fill tasks
        with pytest.raises(SizingError):
            build_peg_assignment(6, 5, 3, seed=0, redundancy=4)  # pegs cap at k workers
        with pytest.raises(SizingError):
            build_peg_assignment(3, 9, 3, seed=0, redundancy=3)  # not enough fill edges
        with pytest.raises(SizingError):
            build_peg_assignment(10**400, 7, 3, seed=0)  # a peg count beyond floats, refused before anything is built

    def test_determinism(self):
        a = build_peg_assignment(10, 9, 4, seed=77)
        b = build_peg_assignment(10, 9, 4, seed=77)
        assert a.graph.to_json_dict() == b.graph.to_json_dict()
        assert a.peg_tasks == b.peg_tasks


class TestHierarchy:
    def build(self, seed=3, mode="greedy"):
        peg = build_peg_assignment(6, 5, 3, seed=seed)
        return build_supervision_hierarchy(peg.graph, k=2, seed=seed, mode=mode)

    def test_valid_and_depth(self):
        h = self.build()
        h.validate()
        assert h.equilibrium_depth == h.tree.equilibrium_depth + 1

    def test_coverage_points_into_the_tree(self):
        h = self.build()
        edge_set = set(h.graph.edges)
        assert [w for w, _ in h.coverage] == sorted(h.graph.workers)
        for w, t in h.coverage:
            assert t in set(h.tree_tasks)
            assert (w, t) in edge_set

    def test_one_coverage_row_apart_compares_unequal(self):
        h = self.build()
        tree_tasks = set(h.tree_tasks)
        i, row = next(
            (i, (w, t2)) for i, (w, t) in enumerate(h.coverage)
            for t2 in h.graph.worker_tasks[w] if t2 in tree_tasks and t2 != t
        )
        moved = h.coverage[:i] + (row,) + h.coverage[i + 1:]
        assert SupervisionHierarchy(h.graph, h.tree, moved) != h
        assert SupervisionHierarchy(h.graph, h.tree, tuple(reversed(h.coverage))) == h

    def test_exact_mode_matches_brute_force(self):
        peg = build_peg_assignment(6, 5, 3, seed=3)
        h = build_supervision_hierarchy(peg.graph, k=2, seed=3, mode="exact")
        want = brute_force_cover({w: set(ts) for w, ts in peg.graph.worker_tasks.items()})
        assert len(h.tree_tasks) == len(want)

    def test_json_round_trip(self):
        h = self.build()
        obj = h.to_json_dict()
        back = SupervisionHierarchy.from_json_dict(obj)
        back.validate()
        assert back == h
        assert back.to_json_dict() == obj

    def test_tree_names_avoid_graph_names(self):
        g = AssignmentGraph(
            workers=("supervisor", "h0"),
            tasks=("x", "y"),
            edges=(("supervisor", "x"), ("h0", "x"), ("h0", "y")),
        )
        h = build_supervision_hierarchy(g, k=2, seed=0)
        h.validate()
        tree_workers = {n for lv in h.tree.levels[:-1] for n in lv}
        assert not (tree_workers & (set(g.workers) | set(g.tasks)))
        assert h.tree.levels[:-1] == (("supervisor_",), ("h1",))  # the tree builder's rule: "h0" skipped

    def test_orphan_task_rejected(self):
        g = AssignmentGraph(
            workers=("u0",), tasks=("t0", "t1"), edges=(("u0", "t0"),)
        )
        with pytest.raises(SuperviseError, match="input error"):
            build_supervision_hierarchy(g, k=2, seed=0)

    def test_unknown_mode(self):
        peg = build_peg_assignment(6, 5, 3, seed=3)
        with pytest.raises(SuperviseError):
            build_supervision_hierarchy(peg.graph, k=2, seed=0, mode="bogus")


def test_every_structure_field_takes_part_in_equality():
    for cls in (AssignmentGraph, SupervisionTree, PegAssignment, SupervisionHierarchy, SASolution):
        assert all(f.compare for f in dataclasses.fields(cls)), cls.__name__


class TestValidatedOnce:
    """A structure validates itself once, when constructed; nothing validates it again."""

    def counts(self, monkeypatch, build):
        counts = {}
        for cls in (AssignmentGraph, SupervisionTree, PegAssignment, SupervisionHierarchy):
            def counted(structure, _validate=cls.validate, _name=cls.__name__):
                counts[_name] = counts.get(_name, 0) + 1
                _validate(structure)

            monkeypatch.setattr(cls, "validate", counted)
        build()
        return counts

    def test_peg_build(self, monkeypatch):
        counts = self.counts(monkeypatch, lambda: build_peg_assignment(6, 5, 3, seed=0))
        assert counts == {"AssignmentGraph": 1, "PegAssignment": 1}

    def test_hierarchy_build(self, monkeypatch):
        graph = build_peg_assignment(6, 5, 3, seed=3).graph
        counts = self.counts(monkeypatch, lambda: build_supervision_hierarchy(graph, k=2, seed=3))
        assert counts == {"SupervisionTree": 1, "SupervisionHierarchy": 1}

    def test_hierarchy_load(self, monkeypatch):
        obj = build_supervision_hierarchy(build_peg_assignment(6, 5, 3, seed=3).graph, k=2, seed=3).to_json_dict()
        counts = self.counts(monkeypatch, lambda: SupervisionHierarchy.from_json_dict(obj))
        assert counts == {"AssignmentGraph": 1, "SupervisionTree": 1, "SupervisionHierarchy": 1}


def _shuffled(obj: dict, rng: random.Random) -> dict:
    """Structure JSON ``obj`` with every row list shuffled, a hierarchy's graph and tree too; levels keep their order."""
    out = dict(obj)
    for key in ("workers", "tasks", "edges", "shared", "coverage", "tree_tasks"):
        if key in out:
            out[key] = rng.sample(out[key], len(out[key]))
    for key in ("graph", "tree"):
        if key in out:
            out[key] = _shuffled(out[key], rng)
    return out


def _report(structure, seed: int) -> str:
    """A short Monte Carlo report on a tree or hierarchy, every judged worker at its own seeded error."""
    if isinstance(structure, SupervisionHierarchy):
        tree, graph_workers = structure.tree, structure.graph.workers
    else:
        tree, graph_workers = structure, ()
    workers = set(tree.worker_tasks).union(graph_workers) - {tree.supervisor}
    rng = random.Random(seed)
    strategies = {w: rng.uniform(0.05, 0.3) for w in sorted(workers)}
    return simulate(SimConfig(20, seed, UniformWrong(m=3), structure, strategies)).to_csv()


@settings(max_examples=60, derandomize=True)
@given(n_workers=st.integers(1, 30), k=st.integers(2, 4), seed=SEEDS, data=st.data())
def test_shuffled_json_rows_load_to_the_same_structure(n_workers, k, seed, data):
    """Trees, peg graphs and the hierarchies over them; the task count is drawn among the peg sizes that build."""
    n_tasks = -(-n_workers // k) + k - 1 + data.draw(st.integers(0, (n_workers - 1) * (k - 1)), label="extra tasks")
    tree = build_supervision_tree(n_tasks, k, seed)
    graph = build_peg_assignment(n_workers, n_tasks, k, seed).graph
    hierarchy = build_supervision_hierarchy(graph, k, seed)
    rng = random.Random(seed)
    for structure in (tree, graph, hierarchy):
        obj = structure.to_json_dict()
        assert type(structure).from_json_dict(obj) == structure
        assert type(structure).from_json_dict(_shuffled(obj, rng)) == structure
    for structure in (tree, hierarchy):
        shuffled = type(structure).from_json_dict(_shuffled(structure.to_json_dict(), rng))
        assert _report(shuffled, seed) == _report(structure, seed)


def _check_judged(structure) -> None:
    """``judged`` is the frozen pair list, reordered and sorted, and a forest: each worker is judged once, by a worker
    one level up, so no task's pairs close a cycle."""
    supervisor, pairs = _oracles._supervision_pairs(structure)
    rows = structure.judged
    assert structure.supervisor == supervisor
    assert list(rows) == sorted(rows) == sorted((t, p, c, level) for p, c, t, level in pairs)
    tree = structure.tree if isinstance(structure, SupervisionHierarchy) else structure
    level = {n: i for i, lv in enumerate(tree.levels[:-1]) for n in lv}
    if isinstance(structure, SupervisionHierarchy):
        level.update(dict.fromkeys(structure.graph.workers, structure.equilibrium_depth))
    assert all(level[p] == lv - 1 == level[w] - 1 for _, p, w, lv in rows)
    assert len({w for _, _, w, _ in rows}) == len(rows)


@pytest.mark.parametrize("n_tasks,k,seed", [(1, 2, 0), (2, 2, 0), (81, 3, 1), (1000, 3, 7), (500, 5, 3)])
def test_a_built_trees_judged_rows_are_its_shared_rows_by_task(n_tasks, k, seed):
    _check_judged(build_supervision_tree(n_tasks, k, seed))


@pytest.mark.parametrize("n_workers,n_tasks,k,seed", [(6, 5, 3, 3), (30, 20, 3, 1), (200, 150, 4, 7)])
def test_a_peg_hierarchys_judged_rows_add_one_row_per_graph_worker(n_workers, n_tasks, k, seed):
    h = build_supervision_hierarchy(build_peg_assignment(n_workers, n_tasks, k, seed).graph, k, seed)
    _check_judged(h)
    assert len(h.judged) == len(h.tree.judged) + len(h.graph.workers)


@settings(max_examples=60, derandomize=True)
@given(n_workers=st.integers(1, 30), k=st.integers(2, 4), seed=SEEDS, data=st.data())
def test_judged_rows_of_loaded_structures_are_the_frozen_pairs(n_workers, k, seed, data):
    """Trees and peg hierarchies, as built and as loaded from JSON with shuffled rows."""
    n_tasks = -(-n_workers // k) + k - 1 + data.draw(st.integers(0, (n_workers - 1) * (k - 1)), label="extra tasks")
    tree = build_supervision_tree(n_tasks, k, seed)
    hierarchy = build_supervision_hierarchy(build_peg_assignment(n_workers, n_tasks, k, seed).graph, k, seed)
    rng = random.Random(seed)
    for structure in (tree, hierarchy):
        _check_judged(structure)
        _check_judged(type(structure).from_json_dict(_shuffled(structure.to_json_dict(), rng)))


@settings(max_examples=200, derandomize=True)
@given(n_workers=st.integers(1, 40), n_tasks=st.integers(1, 30), k=st.integers(1, 5), graph_seed=SEEDS, seed=SEEDS)
def test_greedy_matches_the_frozen_original_on_graphs_from_shuffled_rows(n_workers, n_tasks, k, graph_seed, seed):
    """Workers with 1..k tasks each; ids such as u10 and u2 sort apart from their build order."""
    rng = random.Random(graph_seed)
    tasks = [f"t{j}" for j in range(n_tasks)]
    workers = [f"u{i}" for i in range(n_workers)]
    edges = [(w, t) for w in workers for t in rng.sample(tasks, rng.randint(1, min(k, n_tasks)))]
    graph = AssignmentGraph(workers=workers, tasks=tasks, edges=edges)
    shuffled = AssignmentGraph(*(rng.sample(rows, len(rows)) for rows in (workers, tasks, edges)))
    assert shuffled == graph
    for g in (graph, shuffled):
        inst = SAInstance(g, k)
        assert sa_greedy(inst, seed) == _oracles.sa_greedy(inst, seed)
