"""Covering task allocation: exact solver, greedy bounds, vertex-cover bridge."""

import random

import pytest

from supervise import (
    AssignmentGraph,
    InstanceTooLargeError,
    SAInstance,
    SASolution,
    SuperviseError,
    build_peg_assignment,
    sa_exact,
    sa_greedy,
    sa_greedy_edge_deletion,
    vc_to_sa,
)

from _oracles import brute_force_cover, brute_force_vc


def make_instance(rng: random.Random, n_tasks: int, n_workers: int, k: int) -> SAInstance:
    tasks = [f"t{i}" for i in range(n_tasks)]
    workers = [f"u{i}" for i in range(n_workers)]
    edges = []
    for w in workers:
        for t in rng.sample(tasks, rng.randint(1, min(k, n_tasks))):
            edges.append((w, t))
    used = sorted({t for _, t in edges})
    g = AssignmentGraph(workers=tuple(workers), tasks=tuple(used), edges=tuple(edges))
    return SAInstance(graph=g, k=k)


class TestExact:
    @pytest.mark.parametrize("tasks", [(), ("t0",)])
    def test_a_graph_without_workers_needs_no_task(self, tasks):
        sol = sa_exact(SAInstance(AssignmentGraph(workers=(), tasks=tasks, edges=()), 1))
        assert (sol.tasks, sol.cover_witness) == ((), ())

    def test_triangle_needs_two(self):
        inst = vc_to_sa(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
        assert sa_exact(inst).size == 2

    def test_path_and_star_need_one(self):
        path = vc_to_sa(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert sa_exact(path).tasks == ("b",)
        star = vc_to_sa(["s", "x", "y", "z"], [("s", "x"), ("s", "y"), ("s", "z")])
        assert sa_exact(star).tasks == ("s",)

    def test_peg_instance_optimum_is_the_peg_count(self):
        peg = build_peg_assignment(6, 5, 3, seed=0)
        inst = SAInstance(graph=peg.graph, k=3)
        assert sa_exact(inst).size == 2

    def test_lexicographically_smallest_among_minima(self):
        g = AssignmentGraph(workers=("u0",), tasks=("a", "b"), edges=(("u0", "a"), ("u0", "b")))
        assert sa_exact(SAInstance(graph=g, k=2)).tasks == ("a",)

    def test_witness_covers_each_worker(self):
        rng = random.Random(0)
        inst = make_instance(rng, 12, 20, 3)
        sol = sa_exact(inst)
        cover = set(sol.tasks)
        for w, t in sol.cover_witness:
            assert t in cover
            assert t in set(inst.graph.worker_tasks[w])
        assert [w for w, _ in sol.cover_witness] == sorted(inst.graph.workers)

    def test_matches_brute_force(self):
        rng = random.Random(1)
        for _ in range(40):
            inst = make_instance(rng, rng.randint(2, 10), rng.randint(1, 12), rng.randint(1, 4))
            want = brute_force_cover({w: set(ts) for w, ts in inst.graph.worker_tasks.items()})
            assert sa_exact(inst).size == len(want)

    def test_too_large_rejected(self):
        tasks = tuple(f"t{i}" for i in range(25))
        workers = tuple(f"u{i}" for i in range(25))
        edges = tuple((f"u{i}", f"t{i}") for i in range(25))
        g = AssignmentGraph(workers=workers, tasks=tasks, edges=edges)
        with pytest.raises(InstanceTooLargeError):
            sa_exact(SAInstance(graph=g, k=1))


class TestGreedy:
    def test_ratio_never_exceeds_k(self):
        rng = random.Random(7)
        for _ in range(100):
            k = rng.randint(1, 4)
            inst = make_instance(rng, rng.randint(2, 20), rng.randint(1, 25), k)
            opt = sa_exact(inst).size
            got = sa_greedy(inst, seed=rng.randint(0, 10**6)).size
            assert got <= k * opt

    def test_feasible_and_deterministic(self):
        rng = random.Random(9)
        inst = make_instance(rng, 15, 30, 3)
        a = sa_greedy(inst, seed=4)
        b = sa_greedy(inst, seed=4)
        assert a.tasks == b.tasks
        cover = set(a.tasks)
        for ts in inst.graph.worker_tasks.values():
            assert cover & set(ts)

    def test_edge_deletion_variant_is_feasible(self):
        rng = random.Random(11)
        for _ in range(50):
            inst = make_instance(rng, rng.randint(2, 15), rng.randint(1, 20), rng.randint(1, 4))
            sol = sa_greedy_edge_deletion(inst, seed=rng.randint(0, 10**6))
            cover = set(sol.tasks)
            for ts in inst.graph.worker_tasks.values():
                assert cover & set(ts)

    def test_single_worker_greedy_takes_its_tasks(self):
        g = AssignmentGraph(workers=("u0",), tasks=("a", "b"), edges=(("u0", "a"), ("u0", "b")))
        sol = sa_greedy(SAInstance(graph=g, k=2), seed=0)
        assert set(sol.tasks) == {"a", "b"}  # whole-hyperedge pick, the price of the k bound


def test_a_solution_stores_its_rows_sorted():
    assert SASolution(("b", "a"), ()) == SASolution(("a", "b"), ())
    assert SASolution((), [["u1", "a"], ["u0", "b"]]).cover_witness == (("u0", "b"), ("u1", "a"))


class TestVcBridge:
    @pytest.mark.filterwarnings("ignore:dropping isolated vertices")
    def test_reduction_equals_brute_force_on_random_graphs(self):
        rng = random.Random(13)
        for _ in range(60):
            n = rng.randint(2, 9)
            verts = [f"v{i}" for i in range(n)]
            edges = []
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.35:
                        edges.append((verts[i], verts[j]))
            if not edges:
                continue
            inst = vc_to_sa(verts, edges)
            assert sa_exact(inst).size == len(brute_force_vc(verts, edges))

    def test_isolated_vertices_warn_and_drop(self):
        with pytest.warns(UserWarning):
            inst = vc_to_sa(["a", "b", "c"], [("a", "b")])
        assert set(inst.graph.tasks) == {"a", "b"}

    def test_duplicate_edges_collapse(self):
        inst = vc_to_sa(["a", "b"], [("a", "b"), ("b", "a")])
        assert len(inst.graph.workers) == 1

    @pytest.mark.parametrize("vertices, edges", [
        (["a", "b", "a|b", "c"], [("a", "b"), ("a|b", "c")]),
        (["a", "b|c", "a|b", "c"], [("a", "b|c"), ("a|b", "c")]),
    ])
    def test_vertex_ids_with_a_bar_are_covered(self, vertices, edges):
        """Naming an edge's worker "u|v" made it a vertex's id, or another edge's worker's."""
        assert sa_exact(vc_to_sa(vertices, edges)).tasks == ("a", "a|b")

    def test_edge_workers_are_named_by_the_tree_builders_skip_rule(self):
        # "e0", "e1", ... in edge order, skipping the vertex id "e0"
        graph = vc_to_sa(["e0", "a", "b"], [("e0", "a"), ("a", "b")]).graph
        assert graph.workers == ("e1", "e2")
        assert graph.edges == (("e1", "a"), ("e1", "e0"), ("e2", "a"), ("e2", "b"))

    def test_rejects_self_loops_and_unknowns(self):
        with pytest.raises(SuperviseError):
            vc_to_sa(["a"], [("a", "a")])
        with pytest.raises(SuperviseError):
            vc_to_sa(["a"], [("a", "b")])
