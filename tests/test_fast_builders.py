"""The cyclic-walk peg builder and the Fenwick-tree covers, ``sa_greedy`` and ``sa_greedy_edge_deletion``, against
their frozen quadratic originals, and the supervision tree built and validated in whole-level passes against its
frozen row-by-row original."""

import json
import random
import time
from array import array

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from supervise import (
    AssignmentGraph,
    SAInstance,
    SuperviseError,
    SupervisionTree,
    build_peg_assignment,
    build_supervision_hierarchy,
    build_supervision_tree,
    build_supervision_tree_over,
    sa_greedy,
    sa_greedy_edge_deletion,
)
from supervise.structures import _chunk_picks, _tree_columns_hold

import _oracles

SEEDS = st.integers(0, 2**32 - 1)


def _outcome(build, *args):
    """What ``build(*args)`` returns, or the class and message of the SuperviseError it raises."""
    try:
        return build(*args)
    except SuperviseError as exc:
        return type(exc), str(exc)


@settings(max_examples=500, derandomize=True)
@given(n_workers=st.integers(1, 60), extra_tasks=st.integers(-3, 40), k=st.integers(1, 5),
       redundancy=st.integers(1, 3), seed=SEEDS)
def test_peg_builder_and_edge_deletion_match_the_frozen_originals(n_workers, extra_tasks, k, redundancy, seed):
    """``n_tasks`` is drawn relative to the peg count: about a fifth of the sizes build, the rest raise the
    sizing errors, short of pegs, of fill tasks, of peg multiplicity or of fill edges."""
    n_tasks = max(1, -(-n_workers // k) + extra_tasks)
    args = (n_workers, n_tasks, k, seed, redundancy)
    peg, want = _outcome(build_peg_assignment, *args), _outcome(_oracles.build_peg_assignment, *args)
    assert peg == want
    if isinstance(peg, tuple):
        return
    assert peg.graph.to_json_dict() == want.graph.to_json_dict()
    inst = SAInstance(peg.graph, k)
    assert sa_greedy_edge_deletion(inst, seed) == _oracles.sa_greedy_edge_deletion(inst, seed)
    assert sa_greedy(inst, seed) == _oracles.sa_greedy(inst, seed)


@settings(max_examples=200, derandomize=True)
@given(n_workers=st.integers(1, 40), n_tasks=st.integers(1, 30), k=st.integers(1, 5), graph_seed=SEEDS, seed=SEEDS)
def test_edge_deletion_matches_the_frozen_original_on_random_graphs(n_workers, n_tasks, k, graph_seed, seed):
    """Workers with 1..k tasks each, so worker and task index lists of every length occur."""
    rng = random.Random(graph_seed)
    tasks = [f"t{j}" for j in range(n_tasks)]
    workers = [f"u{i}" for i in range(n_workers)]
    edges = [(w, t) for w in workers for t in rng.sample(tasks, rng.randint(1, min(k, n_tasks)))]
    inst = SAInstance(AssignmentGraph(workers=workers, tasks=tasks, edges=edges), k)
    assert sa_greedy_edge_deletion(inst, seed) == _oracles.sa_greedy_edge_deletion(inst, seed)


def test_peg_builder_and_edge_deletion_stay_near_linear():
    """20k workers and tasks: the peg build, both greedy covers and a hierarchy over the disjoint-worker one take
    about 1 s near-linear, minutes for the quadratic originals."""
    start = time.process_time()
    peg = build_peg_assignment(20_000, 20_000, 3, 1)
    inst = SAInstance(peg.graph, 3)
    cover = sa_greedy_edge_deletion(inst, 1)
    greedy = sa_greedy(inst, 1)
    hierarchy = build_supervision_hierarchy(peg.graph, 3, 1)
    elapsed = time.process_time() - start
    assert len(peg.graph.edges) == 60_000 and len(cover.cover_witness) == len(greedy.cover_witness) == 20_000
    assert hierarchy.coverage == greedy.cover_witness
    assert elapsed < 10.0, f"peg build, both covers and a hierarchy at u = 20k took {elapsed:.1f} s of CPU"


@settings(max_examples=300, derandomize=True)
@given(n=st.integers(1, 3000), k=st.one_of(st.integers(2, 6), st.integers(7, 300), st.just(10**400)),
       seed=SEEDS, order_seed=SEEDS,
       prefix=st.sampled_from(["w", "h", "", "x{0}%", "t", 7]), clashes=st.sets(st.integers(0, 40), max_size=6),
       supervisor=st.sampled_from(["supervisor", "boss", "w0", "t0"]))
def test_tree_builder_and_maps_match_the_frozen_originals(n, k, seed, order_seed, prefix, clashes, supervisor):
    """Task ids ``t0..`` in a seeded order plus ids shaped like fresh worker names, which the names must skip, as
    they skip a supervisor named like one; prefix ``t`` makes the ids non-unique and a supervisor named like a task
    makes a node appear twice.  A prefix that is not a string is formatted into the names, as it always was.  A k
    of 7 to 300 draws picks 3 to 9 bits wide, rejecting up to half of the draws, and most such trees end a level in
    a shorter chunk."""
    tasks = [f"t{i}" for i in range(n)] + [f"{prefix}{j}" for j in sorted(clashes)]
    random.Random(order_seed).shuffle(tasks)
    args = (tasks, k, seed, prefix, supervisor)
    tree, want = _outcome(build_supervision_tree_over, *args), _outcome(_oracles.build_supervision_tree_over, *args)
    if isinstance(tree, tuple) or isinstance(want, tuple):
        assert tree == want
        return
    assert json.dumps(tree.to_json_dict()) == json.dumps(want.to_json_dict())
    assert "worker_tasks" not in vars(tree), "validating a valid tree fell back to the row-by-row pick check"
    assert (tree.children, tree.parent, tree.worker_tasks) == (want.children, want.parent, want.worker_tasks)


def test_chunk_picks_are_one_choice_per_chunk_from_the_same_stream():
    """Every draw width from 2 to 9 bits (``rng.choice`` draws ``k.bit_length()`` bits until one falls below k, so
    a power of two rejects half) and every size of a shorter last chunk, one included, whose draw still consumes the
    stream; the generator ends in the same state, so the next level draws on as it always did."""
    for k in range(2, 301):
        for size in {1, k - 1, k, k + 1, 3 * k, 5 * k + k // 2, 7 * k - 1}:
            below = list(range(1000, 1000 + size))
            rng, want_rng = random.Random(k * 1009 + size), random.Random(k * 1009 + size)
            want = [want_rng.choice(below[i : i + k]) for i in range(0, size, k)]
            assert _chunk_picks(rng, below, k) == want, (k, size)
            assert rng.getstate() == want_rng.getstate(), (k, size)
    rng, want_rng = random.Random(1), random.Random(1)
    assert _chunk_picks(rng, range(5), 10**400) == [want_rng.choice(range(5))]
    assert rng.getstate() == want_rng.getstate()


def test_benchmark_sized_tree_matches_the_frozen_original_byte_for_byte():
    """The tree the benchmark builds, 100k tasks at k = 3, beyond the sizes the property test above reaches."""
    tree = build_supervision_tree(100_000, 3, 1)
    want = _oracles.build_supervision_tree_over([f"t{i}" for i in range(100_000)], 3, 1)
    assert json.dumps(tree.to_json_dict()) == json.dumps(want.to_json_dict())


def test_the_column_check_refuses_columns_that_rows_never_map_to():
    """Rows map only to in-range positions and one pick per worker, so these faults could come from the builder
    alone.  A negative pick would index from the end, where the last task's parent passes for the last bottom
    worker, and a spare pick before the first level's would go unread."""
    tree = build_supervision_tree(30, 3, 1)
    levels, (parents, picks) = tree.levels, tree._columns
    bottom, n_tasks, last = len(levels[-2]), len(levels[-1]), picks[-1]
    unpicked = min(set(range(n_tasks)).difference(picks))
    assert parents[-1][-1] == bottom - 1 and _tree_columns_hold(levels, (parents, picks))

    def column(col, i, value):
        out = array("q", col)
        out[i] = value
        return out

    def tasks_up(i, value):
        return (*parents[:-1], column(parents[-1], i, value))

    broken = {
        "a parent below its level": (levels, tasks_up(unpicked, -1), picks),
        "a parent past its level": (levels, tasks_up(unpicked, bottom), picks),
        "a column short of its level": (levels, (*parents[:-1], parents[-1][:-1]), picks),
        "a pick below the tasks": (levels, parents, array("q", (-1 if t == last else t for t in picks))),
        "a pick past the tasks": (levels, parents, column(picks, -1, n_tasks)),
        "a pick more than the workers": (levels, parents, array("q", [0]) + picks),
        "two supervisors": ((("supervisor", "boss"), *levels[1:]), parents, picks),
        "empty levels": ((("supervisor",), (), ()), (array("q"), array("q")), array("q")),
    }
    assert [kind for kind, (lv, *columns) in broken.items() if _tree_columns_hold(lv, columns)] == []


# Each way to break a tree, with the part of the first message it must reach: a fault caught by an earlier check
# would test nothing.
BREAKS = {
    "duplicated node": "appears twice",
    "non-adjacent edge": "does not connect adjacent levels",
    "second parent": "has two parents",
    "orphan node": "has no parent",
    "worker with no children": "has no children",
    "missing triple": "missing shared task for edge",
    "extra triple": "shared holds a triple",
    "duplicated triple": "shared holds a triple",
    "misplaced triple": "missing shared task for edge",
    "pick not performed": "not performed by child",
}


def _broken(tree: SupervisionTree, kind: str, rng: random.Random) -> dict | None:
    """``tree``'s JSON broken in the named way, or None if the tree is too small for it."""
    obj = tree.to_json_dict()
    levels, edges, shared = obj["levels"], obj["edges"], obj["shared"]
    level = {n: i for i, lv in enumerate(levels) for n in lv}
    nodes = sorted(level)
    if kind == "duplicated node":
        lv = rng.choice(levels[1:])  # level 0 holds exactly the supervisor
        lv.insert(rng.randrange(len(lv) + 1), rng.choice(nodes))
    elif kind == "non-adjacent edge":
        p = rng.choice(nodes + ["zz"])
        c = rng.choice([c for c in nodes if level[c] != level.get(p, -2) + 1] + ["zz"])
        edges.append([p, c])
    elif kind == "second parent":
        others = [(p, c) for c in nodes if level[c] for p in levels[level[c] - 1] if p != tree.parent[c]]
        if not others:
            return None
        edges.append(list(rng.choice(others)))
    elif kind == "orphan node":
        if rng.random() < 0.5:
            edges.pop(rng.randrange(len(edges)))
        else:
            rng.choice(levels[1:]).append("zz")
    elif kind == "worker with no children":
        i = rng.randrange(1, len(levels) - 1)
        levels[i].append("zz")
        edges.append([rng.choice(levels[i - 1]), "zz"])
    elif kind == "missing triple":
        shared.pop(rng.randrange(len(shared)))
    elif kind == "extra triple":
        p, c = rng.choice([e for e in edges if level[e[1]] == len(levels) - 1])
        shared.append([p, c, c])
    elif kind == "duplicated triple":
        shared.append(list(rng.choice(shared)))
    elif kind == "misplaced triple":  # the same number of triples, one on another edge or under another parent
        i = rng.randrange(len(shared))
        p, c, t = shared[i]
        if rng.random() < 0.5:
            shared[i] = [*rng.choice([e for e in edges if e != [p, c]]), t]
        else:
            shared[i] = [rng.choice([n for n in nodes if n != p] + ["zz"]), c, t]
    else:
        i = rng.randrange(len(shared))
        p, c, _ = shared[i]
        shared[i] = [p, c, rng.choice([n for n in nodes + ["zz"] if n not in tree.worker_tasks[c]])]
    return obj


@settings(max_examples=400, derandomize=True)
@given(n=st.integers(1, 300), k=st.integers(2, 5), seed=SEEDS, kind=st.sampled_from(sorted(BREAKS)),
       break_seed=SEEDS)
def test_broken_trees_raise_the_frozen_originals_first_message(n, k, seed, kind, break_seed):
    tree = SupervisionTree.from_json_dict(build_supervision_tree(n, k, seed).to_json_dict())
    obj = _broken(tree, kind, random.Random(break_seed))
    assume(obj is not None)
    with pytest.raises(SuperviseError) as want:
        _oracles.TreeByRows.from_json_dict(obj)
    with pytest.raises(SuperviseError) as got:
        SupervisionTree.from_json_dict(obj)
    assert BREAKS[kind] in str(want.value)
    assert str(got.value) == str(want.value)


def test_large_tree_builds_and_round_trips_near_linearly():
    """A 100k-task tree builds, dumps and loads back in well under a second of CPU; a quadratic validation would
    take minutes."""
    start = time.process_time()
    tree = build_supervision_tree(100_000, 3, 1)
    back = SupervisionTree.from_json_dict(json.loads(json.dumps(tree.to_json_dict())))
    elapsed = time.process_time() - start
    assert back == tree and (len(tree.edges), len(tree.shared)) == (150_005, 50_005)
    assert elapsed < 5.0, f"a 100k-task tree's build and JSON round trip took {elapsed:.1f} s of CPU"
