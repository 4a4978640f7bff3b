"""The cyclic-walk peg builder and the Fenwick-tree covers, ``sa_greedy`` and ``sa_greedy_edge_deletion``, against
their frozen quadratic originals."""

import random
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from supervise import (
    AssignmentGraph,
    SAInstance,
    SuperviseError,
    build_peg_assignment,
    build_supervision_hierarchy,
    sa_greedy,
    sa_greedy_edge_deletion,
)

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
