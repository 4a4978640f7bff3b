"""Wiring a real workload: peg tasks, supervision trees, and shared-task covers.

Workers arrive with k tasks each.  Pegs group them so one task per group is
answered by a whole group; a supervision tree over those peg tasks gives every
group a superior; the shared-task cover picks which existing assignments the
tree can reuse.
"""

import json
import random

from supervise import (
    AssignmentGraph,
    SAInstance,
    build_peg_assignment,
    build_supervision_hierarchy,
    build_supervision_tree,
    sa_exact,
    sa_greedy,
    vc_to_sa,
)

# six workers at three tasks each need ceil(6/3) = 2 peg tasks
peg = build_peg_assignment(n_workers=6, n_tasks=5, k=3, seed=0)
print("peg tasks:", peg.peg_tasks)
for t in peg.peg_tasks:
    print(f"  {t}: answered by {peg.graph.task_workers[t]}")
print()

# a tree over fresh tasks: each superior shares exactly one task per inferior
tree = build_supervision_tree(n_tasks=9, k=3, seed=1)
print("tree levels (top to bottom):", [len(lv) for lv in tree.levels])
print("shared picks:", tree.shared[:3], "...")
tree.validate()
print()

# hierarchy = allocation cover + tree over the cover, then the graph hangs below
h = build_supervision_hierarchy(peg.graph, k=2, seed=3)
h.validate()
print("hierarchy equilibrium depth:", h.equilibrium_depth, "( tree", h.tree.equilibrium_depth, "+ 1 )")
print("coverage (graph worker -> tree task):", dict(h.coverage))
print()

# the cover itself: exact search vs the factor-k greedy
rng = random.Random(7)
all_tasks = [f"t{j}" for j in range(12)]
edges = [(f"u{i}", t) for i in range(9) for t in rng.sample(all_tasks, 3)]
used = sorted({t for _, t in edges})
graph = AssignmentGraph(workers=tuple(f"u{i}" for i in range(9)), tasks=tuple(used), edges=tuple(edges))
inst = SAInstance(graph=graph, k=3)
exact = sa_exact(inst)
greedy = sa_greedy(inst, seed=0)
print(f"exact cover: {exact.size} tasks {exact.tasks}")
print(f"greedy cover: {greedy.size} tasks (guarantee: at most k x exact = {3 * exact.size})")
print()

# vertex cover rides on the same machinery: edges become two-task workers
verts = ["a", "b", "c", "d"]
edges = [("a", "b"), ("b", "c"), ("c", "d")]
vc = sa_exact(vc_to_sa(verts, edges))
print("vertex cover of the path a-b-c-d:", vc.tasks)
print()

print("tree as JSON (round-trippable):")
print(json.dumps(tree.to_json_dict(), sort_keys=True)[:120], "...")
