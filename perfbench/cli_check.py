"""Load and validate the CLI workload's output files through the library.

    python3 perfbench/cli_check.py MANIFEST.json

The manifest lists ``{"op", "kind", "path", ...}`` entries written by the cli
workload.  Prints ``{"failed": [[op, reason], ...]}``.  It runs in its own
process after the timed phase, so the cli workload's own process never imports the
package and the checks cost no measured time.
"""

from __future__ import annotations

import csv
import json
import sys

from supervise import AssignmentGraph, PegAssignment, SupervisionHierarchy, SupervisionTree, SuperviseError
from workloads import MonteCarlo


def load(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def structure_pairs(obj) -> int:
    """Judged workers: every tree worker below the supervisor, plus a hierarchy's graph workers."""
    tree = obj.get("tree", obj)
    return sum(len(lv) for lv in tree["levels"][1:-1]) + len(obj.get("graph", {}).get("workers", ()))


def check(entry: dict, z_rows: list) -> str | None:
    kind, path = entry["kind"], entry["path"]
    if kind == "tree":
        tree = SupervisionTree.from_json_dict(load(path))
        tree.validate()
        return None if len(tree.task_ids) == entry["tasks"] else "wrong task count"
    if kind == "peg":
        obj = load(path)
        peg = PegAssignment(graph=AssignmentGraph.from_json_dict(obj), peg_tasks=tuple(obj["pegs"]))
        peg.validate()
        return None if len(peg.graph.workers) == entry["workers"] else "wrong worker count"
    if kind == "hierarchy":
        SupervisionHierarchy.from_json_dict(load(path)).validate()
        return None
    if kind == "cover":
        graph = AssignmentGraph.from_json_dict(load(entry["graph"]))
        out = load(path)
        chosen = set(out["cover"])
        if {w for w, t in graph.edges if t in chosen} != set(graph.workers):
            return "cover misses a worker"
        if out["size"] != len(chosen):
            return "size disagrees with the cover"
        return "exact cover has ratio != 1" if entry["exact"] and out.get("ratio") != 1.0 else None
    if kind == "simulate":
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        z_rows.extend(float(r["z"]) for r in rows)
        return None if len(rows) == structure_pairs(load(entry["structure"])) else "row count != pair count"
    return f"unknown check kind {kind!r}"


def main(manifest: str) -> int:
    failed = []
    z_rows: list = []
    sim_ops = []
    for entry in load(manifest):
        if entry["kind"] == "simulate":
            sim_ops.append(entry["op"])
        try:
            why = check(entry, z_rows)
        except (OSError, ValueError, KeyError, TypeError, SuperviseError) as exc:
            why = f"{type(exc).__name__}: {exc}"
        if why is not None:
            failed.append([entry["op"], why])
    if z_rows and sum(abs(z) > 3.0 for z in z_rows) / len(z_rows) > MonteCarlo.Z_SHARE_MAX:
        failed.extend([op, "too many rows with |z| > 3"] for op in sim_ops)
    print(json.dumps({"failed": failed}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
