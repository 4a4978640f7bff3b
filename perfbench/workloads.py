"""One workload in one fresh process; prints one JSON line of raw results.

    python3 perfbench/workloads.py WORKLOAD --seed N [--seconds S] [--trace 0|1]
        [--size full|tiny] [--setup-only] [--corrupt]

``perfbench/run.py`` starts this with ``PYTHONPATH=<checkout>/src`` and turns
the line into the benchmark's metrics.  Inputs come from ``--seed`` through
stdlib ``random`` only; the ``analytic`` and ``cli`` workload processes never
import numpy themselves, so a process that loads it does so because of the package.

Every workload is a closed loop with one caller: an operation (a library call,
or a CLI invocation) starts only when the previous one has returned.  A round
is one pass over one input set; rounds cycle over the input sets until
``--seconds`` have passed, always finishing the round in progress.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import tracing

OUT_DIR = ".bench_out"

# A fixed reference kernel is timed right before and right after every
# operation.  On shared 2-core VMs the speed a process sees swings by up to
# 1.7x within a minute as other tenants come and go, and a kernel timed next
# to an operation slows down with it.  Times are reported scaled to the speed
# at which the workload's kernel takes its nominal time ("reference speed");
# raw times go to the info line.  Library calls are scaled by an interpreter
# loop; CLI invocations, which a loop tracks worse than their raw times, by a
# bare interpreter start.  (Measured on such a VM: across CLI rounds the
# spread was 4.7 % raw, 2.6 % at reference speed.)


def python_loop() -> None:
    x = 0
    for i in range(20_000):
        x += i * i % 7


def cold_start() -> None:
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True, timeout=60)


@dataclass(frozen=True)
class Reference:
    kernel: Callable[[], None]
    nominal_s: float

    def measure(self) -> float:
        """Best of two timings: a single one picks up scheduling jitter."""
        times = []
        for _ in range(2):
            t0 = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - t0)
        return min(times)

    def scale(self, before: float, after: float) -> float:
        """Factor taking a time measured between two kernel timings to reference speed."""
        return 2.0 * self.nominal_s / (before + after)


PYTHON_LOOP = Reference(python_loop, 0.0025)
COLD_START = Reference(cold_start, 0.015)


# ---------------------------------------------------------------- runner


@dataclass
class Op:
    id: int
    name: str
    round: int
    set: int
    traced: bool
    seconds: float
    work: float
    meta: dict = field(default_factory=dict)
    scale: float = 1.0  # takes this op's time to reference speed

    @property
    def norm(self) -> float:
        """Duration at reference speed, in seconds."""
        return self.seconds * self.scale


class Runner:
    """Times operations, checks their outputs and hashes canonical outputs."""

    def __init__(self, tracer: tracing.Tracer, corrupt: bool, reference: Reference) -> None:
        self.tracer = tracer
        self.corrupt = corrupt
        self.ops: list[Op] = []
        self.failed: set[int] = set()
        self.errors: list[str] = []
        self.digest = hashlib.sha256()
        self.round = -1
        self.set = 0
        self.hashing = False
        self.reference = reference
        self.last_ref = reference.measure()

    def op(self, name: str, work: float, fn, check=None, canon=None, meta=None):
        """Run ``fn()`` as one timed operation; returns its output, or None if it raised."""
        op = Op(len(self.ops), name, self.round, self.set, self.tracer.enabled, 0.0, work, meta or {})
        self.ops.append(op)
        t0 = time.perf_counter()
        try:
            if self.tracer.enabled:
                with self.tracer.op(op.id, name):
                    out = fn()
            else:
                out = fn()
        except Exception as exc:  # a raising operation is a failed one; keep measuring
            self.finish(op, t0)
            self.fail(op.id, f"{name}: {type(exc).__name__}: {exc}")
            return None
        self.finish(op, t0)
        if self.corrupt and op.id == 0:
            out = None  # a deliberately wrong output, for the smoke test
        try:
            ok = check is None or bool(check(out, op.meta))
        except Exception as exc:
            ok = False
            self.errors.append(f"{name}: check raised {type(exc).__name__}: {exc}")
        if not ok:
            self.fail(op.id, f"{name}: output check failed")
        elif canon is not None and self.hashing:
            self.digest.update(canon(out))
        return out

    def finish(self, op: Op, t0: float) -> None:
        op.seconds = time.perf_counter() - t0
        ref = self.reference.measure()
        op.scale = self.reference.scale(self.last_ref, ref)
        self.last_ref = ref

    def scaled(self, spans) -> list[tuple[int, float]]:
        """``(op id, ns)`` spans with their durations at reference speed."""
        return [(op, ns * self.ops[op].scale) for op, ns in spans]

    def fail(self, op_id: int, why: str) -> None:
        if op_id not in self.failed:
            self.failed.add(op_id)
            self.errors.append(why)

    def untraced(self) -> list[Op]:
        return [op for op in self.ops if not op.traced]

    def traced(self) -> list[Op]:
        return [op for op in self.ops if op.traced]


def timed_loop(runner: Runner, wl, ctx, seconds: float, trace: bool, modules) -> dict:
    """Cycle over the input sets for ``seconds``, and on until at least ten
    untraced operations lie beyond the tail percentile.  In trace mode each
    set runs untraced and then traced, so the two can be compared."""
    sets = ctx["sets"]
    rates, raw_rates, overheads = [], [], []
    deadline = time.perf_counter() + seconds
    min_ops = math.ceil(10 / (1 - wl.tail_pct / 100))
    p = 0
    while p == 0 or time.perf_counter() < deadline or len(runner.untraced()) < min_ops:
        runner.set = p % len(sets)
        times = []
        for traced in (False, True) if trace else (False,):
            runner.round += 1
            runner.hashing = not traced and p < len(sets)
            first = len(runner.ops)
            if traced:
                runner.tracer.install(modules)
            try:
                wl.run_round(runner, ctx, sets[runner.set])
            finally:
                if traced:
                    runner.tracer.uninstall()
            done = runner.ops[first:]
            busy = sum(op.norm for op in done)
            times.append(busy)
            if not traced:
                work = sum(op.work for op in done)
                rates.append(work / busy)
                raw_rates.append(work / sum(op.seconds for op in done))
        if trace:
            overheads.append(100.0 * (times[1] / times[0] - 1.0))
        p += 1
    return {"rates": rates, "raw_rates": raw_rates, "overheads": overheads}


def percentile(values, pct: int) -> float:
    """Linearly interpolated percentile, ``pct`` a whole number in 1..99."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def per_unit(spans, size_of) -> float:
    """Total span time over total size, for spans given as ``(op id, ns)``."""
    total = sum(size_of(op) for op, _ in spans)
    return sum(ns for _, ns in spans) / total if total else 0.0


def scaling_exp(points) -> float:
    """Least-squares slope of log(time) against log(size)."""
    pts = [(math.log(s), math.log(t)) for s, t in points if s > 0 and t > 0]
    if len(pts) < 2:
        return 0.0
    return statistics.linear_regression(*zip(*pts)).slope


def fprime(family: str, alpha: float, e: float) -> float:
    """Derivative of the effort cost, written out here as an independent oracle."""
    if family == "simplelog":
        return -alpha / e
    if family == "boundarylog":
        return -2.0 * alpha * math.log(1.0 / (2.0 * e)) / e
    return -alpha / (e * e)


def close(a: float, b: float, rel: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


# ---------------------------------------------------------------- analytic


class Analytic:
    """Closed forms, equilibrium and trace loops: the effort kernel does the work."""

    unit = "cases"
    reference = PYTHON_LOOP
    tail_pct = 95  # 50 cases a round, about 600 a run: 30 lie beyond it
    EQ_DEPTH, HET_DEPTH, QUANT_DEPTH, TRACE_MAX = 2000, 500, 500, 100_000
    SIZES = {"full": (400, 50), "tiny": (8, 4)}  # cases, cases per input set

    @staticmethod
    def setup(seed: int, size: str) -> dict:
        effort, flat, hierarchy, quant = package_modules("effort", "flat", "hierarchy", "quant")
        n, per_set = Analytic.SIZES[size]
        rng = random.Random(seed)
        cases = [Analytic.make_case(rng, i) for i in range(n)]
        return {
            "mods": (effort, flat, hierarchy, quant),
            "sets": [cases[i:i + per_set] for i in range(0, n, per_set)],
        }

    @staticmethod
    def make_case(rng: random.Random, i: int) -> dict:
        n_types = rng.choice((2, 3))
        # one costly type with a small weight; the rest cheaper, so the
        # population is proficient on average and the costly type is not
        others = [(rng.uniform(0.3, 0.8), 0.95 / (n_types - 1)) for _ in range(n_types - 1)]
        n_q = rng.choice((2, 3))
        bias = rng.uniform(0.05, 0.3)
        q_weights = (0.5, 0.5) if n_q == 2 else (0.5, 0.25, 0.25)
        q_types = [(rng.uniform(0.5, 2.0), bias if j == 0 else -bias, w) for j, w in enumerate(q_weights)]
        k = rng.randint(2, 4)
        eps_q = rng.uniform(0.5, 2.0)
        return {
            "family": "simplelog" if i % 2 == 0 else "boundarylog",
            "alpha": rng.uniform(0.5, 2.0),
            "k": k,
            "eps": rng.uniform(0.05, 0.2),
            "types": [(1.2, 0.05)] + others,
            "q_types": q_types,
            "eps_q": eps_q,
            "c_q": 1.1 * max(a for a, _, _ in q_types) * k / eps_q**2,
        }

    @staticmethod
    def run_case(mods, c: dict) -> dict:
        effort, flat, hierarchy, quant = mods
        f = effort.EffortFunction(family=effort.Family(c["family"]), alpha=c["alpha"])
        bound = hierarchy.min_penalty_hierarchical(f, effort.SchemeParams(k=c["k"], epsilon=c["eps"]))
        params = effort.SchemeParams(k=c["k"], epsilon=c["eps"], C=bound * (1.0 + 1e-6))
        profile = hierarchy.equilibrium_homogeneous(f, params, Analytic.EQ_DEPTH)
        text = hierarchy.profile_to_csv(profile)
        pop = hierarchy.PopulationModel(types=tuple(
            (hierarchy.WorkerType(effort=effort.EffortFunction(family=f.family, alpha=c["alpha"] * a), id=f"t{j}"), w)
            for j, (a, w) in enumerate(c["types"])
        ))
        het = hierarchy.equilibrium_heterogeneous(pop, params, Analytic.HET_DEPTH)
        a = c["eps"] * (1.0 - 2.0 * c["eps"])
        trace = hierarchy.counterexample_trace(
            effort.SchemeParams(k=c["k"], epsilon=c["eps"], C=0.99 * c["k"] / a), Analytic.TRACE_MAX
        )
        fb = flat.min_verification_probability_binary(f, params)
        br = flat.best_response_flat(f, fb.bound * 1.01, params)
        qpop = [
            (quant.QuantWorkerType(effort=effort.EffortFunction.inverse_power(qa), bias=b, id=f"q{j}"), w)
            for j, (qa, b, w) in enumerate(c["q_types"])
        ]
        qeq = quant.quant_equilibrium(qpop, c["k"], c["c_q"], c["eps_q"], Analytic.QUANT_DEPTH)
        return {"bound": bound, "C": params.C, "profile": profile, "csv": text, "het": het,
                "trace": trace, "flat": fb, "br": br, "quant": qeq}

    @staticmethod
    def check(c: dict, r: dict, meta: dict) -> bool:
        fam, alpha, k, eps = c["family"], c["alpha"], c["k"], c["eps"]
        prof, trace = r["profile"], r["trace"]
        meta["trace_levels"] = len(trace.errors) - 1
        meta["het_type_levels"] = len(r["het"].types) * Analytic.HET_DEPTH
        meta["quant_type_levels"] = len(r["quant"].types) * Analytic.QUANT_DEPTH
        return (
            close(r["bound"], fprime(fam, alpha, eps) * k / (2.0 * eps - 1.0))
            and len(prof.levels) == Analytic.EQ_DEPTH + 1
            and prof.all_truthful
            and prof.max_error < eps
            and r["csv"].count("\n") == Analytic.EQ_DEPTH + 2
            and all(all(s.truthful for s in te.levels) for te in r["het"].types if te.proficient)
            and trace.crossing_level is not None
            and trace.guaranteed_depth is not None
            and trace.crossing_level <= trace.guaranteed_depth
            and close(r["flat"].bound, -fprime(fam, alpha, eps) * k / r["C"])
            and r["br"].value < eps
            and r["quant"].all_truthful
            and all(close(tp.vstar, math.sqrt(qa * k / c["c_q"]))
                    for tp, (qa, _, _) in zip(r["quant"].types, c["q_types"]))
        )

    @staticmethod
    def canon(r: dict) -> bytes:
        summary = (r["bound"], r["trace"].crossing_level, r["flat"].bound, r["br"].value,
                   [te.levels[-1].error for te in r["het"].types], [tp.vstar for tp in r["quant"].types])
        return (r["csv"] + repr(summary)).encode()

    @staticmethod
    def run_round(runner: Runner, ctx: dict, cases) -> None:
        mods = ctx["mods"]
        for c in cases:
            runner.op("analytic.case", 1, lambda: Analytic.run_case(mods, c),
                      check=lambda r, meta: Analytic.check(c, r, meta), canon=Analytic.canon)

    @staticmethod
    def layers(runner: Runner, tr: tracing.Tracer, ctx: dict) -> dict:
        effort, flat, _, _ = ctx["mods"]
        traced = {op.id: op for op in runner.traced()}

        def spans(name):
            return runner.scaled(tr.by_name(name))

        out = {
            "effort.solve_calls": tr.counts["effort.solve_deriv_equals"] / max(1, len(traced)),
            "hierarchy.equilibrium_us_per_level": per_unit(
                spans("hierarchy.equilibrium_homogeneous"), lambda op: Analytic.EQ_DEPTH) / 1e3,
            "hierarchy.heterogeneous_us_per_type_level": per_unit(
                spans("hierarchy.equilibrium_heterogeneous"), lambda op: traced[op].meta["het_type_levels"]) / 1e3,
            "hierarchy.trace_us_per_level": per_unit(
                spans("hierarchy.counterexample_trace"), lambda op: traced[op].meta["trace_levels"]) / 1e3,
            "hierarchy.csv_ns_per_row": per_unit(
                spans("hierarchy.profile_to_csv"), lambda op: Analytic.EQ_DEPTH + 2),
            "quant.equilibrium_us_per_level": per_unit(
                spans("quant.quant_equilibrium"), lambda op: traced[op].meta["quant_type_levels"]) / 1e3,
        }
        for family in ("simplelog", "boundarylog"):
            calls = tr.targets.get(family, [])
            out[f"effort.solve_ns.{family}"] = replay_ns(effort.solve_deriv_equals, calls)
        flat_calls = []
        for c in ctx["sets"][0]:
            f = effort.EffortFunction(family=effort.Family(c["family"]), alpha=c["alpha"])
            flat_calls.append((f, effort.SchemeParams(k=c["k"], epsilon=c["eps"], C=10.0)))
        out["flat.bound_ns"] = replay_ns(flat.min_verification_probability_binary, flat_calls * 50)
        return out


def at_reference_speed(fn, reference: Reference) -> float:
    """Run ``fn()`` between two kernel timings; returns its seconds at reference speed."""
    before = reference.measure()
    t0 = time.perf_counter()
    fn()
    seconds = time.perf_counter() - t0
    return seconds * reference.scale(before, reference.measure())


def replay_ns(fn, calls, repeats: int = 3) -> float:
    """Best-of-``repeats`` ns per call of ``fn`` over the recorded argument tuples."""
    if not calls:
        return 0.0

    def replay():
        for args in calls:
            fn(*args)

    return min(at_reference_speed(replay, PYTHON_LOOP) for _ in range(repeats)) * 1e9 / len(calls)


# ---------------------------------------------------------------- build


class Build:
    """Structure construction and cover solvers at three sizes, plus a large tree."""

    unit = "workers placed"
    reference = PYTHON_LOOP
    tail_pct = 75  # 19 operations a round, 4-5 rounds a run
    K = 3
    SIZES = {"full": ((500, 1000, 2000), 100_000), "tiny": ((30, 60, 120), 1000)}

    @staticmethod
    def setup(seed: int, size: str) -> dict:
        allocation, structures = package_modules("allocation", "structures")
        rng = random.Random(seed)
        sizes, tree_tasks = Build.SIZES[size]
        return {"mods": (allocation, structures), "sizes": sizes, "tree_tasks": tree_tasks,
                "sets": [rng.randrange(2**31) for _ in range(2)]}

    @staticmethod
    def touches_all(graph, tasks) -> bool:
        chosen = set(tasks)
        return {w for w, t in graph.edges if t in chosen} == set(graph.workers)

    @staticmethod
    def run_round(runner: Runner, ctx: dict, seed: int) -> None:
        allocation, structures = ctx["mods"]
        K = Build.K
        for u in ctx["sizes"]:
            def check_peg(p, meta):
                p.validate()
                return len(p.graph.workers) == u

            def check_cover(sol, meta):
                meta["cover_size"] = sol.size
                return Build.touches_all(graph, sol.tasks)

            def check_hierarchy(h, meta):
                h.validate()
                return Build.touches_all(graph, h.tree_tasks)

            def check_text(s, meta):
                meta["bytes"] = len(s.encode())
                return s.startswith("{")

            def check_load(h2, meta):
                meta["edges"] = len(h2.graph.edges) + len(h2.tree.edges)
                return json.dumps(h2.to_json_dict(), sort_keys=True) == text

            def load():
                h2 = structures.SupervisionHierarchy.from_json_dict(json.loads(text))
                h2.validate()
                return h2

            def cover_canon(sol):
                return " ".join(sol.tasks).encode()

            peg = runner.op("build.peg", u, lambda: structures.build_peg_assignment(u, u, K, seed),
                            check=check_peg, meta={"u": u})
            graph = peg.graph if peg is not None else None
            runner.op("build.greedy", 0, lambda: allocation.sa_greedy(allocation.SAInstance(graph=graph, k=K), seed),
                      check=check_cover, canon=cover_canon, meta={"u": u})
            runner.op("build.edge_deletion", 0,
                      lambda: allocation.sa_greedy_edge_deletion(allocation.SAInstance(graph=graph, k=K), seed),
                      check=check_cover, canon=cover_canon, meta={"u": u})
            h = runner.op("build.hierarchy", 0, lambda: structures.build_supervision_hierarchy(graph, K, seed),
                          check=check_hierarchy, meta={"u": u})
            text = runner.op("build.dumps", 0, lambda: json.dumps(h.to_json_dict(), sort_keys=True),
                             check=check_text, canon=str.encode, meta={"u": u})
            runner.op("build.load_validate", 0, load, check=check_load, meta={"u": u})

        n = ctx["tree_tasks"]

        def check_tree(tree, meta):
            tree.validate()
            return len(tree.task_ids) == n

        tree = runner.op("build.tree", 0, lambda: structures.build_supervision_tree(n, K, seed),
                         check=check_tree, canon=lambda t: json.dumps(t.to_json_dict()).encode())
        if tree is not None:
            runner.ops[-1].work = sum(len(lv) for lv in tree.levels[:-1])

    @staticmethod
    def layers(runner: Runner, tr: tracing.Tracer, ctx: dict) -> dict:
        ops = {op.id: op for op in runner.traced()}
        u_max = ctx["sizes"][-1]

        def of(op_name: str, span: str, u=None):
            ids = {i for i, op in ops.items() if op.name == op_name and (u is None or op.meta.get("u") == u)}
            return runner.scaled(tr.by_name(span, ids))

        def median_ns(op_name, span, u):
            return median_or_zero([ns for _, ns in of(op_name, span, u)])

        out = {}
        pegs, greedy, deletion = [], [], []
        # metric names carry the full-size value; tiny runs fill the same names
        for label, u in zip(("u500", "u1000", "u2000"), ctx["sizes"]):
            t = median_ns("build.peg", "structures.build_peg_assignment", u)
            out[f"structures.peg_us_per_worker.{label}"] = t / u / 1e3
            pegs.append((u, t))
            greedy.append((u, median_ns("build.greedy", "allocation.sa_greedy", u)))
            deletion.append((u, median_ns("build.edge_deletion", "allocation.sa_greedy_edge_deletion", u)))
        selfs = tr.self_ns()
        hier_ids = {i for i, op in ops.items() if op.name == "build.hierarchy" and op.meta["u"] == u_max}
        hier_self = [selfs[sid] * ops[op].scale for sid, _, op, name, _, _ in tr.spans
                     if name == "structures.build_supervision_hierarchy" and op in hier_ids]
        set0 = {op.name: op.meta for op in runner.untraced() if op.set == 0 and op.meta.get("u") == u_max}
        load_ops = [op for op in ops.values() if op.name == "build.load_validate"]
        out.update({
            "structures.peg_scaling_exp": scaling_exp(pegs),
            "structures.hierarchy_self_ms": median_or_zero(hier_self) / 1e6,
            "structures.tree_us_per_task": median_ns("build.tree", "structures.build_supervision_tree", None)
            / ctx["tree_tasks"] / 1e3,
            "structures.load_validate_us_per_edge": sum(op.norm for op in load_ops) * 1e6
            / max(1, sum(op.meta.get("edges", 0) for op in load_ops)),
            "structures.json_bytes": set0.get("build.dumps", {}).get("bytes", 0),
            "allocation.greedy_us_per_worker": greedy[-1][1] / u_max / 1e3,
            "allocation.greedy_scaling_exp": scaling_exp(greedy),
            "allocation.edge_deletion_us_per_edge": deletion[-1][1] / (u_max * Build.K) / 1e3,
            "allocation.edge_deletion_scaling_exp": scaling_exp(deletion),
            "allocation.greedy_cover_size": set0.get("build.greedy", {}).get("cover_size", 0),
            "allocation.edge_deletion_cover_size": set0.get("build.edge_deletion", {}).get("cover_size", 0),
        })
        return out


# ---------------------------------------------------------------- montecarlo


class MonteCarlo:
    """The simulator used wide (many pairs, few episodes) and narrow (the reverse)."""

    unit = "pair-episodes"
    reference = PYTHON_LOOP
    # 9 operation kinds a round.  With an odd count the median, and p80, fall
    # inside the block of one kind for any number of rounds; at a block edge a
    # percentile would mix the fastest of one kind with the slowest of another.
    tail_pct = 80
    Z_SHARE_MAX = 0.015  # |z| > 3 is expected on 0.27 % of rows when the formulas hold
    Z_NARROW_MAX = 5.0
    SIZES = {
        # wide tree tasks, wide episodes, hierarchy workers, hierarchy episodes, narrow episodes, sweep episodes
        "full": (3000, 10_000, 200, 10_000, 1_000_000, 200_000),
        "tiny": (60, 5_000, 20, 5_000, 20_000, 5_000),
    }
    GRID = 50

    @staticmethod
    def setup(seed: int, size: str) -> dict:
        effort, simulate, structures = package_modules("effort", "simulate", "structures")
        wide_tasks, wide_ep, hier_workers, hier_ep, narrow_ep, sweep_ep = MonteCarlo.SIZES[size]
        rng = random.Random(seed)
        tree = structures.build_supervision_tree(wide_tasks, 3, rng.randrange(2**31))
        workers = [w for lv in tree.levels[1:-1] for w in lv]
        binary = {w: rng.uniform(0.05, 0.3) for w in workers}
        binary[tree.supervisor] = 0.0
        gaussian = {w: (rng.uniform(0.5, 1.5), rng.uniform(-0.2, 0.2)) for w in workers}
        gaussian[tree.supervisor] = (0.0, 0.0)
        peg = structures.build_peg_assignment(hier_workers, hier_workers, 3, rng.randrange(2**31))
        hier = structures.build_supervision_hierarchy(peg.graph, 3, rng.randrange(2**31))
        hier_workers_all = list(hier.graph.workers) + [w for lv in hier.tree.levels[1:-1] for w in lv]
        hier_binary = {w: rng.uniform(0.05, 0.3) for w in hier_workers_all}
        hier_gaussian = {w: (rng.uniform(0.5, 1.5), rng.uniform(-0.2, 0.2)) for w in hier_workers_all}
        # the two criterion-5 shapes: two pairs under an exact supervisor, and one Gaussian pair
        narrow = structures.build_supervision_tree(4, 2, 1)
        narrow_q = structures.build_supervision_tree(1, 2, 0)
        f_log = effort.EffortFunction.simple_log(1.0)
        k = rng.randint(2, 3)
        pair = effort.SchemeParams(k=k, epsilon=0.25, C=rng.uniform(10.0, 20.0))
        e_w = rng.uniform(0.0, 0.1)
        flat_p = rng.uniform(0.5, 0.8)
        flat = effort.SchemeParams(k=k, epsilon=0.25, C=rng.uniform(12.0, 20.0))
        q_alpha, q_c = rng.uniform(0.5, 2.0), rng.uniform(1.0, 3.0)
        return {
            "mods": (effort, simulate),
            "sets": [rng.randrange(2**31) for _ in range(2)],
            "wide": (tree, binary, gaussian, len(workers), wide_ep),
            "hier": (hier, hier_binary, hier_gaussian, len(hier_workers_all), hier_ep),
            "narrow": (narrow, narrow_q, narrow_ep),
            "sweeps": (f_log, pair, e_w, flat, flat_p, effort.EffortFunction.inverse_power(q_alpha), k, q_c, sweep_ep),
            # closed-form best responses the sweeps' argmins must land near
            "optima": (k / (pair.C * (1.0 - 2.0 * e_w)), k / (flat_p * flat.C), math.sqrt(q_alpha * k / q_c)),
        }

    @staticmethod
    def run_round(runner: Runner, ctx: dict, seed: int) -> None:
        _, simulate = ctx["mods"]
        tree, binary, gaussian, n_pairs, wide_ep = ctx["wide"]
        hier, hier_binary, hier_gaussian, hier_pairs, hier_ep = ctx["hier"]
        narrow, narrow_q, narrow_ep = ctx["narrow"]
        f_log, pair, e_w, flat, flat_p, f_inv, k, q_c, sweep_ep = ctx["sweeps"]
        opt_pair, opt_flat, opt_quant = ctx["optima"]
        wide_reports = []

        def pooled_rows(n):
            """Row count check; also pools the rows for the |z| share."""
            def check(rep, meta):
                wide_reports.append(rep)
                meta["pairs"], meta["episodes"] = n, rep.episodes
                return len(rep.rows) == n
            return check

        def pooled_z(rep, meta):
            ok = pooled_rows(hier_pairs)(rep, meta)
            rows = [r for rp in wide_reports for r in rp.rows]
            share = sum(abs(r.z) > 3.0 for r in rows) / len(rows)
            meta["z_gt3_share"] = share
            return ok and share <= MonteCarlo.Z_SHARE_MAX

        def narrow_check(n, analytic=None):
            def check(rep, meta):
                meta["pairs"], meta["episodes"] = n, rep.episodes
                return (len(rep.rows) == n and all(abs(r.z) <= MonteCarlo.Z_NARROW_MAX for r in rep.rows)
                        and (analytic is None or close(rep.rows[0].analytic, analytic)))
            return check

        def sweep_check(opt):
            def check(res, meta):
                meta["points"], meta["episodes"] = len(res.values), sweep_ep
                return abs(res.best_value - opt) <= 0.3 * opt
            return check

        def grid(opt):
            return [opt * (0.4 + 1.2 * i / (MonteCarlo.GRID - 1)) for i in range(MonteCarlo.GRID)]

        def csv(rep):
            return rep.to_csv().encode()

        def sweep_canon(res):
            return repr(res.mean_losses).encode()

        def config(episodes, model, structure, strategies):
            return simulate.SimConfig(episodes, seed, model, structure, strategies)

        runner.op("montecarlo.binary_wide", n_pairs * wide_ep,
                  lambda: simulate.simulate_binary(config(wide_ep, simulate.UniformWrong(m=2, C=10.0), tree, binary)),
                  check=pooled_rows(n_pairs), canon=csv)
        runner.op("montecarlo.quant_wide", n_pairs * wide_ep,
                  lambda: simulate.simulate_quant(config(wide_ep, simulate.Gaussian(c=2.0), tree, gaussian)),
                  check=pooled_rows(n_pairs), canon=csv)
        runner.op("montecarlo.quant_hierarchy", hier_pairs * hier_ep,
                  lambda: simulate.simulate_quant(config(hier_ep, simulate.Gaussian(c=2.0), hier, hier_gaussian)),
                  check=pooled_rows(hier_pairs), canon=csv)
        runner.op("montecarlo.binary_hierarchy", hier_pairs * hier_ep,
                  lambda: simulate.simulate_binary(config(hier_ep, simulate.UniformWrong(m=3, C=9.0), hier, hier_binary)),
                  check=pooled_z, canon=csv)
        runner.op("montecarlo.binary_narrow", 2 * narrow_ep,
                  lambda: simulate.simulate_binary(config(narrow_ep, simulate.UniformWrong(m=2, C=16.0), narrow,
                                                          {"w0": 0.125, "w1": 0.125, narrow.supervisor: 0.0})),
                  check=narrow_check(2), canon=csv)
        runner.op("montecarlo.quant_narrow", narrow_ep,
                  lambda: simulate.simulate_quant(config(narrow_ep, simulate.Gaussian(c=2.0), narrow_q,
                                                         {"w0": (1.0, 0.5), narrow_q.supervisor: (0.8, -0.5)})),
                  check=narrow_check(1, 5.28), canon=csv)
        points = MonteCarlo.GRID * sweep_ep
        runner.op("montecarlo.sweep_pair", points,
                  lambda: simulate.sweep_pair(f_log, pair, e_w, grid(opt_pair), sweep_ep, seed),
                  check=sweep_check(opt_pair), canon=sweep_canon)
        runner.op("montecarlo.sweep_flat", points,
                  lambda: simulate.sweep_flat(f_log, flat, flat_p, grid(opt_flat), sweep_ep, seed),
                  check=sweep_check(opt_flat), canon=sweep_canon)
        runner.op("montecarlo.sweep_quant", points,
                  lambda: simulate.sweep_quant(f_inv, k, q_c, grid(opt_quant), sweep_ep, seed),
                  check=sweep_check(opt_quant), canon=sweep_canon)

    @staticmethod
    def layers(runner: Runner, tr: tracing.Tracer, ctx: dict) -> dict:
        ops = {op.id: op for op in runner.traced()}

        def ns_per(op_name: str, span: str, size) -> float:
            ids = {i for i, op in ops.items() if op.name == op_name}
            return per_unit(runner.scaled(tr.by_name(span, ids)), lambda op: size(ops[op].meta))

        pair_episodes = lambda m: m["pairs"] * m["episodes"]  # noqa: E731
        point_episodes = lambda m: m["points"] * m["episodes"]  # noqa: E731
        sweeps = [ns_per(f"montecarlo.sweep_{s}", f"simulate.sweep_{s}", point_episodes) for s in ("pair", "flat", "quant")]
        set0 = [op for op in runner.untraced() if op.set == 0 and op.round == 0]
        return {
            "simulate.binary_ns_per_pair_episode.wide": ns_per("montecarlo.binary_wide", "simulate.simulate_binary", pair_episodes),
            "simulate.binary_ns_per_pair_episode.narrow": ns_per("montecarlo.binary_narrow", "simulate.simulate_binary", pair_episodes),
            "simulate.quant_ns_per_pair_episode.wide": ns_per("montecarlo.quant_wide", "simulate.simulate_quant", pair_episodes),
            "simulate.quant_ns_per_pair_episode.narrow": ns_per("montecarlo.quant_narrow", "simulate.simulate_quant", pair_episodes),
            "simulate.sweep_ns_per_point_episode": sum(sweeps) / len(sweeps),
            "simulate.peak_alloc_mb.wide": MonteCarlo.peak_alloc_mb(ctx),
            "simulate.z_gt3_share": next((op.meta["z_gt3_share"] for op in set0 if "z_gt3_share" in op.meta), 0.0),
            "simulate.pairs": sum(op.meta.get("pairs", 0) for op in set0),
        }

    @staticmethod
    def peak_alloc_mb(ctx: dict) -> float:
        """Peak traced allocation of one wide binary run; numpy reports its arrays to tracemalloc."""
        import tracemalloc

        _, simulate = ctx["mods"]
        tree, binary, _, _, wide_ep = ctx["wide"]
        config = simulate.SimConfig(wide_ep, ctx["sets"][0], simulate.UniformWrong(m=2, C=10.0), tree, binary)
        tracemalloc.start()
        try:
            simulate.simulate_binary(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / 2**20


# ---------------------------------------------------------------- cli


class Cli:
    """Cold ``python -m supervise`` invocations, one at a time, covering every subcommand."""

    unit = "invocations"
    reference = COLD_START
    tail_pct = 75  # 14 invocations a round, 3-4 rounds a run
    SUBCOMMANDS = (
        "threshold_binary", "threshold_flat", "threshold_quant", "defection", "counterexample", "equilibrium",
        "tree_build", "peg_build", "hierarchy_build", "allocate_greedy", "allocate_paper_greedy",
        "allocate_exact", "simulate_tree", "simulate_hierarchy",
    )
    SIZES = {
        # equilibrium depth, tree tasks, peg workers = tasks, exact-allocation tasks, simulate episodes
        "full": (20_000, 3000, 1000, 20, 2000),
        "tiny": (200, 60, 60, 8, 2000),
    }
    TIMEOUT = 120

    @staticmethod
    def setup(seed: int, size: str) -> dict:
        depth, tree_tasks, peg_n, exact_tasks, episodes = Cli.SIZES[size]
        workdir = os.path.join(OUT_DIR, f"cli-{os.getpid()}")
        os.makedirs(workdir, exist_ok=True)
        rng = random.Random(seed)
        sets = []
        for j in range(2):
            tasks = [f"t{i}" for i in range(exact_tasks)]
            edges = [[f"u{i}", t] for i in range(2 * exact_tasks) for t in rng.sample(tasks, rng.randint(1, 3))]
            small = os.path.join(workdir, f"small{j}.json")
            with open(small, "w", encoding="utf-8") as fh:
                json.dump({"workers": [f"u{i}" for i in range(2 * exact_tasks)], "tasks": tasks, "edges": edges}, fh)
            eps = rng.uniform(0.05, 0.2)
            k = rng.randint(2, 4)
            alpha = rng.uniform(0.5, 2.0)
            sets.append({
                "seed": rng.randrange(2**31), "small": small, "k": k, "eps": eps, "alpha": alpha,
                "flat_C": rng.uniform(5.0, 50.0), "quant_c": rng.uniform(0.5, 4.0), "quant_eps": rng.uniform(0.5, 2.0),
                "eq_C": alpha * k / (eps * (1.0 - 2.0 * eps)) * (1.0 + 1e-6),
                "trace_C": 0.99 * k / (eps * (1.0 - 2.0 * eps)), "strategies": rng.randrange(2**31),
            })
        # one cold import before timing, so byte-compiling the package is not charged to the first op
        subprocess.run([sys.executable, "-c", "import supervise"], check=True, timeout=Cli.TIMEOUT)
        return {"sets": sets, "workdir": workdir, "size": (depth, tree_tasks, peg_n, episodes), "checks": []}

    @staticmethod
    def invoke(runner: Runner, name: str, args, check=None, json_in=(), json_out=(), csv_out=()):
        def call():
            before = resource.getrusage(resource.RUSAGE_CHILDREN)
            proc = subprocess.run([sys.executable, "-m", "supervise", *map(str, args)],
                                  capture_output=True, timeout=Cli.TIMEOUT)
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
            return proc, cpu

        def checked(out, meta):
            proc, cpu = out
            meta["cpu_s"] = cpu
            meta["bytes_in"] = sum(os.path.getsize(p) for p in json_in)
            meta["bytes_out"] = sum(os.path.getsize(p) for p in json_out)
            if proc.returncode != 0:
                runner.errors.append(f"{name}: exit {proc.returncode}: {proc.stderr.decode()[-300:]}")
                return False
            return check is None or check(proc.stdout.decode())

        def canon(out):
            data = out[0].stdout
            for p in (*json_out, *csv_out):
                with open(p, "rb") as fh:
                    data += fh.read()
            return data

        runner.op(f"cli.{name}", 1, call, check=checked, canon=canon)
        return runner.ops[-1].id

    @staticmethod
    def run_round(runner: Runner, ctx: dict, s: dict) -> None:
        depth, tree_tasks, peg_n, episodes = ctx["size"]
        d = os.path.join(ctx["workdir"], f"r{runner.round}")
        os.makedirs(d, exist_ok=True)
        path = lambda name: os.path.join(d, name)  # noqa: E731
        k, eps, alpha = s["k"], s["eps"], s["alpha"]
        inv = Cli.invoke

        inv(runner, "threshold_binary", ["threshold", "binary", "--effort", "simplelog", "--alpha", 1,
                                         "--epsilon", 0.25, "--k", 2], check=lambda out: out == "16\n")

        def flat_ok(out):
            bound, feasible = out.split("\n")[:2]
            want = alpha * k / eps / s["flat_C"]
            return close(float(bound), want) and feasible == f"feasible {'true' if want <= 1 else 'false'}"

        inv(runner, "threshold_flat", ["threshold", "flat", "--effort", "simplelog", "--alpha", alpha,
                                       "--epsilon", eps, "--k", k, "--C", s["flat_C"]], check=flat_ok)

        def quant_ok(out):
            v, proficient = out.split("\n")[:2]
            want = math.sqrt(alpha * k / s["quant_c"])
            return close(float(v), want) and proficient == f"proficient {'true' if want < s['quant_eps'] else 'false'}"

        inv(runner, "threshold_quant", ["threshold", "quant", "--effort", "inversepower", "--alpha", alpha,
                                        "--k", k, "--c", s["quant_c"], "--epsilon", s["quant_eps"]], check=quant_ok)
        inv(runner, "defection", ["defection", "--N", 5, "--k", 2, "--C", 10], check=lambda out: out == "defect (4 < 6)\n")

        def trace_ok(out):
            tags = dict(line[2:].split(" ", 1) for line in out.splitlines() if line.startswith("# "))
            return int(tags["crossing_level"]) <= int(tags["guaranteed_depth"])

        inv(runner, "counterexample", ["counterexample", "--k", k, "--C", s["trace_C"], "--epsilon", eps,
                                       "--max-depth", 100_000], check=trace_ok)

        def equilibrium_ok(out):
            rows = out.splitlines()
            return (rows[0] == "level,error,truthful" and len(rows) == depth + 2
                    and all(r.endswith(",true") and float(r.split(",")[1]) < eps for r in rows[1:]))

        inv(runner, "equilibrium", ["equilibrium", "--effort", "simplelog", "--alpha", alpha, "--epsilon", eps,
                                    "--k", k, "--C", s["eq_C"], "--depth", depth], check=equilibrium_ok)

        # output files are loaded through the library after the timed phase (verify_files)
        seed = s["seed"]
        checks = ctx["checks"]
        op = inv(runner, "tree_build", ["tree", "build", "--n-tasks", tree_tasks, "--k", 3, "--seed", seed,
                                        "--out", path("tree.json")], json_out=[path("tree.json")])
        checks.append({"op": op, "kind": "tree", "path": path("tree.json"), "tasks": tree_tasks})
        op = inv(runner, "peg_build", ["peg", "build", "--n-workers", peg_n, "--n-tasks", peg_n, "--k", 3,
                                       "--seed", seed, "--out", path("peg.json")], json_out=[path("peg.json")])
        checks.append({"op": op, "kind": "peg", "path": path("peg.json"), "workers": peg_n})
        op = inv(runner, "hierarchy_build", ["hierarchy", "build", "--graph", path("peg.json"), "--k", 3,
                                             "--seed", seed, "--out", path("hier.json")],
                 json_in=[path("peg.json")], json_out=[path("hier.json")])
        checks.append({"op": op, "kind": "hierarchy", "path": path("hier.json")})
        for mode, graph in (("greedy", path("peg.json")), ("paper-greedy", path("peg.json")), ("exact", s["small"])):
            out = path(f"alloc_{mode}.json")
            op = inv(runner, f"allocate_{mode.replace('-', '_')}",
                     ["allocate", "--mode", mode, "--graph", graph, "--seed", seed, "--out", out],
                     json_in=[graph], json_out=[out])
            checks.append({"op": op, "kind": "cover", "path": out, "graph": graph, "exact": mode == "exact"})
        for name, structure in (("simulate_tree", path("tree.json")), ("simulate_hierarchy", path("hier.json"))):
            strategies, out = path(f"strategies_{name}.json"), path(f"{name}.csv")
            Cli.write_strategies(structure, strategies, s["strategies"])
            op = inv(runner, name, ["simulate", "--structure", structure, "--strategies", strategies,
                                    "--episodes", episodes, "--seed", seed, "--out", out],
                     json_in=[structure, strategies], csv_out=[out])
            checks.append({"op": op, "kind": "simulate", "path": out, "structure": structure})

    @staticmethod
    def write_strategies(structure: str, out: str, seed: int) -> None:
        """Seeded binary error for every worker of a tree or hierarchy file (harness side, not timed)."""
        try:
            with open(structure, encoding="utf-8") as fh:
                obj = json.load(fh)
        except (OSError, ValueError):
            obj = {}  # the build step failed; simulate fails too and is counted
        tree = obj.get("tree", obj)
        workers = [w for lv in tree.get("levels", [])[1:-1] for w in lv] + obj.get("graph", {}).get("workers", [])
        rng = random.Random(seed)
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"model": "uniform-wrong", "m": 2, "C": 10.0,
                       "workers": {w: rng.uniform(0.05, 0.3) for w in workers}}, fh)

    @staticmethod
    def verify_files(runner: Runner, ctx: dict) -> None:
        """Load and validate every output file through the library, in a separate process."""
        manifest = os.path.join(ctx["workdir"], "checks.json")
        with open(manifest, "w", encoding="utf-8") as fh:
            json.dump(ctx["checks"], fh)
        proc = subprocess.run([sys.executable, os.path.join(os.path.dirname(__file__), "cli_check.py"), manifest],
                              capture_output=True, timeout=Cli.TIMEOUT)
        if proc.returncode != 0:
            for c in ctx["checks"]:
                runner.fail(c["op"], f"output check process failed: {proc.stderr.decode()[-300:]}")
            return
        for op_id, why in json.loads(proc.stdout)["failed"]:
            runner.fail(op_id, f"{runner.ops[op_id].name}: {why}")

    @staticmethod
    def probe_ms(args, n: int = 5) -> float:
        def run():
            subprocess.run([sys.executable, *args], check=True, capture_output=True, timeout=Cli.TIMEOUT)

        return statistics.median(at_reference_speed(run, COLD_START) for _ in range(n)) * 1e3

    @staticmethod
    def numpy_loaded(argv) -> float:
        """1 if running the CLI with ``argv`` leaves numpy in sys.modules, else 0."""
        code = ("import runpy, sys\n"
                f"sys.argv = ['supervise', *{argv!r}]\n"
                "try:\n    runpy.run_module('supervise', run_name='__main__', alter_sys=True)\n"
                "except SystemExit:\n    pass\n"
                "sys.stderr.write('numpy_loaded=%d' % ('numpy' in sys.modules))\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=Cli.TIMEOUT)
        return 1.0 if b"numpy_loaded=1" in proc.stderr else 0.0

    @staticmethod
    def layers(runner: Runner, tr: tracing.Tracer, ctx: dict) -> dict:
        out = {}
        for name in Cli.SUBCOMMANDS:
            ops = [op for op in runner.traced() if op.name == f"cli.{name}"]
            out[f"cli.{name}_ms"] = median_or_zero([op.norm * 1e3 for op in ops])
            out[f"cli.{name}_cpu_ms"] = median_or_zero([op.meta.get("cpu_s", 0.0) * op.scale * 1e3 for op in ops])
        set0 = [op for op in runner.untraced() if op.set == 0 and op.round == 0]
        out.update({
            "cli.json_bytes_in": sum(op.meta.get("bytes_in", 0) for op in set0),
            "cli.json_bytes_out": sum(op.meta.get("bytes_out", 0) for op in set0),
            "cli.interpreter_ms": Cli.probe_ms(["-c", "pass"]),
            "cli.import_ms": Cli.probe_ms(["-c", "import supervise"]),
            "cli.numpy_loaded.threshold_binary": Cli.numpy_loaded(
                ["threshold", "binary", "--effort", "simplelog", "--alpha", "1", "--epsilon", "0.25", "--k", "2"]),
        })
        return out


WORKLOADS = {"analytic": Analytic, "build": Build, "montecarlo": MonteCarlo, "cli": Cli}


# ---------------------------------------------------------------- main


def package_modules(*names):
    """The package's submodules; ``from supervise import simulate`` would give the function."""
    return [importlib.import_module(f"supervise.{name}") for name in names]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--corrupt", action="store_true", help="feed a wrong output to the first check")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]
    ctx = wl.setup(args.seed, args.size)
    ready = time.monotonic()
    ready_ref = PYTHON_LOOP.measure()  # run.py scales set-up times with it
    if args.setup_only:
        if args.workload == "cli":
            shutil.rmtree(ctx["workdir"], ignore_errors=True)
        print(json.dumps({"ready": ready, "ready_ref": ready_ref}))
        return 0

    tracer = tracing.Tracer()
    runner = Runner(tracer, args.corrupt, wl.reference)
    # the cli workload's own process never imports the package; its layers live in the children
    modules = package_modules(*tracing.LAYERS) if args.trace and args.workload != "cli" else []
    try:
        loop = timed_loop(runner, wl, ctx, args.seconds, bool(args.trace), modules)
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF).ru_maxrss
        if args.workload == "cli":
            Cli.verify_files(runner, ctx)
        latencies = [op.norm * 1e3 for op in runner.untraced()]
        raw = [op.seconds * 1e3 for op in runner.untraced()]
        tail = percentile(latencies, wl.tail_pct)
        result = {
            "ready": ready,
            "ready_ref": ready_ref,
            "attempted": len(runner.ops),
            "failed": len(runner.failed),
            "errors": runner.errors[:20],
            "throughput": statistics.median(loop["rates"]),
            "op_p50_ms": statistics.median(latencies),
            "op_tail_ms": tail,
            "peak_rss_mb": peak_kb / 1024.0,
            "info": {
                "throughput_unit": f"{wl.unit}/s",
                "tail_percentile": wl.tail_pct,
                "ops_timed": len(latencies),
                "ops_beyond_tail": sum(x > tail for x in latencies),
                "rounds": runner.round + 1,
                "raw": {"throughput": statistics.median(loop["raw_rates"]), "op_p50_ms": statistics.median(raw),
                        "op_tail_ms": percentile(raw, wl.tail_pct)},
                "round_rates": loop["rates"],
                "reference_kernel": wl.reference.kernel.__name__,
                "reference_kernel_ms": statistics.median(1e3 * wl.reference.nominal_s / op.scale for op in runner.ops),
                "outputs_sha256": runner.digest.hexdigest(),
            },
        }
        if args.trace:
            layers = tracer.layer_self_share(sum(op.seconds for op in runner.traced()) * 1e9)  # a ratio: raw ns
            layers.update(wl.layers(runner, tracer, ctx))
            layers["trace.overhead_pct"] = statistics.median(loop["overheads"])
            os.makedirs(OUT_DIR, exist_ok=True)
            spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
            tracer.write(spans_path)
            result["layers"] = layers
            result["info"]["spans_file"] = spans_path
    finally:
        if args.workload == "cli":
            shutil.rmtree(ctx["workdir"], ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
