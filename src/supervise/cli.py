"""Command line front end: ``supervise <subcommand>``.

Every calculator, builder, solver, and simulation is reachable here with
file-based I/O.  Output is deterministic: all randomness flows from --seed, an
integer >= 0 (default: the SUPERVISE_SEED environment variable, else 0), JSON
is written with sorted keys and two-space indents, CSV with plain decimal
points, so identical invocations give byte-identical bytes.

Exit codes: 0 on success, 1 on a domain or feasibility error (one
machine-parsable ``error: <reason>`` line on stderr), 2 on usage errors.

A run loads only the modules of its subcommand: the parser needs ``effort``
and ``errors``, and each ``_cmd_*`` imports what it calls when it runs, so
``threshold binary`` never loads the structures, the covers or the simulator.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Mapping

from .effort import EffortFunction, Family, SchemeParams
from .errors import FLOAT_MAX, InstanceTooLargeError, SuperviseError, require_int

if TYPE_CHECKING:
    from .hierarchy import PopulationModel
    from .simulate import Gaussian, UniformWrong
    from .structures import SupervisionHierarchy, SupervisionTree

__all__ = ["fmt_decimal", "build_parser", "main", "run"]


def fmt_decimal(x: float) -> str:
    """16.0 -> '16', 0.3 -> '0.3', 1e+300 -> '1e+300': integral floats below 2**53 print bare, the rest as repr."""
    fx = float(x)
    if fx.is_integer() and abs(fx) < 2**53:
        return str(int(fx))
    return repr(fx)


def _resolve_seed(value: int | None) -> int:
    if value is None:
        raw = os.environ.get("SUPERVISE_SEED", "0")
        try:
            value = int(raw)
        except ValueError as exc:
            raise SuperviseError(f"SUPERVISE_SEED must be an integer, got {raw!r}") from exc
    return require_int(value, "seed", 0)


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SuperviseError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad UTF-8, a number past int's digit limit, too deep a nesting
        raise SuperviseError(f"invalid JSON in {path}: {exc}") from exc


def _emit(chunks: Iterable[str], out: str | None) -> None:
    """Write the strings of ``chunks`` in turn to stdout or to the file ``out``."""
    if out is None:
        sys.stdout.writelines(chunks)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise SuperviseError(f"cannot write {out}: {exc}") from exc


def _emit_json(payload, out: str | None) -> None:
    _emit((json.dumps(payload, sort_keys=True, indent=2), "\n"), out)


def _effort_from_args(args: argparse.Namespace) -> EffortFunction:
    return EffortFunction(family=Family(args.effort), alpha=args.alpha)


def _cmd_threshold(args: argparse.Namespace) -> int:
    f = _effort_from_args(args)
    if args.kind == "binary":
        from .hierarchy import min_penalty_hierarchical

        params = SchemeParams(k=args.k, epsilon=args.epsilon)
        print(fmt_decimal(min_penalty_hierarchical(f, params)))
    elif args.kind == "quant":
        from ._csv import bool_word
        from .quant import _require_variance_threshold, best_response_quant

        if args.epsilon is not None:
            _require_variance_threshold(args.epsilon)
        root = best_response_quant(f, args.k, args.c)
        print(fmt_decimal(root.value))
        if args.epsilon is not None:
            print(f"proficient {bool_word(root.value < args.epsilon)}")
    else:  # flat
        from ._csv import bool_word
        from .flat import min_verification_probability_binary, min_verification_probability_quant

        if (args.C is None) == (args.c is None):
            raise SuperviseError("flat threshold needs exactly one of --C (binary) or --c (quantitative)")
        params = SchemeParams(k=args.k, epsilon=args.epsilon, C=args.C, c=args.c)
        if args.n_workers is not None:
            require_int(args.n_workers, "n_workers", 0, hi=FLOAT_MAX)
        if args.C is not None:
            fb = min_verification_probability_binary(f, params)
        else:
            fb = min_verification_probability_quant(f, params)
        lines = [fmt_decimal(fb.bound), f"feasible {bool_word(fb.feasible)}"]
        if args.n_workers is not None:
            # workload at the cheapest inducing probability, namely the bound itself
            workload = fb.bound * args.n_workers
            if not math.isfinite(workload):
                raise SuperviseError(f"the workload bound * n_workers is not a finite float at n_workers="
                                     f"{args.n_workers}")
            lines.append(f"workload {fmt_decimal(workload)}")
        print("\n".join(lines))
    return 0


def _population_from_file(path: str) -> PopulationModel:
    from .hierarchy import PopulationModel, WorkerType

    obj = _read_json(path)
    types = obj.get("types") if isinstance(obj, dict) else None
    if not (isinstance(types, list) and all(isinstance(t, dict) for t in types)):
        raise SuperviseError("population file needs types[].id/effort/weight: types must be an array of objects")
    type_keys = ("id", "effort", "weight")
    unknown = set(obj) - {"types"} | {key for t in types for key in t if key not in type_keys}
    if unknown:
        raise SuperviseError(f"population file has unknown keys {sorted(unknown)}; use types[].id/effort/weight")
    try:
        types = tuple((WorkerType(EffortFunction(**t["effort"]), t["id"]), t["weight"]) for t in types)
    except (KeyError, TypeError) as exc:
        raise SuperviseError(f"population file needs types[].id/effort/weight: {exc}") from exc
    return PopulationModel(types)


def _cmd_equilibrium(args: argparse.Namespace) -> int:
    from .hierarchy import equilibrium_heterogeneous, equilibrium_homogeneous

    params = SchemeParams(k=args.k, epsilon=args.epsilon, C=args.C, m=args.m, D=args.D)
    if args.population is not None:
        if args.effort is not None:
            raise SuperviseError("give either --population or --effort, not both")
        eq = equilibrium_heterogeneous(_population_from_file(args.population), params, depth=args.depth, e0=args.e0)
    else:
        if args.effort is None:
            raise SuperviseError("equilibrium needs --effort (with --alpha) or --population FILE")
        eq = equilibrium_homogeneous(_effort_from_args(args), params, depth=args.depth, e0=args.e0)
    _emit(eq.csv_chunks(), args.out)
    return 0


def _cmd_counterexample(args: argparse.Namespace) -> int:
    from .hierarchy import counterexample_trace

    trace = counterexample_trace(SchemeParams(k=args.k, epsilon=args.epsilon, C=args.C), args.max_depth)
    footers = [
        f"# crossing_level {trace.crossing_level if trace.crossing_level is not None else 'none'}\n",
        f"# delta {fmt_decimal(trace.delta) if trace.delta is not None else 'none'}\n",
        f"# guaranteed_depth {trace.guaranteed_depth if trace.guaranteed_depth is not None else 'none'}\n",
    ]
    if trace.diverged_at is not None:
        footers.append(f"# diverged_at {trace.diverged_at}\n")
    _emit(chain(trace.csv_chunks(), footers), args.out)
    return 0


def _cmd_defection(args: argparse.Namespace) -> int:
    from .hierarchy import DefectionAnalysis

    da = DefectionAnalysis(N=args.N, k=args.k, C=args.C)
    sym = {"defect": "<", "indifferent": "=", "truthful-compatible": ">"}[da.verdict]
    print(f"{da.verdict} ({fmt_decimal(da.defect_cost)} {sym} {fmt_decimal(da.deviate_cost)})")
    return 0


def _cmd_tree(args: argparse.Namespace) -> int:
    from .structures import build_supervision_tree

    tree = build_supervision_tree(args.n_tasks, args.k, args.seed)
    _emit_json(tree.to_json_dict(), args.out)
    return 0


def _cmd_peg(args: argparse.Namespace) -> int:
    from .structures import build_peg_assignment

    peg = build_peg_assignment(args.n_workers, args.n_tasks, args.k, args.seed, args.redundancy)
    payload = peg.graph.to_json_dict()
    payload["pegs"] = list(peg.peg_tasks)
    _emit_json(payload, args.out)
    return 0


def _cmd_hierarchy(args: argparse.Namespace) -> int:
    from .structures import AssignmentGraph, build_supervision_hierarchy

    graph = AssignmentGraph.from_json_dict(_read_json(args.graph))
    h = build_supervision_hierarchy(graph, args.k, args.seed, mode=args.mode)
    _emit_json(h.to_json_dict(), args.out)
    return 0


def _cmd_allocate(args: argparse.Namespace) -> int:
    from .allocation import _cover
    from .structures import AssignmentGraph

    graph = AssignmentGraph.from_json_dict(_read_json(args.graph))
    sol = _cover(graph, args.mode, args.seed)
    payload: dict = {"cover": list(sol.tasks), "size": sol.size}
    try:
        best = sol if args.mode == "exact" else _cover(graph, "exact", args.seed)
    except InstanceTooLargeError:  # too large for the exact solver: no optimum to compare with
        best = None
    if best is not None and best.size > 0:
        payload["ratio"] = sol.size / best.size
    _emit_json(payload, args.out)
    return 0


def _parse_structure(obj) -> SupervisionTree | SupervisionHierarchy:
    from .structures import SupervisionHierarchy, SupervisionTree

    if isinstance(obj, Mapping) and "levels" in obj:
        return SupervisionTree.from_json_dict(obj)
    if isinstance(obj, Mapping) and "graph" in obj and "tree" in obj:
        return SupervisionHierarchy.from_json_dict(obj)
    raise SuperviseError("structure file is neither a tree (levels/edges/shared) nor a hierarchy (graph/tree/...)")


def _parse_strategies(obj) -> tuple[UniformWrong | Gaussian, object]:
    """The answer model built from every key but ``model``/``workers``, and the workers' strategies as given."""
    from .simulate import Gaussian, UniformWrong

    models = {"uniform-wrong": UniformWrong, "gaussian": Gaussian}
    if not isinstance(obj, Mapping) or "workers" not in obj:
        raise SuperviseError("strategies file needs a model name and a workers mapping")
    name = obj.get("model")
    if not isinstance(name, str) or name not in models:
        raise SuperviseError(f"unknown answer model {name!r}; use 'uniform-wrong' or 'gaussian'")
    settings = {key: v for key, v in obj.items() if key not in ("model", "workers")}
    try:
        model = models[name](**settings)
    except TypeError as exc:  # a key that is not one of the model's fields
        raise SuperviseError(f"malformed strategies file: {exc}") from exc
    return model, obj["workers"]


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .simulate import SimConfig, simulate

    structure = _parse_structure(_read_json(args.structure))
    model, strategies = _parse_strategies(_read_json(args.strategies))
    config = SimConfig(
        episodes=args.episodes,
        seed=args.seed,
        answer_model=model,
        structure=structure,
        strategies=strategies,
    )
    _emit(simulate(config).csv_chunks(), args.out)
    return 0


def _add_effort_flags(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument("--effort", choices=[f.value for f in Family], required=required,
                   default=None, help="effort cost family")
    p.add_argument("--alpha", type=float, default=1.0, help="effort cost scale (default 1)")


def _add_seed(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None,
                   help="random seed, an integer >= 0 (default: SUPERVISE_SEED env var, else 0)")


def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="write to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="supervise", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    th = sub.add_parser("threshold", help="incentive bounds and best responses")
    tsub = th.add_subparsers(dest="kind", required=True)
    tb = tsub.add_parser("binary", help="minimal penalty C for a truthful hierarchy")
    _add_effort_flags(tb)
    tb.add_argument("--epsilon", type=float, required=True)
    tb.add_argument("--k", type=int, required=True)
    tb.set_defaults(func=_cmd_threshold)
    tq = tsub.add_parser("quant", help="best-response variance under quadratic penalties")
    _add_effort_flags(tq)
    tq.add_argument("--k", type=int, required=True)
    tq.add_argument("--c", type=float, required=True)
    tq.add_argument("--epsilon", type=float, default=None,
                    help="also report whether the best response beats this variance")
    tq.set_defaults(func=_cmd_threshold)
    tf = tsub.add_parser("flat", help="minimal spot-check probability, feasibility, workload")
    _add_effort_flags(tf)
    tf.add_argument("--epsilon", type=float, required=True)
    tf.add_argument("--k", type=int, required=True)
    tf.add_argument("--C", type=float, default=None, help="penalty for a caught wrong answer (binary)")
    tf.add_argument("--c", type=float, default=None, help="quadratic penalty weight (quantitative)")
    tf.add_argument("--n-workers", type=int, default=None, help="also report supervisor workload")
    tf.set_defaults(func=_cmd_threshold)

    eq = sub.add_parser("equilibrium", help="level-by-level equilibrium errors as CSV")
    _add_effort_flags(eq, required=False)
    eq.add_argument("--k", type=int, required=True)
    eq.add_argument("--epsilon", type=float, required=True)
    eq.add_argument("--C", type=float, required=True)
    eq.add_argument("--depth", type=int, required=True)
    eq.add_argument("--e0", type=float, default=0.0, help="supervisor error (default 0)")
    eq.add_argument("--m", type=int, default=2, help="answer alternatives per task (default 2)")
    eq.add_argument("--D", type=float, default=None, help="both-wrong penalty (default C(m-2)/(m-1))")
    eq.add_argument("--population", default=None, help="JSON file of worker types for the heterogeneous model")
    _add_out(eq)
    eq.set_defaults(func=_cmd_equilibrium)

    ce = sub.add_parser("counterexample", help="divergence trace when C is undersized")
    ce.add_argument("--k", type=int, required=True)
    ce.add_argument("--C", type=float, required=True)
    ce.add_argument("--epsilon", type=float, required=True)
    ce.add_argument("--max-depth", type=int, required=True)
    _add_out(ce)
    ce.set_defaults(func=_cmd_counterexample)

    de = sub.add_parser("defection", help="is the all-agree deviation profitable?")
    de.add_argument("--N", type=int, required=True)
    de.add_argument("--k", type=int, required=True)
    de.add_argument("--C", type=float, required=True)
    de.set_defaults(func=_cmd_defection)

    tr = sub.add_parser("tree", help="supervision tree construction")
    trsub = tr.add_subparsers(dest="action", required=True)
    trb = trsub.add_parser("build")
    trb.add_argument("--n-tasks", type=int, required=True)
    trb.add_argument("--k", type=int, required=True)
    _add_seed(trb)
    _add_out(trb)
    trb.set_defaults(func=_cmd_tree)

    pg = sub.add_parser("peg", help="k-regular assignment with a small verifying task set")
    pgsub = pg.add_subparsers(dest="action", required=True)
    pgb = pgsub.add_parser("build")
    pgb.add_argument("--n-workers", type=int, required=True)
    pgb.add_argument("--n-tasks", type=int, required=True)
    pgb.add_argument("--k", type=int, required=True)
    pgb.add_argument("--redundancy", type=int, default=1, help="minimum workers per non-peg task (default 1)")
    _add_seed(pgb)
    _add_out(pgb)
    pgb.set_defaults(func=_cmd_peg)

    hi = sub.add_parser("hierarchy", help="supervision hierarchy over an assignment graph")
    hisub = hi.add_subparsers(dest="action", required=True)
    hib = hisub.add_parser("build")
    hib.add_argument("--graph", required=True, help="assignment graph JSON file")
    hib.add_argument("--k", type=int, required=True, help="tree branching factor")
    hib.add_argument("--mode", choices=["exact", "greedy", "paper-greedy"], default="greedy")
    _add_seed(hib)
    _add_out(hib)
    hib.set_defaults(func=_cmd_hierarchy)

    al = sub.add_parser("allocate", help="small covering task sets")
    al.add_argument("--mode", choices=["exact", "greedy", "paper-greedy"], required=True)
    al.add_argument("--graph", required=True, help="assignment graph JSON file")
    _add_seed(al)
    _add_out(al)
    al.set_defaults(func=_cmd_allocate)

    si = sub.add_parser("simulate", help="Monte Carlo penalties on a structure")
    si.add_argument("--structure", required=True, help="tree or hierarchy JSON file")
    si.add_argument("--strategies", required=True, help="answer model + per-worker strategies JSON file")
    si.add_argument("--episodes", type=int, required=True)
    _add_seed(si)
    _add_out(si)
    si.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "seed" in args:
            args.seed = _resolve_seed(args.seed)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError as exc:  # the reader left: point stdout at devnull, so the flush at exit finds nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        return 1
    except SuperviseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())
