"""Malformed inputs: every one is refused with a SuperviseError."""

import contextlib
import copy
import io
import json
import math
import random
from functools import reduce
from operator import getitem

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supervise import (
    AssignmentGraph,
    DefectionAnalysis,
    EffortFunction,
    CounterexampleTrace,
    EquilibriumProfile,
    FlatBound,
    Gaussian,
    HeterogeneousEquilibrium,
    PegAssignment,
    PopulationModel,
    QuantEquilibrium,
    QuantWorkerType,
    Root,
    SAInstance,
    SASolution,
    SchemeParams,
    SimConfig,
    SimReport,
    SuperviseError,
    SupervisionHierarchy,
    SupervisionTree,
    SweepResult,
    TypeEquilibrium,
    TypeQuantProfile,
    UniformWrong,
    WorkerStats,
    WorkerType,
    best_response_flat,
    best_response_flat_quant,
    best_response_quant,
    best_response_under_superior,
    build_peg_assignment,
    build_supervision_hierarchy,
    build_supervision_tree,
    build_supervision_tree_over,
    counterexample_trace,
    effort_deriv,
    effort_eval,
    equilibrium_heterogeneous,
    equilibrium_homogeneous,
    expected_loss_flat,
    expected_loss_flat_quant,
    expected_loss_pair,
    expected_penalty_pair,
    expected_penalty_quant,
    min_penalty_hierarchical,
    min_verification_probability_binary,
    min_verification_probability_quant,
    proficiency_sigma,
    profile_to_csv,
    quant_equilibrium,
    sa_exact,
    sa_greedy,
    sa_greedy_edge_deletion,
    simulate,
    simulate_binary,
    simulate_quant,
    solve_deriv_equals,
    sweep_flat,
    sweep_pair,
    sweep_quant,
    vc_to_sa,
)
from supervise.cli import main
from supervise.simulate import _EPISODES_MAX

NAN = float("nan")
SL = EffortFunction.simple_log(1.0)
IP = EffortFunction.inverse_power(1.0)
PARAMS = SchemeParams(k=2, epsilon=0.25, C=16.0)
QPARAMS = SchemeParams(k=4, epsilon=2.0, c=1.0)
GRID = [0.3, 0.4]

_PEG = build_peg_assignment(6, 5, 3, seed=1)
GRAPH = _PEG.graph.to_json_dict()
_TREE = build_supervision_tree(4, 2, seed=7)
TREE = _TREE.to_json_dict()
_HIER = build_supervision_hierarchy(_PEG.graph, k=2, seed=5)
HIERARCHY = _HIER.to_json_dict()
# Task t1 of this tree is a chain of four performers: the supervisor judges w8, who judges w5, who judges w0.
_CHAIN_TREE = build_supervision_tree(9, 2, seed=7)


def _gaussian_chain_run(sigma_supervisor, sigma_w8):
    """A Gaussian run over ``_CHAIN_TREE``, every other performer's sigma 1."""
    strategies = {w: (1.0, 0.0) for lv in _CHAIN_TREE.levels[1:-1] for w in lv}
    strategies.update({_CHAIN_TREE.supervisor: (sigma_supervisor, 0.0), "w8": (sigma_w8, 0.0)})
    return simulate(SimConfig(100, 0, Gaussian(), _CHAIN_TREE, strategies))


_CHAIN_BEYOND_FLOATS = "worker 'w8' under 'supervisor' has a mean or stderr beyond the float range"



def _with(obj, path, value):
    """A deep copy of JSON ``obj`` with the node at ``path`` set to ``value``."""
    obj = copy.deepcopy(obj)
    *parents, last = path
    reduce(getitem, parents, obj)[last] = value
    return obj


def _renamed(obj, old, new):
    """A copy of JSON ``obj`` with every id ``old`` renamed to ``new``."""
    return json.loads(json.dumps(obj).replace(json.dumps(old), json.dumps(new)))


def _exact_hierarchy_over_a_worker_less_task():
    # 31 tasks, so the exact solver's task cap would be reported first if it ran before the check
    workers, tasks = [f"u{i}" for i in range(30)], [f"t{i}" for i in range(31)]
    graph = AssignmentGraph(workers=workers, tasks=tasks, edges=list(zip(workers, tasks)))
    build_supervision_hierarchy(graph, 2, 0, mode="exact")


def _levels(*errors):
    """Hand-built roots of levels 0, 1, ... holding these errors."""
    return tuple(Root(e) for e in errors)


def _profile(prefix, period, depth):
    return EquilibriumProfile(prefix=prefix, period=period, depth=depth, threshold=0.25)


def _type_levels(prefix, period, depth, threshold=0.25, **fields):
    return TypeEquilibrium(**{
        "prefix": prefix, "period": period, "depth": depth, "threshold": threshold, "worker": WorkerType(SL),
        "weight": 0.5, "sigma": 0.1, "sigma_clamped": False, **fields,
    })


def _quant_type(**fields):
    return TypeQuantProfile(**{
        "worker": QuantWorkerType(IP), "weight": 1.0, "vstar": 0.5, "clamped": False, "threshold": 1.0, **fields
    })


def _row(worker="w0"):
    return WorkerStats(worker, 1, 0.5, 0.1, 0.5, 0.0)


def _trace(prefix, period, depth):
    return CounterexampleTrace(
        prefix=prefix, period=period, depth=depth, threshold=0.2, k=2, C=10.0
    )


def _binary_strategy_true():
    tree = build_supervision_tree(2, 2, seed=0)
    simulate_binary(SimConfig(10, 0, UniformWrong(), tree, {"w0": True}))


# One more episode than the episode bound: refused before anything is drawn.
TOO_MANY_EPISODES = 2**60


BAD_INPUTS = {
    "simulation of more episodes than numpy can size": lambda: simulate(
        SimConfig(TOO_MANY_EPISODES, 0, UniformWrong(), build_supervision_tree(2, 2, seed=0), {"w0": 0.1})
    ),
    "sim report of more episodes than numpy can size": lambda: SimReport(rows=(), episodes=TOO_MANY_EPISODES, seed=0),
    "flat sweep of more episodes than numpy can size": lambda: sweep_flat(SL, PARAMS, 0.5, GRID, TOO_MANY_EPISODES, 0),
    "pair sweep of more episodes than numpy can size": lambda: sweep_pair(SL, PARAMS, 0.1, GRID, TOO_MANY_EPISODES, 0),
    "quadratic sweep of more episodes than numpy can size": lambda: sweep_quant(
        IP, 4, 1.0, [1.0, 2.0], TOO_MANY_EPISODES, 0
    ),
    "uniform-wrong C as a string": lambda: UniformWrong(C="1"),
    "uniform-wrong m beyond the float range": lambda: UniformWrong(m=2**1024),
    "gaussian c of None": lambda: Gaussian(c=None),
    "sweep_flat p as a string": lambda: sweep_flat(SL, PARAMS, p="x", grid=GRID, episodes=10, seed=0),
    "quant weight as a string": lambda: quant_equilibrium([(QuantWorkerType(IP), "a")], 2, 1.0, 3.0, 2),
    "population weight NaN": lambda: PopulationModel(((WorkerType(SL, "a"), NAN), (WorkerType(SL, "b"), 1.0))),
    "population of bare numbers": lambda: PopulationModel((1, 2)),
    "population weight an integer beyond the float range": lambda: PopulationModel(((WorkerType(SL), 10**400),)),
    "flat bound an integer beyond the float range": lambda: FlatBound(10**400),
    "scheme k a bool": lambda: SchemeParams(k=True, epsilon=0.25, C=16.0),
    "equilibrium depth a bool": lambda: equilibrium_homogeneous(SL, PARAMS, depth=True),
    "defection N a bool": lambda: DefectionAnalysis(N=True, k=2, C=10.0),
    "tree n_tasks a bool": lambda: build_supervision_tree(True, 2, seed=0),
    "sweep_quant sigma_w NaN": lambda: sweep_quant(IP, 4, 1.0, [1.0, 2.0], 10, 0, sigma_w=NAN),
    "expected_penalty_quant c NaN": lambda: expected_penalty_quant(1.0, 0.0, 1.0, 0.0, c=NAN),
    "expected_penalty_quant bias a string": lambda: expected_penalty_quant(1.0, "x", 1.0, 0.0, c=1.0),
    "expected_penalty_quant bias NaN": lambda: expected_penalty_quant(1.0, NAN, 1.0, 0.0, c=1.0),
    "expected_penalty_quant superior bias inf": lambda: expected_penalty_quant(1.0, 0.0, 1.0, float("inf"), c=1.0),
    "expected_penalty_quant of a square beyond the float range": lambda: expected_penalty_quant(
        1e200, 0.0, 0.0, 0.0, 1.0
    ),
    "expected_penalty_quant of a sum beyond the float range": lambda: expected_penalty_quant(
        1e154, 0.0, 1e154, 0.0, 1.0
    ),
    "expected_penalty_pair error a string": lambda: expected_penalty_pair("a", 0.1, 1.0, 0.0),
    "expected_penalty_pair error NaN": lambda: expected_penalty_pair(NAN, 0.1, 1.0, 0.0),
    "expected_penalty_pair superior error 1.5": lambda: expected_penalty_pair(0.1, 1.5, 1.0, 0.0),
    "expected_penalty_pair C negative": lambda: expected_penalty_pair(0.1, 0.1, -5.0, 9.0),
    "expected_penalty_pair D above C": lambda: expected_penalty_pair(0.1, 0.1, 5.0, 9.0),
    "expected_penalty_pair D negative": lambda: expected_penalty_pair(0.1, 0.1, 5.0, -1.0),
    "binary strategy a bool": _binary_strategy_true,
    "sweep seed negative": lambda: sweep_quant(IP, 4, 1.0, [1.0, 2.0], 10, -1),
    "tree JSON missing w1's shared task": lambda: SupervisionTree.from_json_dict(
        {**TREE, "shared": [s for s in TREE["shared"] if s[1] != "w1"]}
    ),
    "hierarchy JSON coverage naming task zz": lambda: SupervisionHierarchy.from_json_dict(
        _with(HIERARCHY, ("coverage", 0, 1), "zz")
    ),
    "graph JSON edge a two-character string": lambda: AssignmentGraph.from_json_dict(
        {"workers": ["a"], "tasks": ["b"], "edges": ["ab"]}
    ),
    "tree JSON level holding a nested list": lambda: SupervisionTree.from_json_dict(
        _with(TREE, ("levels", -2, 0), [TREE["levels"][-2][0]])
    ),
    "hierarchy JSON tree_tasks holding a nested list": lambda: SupervisionHierarchy.from_json_dict(
        _with(HIERARCHY, ("tree_tasks", 0), [HIERARCHY["tree_tasks"][0]])
    ),
    "best_response_flat p a string": lambda: best_response_flat(SL, "x", PARAMS),
    "expected_loss_flat p NaN": lambda: expected_loss_flat(SL, 0.2, NAN, PARAMS),
    "best_response_flat_quant p a bool": lambda: best_response_flat_quant(IP, True, QPARAMS),
    "effort family nope": lambda: EffortFunction("nope"),
    "quant worker bias a string": lambda: QuantWorkerType(IP, bias="x"),
    "quant worker bias NaN": lambda: quant_equilibrium([(QuantWorkerType(IP, bias=NAN), 1.0)], 2, 1.0, 3.0, 2),
    "worker type effort a family name": lambda: WorkerType("simplelog"),
    "worker type id an integer": lambda: WorkerType(SL, id=5),
    "strategies a list of worker ids": lambda: SimConfig(
        10, 0, UniformWrong(), build_supervision_tree(2, 2, seed=0), ["w0"]
    ),
    "tree JSON sharing a task on a worker->task edge": lambda: SupervisionTree.from_json_dict(
        {**TREE, "shared": TREE["shared"] + [["w0", "t0", "t0"]]}
    ),
    "tree JSON sharing a task on a pair that is not an edge": lambda: SupervisionTree.from_json_dict(
        {**TREE, "shared": TREE["shared"] + [["w0", "w1", "t2"]]}
    ),
    "tree JSON with two shared tasks for one edge": lambda: SupervisionTree.from_json_dict(
        {**TREE, "shared": TREE["shared"] + [["supervisor", "w0", "t0"]]}
    ),
    "hierarchy JSON tree worker renamed to graph worker u0": lambda: SupervisionHierarchy.from_json_dict(
        {**HIERARCHY, "tree": _renamed(HIERARCHY["tree"], "h0", "u0")}
    ),
    "hierarchy JSON coverage row for tree worker h0": lambda: SupervisionHierarchy.from_json_dict(
        {**HIERARCHY, "coverage": HIERARCHY["coverage"] + [["h0", "t2"]]}
    ),
    "hierarchy JSON coverage row for unknown worker zz": lambda: SupervisionHierarchy.from_json_dict(
        {**HIERARCHY, "coverage": HIERARCHY["coverage"] + [["zz", "t1"]]}
    ),
    "hierarchy JSON tree_tasks entry listed twice": lambda: SupervisionHierarchy.from_json_dict(
        {**HIERARCHY, "tree_tasks": HIERARCHY["tree_tasks"] + [HIERARCHY["tree_tasks"][0]]}
    ),
    "hierarchy JSON coverage row listed twice": lambda: SupervisionHierarchy.from_json_dict(
        {**HIERARCHY, "coverage": HIERARCHY["coverage"] + [HIERARCHY["coverage"][0]]}
    ),
    "exact hierarchy over a graph whose task t30 has no worker": _exact_hierarchy_over_a_worker_less_task,
    "tree seed negative": lambda: build_supervision_tree(7, 2, seed=-1),
    "peg seed negative": lambda: build_peg_assignment(6, 5, 3, seed=-1),
    "hierarchy seed negative": lambda: build_supervision_hierarchy(_PEG.graph, k=2, seed=-1),
    "greedy cover seed negative": lambda: sa_greedy(SAInstance(_PEG.graph, 3), seed=-1),
    "edge-deletion cover seed negative": lambda: sa_greedy_edge_deletion(SAInstance(_PEG.graph, 3), seed=-1),
    "cover solution tasks a string": lambda: SASolution(tasks="xy", cover_witness=()),
    "cover solution witness an integer": lambda: SASolution(tasks=(), cover_witness=5),
    "graph with integer worker ids": lambda: AssignmentGraph(
        workers=(1, 2), tasks=("t0",), edges=((1, "t0"), (2, "t0"))
    ),
    "hierarchy constructed with a coverage row twice": lambda: SupervisionHierarchy(
        _HIER.graph, _HIER.tree, _HIER.coverage + _HIER.coverage[:1]
    ),
    "counterexample C too small for a finite delta": lambda: counterexample_trace(
        SchemeParams(k=2, epsilon=0.2, C=5e-324), 5
    ),
    "graph constructed with a three-id edge row": lambda: AssignmentGraph(
        workers=("u0",), tasks=("t0",), edges=(("u0", "t0", "x"),)
    ),
    "tree constructed with a shared pair": lambda: SupervisionTree(
        _TREE.levels, _TREE.edges, _TREE.shared[1:] + (_TREE.shared[0][:2],)
    ),
    "hierarchy constructed with a one-id coverage row": lambda: SupervisionHierarchy(
        _HIER.graph, _HIER.tree, _HIER.coverage[1:] + (_HIER.coverage[0][:1],)
    ),
    "vertex cover over integer vertex ids": lambda: vc_to_sa([1, 2], [(1, 2)]),
    "tree over integer task ids": lambda: build_supervision_tree_over([1, 2, 3], 2, 0),
    "tree with a supervisor id of None": lambda: build_supervision_tree_over(["a", "b", "c"], 2, 0, "w", None),
    "tree with an integer supervisor id": lambda: build_supervision_tree_over(["a", "b", "c"], 2, 0, "w", 3),
    "profile with no levels": lambda: _profile((), 0, 0),
    "profile of plain tuples": lambda: _profile(((0, 0.0, True, False),), 0, 0),
    "profile levels as a list": lambda: _profile(list(_levels(0.0)), 0, 0),
    "profile period as long as its prefix": lambda: _profile(_levels(0.0, 0.1, 0.0), 3, 5),
    "profile period negative": lambda: _profile(_levels(0.0, 0.1, 0.0), -1, 5),
    "profile depth short of its prefix": lambda: _profile(_levels(0.0, 0.1), 0, 0),
    "profile without a period deeper than its prefix": lambda: _profile(_levels(0.0, 0.1), 0, 5),
    "profile prefix past its first repeat": lambda: _profile(_levels(0.0, 0.1, 0.1, 0.1), 1, 5),
    "profile period other than its repeat's": lambda: _profile(_levels(0.0, 0.1, 0.2, 0.1), 1, 5),
    "profile period without a repeat": lambda: _profile(_levels(0.0, 0.1, 0.2), 1, 5),
    "profile ending on a repeat without a period": lambda: _profile(_levels(0.0, 0.1, 0.0), 0, 2),
    "type period as long as its prefix": lambda: _type_levels(_levels(0.0, 0.1), 2, 5),
    "type without a period deeper than its prefix": lambda: _type_levels(_levels(0.0, 0.1), 0, 5),
    "profile threshold a string": lambda: EquilibriumProfile(_levels(0.0, 0.1), 0, 1, "0.25"),
    "profile root of a string error": lambda: EquilibriumProfile((Root("x"),), 0, 0, 0.25),
    "profile level error above 1": lambda: _profile(_levels(0.0, 1.5), 0, 1),
    "type level error below 0": lambda: _type_levels(_levels(0.0, -0.1), 0, 1),
    "inverse power profile whose last level lies above 1": lambda: equilibrium_homogeneous(
        IP, SchemeParams(k=2, epsilon=0.25, C=1.0), 1
    ),
    "proficient mixture with an inverse power type above 1": lambda: equilibrium_heterogeneous(
        PopulationModel(((WorkerType(SL, "cheap"), 0.99), (WorkerType(EffortFunction.inverse_power(100.0)), 0.01))),
        SchemeParams(k=2, epsilon=0.25, C=40.0), 5,
    ),
    "heterogeneous equilibrium of no types": lambda: HeterogeneousEquilibrium(()),
    "heterogeneous equilibrium of plain tuples": lambda: HeterogeneousEquilibrium(((0, 0.0),)),
    "heterogeneous types of different periods": lambda: HeterogeneousEquilibrium(
        (_type_levels(_levels(0.0, 0.1, 0.2), 1, 5), _type_levels(_levels(0.0, 0.1, 0.2), 2, 5))
    ),
    "heterogeneous types of different depths": lambda: HeterogeneousEquilibrium(
        (_type_levels(_levels(0.0, 0.1, 0.2), 1, 5), _type_levels(_levels(0.0, 0.1, 0.2), 1, 6))
    ),
    "heterogeneous types of different thresholds": lambda: HeterogeneousEquilibrium(
        (_type_levels(_levels(0.0, 0.1, 0.2), 1, 5), _type_levels(_levels(0.0, 0.1, 0.2), 1, 5, 0.3))
    ),
    "trace above its threshold before its last level": lambda: _trace(_levels(0.0, 0.3, 0.1), 0, 2),
    "trace that crosses and repeats": lambda: _trace(_levels(0.0, 0.1, 0.3), 1, 5),
    "population of (int, weight) pairs": lambda: PopulationModel(((1, 1.0),)),
    "quant equilibrium of binary worker types": lambda: quant_equilibrium([(WorkerType(SL), 1.0)], 2, 1.0, 3.0, 2),
    "cover instance over a graph dict": lambda: SAInstance(GRAPH, 3),
    "peg assignment over a graph dict": lambda: PegAssignment(GRAPH, _PEG.peg_tasks),
    "hierarchy over a graph dict": lambda: SupervisionHierarchy(GRAPH, _HIER.tree, _HIER.coverage),
    "hierarchy over a tree dict": lambda: SupervisionHierarchy(_HIER.graph, TREE, _HIER.coverage),
    "profile threshold at 1/2": lambda: EquilibriumProfile(_levels(0.0, 0.1), 0, 1, 0.5),
    "mixture whose mean errors do not repeat at its period": lambda: HeterogeneousEquilibrium(
        (_type_levels(_levels(0.0, 0.1, 0.2), 1, 5, weight=1.0),)
    ),
    "mixture whose mean errors repeat before its prefix ends": lambda: HeterogeneousEquilibrium(
        (_type_levels(_levels(0.0, 0.2, 0.1, 0.3), 1, 5), _type_levels(_levels(0.0, 0.0, 0.1, 0.1), 1, 5))
    ),
    "mixture types of different level-0 roots": lambda: HeterogeneousEquilibrium(
        (_type_levels(_levels(0.0, 0.1, 0.1), 1, 5), _type_levels(_levels(0.05, 0.1, 0.1), 1, 5))
    ),
    "mixture types as a list": lambda: HeterogeneousEquilibrium([_type_levels(_levels(0.0, 0.1, 0.1), 1, 5)]),
    "type sigma a string": lambda: _type_levels(_levels(0.0, 0.1), 0, 1, sigma="x"),
    "type sigma NaN": lambda: _type_levels(_levels(0.0, 0.1), 0, 1, sigma=NAN),
    "type sigma above 1": lambda: _type_levels(_levels(0.0, 0.1), 0, 1, sigma=1.5),
    "best response to a superior above 1 under the inverse power": lambda: best_response_under_superior(
        IP, 0.25, SchemeParams(k=2, epsilon=0.25, C=1.0)
    ),
    "flat best response above 1 under the inverse power": lambda: best_response_flat(
        IP, 0.1, SchemeParams(k=2, epsilon=0.25, C=1.0)
    ),
    "proficiency sigma above 1 under the inverse power": lambda: proficiency_sigma(
        IP, SchemeParams(k=2, epsilon=0.25, C=1.0)
    ),
    # the simplelog type holds the mean sigma below epsilon, and every level is a probability
    "proficient mixture whose light inverse power type has a sigma above 1": lambda: equilibrium_heterogeneous(
        PopulationModel(((WorkerType(IP, "ip"), 0.02), (WorkerType(EffortFunction.simple_log(0.05), "sl"), 0.98))),
        SchemeParams(k=2, epsilon=0.25, C=3.0), 5,
    ),
    "type sigma_clamped an integer": lambda: _type_levels(_levels(0.0, 0.1), 0, 1, sigma_clamped=0),
    "type weight negative": lambda: _type_levels(_levels(0.0, 0.1), 0, 1, weight=-0.5),
    "type worker a quant worker type": lambda: _type_levels(_levels(0.0, 0.1), 0, 1, worker=QuantWorkerType(IP)),
    "trace period its errors do not repeat at": lambda: _trace(_levels(0.0, 0.01, 0.02), 2, 5),
    "trace threshold at 1/4": lambda: CounterexampleTrace(_levels(0.0, 0.1), 0, 1, 0.25, 2, 10.0),
    "trace k a string": lambda: CounterexampleTrace(_levels(0.0, 0.1), 0, 1, 0.2, "2", 10.0),
    "trace C zero": lambda: CounterexampleTrace(_levels(0.0, 0.1), 0, 1, 0.2, 2, 0.0),
    "trace C too small for a finite delta": lambda: CounterexampleTrace(_levels(0.0, 0.1), 0, 1, 0.2, 2, 5e-324),
    "trace epsilon too small for a finite bound": lambda: CounterexampleTrace(_levels(0.0, 0.1), 0, 1, 5e-324, 2, 1.0),
    "flat bound a string": lambda: FlatBound("x"),
    "flat bound NaN": lambda: FlatBound(NAN),
    "flat bound negative": lambda: FlatBound(-1.0),
    "defection N a string": lambda: DefectionAnalysis("10", 2, 1.0),
    "defection C NaN": lambda: DefectionAnalysis(10, 2, NAN),
    "defection cost beyond the float range": lambda: DefectionAnalysis(1, 10**300, 1e300),
    "quant profile vstar a string": lambda: _quant_type(vstar="x"),
    "quant profile weight NaN": lambda: _quant_type(weight=NAN),
    "quant profile clamped a string": lambda: _quant_type(clamped="no"),
    "quant profile threshold zero": lambda: _quant_type(threshold=0.0),
    "quant profile worker a binary worker type": lambda: _quant_type(worker=WorkerType(SL)),
    "quant equilibrium of integers": lambda: QuantEquilibrium((1, 2), 0),
    "quant equilibrium of no types": lambda: QuantEquilibrium((), 3),
    "quant equilibrium depth 0": lambda: QuantEquilibrium((_quant_type(),), 0),
    "sweep result of one point": lambda: SweepResult((1.0,), (2.0,)),
    "sweep result point NaN": lambda: SweepResult((1.0, NAN), (2.0, 3.0)),
    "sweep result loss NaN": lambda: SweepResult((1.0, 2.0), (2.0, NAN)),
    "sweep result loss a string": lambda: SweepResult((1.0, 2.0), (2.0, "3")),
    "sweep result of more losses than points": lambda: SweepResult((1.0, 2.0), (2.0, 3.0, 4.0)),
    "sweep result values a list": lambda: SweepResult([1.0, 2.0], (2.0, 3.0)),
    "sim report of integers": lambda: SimReport((1,), 1, -1),
    "sim report rows a list": lambda: SimReport([_row()], 10, 0),
    "sim report of one episode": lambda: SimReport((_row(),), 1, 0),
    "sim report seed negative": lambda: SimReport((_row(),), 10, -1),
    "sim report row whose numbers are strings": lambda: SimReport((WorkerStats("w", 1, "x", 0.0, 0.0, "z"),), 2, 0),
    "vertex cover with a vertex id twice": lambda: vc_to_sa(["a", "a", "b"], [("a", "b")]),
    "effort at NaN": lambda: effort_eval(SL, NAN),
    "effort at a string": lambda: effort_eval(SL, "x"),
    "effort at an integer beyond the float range": lambda: effort_eval(SL, 10**400),
    "solver target an integer beyond the float range": lambda: solve_deriv_equals(SL, -10**400),
    "simulation config with a model name": lambda: SimConfig(10, 0, "uniform-wrong", _TREE, {}),
    "simulation over an assignment graph": lambda: simulate(SimConfig(10, 0, UniformWrong(), _PEG.graph, {})),
    "simulation config over an assignment graph": lambda: SimConfig(10, 0, UniformWrong(), _PEG.graph, {}),
    "simulate_quant with a uniform-wrong model": lambda: simulate_quant(SimConfig(10, 0, UniformWrong(), _TREE, {})),
    "simulation whose sampled mean exceeds the float range": lambda: simulate(  # a binary mean never exceeds C
        SimConfig(100, 0, Gaussian(c=1e308), build_supervision_tree(1, 2, 0), {"w0": (0.0, 10.0)})
    ),
    "simulation of a root sigma of 1e200 over a child of sigma 1": lambda: _gaussian_chain_run(1e200, 1.0),
    "simulation of two sigmas whose squares sum past the float range": lambda: _gaussian_chain_run(1.3e154, 1.3e154),
    "sweep whose sampled mean exceeds the float range": lambda: sweep_quant(IP, 4, 1.0, [1.0, 2.0], 100, 0,
                                                                            sigma_w=1e200),
    "sweep grid point a string": lambda: sweep_quant(IP, 4, 1.0, ["x", 2.0], 10, 0),
    "sweep grid point beyond the float range": lambda: sweep_quant(IP, 4, 1.0, [10**400, 2.0], 10, 0),
    "tree JSON worker w9 without children": lambda: SupervisionTree.from_json_dict(
        {**TREE, "levels": [*TREE["levels"][:-2], TREE["levels"][-2] + ["w9"], TREE["levels"][-1]],
         "edges": TREE["edges"] + [[TREE["levels"][-3][0], "w9"]]}
    ),
    "tree JSON with no levels": lambda: SupervisionTree.from_json_dict({"levels": [], "edges": [], "shared": []}),
    "tree JSON with empty worker and task levels": lambda: SupervisionTree.from_json_dict(
        {"levels": [["supervisor"], [], []], "edges": [], "shared": []}
    ),
    "peg graph of uneven degree": lambda: PegAssignment(
        AssignmentGraph(workers=("u0", "u1"), tasks=("t0", "t1"), edges=(("u0", "t0"), ("u0", "t1"), ("u1", "t0"))),
        ("t0",),
    ),
    "pegs that overlap": lambda: PegAssignment(_PEG.graph, tuple(_PEG.graph.tasks)),
    "pegs that miss a worker": lambda: PegAssignment(_PEG.graph, _PEG.peg_tasks[:-1]),
    "hierarchy whose tree holds a task outside the graph": lambda: SupervisionHierarchy(
        _HIER.graph, build_supervision_tree_over(["x0", "x1"], 2, 0), _HIER.coverage
    ),
    "hierarchy JSON a list": lambda: SupervisionHierarchy.from_json_dict([HIERARCHY]),
    "hierarchy over a peg assignment": lambda: build_supervision_hierarchy(_PEG, 3, 11),
    "greedy cover of a bare graph": lambda: sa_greedy(_PEG.graph, 11),
    "edge-deletion cover of a bare graph": lambda: sa_greedy_edge_deletion(_PEG.graph, 11),
    "exact cover of a bare graph": lambda: sa_exact(_PEG.graph),
    "hierarchy over a graph without workers": lambda: build_supervision_hierarchy(AssignmentGraph((), (), ()), 2, 0),
    "simulation of no config": lambda: simulate(None),
    "simulate_binary of no config": lambda: simulate_binary(None),
    "simulate_quant of no config": lambda: simulate_quant(None),
    "homogeneous equilibrium of no effort function": lambda: equilibrium_homogeneous(None, PARAMS, 5),
    "homogeneous equilibrium of no params": lambda: equilibrium_homogeneous(SL, None, 5),
    "heterogeneous equilibrium of no population": lambda: equilibrium_heterogeneous(None, PARAMS, 5),
    "heterogeneous equilibrium of no params": lambda: equilibrium_heterogeneous(
        PopulationModel(((WorkerType(SL), 1.0),)), None, 5
    ),
    "counterexample trace of no params": lambda: counterexample_trace(None, 5),
    "penalty bound of no effort function": lambda: min_penalty_hierarchical(None, PARAMS),
    "penalty bound of no params": lambda: min_penalty_hierarchical(SL, None),
    "profile CSV of no profile": lambda: profile_to_csv(None),
    "flat probability bound of no effort function": lambda: min_verification_probability_binary(None, PARAMS),
    "flat probability bound of no params": lambda: min_verification_probability_binary(SL, None),
    "quantitative flat probability bound of no effort function": lambda: min_verification_probability_quant(
        None, QPARAMS
    ),
    "quantitative flat probability bound of no params": lambda: min_verification_probability_quant(IP, None),
    "flat loss of no effort function": lambda: expected_loss_flat(None, 0.1, 0.5, PARAMS),
    "flat loss of no params": lambda: expected_loss_flat(SL, 0.1, 0.5, None),
    "quantitative flat loss of no effort function": lambda: expected_loss_flat_quant(None, 1.0, 0.5, QPARAMS),
    "quantitative flat loss of no params": lambda: expected_loss_flat_quant(IP, 1.0, 0.5, None),
    "flat best response of no effort function": lambda: best_response_flat(None, 0.5, PARAMS),
    "flat best response of no params": lambda: best_response_flat(SL, 0.5, None),
    "quantitative flat best response of no effort function": lambda: best_response_flat_quant(None, 0.5, QPARAMS),
    "quantitative flat best response of no params": lambda: best_response_flat_quant(IP, 0.5, None),
    "pair loss of no effort function": lambda: expected_loss_pair(None, 0.1, 0.1, PARAMS),
    "pair loss of no params": lambda: expected_loss_pair(SL, 0.1, 0.1, None),
    "flat sweep of no effort function": lambda: sweep_flat(None, PARAMS, 0.5, GRID, 10, 0),
    "flat sweep of no params": lambda: sweep_flat(SL, None, 0.5, GRID, 10, 0),
    "pair sweep of no effort function": lambda: sweep_pair(None, PARAMS, 0.1, GRID, 10, 0),
    "pair sweep of no params": lambda: sweep_pair(SL, None, 0.1, GRID, 10, 0),
    "pair sweep at a D that uniformly wrong answers cannot realize":
        lambda: sweep_pair(SL, SchemeParams(k=2, epsilon=0.25, C=10.0, m=3, D=0.0), 0.2, GRID, 10, 1),
    "quadratic sweep of no effort function": lambda: sweep_quant(None, 2, 1.0, GRID, 10, 0),
    "solver of no effort function": lambda: solve_deriv_equals(None, -1.0),
    "effort of no effort function": lambda: effort_eval(None, 0.1),
    "effort derivative of no effort function": lambda: effort_deriv(None, 0.1),
    "quantitative best response of no effort function": lambda: best_response_quant(None, 2, 1.0),
    "best response to a superior of no effort function": lambda: best_response_under_superior(None, 0.1, PARAMS),
    "best response to a superior of no params": lambda: best_response_under_superior(SL, 0.1, None),
    "proficiency of no effort function": lambda: proficiency_sigma(None, PARAMS),
    "gaussian strategy of bytes": lambda: Gaussian().strategy("w0", b"ab"),
    "gaussian strategy of a string": lambda: Gaussian().strategy("w0", "ab"),
    "gaussian strategy of a mapping": lambda: Gaussian().strategy("w0", {"s": 1, "b": 2}),
}

# The message a case must raise, where another refusal could come first.
BAD_INPUT_MESSAGES = {
    "tree with a supervisor id of None": "supervisor_id must be of type str, got NoneType",
    "tree with an integer supervisor id": "supervisor_id must be of type str, got int",
    "expected_penalty_quant of a square beyond the float range": "the expected quadratic penalty is not a finite float",
    "expected_penalty_quant of a sum beyond the float range": "the expected quadratic penalty is not a finite float",
    "cover solution tasks a string": "'tasks' must be an array of string ids",
    "cover solution witness an integer": "'cover_witness' must be an array of arrays of 2 string ids",
    "simulation whose sampled mean exceeds the float range": "worker 'w0' under 'supervisor' has a mean or stderr",
    "simulation of a root sigma of 1e200 over a child of sigma 1": _CHAIN_BEYOND_FLOATS,
    "simulation of two sigmas whose squares sum past the float range": _CHAIN_BEYOND_FLOATS,
    "sweep whose sampled mean exceeds the float range": "grid point 1.0 has a mean beyond the float range",
    "exact hierarchy over a graph whose task t30 has no worker": "task 't30' has no workers",
    "hierarchy constructed with a coverage row twice": "names a worker twice",
    "counterexample C too small for a finite delta": "C 5e-324",
    "uniform-wrong m beyond the float range": r"m must be an integer in \[2, 1\.7976931348623157e\+308\], got 1797",
    "graph constructed with a three-id edge row": "'edges' must be an array of arrays of 2 string ids",
    "tree constructed with a shared pair": "'shared' must be an array of arrays of 3 string ids",
    "hierarchy constructed with a one-id coverage row": "'coverage' must be an array of arrays of 2 string ids",
    "vertex cover over integer vertex ids": "'vertices' must be an array of string ids",
    "tree over integer task ids": "'task ids' must be an array of string ids",
    "expected_penalty_quant bias a string": "b_u must be",
    "expected_penalty_quant bias NaN": "b_u must be",
    "expected_penalty_quant superior bias inf": "b_w must be",
    "expected_penalty_pair error a string": "worker error must",
    "expected_penalty_pair error NaN": "worker error must",
    "expected_penalty_pair superior error 1.5": "superior error must",
    "expected_penalty_pair C negative": "C must be",
    "expected_penalty_pair D above C": r"D must be a finite real in \[0.0, 5.0\]",
    "expected_penalty_pair D negative": r"D must be a finite real in \[0.0, 5.0\]",
    "profile with no levels": "prefix must be a nonempty tuple of Root values",
    "profile of plain tuples": "prefix must be a nonempty tuple of Root values",
    "profile levels as a list": "prefix must be a nonempty tuple of Root values",
    "profile period as long as its prefix": r"period must be an integer in \[0, 2\], got 3",
    "profile period negative": r"period must be an integer in \[0, 2\], got -1",
    "profile depth short of its prefix": "depth must be an integer >= 1, got 0",
    "profile without a period deeper than its prefix": "period 0 needs depth 1, the prefix's last level, got depth 5",
    "profile prefix past its first repeat": "prefix must stop at its first repeated error, at level 2",
    "profile period other than its repeat's": "period 1 does not match the prefix, whose last level 3 repeats level 1",
    "profile period without a repeat": "period 1 does not match the prefix, whose last level 2 repeats level none",
    "profile ending on a repeat without a period": "period 0 does not match the prefix, whose last level 2 repeats "
    "level 0",
    "type period as long as its prefix": r"period must be an integer in \[0, 1\], got 2",
    "type without a period deeper than its prefix": "period 0 needs depth 1",
    "heterogeneous equilibrium of no types": "at least one type",
    "heterogeneous equilibrium of plain tuples": "types must be TypeEquilibrium rows",
    "profile threshold a string": "threshold must be a finite real",
    "profile root of a string error": "level error must be a real that is not NaN, got 'x'",
    "heterogeneous types of different periods": "one prefix length, period, depth and threshold",
    "heterogeneous types of different depths": "one prefix length, period, depth and threshold",
    "heterogeneous types of different thresholds": "one prefix length, period, depth and threshold",
    "trace above its threshold before its last level": "stops at its first error above the threshold",
    "trace that crosses and repeats": "period 1 does not match the prefix, whose last level 2 repeats level none",
    "population of (int, weight) pairs": "population type must be of type WorkerType, got int",
    "quant equilibrium of binary worker types": "population type must be of type QuantWorkerType, got WorkerType",
    "cover instance over a graph dict": "graph must be of type AssignmentGraph, got dict",
    "peg assignment over a graph dict": "graph must be of type AssignmentGraph, got dict",
    "hierarchy over a graph dict": "graph must be of type AssignmentGraph, got dict",
    "hierarchy over a tree dict": "tree must be of type SupervisionTree, got dict",
    "population weight an integer beyond the float range": "population weight must be a finite real",
    "flat bound an integer beyond the float range": "bound must be a finite real",
    "profile threshold at 1/2": r"needs epsilon in \(0, 1/2\), got 0.5",
    "mixture whose mean errors do not repeat at its period": "period 1 does not match the prefix, whose last level 2 "
    "repeats level none",
    "mixture whose mean errors repeat before its prefix ends": "prefix must stop at its first repeated error, at "
    "level 2",
    "mixture types of different level-0 roots": "one level-0 root",
    "mixture types as a list": "types must be TypeEquilibrium rows in a tuple",
    "type sigma a string": "sigma must be a real that is not NaN, got 'x'",
    "type sigma NaN": "sigma must be a real that is not NaN, got nan",
    "type sigma above 1": r"sigma must lie in \[0, 1\], got 1.5",
    "best response to a superior above 1 under the inverse power": r"best response error must lie in \[0, 1\], got 2.0",
    "flat best response above 1 under the inverse power": r"best response error must lie in \[0, 1\], got 4.47213595",
    "proficiency sigma above 1 under the inverse power": r"sigma must lie in \[0, 1\], got 2.0",
    "proficient mixture whose light inverse power type has a sigma above 1": r"sigma must lie in \[0, 1\], got 1.1547",
    "type sigma_clamped an integer": "sigma_clamped must be of type bool, got int",
    "type weight negative": "population weight must be",
    "type worker a quant worker type": "worker must be of type WorkerType, got QuantWorkerType",
    "trace period its errors do not repeat at": "period 2 does not match the prefix, whose last level 2 repeats level "
    "none",
    "trace threshold at 1/4": r"divergence trace needs epsilon in \(0, 1/4\), got 0.25",
    "trace k a string": "k must be an integer",
    "trace C zero": "C must be a finite real",
    "trace C too small for a finite delta": "C 5e-324 is too small for a finite per-level gain",
    "trace epsilon too small for a finite bound": "epsilon 5e-324 is too small for a finite bound",
    "flat bound a string": "bound must be a finite real",
    "flat bound NaN": "bound must be a finite real",
    "flat bound negative": "bound must be a finite real",
    "defection N a string": "N must be an integer",
    "defection C NaN": "C must be a finite real",
    "defection cost beyond the float range": "exceeds the float range",
    "quant profile vstar a string": "vstar must be a finite real",
    "quant profile weight NaN": "population weight must be",
    "quant profile clamped a string": "clamped must be of type bool, got str",
    "quant profile threshold zero": "variance threshold must be",
    "quant profile worker a binary worker type": "worker must be of type QuantWorkerType, got WorkerType",
    "quant equilibrium of integers": "types must be a nonempty tuple of TypeQuantProfile rows",
    "quant equilibrium of no types": "types must be a nonempty tuple of TypeQuantProfile rows",
    "quant equilibrium depth 0": "depth must be an integer >= 1, got 0",
    "sweep result of one point": "strategy grid needs at least two points",
    "sweep result point NaN": "grid point must be a finite real",
    "sweep result loss NaN": "mean loss must be a real that is not NaN",
    "sweep result loss a string": "mean loss must be a real that is not NaN",
    "sweep result of more losses than points": "values and mean_losses must be tuples of one length",
    "sweep result values a list": "values and mean_losses must be tuples of one length",
    "sim report of integers": "rows must be a tuple of WorkerStats rows",
    "sim report rows a list": "rows must be a tuple of WorkerStats rows",
    "sim report of one episode": r"episodes must be an integer in \[2, 1152921504606846975\], got 1",
    "simulation of more episodes than numpy can size":
        r"episodes must be an integer in \[2, 1152921504606846975\], got 1152921504606846976$",
    "sim report of more episodes than numpy can size":
        r"episodes must be an integer in \[2, 1152921504606846975\], got 1152921504606846976$",
    "flat sweep of more episodes than numpy can size":
        r"episodes must be an integer in \[1, 1152921504606846975\], got 1152921504606846976$",
    "pair sweep of more episodes than numpy can size":
        r"episodes must be an integer in \[1, 1152921504606846975\], got 1152921504606846976$",
    "quadratic sweep of more episodes than numpy can size":
        r"episodes must be an integer in \[1, 1152921504606846975\], got 1152921504606846976$",
    "sim report seed negative": "seed must be an integer >= 0, got -1",
    "sim report row whose numbers are strings": "empirical must be a real that is not NaN, got 'x'",
    "vertex cover with a vertex id twice": "duplicate vertex ids",
    "effort at NaN": "effort must be a finite real, got nan",
    "effort at a string": "effort must be a finite real, got 'x'",
    "effort at an integer beyond the float range": "effort must be a finite real, got 1000",
    "solver target an integer beyond the float range": "invalid target: -1000",
    "simulation config with a model name": "unsupported answer model str",
    "simulation over an assignment graph": "unsupported structure type AssignmentGraph",
    "simulation config over an assignment graph": "unsupported structure type AssignmentGraph",
    "simulate_quant with a uniform-wrong model": "simulate_quant needs a Gaussian answer model",
    "sweep grid point a string": "strategy grid must hold reals",
    "sweep grid point beyond the float range": "strategy grid must hold reals",
    "tree JSON worker w9 without children": "node 'w9' has no children",
    "tree JSON with no levels": "tree needs at least supervisor, one worker level, and tasks",
    "tree JSON with empty worker and task levels": "node 'supervisor' has no children",
    "peg graph of uneven degree": "worker 'u1' degree 1 != k",
    "pegs that overlap": "overlaps another peg's workers",
    "pegs that miss a worker": "peg tasks do not cover every worker",
    "hierarchy whose tree holds a task outside the graph": "tree tasks must be a subset of the graph's tasks",
    "hierarchy JSON a list": "hierarchy JSON must be an object",
    "hierarchy over a peg assignment": "graph must be of type AssignmentGraph, got PegAssignment",
    "greedy cover of a bare graph": "inst must be of type SAInstance, got AssignmentGraph",
    "edge-deletion cover of a bare graph": "inst must be of type SAInstance, got AssignmentGraph",
    "exact cover of a bare graph": "inst must be of type SAInstance, got AssignmentGraph",
    "hierarchy over a graph without workers": "graph has no workers",
    "simulation of no config": "config must be of type SimConfig, got NoneType",
    "simulate_binary of no config": "config must be of type SimConfig, got NoneType",
    "simulate_quant of no config": "config must be of type SimConfig, got NoneType",
    "homogeneous equilibrium of no effort function": "f must be of type EffortFunction, got NoneType",
    "homogeneous equilibrium of no params": "params must be of type SchemeParams, got NoneType",
    "heterogeneous equilibrium of no population": "pop must be of type PopulationModel, got NoneType",
    "heterogeneous equilibrium of no params": "params must be of type SchemeParams, got NoneType",
    "counterexample trace of no params": "params must be of type SchemeParams, got NoneType",
    "penalty bound of no effort function": "f must be of type EffortFunction, got NoneType",
    "penalty bound of no params": "params must be of type SchemeParams, got NoneType",
    "profile CSV of no profile": "profile must be of type EquilibriumProfile, got NoneType",
    "flat probability bound of no effort function": "f must be of type EffortFunction, got NoneType",
    "flat probability bound of no params": "params must be of type SchemeParams, got NoneType",
    "quantitative flat probability bound of no effort function": "f must be of type EffortFunction, got NoneType",
    "quantitative flat probability bound of no params": "params must be of type SchemeParams, got NoneType",
    "flat loss of no effort function": "f must be of type EffortFunction, got NoneType",
    "flat loss of no params": "params must be of type SchemeParams, got NoneType",
    "quantitative flat loss of no effort function": "f must be of type EffortFunction, got NoneType",
    "quantitative flat loss of no params": "params must be of type SchemeParams, got NoneType",
    "flat best response of no effort function": "f must be of type EffortFunction, got NoneType",
    "flat best response of no params": "params must be of type SchemeParams, got NoneType",
    "quantitative flat best response of no effort function": "f must be of type EffortFunction, got NoneType",
    "quantitative flat best response of no params": "params must be of type SchemeParams, got NoneType",
    "pair loss of no effort function": "f must be of type EffortFunction, got NoneType",
    "pair loss of no params": "params must be of type SchemeParams, got NoneType",
    "flat sweep of no effort function": "f must be of type EffortFunction, got NoneType",
    "flat sweep of no params": "params must be of type SchemeParams, got NoneType",
    "pair sweep of no effort function": "f must be of type EffortFunction, got NoneType",
    "pair sweep of no params": "params must be of type SchemeParams, got NoneType",
    "quadratic sweep of no effort function": "f must be of type EffortFunction, got NoneType",
    "solver of no effort function": "f must be of type EffortFunction, got NoneType",
    "effort of no effort function": "f must be of type EffortFunction, got NoneType",
    "effort derivative of no effort function": "f must be of type EffortFunction, got NoneType",
    "quantitative best response of no effort function": "f must be of type EffortFunction, got NoneType",
    "best response to a superior of no effort function": "f must be of type EffortFunction, got NoneType",
    "best response to a superior of no params": "params must be of type SchemeParams, got NoneType",
    "proficiency of no effort function": "f must be of type EffortFunction, got NoneType",
    "gaussian strategy of bytes": r"strategy for 'w0' must be a \(sigma, bias\) pair, got b'ab'",
    "gaussian strategy of a string": r"strategy for 'w0' must be a \(sigma, bias\) pair, got 'ab'",
    "gaussian strategy of a mapping": r"strategy for 'w0' must be a \(sigma, bias\) pair, got \{'s': 1, 'b': 2\}",
    "pair sweep at a D that uniformly wrong answers cannot realize": r"D must be implied_D\(C, m\) = 5.0, got 0.0",
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_malformed_input_is_refused(case):
    with pytest.raises(SuperviseError, match=BAD_INPUT_MESSAGES.get(case)):
        BAD_INPUTS[case]()


# Runs of more episodes than any process could hold as arrays of 8-byte values (2**50 of them are 8 PiB), up to the
# largest count accepted: no episode count ends in a traceback, and these end in finite numbers.
HUGE_RUNS = {
    "simulation": lambda n: [x for r in simulate(SimConfig(n, 0, Gaussian(), build_supervision_tree(2, 2, seed=0),
                                                           {"w0": (1.0, 0.0)})).rows for x in r[2:]],
    "flat sweep": lambda n: sweep_flat(SL, PARAMS, 0.5, GRID, n, 0).mean_losses,
    "pair sweep": lambda n: sweep_pair(SL, PARAMS, 0.1, GRID, n, 0).mean_losses,
    "quadratic sweep": lambda n: sweep_quant(IP, 4, 1.0, [1.0, 2.0], n, 0).mean_losses,
}


@pytest.mark.parametrize("episodes", [2**50, _EPISODES_MAX], ids=["2**50", "_EPISODES_MAX"])
@pytest.mark.parametrize("case", sorted(HUGE_RUNS))
def test_huge_episode_counts_give_finite_results(case, episodes):
    values = HUGE_RUNS[case](episodes)
    assert values and all(map(math.isfinite, values)), values


# Values that do not belong where an id or an id pair is expected.
ODD_VALUES = (NAN, True, False, 0, 7, 2.5, "zz", "", None, [], ["t0"], [["t0", "u0"]], {})


def _nodes(node, path=()):
    """Every ``(path, node)`` in a JSON value, the root first."""
    yield path, node
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _nodes(child, path + (key,))


def _mutate(data, valid):
    """``valid`` with 1-3 entries dropped, duplicated, renamed to another of its ids, or mistyped."""
    obj = copy.deepcopy(valid)
    ids = sorted({node for _, node in _nodes(valid) if isinstance(node, str)})
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        paths = [path for path, _ in _nodes(obj)][1:]
        if not paths:
            break
        *parents, key = data.draw(st.sampled_from(paths), label="path")
        parent = reduce(getitem, parents, obj)
        ops = ["drop", "rename", "substitute"] + (["duplicate"] if isinstance(parent, list) else [])
        op = data.draw(st.sampled_from(ops), label="op")
        if op == "drop":
            del parent[key]
        elif op == "duplicate":
            parent.insert(key, copy.deepcopy(parent[key]))
        elif op == "rename":
            parent[key] = data.draw(st.sampled_from(ids + ["zz"]), label="id")
        else:
            parent[key] = copy.deepcopy(data.draw(st.sampled_from(ODD_VALUES), label="value"))
    return obj


@settings(max_examples=400, derandomize=True)
@given(data=st.data())
@pytest.mark.parametrize(
    "cls,valid",
    [(AssignmentGraph, GRAPH), (SupervisionTree, TREE), (SupervisionHierarchy, HIERARCHY)],
    ids=["graph", "tree", "hierarchy"],
)
def test_mutated_structure_json_loads_or_is_refused(cls, valid, data):
    """Dropped, duplicated, renamed and mistyped entries: a SuperviseError, or a valid structure that writes
    back what it read and, for a tree or hierarchy, simulates to one row per judged worker."""
    _loads_or_is_refused(cls, _mutate(data, valid))


def _loads_or_is_refused(cls, obj) -> bool:
    """Whether ``obj`` loads; one that does is valid, writes back what it read and, for a tree or hierarchy,
    simulates to one row per judged worker."""
    try:
        structure = cls.from_json_dict(obj)
    except SuperviseError:
        return False
    structure.validate()
    assert structure.to_json_dict() == _canonical(cls, obj)
    if cls is not AssignmentGraph:
        tree = obj.get("tree", obj)
        judged = {n for lv in tree["levels"][1:-1] for n in lv} | set(obj.get("graph", {}).get("workers", ()))
        report = simulate(SimConfig(10, 0, UniformWrong(), structure, {n: 0.1 for n in judged}))
        assert sorted(r.worker for r in report.rows) == sorted(judged)
    return True


def _performs(obj) -> dict:
    """What each worker of a graph or tree JSON performs: its edges' tasks, or its bottom tasks and shared picks."""
    if "levels" not in obj:
        return {w: [t for w2, t in obj["edges"] if w2 == w] for w in obj["workers"]}
    leaves, out = set(obj["levels"][-1]), {}
    for p, c in obj["edges"]:
        if c in leaves:
            out.setdefault(p, []).append(c)
    for p, _, t in obj["shared"]:
        out.setdefault(p, []).append(t)
    return out


def _swap_shared_pick(rng, obj):
    """Change one shared pick to another task its child performs; it stays valid unless the old pick was the
    parent's own pick for its parent."""
    tree = obj.get("tree", obj)
    performs = _performs(tree)
    rows = [(i, t) for i, (_, c, old) in enumerate(tree["shared"]) for t in performs[c] if t != old]
    if rows:
        i, t = rng.choice(rows)
        tree["shared"][i][2] = t
    return obj


def _move_coverage_row(rng, obj):
    """Judge one graph worker on another tree task it performs."""
    performs, leaves = _performs(obj["graph"]), set(obj["tree"]["levels"][-1])
    rows = [(i, t) for i, (w, old) in enumerate(obj["coverage"]) for t in performs[w] if t in leaves and t != old]
    if rows:
        i, t = rng.choice(rows)
        obj["coverage"][i][1] = t
    return obj


def _rename_id(rng, obj):
    """Rename one id, everywhere it occurs, to a fresh one."""
    ids = sorted({node for _, node in _nodes(obj) if isinstance(node, str)})
    return _renamed(obj, rng.choice(ids), f"n{rng.randrange(10**6)}")


DEEP_TREE = build_supervision_tree(9, 2, seed=7).to_json_dict()
VALID_MUTATIONS = {
    "graph rename": (AssignmentGraph, GRAPH, _rename_id),
    "tree rename": (SupervisionTree, DEEP_TREE, _rename_id),
    "tree shared pick": (SupervisionTree, DEEP_TREE, _swap_shared_pick),
    "hierarchy rename": (SupervisionHierarchy, HIERARCHY, _rename_id),
    "hierarchy shared pick": (SupervisionHierarchy, HIERARCHY, _swap_shared_pick),
    "hierarchy coverage row": (SupervisionHierarchy, HIERARCHY, _move_coverage_row),
}


@pytest.mark.parametrize("kind", sorted(VALID_MUTATIONS))
def test_mostly_valid_mutations_load_and_write_back(kind):
    """1-3 mutations of one kind that keep most structures valid: each loads as in the gate above, or is
    refused, and at least half of 200 examples load, so the write-back and simulate checks run on many."""
    cls, valid, mutation = VALID_MUTATIONS[kind]
    rng = random.Random(kind)
    accepted = 0
    for _ in range(200):
        obj = copy.deepcopy(valid)
        for _ in range(rng.randint(1, 3)):
            obj = mutation(rng, obj)
        accepted += _loads_or_is_refused(cls, obj)
    assert accepted >= 100, f"{kind}: {accepted} of 200 accepted"


def _canonical(cls, obj):
    """What ``to_json_dict`` writes for ``obj``: its known keys, with lists sorted as it sorts them."""
    if cls is AssignmentGraph:
        return {key: sorted(obj[key]) for key in ("workers", "tasks", "edges")}
    if cls is SupervisionTree:
        return {"levels": obj["levels"], "edges": sorted(obj["edges"]), "shared": sorted(obj["shared"])}
    return {
        "coverage": sorted(obj["coverage"]),
        "graph": _canonical(AssignmentGraph, obj["graph"]),
        "tree": _canonical(SupervisionTree, obj["tree"]),
        "tree_tasks": sorted(obj["tree_tasks"]),
    }


BINARY_STRATEGIES = {"model": "uniform-wrong", "m": 3, "C": 16.0, "workers": {"w0": 0.1, "w1": 0.2, "supervisor": 0.0}}
GAUSSIAN_STRATEGIES = {
    "model": "gaussian",
    "c": 2.0,
    "workers": {"w0": [1.0, 0.5], "w1": [0.6, -0.5], "supervisor": [0.8, 0]},
}
POPULATION = {
    "types": [
        {"id": "a", "weight": 0.8, "effort": {"family": "simplelog", "alpha": 0.8}},
        {"id": "b", "weight": 0.2, "effort": {"family": "simplelog", "alpha": 1.0}},
    ]
}
MODELS = {"uniform-wrong": UniformWrong, "gaussian": Gaussian}
# a strategy for every id of the valid tree and hierarchy, and for the id mutations rename to
STRUCTURE_STRATEGIES = {
    "model": "uniform-wrong",
    "C": 16.0,
    "workers": {n: 0.1 for valid in (TREE, HIERARCHY) for _, n in _nodes(valid) if isinstance(n, str)} | {"zz": 0.1},
}


def _library_accepts(kind, obj):
    """Whether the library builds and runs what the parsed file holds, with no conversion of its values."""
    try:
        if kind in ("tree", "hierarchy"):
            cls = SupervisionTree if kind == "tree" else SupervisionHierarchy
            simulate(SimConfig(10, 0, UniformWrong(C=16.0), cls.from_json_dict(obj), STRUCTURE_STRATEGIES["workers"]))
        elif kind == "population":
            try:
                if set(obj) - {"types"} or any(set(t) - {"id", "effort", "weight"} for t in obj["types"]):
                    return False  # a key the file format does not have
                types = tuple((WorkerType(EffortFunction(**t["effort"]), t["id"]), t["weight"]) for t in obj["types"])
            except (KeyError, TypeError):  # not a list of objects with these keys, or an effort key with no field
                return False
            equilibrium_heterogeneous(PopulationModel(types), PARAMS, depth=3)
        else:
            try:
                settings = {key: v for key, v in obj.items() if key not in ("model", "workers")}
                model, workers = MODELS[obj["model"]](**settings), obj["workers"]
            except (KeyError, TypeError):  # no such model, no workers, or a key the model has no field for
                return False
            simulate(SimConfig(10, 0, model, SupervisionTree.from_json_dict(TREE), workers))
    except SuperviseError:
        return False
    return True


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    """A directory holding the valid tree and the strategies that mutated structures are simulated with."""
    path = tmp_path_factory.mktemp("cli")
    (path / "tree.json").write_text(json.dumps(TREE))
    (path / "structure-strategies.json").write_text(json.dumps(STRUCTURE_STRATEGIES))
    return path


@settings(max_examples=150, derandomize=True)
@given(data=st.data())
@pytest.mark.parametrize(
    "kind,valid",
    [
        ("strategies", BINARY_STRATEGIES),
        ("strategies", GAUSSIAN_STRATEGIES),
        ("population", POPULATION),
        ("tree", TREE),
        ("hierarchy", HIERARCHY),
    ],
    ids=["binary", "gaussian", "population", "tree", "hierarchy"],
)
def test_cli_agrees_with_the_library_on_mutated_files(cli_dir, kind, valid, data):
    """The CLI exits 0 exactly when the library accepts the same parsed JSON, else 1 with one error line."""
    obj = _mutate(data, valid)
    path = cli_dir / f"mutated-{kind}.json"
    path.write_text(json.dumps(obj))
    if kind == "population":
        argv = ["equilibrium", "--population", str(path), "--k", "2", "--epsilon", "0.25", "--C", "16", "--depth", "3"]
    elif kind == "strategies":
        argv = ["simulate", "--structure", str(cli_dir / "tree.json"), "--strategies", str(path), "--episodes", "10"]
    else:
        strategies = cli_dir / "structure-strategies.json"
        argv = ["simulate", "--structure", str(path), "--strategies", str(strategies), "--episodes", "10"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if _library_accepts(kind, json.loads(path.read_text())):
        assert (code, err.getvalue()) == (0, "")
    else:
        assert code == 1 and out.getvalue() == ""
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
