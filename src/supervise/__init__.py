"""Incentives for crowdsourced evaluation under costly effort.

Workers pay a convex, decreasing effort cost to lower their error; a
supervisor induces diligence either by flat random spot checks or through a
supervision hierarchy in which each worker is judged by its superior on one
shared task.  The package computes the penalty and probability thresholds
that make truthful effort an equilibrium, the level-by-level equilibrium
itself (homogeneous or heterogeneous populations, binary or quantitative
answers), the divergence traces showing the thresholds are tight, and the
graph constructions (supervision trees, peg assignments, covering task
allocations) that make the schemes cheap to run.  A Monte Carlo engine
cross-checks every analytic expectation.

Importing the package loads no submodule.  The table below is the one list
of public names: each module's ``__all__`` is its row of it.  Each name is
resolved on first access from the table and is then cached in the package.
"""

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

_EXPORTS = {
    "allocation": ("SAInstance", "SASolution", "sa_exact", "sa_greedy", "sa_greedy_edge_deletion", "vc_to_sa"),
    "effort": ("Family", "EffortFunction", "Root", "SchemeParams", "effort_eval", "effort_deriv",
               "solve_deriv_equals"),
    "errors": ("SuperviseError", "EffortDomainError", "InvalidTargetError", "NoIncentiveError", "EpsilonRangeError",
               "SizingError", "AssumptionError", "InstanceTooLargeError", "ModelMismatchError"),
    "flat": ("FlatBound", "min_verification_probability_binary", "min_verification_probability_quant",
             "expected_loss_flat", "expected_loss_flat_quant", "best_response_flat", "best_response_flat_quant"),
    "hierarchy": ("WorkerType", "PopulationModel", "LevelState", "EquilibriumProfile", "TypeEquilibrium",
                  "HeterogeneousEquilibrium", "CounterexampleTrace", "DefectionAnalysis", "min_penalty_hierarchical",
                  "expected_penalty_pair", "expected_loss_pair", "best_response_under_superior",
                  "equilibrium_homogeneous", "equilibrium_heterogeneous", "proficiency_sigma",
                  "counterexample_trace", "level_info_bits", "profile_to_csv"),
    "quant": ("QuantWorkerType", "TypeQuantProfile", "QuantEquilibrium", "expected_penalty_quant",
              "best_response_quant", "quant_equilibrium"),
    "simulate": ("UniformWrong", "Gaussian", "SimConfig", "WorkerStats", "SimReport", "SweepResult", "simulate",
                 "simulate_binary", "simulate_quant", "sweep_flat", "sweep_pair", "sweep_quant"),
    "structures": ("AssignmentGraph", "SupervisionTree", "PegAssignment", "SupervisionHierarchy",
                   "build_supervision_tree", "build_supervision_tree_over", "build_peg_assignment",
                   "build_supervision_hierarchy"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    """A public name from its module, cached in the package; a submodule by its name, as an import binds it."""
    if name in _MODULE_OF:
        value = globals()[name] = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
        return value
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*__all__, *_EXPORTS, *(name for name in globals() if name.startswith("__"))})


class _Package(ModuleType):
    """The package's module type: importing a submodule binds it as an attribute of the package, unless a public
    name has that name (``simulate``), whose function stays."""

    def __setattr__(self, name: str, value) -> None:
        if not (name in _MODULE_OF and isinstance(value, ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
