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
"""

from . import allocation, effort, errors, flat, hierarchy, quant, simulate, structures

__version__ = "0.1.0"

# built before the star imports: ``from .simulate import *`` rebinds ``simulate`` from the module to the function
__all__ = [
    name
    for module in (allocation, effort, errors, flat, hierarchy, quant, simulate, structures)
    for name in module.__all__
] + ["__version__"]

from .allocation import *  # noqa: E402,F403
from .effort import *  # noqa: E402,F403
from .errors import *  # noqa: E402,F403
from .flat import *  # noqa: E402,F403
from .hierarchy import *  # noqa: E402,F403
from .quant import *  # noqa: E402,F403
from .simulate import *  # noqa: E402,F403
from .structures import *  # noqa: E402,F403
