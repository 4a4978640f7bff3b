"""Exception taxonomy for domain and feasibility failures, and the input checks.

Every error raised by the library derives from :class:`SuperviseError`, so the
CLI can map any of them to exit code 1 with a one-line reason.  The
``require_*`` helpers are the one place scalar inputs are checked: they reject
bools, NaN, infinities and non-numbers, and raise the class the caller names.
"""

import math
import sys

from . import _EXPORTS

__all__ = _EXPORTS["errors"]


class SuperviseError(ValueError):
    """Base class for domain and feasibility errors."""


class EffortDomainError(SuperviseError):
    """An effort or variance value lies outside the effort function's domain."""


class InvalidTargetError(SuperviseError):
    """A derivative target passed to the solver is not a finite real."""


class NoIncentiveError(SuperviseError):
    """Zero verification probability: the loss has no interior minimizer."""


class EpsilonRangeError(SuperviseError):
    """The truthfulness threshold is outside the range an operation requires."""


class SizingError(SuperviseError):
    """A structure request cannot be satisfied at the given sizes."""


class AssumptionError(SuperviseError):
    """A population-level modeling assumption is violated."""


class InstanceTooLargeError(SuperviseError):
    """The exact solver's instance cap is exceeded."""


class ModelMismatchError(SuperviseError):
    """An answer model was paired with an incompatible structure or strategy."""


# The largest integer a count may be when it enters float arithmetic: a larger one raises OverflowError there.
FLOAT_MAX = sys.float_info.max


def require_int(x, name: str, lo: int, error: type = SuperviseError, hi: float = math.inf) -> int:
    """``x`` if it is an integer in [lo, hi]."""
    if isinstance(x, bool) or not isinstance(x, int) or not lo <= x <= hi:
        bounds = f">= {lo}" if hi == math.inf else f"in [{lo}, {hi}]"
        raise error(f"{name} must be an integer {bounds}, got {x!r}")
    return x


def require_real(
    x, name: str, lo: float = -math.inf, hi: float = math.inf, *, lo_open: bool = False, error: type = SuperviseError
) -> float:
    """``x`` as a float if it is finite and lies in [lo, hi], or (lo, hi] with ``lo_open``."""
    if (
        isinstance(x, bool)
        or not isinstance(x, (int, float))
        or not -FLOAT_MAX <= x <= FLOAT_MAX  # not NaN, not infinite, and no integer beyond the float range
        or x > hi
        or (x <= lo if lo_open else x < lo)
    ):
        raise error(f"{name} must be a finite real in {'(' if lo_open else '['}{lo}, {hi}], got {x!r}")
    return float(x)


def require_number(x, name: str) -> float:
    """``x`` if it is a real that is not NaN; unlike :func:`require_real`, infinities pass."""
    if isinstance(x, bool) or not isinstance(x, (int, float)) or x != x:
        raise SuperviseError(f"{name} must be a real that is not NaN, got {x!r}")
    return x


def require_prob(x, name: str, error: type = SuperviseError) -> float:
    """``x`` as a float if it lies in [0, 1]; kept lean, since best responses call it per level."""
    if isinstance(x, bool) or not isinstance(x, (int, float)) or not 0.0 <= x <= 1.0:
        raise error(f"{name} must lie in [0, 1], got {x!r}")
    return float(x)


def require_instance(x, cls: type, name: str):
    """``x`` if it is an instance of ``cls``."""
    if not isinstance(x, cls):
        raise SuperviseError(f"{name} must be of type {cls.__name__}, got {type(x).__name__}")
    return x


def require_weight(w) -> float:
    """``w`` as a float if it is a population weight: a finite real >= 0."""
    return require_real(w, "population weight", 0.0)


def require_weights(pairs, cls: type) -> tuple:
    """``(item, weight)`` pairs of ``cls`` items with float weights that are nonnegative and sum to 1."""
    try:
        pairs = tuple((item, w) for item, w in pairs)
    except (TypeError, ValueError) as exc:
        raise SuperviseError(f"population must be (type, weight) pairs: {exc}") from exc
    pairs = tuple((require_instance(x, cls, "population type"), require_weight(w)) for x, w in pairs)
    if not pairs:
        raise SuperviseError("population must contain at least one type")
    total = math.fsum(w for _, w in pairs)
    if abs(total - 1.0) > 1e-12:
        raise SuperviseError(f"population weights must sum to 1 (got {total!r})")
    return pairs
