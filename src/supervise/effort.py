"""Effort-cost models and the first-order-condition solver.

An effort function maps the quality a worker aims for (a binary error
probability, or an answer variance in the quantitative setting) to the cost of
achieving it.  Every family here is finite, positive, strictly decreasing and
strictly convex on its domain, so the derivative is strictly increasing and
negative and equations of the form ``f'(e) = target`` have at most one
solution.  That solution is what every best-response operation in the package
reduces to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from . import _EXPORTS
from .errors import EffortDomainError, EpsilonRangeError, InvalidTargetError, SuperviseError
from .errors import FLOAT_MAX, require_instance, require_int, require_real

__all__ = _EXPORTS["effort"]


class Family(str, Enum):
    """Supported effort-cost families."""

    SIMPLE_LOG = "simplelog"  # f(e) = -alpha * ln(e)            on (0, 1]
    BOUNDARY_LOG = "boundarylog"  # f(e) = alpha * ln(1/(2e))^2  on (0, 1/2]
    INVERSE_POWER = "inversepower"  # f(v) = alpha / v           on (0, inf)


@dataclass(frozen=True)
class EffortFunction:
    """One effort-cost curve: a family plus a positive scale ``alpha``."""

    family: Family
    alpha: float = 1.0

    def __post_init__(self) -> None:
        if type(self.family) is not Family:
            try:
                object.__setattr__(self, "family", Family(self.family))
            except ValueError:
                raise SuperviseError(
                    f"effort family must be one of {', '.join(f.value for f in Family)}, got {self.family!r}"
                ) from None
        object.__setattr__(self, "alpha", require_real(self.alpha, "effort scale", 0.0, lo_open=True))

    @property
    def domain_hi(self) -> float:
        if self.family is Family.SIMPLE_LOG:
            return 1.0
        if self.family is Family.BOUNDARY_LOG:
            return 0.5
        return math.inf

    @classmethod
    def simple_log(cls, alpha: float = 1.0) -> "EffortFunction":
        return cls(Family.SIMPLE_LOG, alpha)

    @classmethod
    def boundary_log(cls, alpha: float = 1.0) -> "EffortFunction":
        return cls(Family.BOUNDARY_LOG, alpha)

    @classmethod
    def inverse_power(cls, alpha: float = 1.0) -> "EffortFunction":
        return cls(Family.INVERSE_POWER, alpha)


class Root(NamedTuple):
    """Solver output: the root value plus a clamp marker, as a NamedTuple, which is cheap to build, as the solver
    builds one per call.

    ``clamped`` is set when the target lies above the range of the derivative
    and the result was pinned to the upper domain corner (f' is unbounded
    below, so no target is ever too low); a clamped value is a boundary
    report, not a stationary point, and the analytic guarantees downstream do
    not apply to it.
    """

    value: float
    clamped: bool = False

    def __float__(self) -> float:
        return self.value


def _check_domain(f: EffortFunction, e: float) -> float:
    require_instance(f, EffortFunction, "f")
    # integers are bounded by comparison, which is exact: math.isfinite raises OverflowError past the float range
    if not (isinstance(e, float) and math.isfinite(e) or isinstance(e, int) and abs(e) <= FLOAT_MAX):
        raise EffortDomainError(f"effort domain: effort must be a finite real, got {e!r}")
    e = float(e)
    # lower endpoint 0 open, upper endpoint closed (never reached when infinite)
    if not (0.0 < e <= f.domain_hi):
        raise EffortDomainError(
            f"effort domain: effort={e!r} outside (0.0, {f.domain_hi}] for {f.family.value}"
        )
    return e


def effort_eval(f: EffortFunction, e: float) -> float:
    """Cost of holding error/variance level ``e``."""
    e = _check_domain(f, e)
    if f.family is Family.SIMPLE_LOG:
        return -f.alpha * math.log(e)
    if f.family is Family.BOUNDARY_LOG:
        return f.alpha * math.log(0.5 / e) ** 2
    return f.alpha / e


def effort_deriv(f: EffortFunction, e: float) -> float:
    """First derivative of the cost at ``e``; strictly increasing and negative."""
    e = _check_domain(f, e)
    if f.family is Family.SIMPLE_LOG:
        return -f.alpha / e
    if f.family is Family.BOUNDARY_LOG:
        return -2.0 * f.alpha * math.log(0.5 / e) / e
    return -f.alpha / (e * e) if e * e else -math.inf  # e * e underflows to 0 below about 1.5e-162


def _lambertw_nonneg(y: float) -> float:
    """Principal Lambert W on [0, inf): the w >= 0 with w * exp(w) = y.

    Halley iteration from a logarithmic seed; converges to machine precision
    in a handful of steps for the whole nonnegative range.
    """
    if y == 0.0:
        return 0.0
    if y > math.e:
        w = math.log(y)
        w -= math.log(w)
    else:
        w = math.log1p(y) * 0.7
    for _ in range(64):
        ew = math.exp(w)
        err = w * ew - y
        denom = ew * (w + 1.0) - (w + 2.0) * err / (2.0 * (w + 1.0))
        step = err / denom
        w -= step
        if abs(step) <= 1e-16 * (1.0 + abs(w)):
            break
    return w


def solve_deriv_equals(f: EffortFunction, target: float) -> Root:
    """Solve ``f'(e) = target`` for ``e`` in the effort domain.

    Uses the exact inverse of each family's derivative (the BoundaryLog
    inverse goes through Lambert W), so the result is accurate to floating
    precision — well inside the 1e-12 absolute contract.  A target at or
    beyond the supremum of ``f'`` cannot be met: if the boundary value itself
    attains the target the boundary is returned as a true root, otherwise the
    result is clamped there and flagged.
    """
    if not isinstance(f, EffortFunction):  # inline: this runs once per level, where a call costs about 25 ns more
        require_instance(f, EffortFunction, "f")
    if not (type(target) is float and -FLOAT_MAX <= target <= FLOAT_MAX):  # a finite float is kept as it is
        # integers are bounded by comparison, which is exact: math.isfinite raises OverflowError past the float range
        if not (isinstance(target, float) and math.isfinite(target)
                or isinstance(target, int) and abs(target) <= FLOAT_MAX):
            raise InvalidTargetError(f"invalid target: {target!r}")
        target = float(target)
    family, alpha = f.family, f.alpha

    if family is Family.SIMPLE_LOG:
        # f'(e) = -alpha/e, range (-inf, -alpha] on (0, 1]
        if target == -alpha:
            return Root(1.0)
        if target > -alpha:
            return Root(1.0, clamped=True)
        return Root(-alpha / target)

    if family is Family.BOUNDARY_LOG:
        # f'(e) = -2 alpha ln(1/(2e))/e, range (-inf, 0] on (0, 1/2]
        if target == 0.0:
            return Root(0.5)
        if target > 0.0:
            return Root(0.5, clamped=True)
        # substitute u = 1/(2e):  u ln u = -target/(4 alpha)  =>  ln u = W(y)
        y = -target / 4.0 / alpha  # 4 alpha itself would overflow for alpha near the float maximum
        if y == 0.0:  # the quotient underflowed; W(y)/y -> 1 as y -> 0
            return Root(0.5)
        w = _lambertw_nonneg(y)
        return Root(w / (2.0 * y))

    # inverse power: f'(v) = -alpha/v^2, range (-inf, 0) on (0, inf)
    if target >= 0.0:
        return Root(math.inf, clamped=True)
    return Root(math.sqrt(alpha / -target))


@dataclass(frozen=True)
class SchemeParams:
    """Shared scheme parameters.

    ``k`` is the task load per worker, ``C`` the binary disagreement penalty,
    ``c`` the quadratic penalty weight, ``epsilon`` the truthfulness
    threshold, ``m`` the answer-set size, and ``D`` the both-wrong
    disagreement penalty.  ``D`` left unset defaults to C*(m-2)/(m-1), the
    value implied by independent uniformly-wrong answers (zero when m=2).

    The hierarchical operations additionally require epsilon < 1/2; the flat
    and quantitative ones do not (a variance threshold may be any positive
    real), so that check lives in the operations, not here.
    """

    k: int
    epsilon: float
    C: float | None = None
    c: float | None = None
    m: int = 2
    D: float | None = None

    def __post_init__(self) -> None:
        require_int(self.k, "k", 1, hi=FLOAT_MAX)
        eps = require_real(self.epsilon, "epsilon range: epsilon", 0.0, lo_open=True, error=EpsilonRangeError)
        object.__setattr__(self, "epsilon", eps)
        for name in ("C", "c"):
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, require_real(v, name, 0.0, lo_open=True))
        require_int(self.m, "m", 2, hi=FLOAT_MAX)
        if self.D is not None:
            if self.C is None:
                raise SuperviseError("D is only meaningful alongside C")
            object.__setattr__(self, "D", require_real(self.D, "D", 0.0, self.C))

    def require_C(self) -> float:
        if self.C is None:
            raise SuperviseError("binary penalty C is required for this operation")
        return self.C

    def require_c(self) -> float:
        if self.c is None:
            raise SuperviseError("quadratic penalty weight c is required for this operation")
        return self.c

    def effective_D(self) -> float:
        """The both-wrong penalty in force: explicit D, else C*(m-2)/(m-1)."""
        return self.D if self.D is not None else implied_D(self.require_C(), self.m)


def implied_D(C: float, m: int) -> float:
    """The both-wrong penalty ``min(C, C (m-2)/(m-1))``: independent uniformly-wrong answers over m alternatives
    disagree with probability (m-2)/(m-1).  The min holds it at C, which the quotient can round past for m above
    2**52, or overflow."""
    return min(C, C * (m - 2) / (m - 1))
