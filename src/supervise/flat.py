"""Flat verification scheme: one supervisor spot-checks every worker.

Each worker is checked independently with probability ``p`` and pays the full
disagreement penalty when checked and wrong, so the expected loss at error
level e is ``k f(e) + e p C`` (or ``k f(v) + v p c`` for variance v in the
quantitative version).  The scheme induces error below epsilon only when p
strictly exceeds ``(-f'(eps)) k / C``; that bound can exceed 1, in which case
no verification probability works and the scheme is infeasible.  The
supervisor's workload is p per worker, hence p * |U| overall — linear in the
crowd, which is exactly what the hierarchical schemes exist to avoid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _EXPORTS
from .effort import EffortFunction, Root, SchemeParams, effort_deriv, effort_eval, solve_deriv_equals
from .errors import NoIncentiveError, SuperviseError, require_instance, require_prob, require_real

__all__ = _EXPORTS["flat"]


@dataclass(frozen=True)
class FlatBound:
    """Strict lower bound on the verification probability.

    Stored: ``bound``, a finite real >= 0 (it underflows to 0.0 when f' is
    tiny against the penalty).  Derived: ``feasible``, which means the bound
    fits inside [0, 1].  Callers still need a strictly larger p; at a
    boundary-feasible bound of exactly 1 no margin is left.
    """

    bound: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "bound", require_real(self.bound, "bound", 0.0))

    @property
    def feasible(self) -> bool:
        return self.bound <= 1.0

    def __float__(self) -> float:
        return self.bound


def _require_args(f: EffortFunction, params: SchemeParams) -> None:
    """Refuse an ``f`` or ``params`` of the wrong type."""
    require_instance(f, EffortFunction, "f")
    require_instance(params, SchemeParams, "params")


def _bound(f: EffortFunction, eps: float, k: int, penalty: float) -> FlatBound:
    b = (-effort_deriv(f, eps)) * k / penalty
    if not math.isfinite(b):
        raise SuperviseError(f"the verification probability bound -f'(eps) k / penalty is not a finite float at k={k}, "
                             f"penalty={penalty!r}")
    return FlatBound(bound=b)


def min_verification_probability_binary(f: EffortFunction, params: SchemeParams) -> FlatBound:
    """p must strictly exceed ``(-f'(eps)) k / C`` to push errors below eps."""
    _require_args(f, params)
    return _bound(f, params.epsilon, params.k, params.require_C())


def min_verification_probability_quant(f: EffortFunction, params: SchemeParams) -> FlatBound:
    """Quantitative analogue with variance threshold eps and weight c."""
    _require_args(f, params)
    return _bound(f, params.epsilon, params.k, params.require_c())


def _loss(f: EffortFunction, x: float, p: float, k: int, penalty: float) -> float:
    return k * effort_eval(f, x) + x * require_real(p, "verification probability") * penalty


def _best_response(f: EffortFunction, p: float, k: int, penalty: float) -> Root:
    # p is a finite real but not capped at 1: callers probe just above a bound that may exceed 1
    if require_real(p, "verification probability") <= 0.0:
        raise NoIncentiveError("no incentive: verification probability must be positive")
    return solve_deriv_equals(f, -p * penalty / k)


def expected_loss_flat(f: EffortFunction, e: float, p: float, params: SchemeParams) -> float:
    """Expected loss ``k f(e) + e p C`` of a worker holding error e."""
    _require_args(f, params)
    return _loss(f, e, p, params.k, params.require_C())


def expected_loss_flat_quant(f: EffortFunction, v: float, p: float, params: SchemeParams) -> float:
    """Expected loss ``k f(v) + v p c`` of a worker holding variance v."""
    _require_args(f, params)
    return _loss(f, v, p, params.k, params.require_c())


def best_response_flat(f: EffortFunction, p: float, params: SchemeParams) -> Root:
    """Error level minimizing the flat loss: the root of ``f'(e) = -pC/k``.

    With SimpleLog this is k/(pC), clamped to the domain.  p = 0 removes the
    incentive entirely (the loss is minimized at maximal error) and is
    rejected, and so is an error above 1, which the inverse power can give.
    """
    _require_args(f, params)
    root = _best_response(f, p, params.k, params.require_C())
    require_prob(root.value, "best response error")
    return root


def best_response_flat_quant(f: EffortFunction, p: float, params: SchemeParams) -> Root:
    """Variance minimizing the quantitative flat loss: root of ``f'(v) = -pc/k``."""
    _require_args(f, params)
    return _best_response(f, p, params.k, params.require_c())
