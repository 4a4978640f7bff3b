"""Hierarchical supervision with quantitative (real-valued) answers.

Answers carry a per-worker bias b and variance sigma^2 around the true value,
and a worker pays ``c (x - y)^2`` against its superior's answer y on the
shared task.  Expanding the square for independent answers,

    E[penalty] = c (sigma_u^2 + b_u^2 - 2 b_u b_w + sigma_w^2 + b_w^2),

so the part a worker controls is additively separable from everything the
superior does: with an unbiased population the best-response variance solves
``f'(v) = -c / k`` regardless of the superior's precision, and equilibrium
profiles are exactly constant across levels.  An equilibrium writes its
per-type rows as CSV, in chunks, through its ``csv_chunks()`` method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from . import _EXPORTS
from ._csv import bool_word, cyclic_csv_chunks
from .effort import EffortFunction, Root, solve_deriv_equals
from .errors import FLOAT_MAX, AssumptionError, SuperviseError, require_instance, require_int, require_real
from .errors import require_weight, require_weights

__all__ = _EXPORTS["quant"]

BIAS_TOLERANCE = 1e-9


@dataclass(frozen=True)
class QuantWorkerType:
    """A worker class: effort curve over variance, plus its best-response bias."""

    effort: EffortFunction
    bias: float = 0.0
    id: str = "worker"

    def __post_init__(self) -> None:
        require_instance(self.effort, EffortFunction, "worker type effort")
        object.__setattr__(self, "bias", require_real(self.bias, "bias"))
        require_instance(self.id, str, "worker type id")


def _require_variance_threshold(eps: float) -> float:
    return require_real(eps, "variance threshold", 0.0, lo_open=True)


@dataclass(frozen=True)
class TypeQuantProfile:
    """One type's best-response variance, its clamp, weight and variance threshold; ``truthful`` is derived."""

    worker: QuantWorkerType
    weight: float
    vstar: float
    clamped: bool
    threshold: float

    def __post_init__(self) -> None:
        require_instance(self.worker, QuantWorkerType, "worker")
        require_weight(self.weight)
        require_real(self.vstar, "vstar")
        require_instance(self.clamped, bool, "clamped")
        _require_variance_threshold(self.threshold)

    @property
    def truthful(self) -> bool:
        return self.vstar < self.threshold


@dataclass(frozen=True)
class QuantEquilibrium:
    """Per-type profiles; each type holds its one variance at every level 1..depth."""

    types: tuple[TypeQuantProfile, ...]
    depth: int

    def __post_init__(self) -> None:
        if not (self.types and isinstance(self.types, tuple)
                and all(isinstance(t, TypeQuantProfile) for t in self.types)):
            raise SuperviseError(f"types must be a nonempty tuple of TypeQuantProfile rows, got {self.types!r}")
        require_int(self.depth, "depth", 1)

    @property
    def all_truthful(self) -> bool:
        return all(t.truthful for t in self.types)

    def csv_chunks(self) -> Iterator[str]:
        """The ``type,level,vstar,truthful`` rows in chunks; each type's is a period-1 cycle from level 1."""
        return cyclic_csv_chunks(
            ["type", "level", "vstar", "truthful"],
            (((tp.worker.id,), [(1, tp.vstar, bool_word(tp.truthful))], 1, self.depth) for tp in self.types),
        )


def expected_penalty_quant(sigma_u: float, b_u: float, sigma_w: float, b_w: float, c: float) -> float:
    """Expected quadratic penalty between two independent biased answers."""
    require_real(sigma_u, "sigma_u", 0.0)
    require_real(b_u, "b_u")
    require_real(sigma_w, "sigma_w", 0.0)
    require_real(b_w, "b_w")
    require_real(c, "penalty weight c", 0.0, lo_open=True)
    try:
        penalty = c * (sigma_u**2 + b_u**2 - 2.0 * b_u * b_w + sigma_w**2 + b_w**2)
    except OverflowError:  # a float square beyond the float range raises rather than reading inf
        penalty = math.inf
    if not math.isfinite(penalty):
        raise SuperviseError(f"the expected quadratic penalty is not a finite float at sigma_u={sigma_u!r}, "
                             f"b_u={b_u!r}, sigma_w={sigma_w!r}, b_w={b_w!r}, c={c!r}")
    return penalty


def best_response_quant(f: EffortFunction, k: int, c: float) -> Root:
    """Variance minimizing ``k f(v) + c (v + const)``: the root of f'(v) = -c/k.

    The superior's variance and bias only shift the loss by a constant, so
    they are not arguments.  With the inverse-power cost the root is
    ``sqrt(alpha k / c)``.
    """
    require_int(k, "k", 1, hi=FLOAT_MAX)
    require_real(c, "penalty weight c", 0.0, lo_open=True)
    root = solve_deriv_equals(f, -c / k)  # -c / k may underflow to 0, where the inverse power's root is inf
    if not math.isfinite(root.value):
        raise SuperviseError(f"the best-response variance, the root of f'(v) = -c / k, is not a finite float at "
                             f"c={c!r}, k={k}")
    return root


def quant_equilibrium(
    pop: Sequence[tuple[QuantWorkerType, float]], k: int, c: float, epsilon: float, depth: int
) -> QuantEquilibrium:
    """Per-type equilibrium of the quantitative hierarchy.

    Requires the population-weighted mean best-response bias to vanish
    (within 1e-9): a net bias would let workers trade variance against bias
    matching and the separability argument above breaks down.  Each type's
    profile is constant in the level by construction — the same root is
    reported at every depth, exactly.
    """
    pop = require_weights(pop, QuantWorkerType)
    mean_bias = math.fsum(w * wt.bias for wt, w in pop)
    if abs(mean_bias) > BIAS_TOLERANCE:
        raise AssumptionError(
            f"unbiased-population assumption violated: weighted mean bias {mean_bias!r}"
        )

    roots = [(wt, w, best_response_quant(wt.effort, k, c)) for wt, w in pop]
    return QuantEquilibrium(types=tuple(TypeQuantProfile(wt, w, r.value, r.clamped, epsilon) for wt, w, r in roots),
                            depth=depth)

