"""Numeric answers: penalties grow with the squared gap between reports.

With Gaussian noise the expected penalty between a worker and its superior is
c times the sum of their variances plus the squared bias gap.  The worker's
best response depends only on its own curve, so every level plays the same
variance and the equilibrium is flat.
"""

from supervise import (
    EffortFunction,
    QuantWorkerType,
    best_response_quant,
    expected_penalty_quant,
    quant_equilibrium,
)

# worked instance: sigma_u^2=1 b_u=0.5, sigma_w^2=0.64 b_w=-0.5, c=2
pen = expected_penalty_quant(sigma_u=1.0, b_u=0.5, sigma_w=0.8, b_w=-0.5, c=2.0)
print("expected penalty at the worked instance:", pen)
print()

# the best response solves f'(v) = -c for variance v; for alpha/v that is sqrt(alpha k / c)
f = EffortFunction.inverse_power(1.0)
for k, c in ((4, 1.0), (1, 1.0), (1, 4.0)):
    r = best_response_quant(f, k=k, c=c)
    print(f"k={k} c={c}: v* = {r.value}")
print()

# two types, same rule: each sits at its own v* at every level
types = (
    (QuantWorkerType(EffortFunction.inverse_power(1.0), id="sharp"), 0.6),
    (QuantWorkerType(EffortFunction.inverse_power(9.0), id="noisy"), 0.4),
)
eq = quant_equilibrium(types, k=1, c=1.0, epsilon=2.0, depth=3)
print("".join(eq.csv_chunks()))
print("a type is proficient when its v* is at or below epsilon")
