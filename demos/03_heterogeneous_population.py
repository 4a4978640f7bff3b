"""Mixed workforces: one penalty, many effort curves.

Each worker type best-responds to the population-average error of the level
above.  The scheme only promises truthfulness when the weighted mean of the
per-type proficiency points sigma stays at or below the threshold.
"""

from supervise import (
    AssumptionError,
    EffortFunction,
    PopulationModel,
    SchemeParams,
    WorkerType,
    equilibrium_heterogeneous,
    proficiency_sigma,
)

SL = EffortFunction.simple_log
params = SchemeParams(k=2, epsilon=0.25, C=16.0)

# sigma marks where a type's best response lands against a superior at error eps, with D = 0
for alpha in (0.8, 1.0, 1.4):
    sig = proficiency_sigma(SL(alpha), params)
    ok = "proficient" if sig.value <= params.epsilon else "not proficient"
    print(f"alpha={alpha}: sigma = {sig.value:.4f}  ({ok})")
print()

pop = PopulationModel((
    (WorkerType(SL(0.8), "careful"), 0.8),
    (WorkerType(SL(1.4), "costly"), 0.2),
))
eq = equilibrium_heterogeneous(pop, params, depth=6)
print(f"mean sigma = {eq.mean_sigma:.4f} <= eps: population accepted")
print()
print("".join(eq.csv_chunks()))
print("population mean error by level:", [round(e, 4) for e in eq.mean_errors])
print()

# flip the weights and the mean crosses eps: the guarantee is refused up front
flipped = PopulationModel((
    (WorkerType(SL(0.8), "careful"), 0.2),
    (WorkerType(SL(1.4), "costly"), 0.8),
))
try:
    equilibrium_heterogeneous(flipped, params, depth=6)
except AssumptionError as exc:
    print("flipped weights rejected:", exc)
