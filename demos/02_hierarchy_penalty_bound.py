"""Hierarchical supervision: one shared task per pair replaces spot checks.

Every worker is judged by their superior on a single overlapping task.  Above
a closed-form penalty the best-response cascade stays truthful at any depth;
below it the errors compound level by level until the threshold breaks.
"""

from supervise import (
    DefectionAnalysis,
    EffortFunction,
    SchemeParams,
    counterexample_trace,
    equilibrium_homogeneous,
    level_info_bits,
    min_penalty_hierarchical,
)

f = EffortFunction.simple_log(1.0)
eps, k = 0.25, 2

bound = min_penalty_hierarchical(f, SchemeParams(k=k, epsilon=eps, C=1.0))
print(f"penalty bound for k={k}, eps={eps}: C = {bound}")
print()

# just above the bound: errors increase with depth but never reach eps
params = SchemeParams(k=k, epsilon=eps, C=bound * 1.000001)
prof = equilibrium_homogeneous(f, params, depth=12)
print("equilibrium errors just above the bound (level 0 = exact supervisor):")
for s in prof.levels:
    print(f"  level {s.level:>2}: e = {s.error:.6f}  truthful: {s.truthful}")
print(f"all truthful: {prof.all_truthful},  sup over all depths stays below {eps}")
print()

# 1% below the bound: the cascade escapes, and we can say how fast
trace = counterexample_trace(SchemeParams(k=k, epsilon=0.2, C=10.0), max_depth=20)
print("undersized penalty (k=2, eps=0.2, C=10):")
print(f"  per-level error gain is at least delta = {trace.delta:.4f}")
print(f"  crossing guaranteed by level {trace.guaranteed_depth}; happened at {trace.crossing_level}")
print(f"  trace: {[round(e, 4) for e in trace.errors]}")
print()

# group defection: a coalition gains only when it outnumbers 2k
for N in (3, 4, 5):
    d = DefectionAnalysis(N, k=2, C=10.0)
    print(f"N={N}: defect cost {d.defect_cost:.1f} vs deviate cost {d.deviate_cost:.1f} -> {d.verdict}")
print()

# the only coordination a worker needs is its level index, a few bits
print("tasks -> bits to name a level (k=2):", {N: level_info_bits(N, 2) for N in (4, 64, 10**6)})
