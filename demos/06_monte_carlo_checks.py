"""Sampling the schemes: do the closed forms survive contact with a simulator?

A binary run draws each supervision pair's disagreement count, a Gaussian run
each task's sample means and answer cross-products; both charge the penalties
the structure dictates and report a z-score of empirical vs analytic penalty
per worker.  Sweeps score a strategy grid under common random numbers to
recover the best response empirically.
"""

from supervise import (
    EffortFunction,
    Gaussian,
    SchemeParams,
    SimConfig,
    UniformWrong,
    best_response_under_superior,
    build_supervision_tree,
    simulate_binary,
    simulate_quant,
    sweep_pair,
)

tree = build_supervision_tree(n_tasks=9, k=2, seed=1)
workers = sorted({w for lv in tree.levels[1:-1] for w in lv})
print("tree worker levels:", [len(lv) for lv in tree.levels[:-1]])

strategies = {w: 0.125 for w in workers}
strategies[tree.supervisor] = 0.0

cfg = SimConfig(
    episodes=200_000,
    seed=11,
    answer_model=UniformWrong(m=2, C=16.0),
    structure=tree,
    strategies=strategies,
)
rep = simulate_binary(cfg)
print(rep.to_csv())
print("worst |z| over all workers:", round(rep.max_abs_z, 3))
print()

# numeric answers: the worked 5.28 penalty instance
t1 = build_supervision_tree(1, 2, seed=0)
qcfg = SimConfig(200_000, 5, Gaussian(c=2.0), t1, {"w0": (1.0, 0.5), t1.supervisor: (0.8, -0.5)})
(row,) = simulate_quant(qcfg).rows
print(f"quant anchor: empirical {row.empirical:.4f} vs analytic {row.analytic} (z = {row.z:.2f})")
print()

# sweep a worker's error rate and compare the empirical argmin to the formula
f = EffortFunction.simple_log(1.0)
params = SchemeParams(k=2, epsilon=0.25, C=16.0, D=0.0)
sweep = sweep_pair(
    f, e_w=0.0, params=params, grid=[i / 200 for i in range(1, 100)], episodes=40_000, seed=2
)
analytic = best_response_under_superior(f, 0.0, params)
print(f"sweep argmin e = {sweep.best_value}  vs analytic best response {analytic.value}")
