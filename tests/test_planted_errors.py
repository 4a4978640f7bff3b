"""What formula error the Monte Carlo checker detects: plant a relative error in every analytic expectation.

A report row's z is recomputed as ``(empirical - (1 + delta) * analytic) / stderr``, and the pooled check fails when
the sum of the squared z over the report's rows exceeds the chi-squared quantile at ``ALPHA`` for that many degrees of
freedom.  The flat scheme has no report, so its check goes through ``sweep_flat``'s optimum instead: the planted best
response is refused when a neighbouring grid point's loss undercuts it by more than the normal quantile at ``ALPHA``,
split over the two neighbours, times the exact sd of the difference.  Each case passes at delta = 0 and fails at its
stated delta.  The structures, strategies, seeds, episode counts, grids and deltas were fixed before the first run; a
miss would be a finding about the checker's power, not a reason to change them.
"""

import functools
import math
import random

import pytest
from scipy.stats import chi2, norm

from supervise import (
    EffortFunction,
    Gaussian,
    SchemeParams,
    SimConfig,
    UniformWrong,
    build_peg_assignment,
    build_supervision_hierarchy,
    build_supervision_tree,
    best_response_flat,
    simulate,
    sweep_flat,
)

ALPHA = 1e-6  # the chance that the pooled check fails on correct formulas


def pooled_z2(report, delta: float) -> float:
    return math.fsum(((r.empirical - (1.0 + delta) * r.analytic) / r.stderr) ** 2 for r in report.rows)


def detected(report, delta: float) -> bool:
    return pooled_z2(report, delta) > chi2.isf(ALPHA, len(report.rows))


def _judged(structure) -> list:
    return sorted({w for _, _, w, _ in structure.judged})


@functools.lru_cache(maxsize=None)
def binary_report(m: int):
    """10**9 episodes on a u = 2000 peg hierarchy, errors U(0.05, 0.3); 2735 rows."""
    h = build_supervision_hierarchy(build_peg_assignment(2000, 2000, 3, seed=7).graph, 3, seed=11)
    rng = random.Random(5)
    strategies = {w: rng.uniform(0.05, 0.3) for w in _judged(h)}
    return simulate(SimConfig(episodes=10**9, seed=0, answer_model=UniformWrong(m=m, C=9.0), structure=h,
                              strategies=strategies))


@functools.lru_cache(maxsize=None)
def gaussian_report(episodes: int = 10**5):
    """``episodes`` episodes on a 300-task k = 3 tree, sigma U(0.5, 1.5) and bias U(-0.2, 0.2); 152 rows."""
    tree = build_supervision_tree(300, 3, seed=2)
    rng = random.Random(5)
    strategies = {w: (rng.uniform(0.5, 1.5), rng.uniform(-0.2, 0.2)) for w in _judged(tree)}
    return simulate(SimConfig(episodes=episodes, seed=0, answer_model=Gaussian(c=2.0), structure=tree,
                              strategies=strategies))


# The flat case: simple_log(1) at k = 2, C = 10 and p = 0.5, whose best response is e* = k / (p C) = 0.4, swept at
# 10**9 episodes over the planted optimum (1 + delta) e* and its neighbours 2 % either side of it.
FLAT_F, FLAT_PARAMS, FLAT_P = EffortFunction.simple_log(1.0), SchemeParams(k=2, epsilon=0.25, C=10.0), 0.5
FLAT_EPISODES, FLAT_SPACING = 10**9, 0.02


@functools.lru_cache(maxsize=None)
def flat_undercut_z(delta: float) -> float:
    """The larger z by which a neighbour's sampled loss lies below the planted optimum's.  Under common random
    numbers the two losses differ in their effort and in C / N times the count of checked uniforms between the two
    points, Bin(N, p |e - e'|), so that count's sd scales the difference exactly."""
    e = (1.0 + delta) * best_response_flat(FLAT_F, FLAT_P, FLAT_PARAMS).value
    grid = (e * (1.0 - FLAT_SPACING), e, e * (1.0 + FLAT_SPACING))
    losses = sweep_flat(FLAT_F, FLAT_PARAMS, FLAT_P, grid, FLAT_EPISODES, seed=0).mean_losses
    zs = []
    for other, loss in ((grid[0], losses[0]), (grid[2], losses[2])):
        q = FLAT_P * abs(e - other)
        zs.append((losses[1] - loss) / (FLAT_PARAMS.C * math.sqrt(q * (1.0 - q) / FLAT_EPISODES)))
    return max(zs)


@pytest.mark.parametrize("m", [2, 3])
def test_binary_checker_passes_the_true_formula(m):
    report = binary_report(m)
    assert len(report.rows) == 2735
    assert not detected(report, 0.0)


@pytest.mark.parametrize("m", [2, 3])
def test_binary_checker_detects_a_formula_off_by_a_tenth_of_a_percent(m):
    assert detected(binary_report(m), 0.001)


def test_gaussian_checker_passes_the_true_formula():
    report = gaussian_report()
    assert len(report.rows) == 152
    assert not detected(report, 0.0)


def test_gaussian_checker_detects_a_formula_off_by_one_percent():
    assert detected(gaussian_report(), 0.01)


def test_gaussian_checker_at_a_billion_episodes_passes_the_true_formula():
    assert not detected(gaussian_report(10**9), 0.0)


def test_gaussian_checker_at_a_billion_episodes_detects_a_formula_off_by_a_hundredth_of_a_percent():
    assert detected(gaussian_report(10**9), 1e-4)


def test_flat_checker_passes_the_true_best_response():
    assert flat_undercut_z(0.0) <= norm.isf(ALPHA / 2)


def test_flat_checker_detects_a_best_response_off_by_two_percent():
    assert flat_undercut_z(0.02) > norm.isf(ALPHA / 2)
