"""What formula error the Monte Carlo checker detects: plant a relative error in every analytic expectation.

A report row's z is recomputed as ``(empirical - (1 + delta) * analytic) / stderr``, and the pooled check fails when
the sum of the squared z over the report's rows exceeds the chi-squared quantile at ``ALPHA`` for that many degrees of
freedom.  Each case passes at delta = 0 and fails at its stated delta.  The structures, strategies, seeds, episode
counts and deltas were fixed before the first run; a miss would be a finding about the checker's power, not a
reason to change them.
"""

import functools
import math
import random

import pytest
from scipy.stats import chi2

from supervise import (
    Gaussian,
    SimConfig,
    UniformWrong,
    build_peg_assignment,
    build_supervision_hierarchy,
    build_supervision_tree,
    simulate,
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
def gaussian_report():
    """10**5 episodes on a 300-task k = 3 tree, sigma U(0.5, 1.5) and bias U(-0.2, 0.2); 152 rows."""
    tree = build_supervision_tree(300, 3, seed=2)
    rng = random.Random(5)
    strategies = {w: (rng.uniform(0.5, 1.5), rng.uniform(-0.2, 0.2)) for w in _judged(tree)}
    return simulate(SimConfig(episodes=10**5, seed=0, answer_model=Gaussian(c=2.0), structure=tree,
                              strategies=strategies))


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
