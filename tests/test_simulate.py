"""Monte Carlo engine: sampled penalties against the analytic expectations."""

import collections
import dataclasses
import hashlib
import itertools
import math
import statistics
import struct
import sys
import tracemalloc
import warnings
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supervise import (
    EffortDomainError,
    AssignmentGraph,
    EffortFunction,
    Gaussian,
    ModelMismatchError,
    SchemeParams,
    SimConfig,
    SuperviseError,
    SupervisionHierarchy,
    SupervisionTree,
    UniformWrong,
    build_peg_assignment,
    build_supervision_hierarchy,
    build_supervision_tree,
    simulate,
    simulate_binary,
    simulate_quant,
    sweep_flat,
    sweep_pair,
    sweep_quant,
)
from supervise.errors import FLOAT_MAX
from supervise.simulate import _answer_gaps, _mean_stderr, _offsets

import _oracles

SL = EffortFunction.simple_log
IP = EffortFunction.inverse_power


def tree_config(episodes=50_000, seed=0, e=0.125, C=16.0, m=2, n_tasks=4, k=2, e0=0.0):
    tree = build_supervision_tree(n_tasks, k, seed=1)
    workers = {n for lv in tree.levels[1:-1] for n in lv}
    strategies = {w: e for w in workers}
    strategies[tree.supervisor] = e0
    return SimConfig(
        episodes=episodes,
        seed=seed,
        answer_model=UniformWrong(m=m, C=C),
        structure=tree,
        strategies=strategies,
    )


class TestBinary:
    def test_zero_error_zero_penalty(self):
        rep = simulate_binary(tree_config(episodes=2_000, e=0.0))
        for r in rep.rows:
            assert r.empirical == 0.0 and r.analytic == 0.0 and r.z == 0.0

    def test_anchor_pair_penalty(self):
        rep = simulate_binary(tree_config(episodes=100_000, seed=3))
        top = [r for r in rep.rows if r.level == 1]
        for r in top:
            assert r.analytic == pytest.approx(2.0, rel=1e-15)  # 0.125 * 16
            assert abs(r.z) <= 3.0

    def test_three_answer_model_matches_its_both_wrong_rate(self):
        # both wrong but different happens (m-2)/(m-1) of the double-error mass
        cfg = tree_config(episodes=300_000, seed=5, e=0.5, C=1.0, m=3, e0=0.0)
        tree = cfg.structure
        strategies = dict(cfg.strategies)
        strategies[tree.supervisor] = 0.5
        cfg = SimConfig(cfg.episodes, cfg.seed, cfg.answer_model, tree, strategies)
        rep = simulate_binary(cfg)
        want = 0.25 + 0.25 + 0.25 * 0.5
        for r in rep.rows:
            if r.level == 1:
                assert r.analytic == pytest.approx(want, rel=1e-15)
                assert abs(r.z) <= 4.0

    def test_all_levels_within_three_se(self):
        rep = simulate_binary(tree_config(episodes=200_000, seed=11, n_tasks=9, k=2))
        assert rep.max_abs_z <= 3.5
        assert len({r.level for r in rep.rows}) >= 2

    def test_csv_header_and_determinism(self):
        a = simulate_binary(tree_config(episodes=3_000, seed=9)).to_csv()
        b = simulate_binary(tree_config(episodes=3_000, seed=9)).to_csv()
        c = simulate_binary(tree_config(episodes=3_000, seed=10)).to_csv()
        assert a.splitlines()[0] == "worker,level,empirical,stderr,analytic,z"
        assert a == b
        assert a != c

    def test_missing_strategy_rejected(self):
        cfg = tree_config(episodes=100)
        broken = {k: v for k, v in cfg.strategies.items() if k != "w0"}
        with pytest.raises(SuperviseError):
            simulate_binary(SimConfig(100, 0, cfg.answer_model, cfg.structure, broken))

    def test_strategy_range_checked(self):
        cfg = tree_config(episodes=100)
        bad = dict(cfg.strategies)
        bad["w0"] = 1.5
        with pytest.raises(ModelMismatchError):
            simulate_binary(SimConfig(100, 0, cfg.answer_model, cfg.structure, bad))

    def test_model_mismatch(self):
        cfg = tree_config(episodes=100)
        with pytest.raises(ModelMismatchError):
            simulate_binary(SimConfig(100, 0, Gaussian(c=1.0), cfg.structure, cfg.strategies))

    def test_independent_correctness_draws(self):
        """The pair sweep's answers: two draws in a row are right independently, each at its own rate."""
        rng = np.random.default_rng(17)
        n = 200_000
        a = _offsets(rng, 0.3, 2, n) == 0  # right where the offset from the truth is 0
        b = _offsets(rng, 0.4, 2, n) == 0
        corr = float(np.corrcoef(a.astype(float), b.astype(float))[0, 1])
        assert abs(corr) <= 4.0 / math.sqrt(n)
        assert abs(float(np.mean(a)) - 0.7) <= 4.0 * math.sqrt(0.7 * 0.3 / n)


class TestHierarchySim:
    def test_rows_cover_tree_and_graph_workers(self):
        peg = build_peg_assignment(6, 5, 3, seed=3)
        h = build_supervision_hierarchy(peg.graph, k=2, seed=3)
        tree_workers = {n for lv in h.tree.levels[1:-1] for n in lv}
        strategies = {w: 0.1 for w in tree_workers}
        strategies.update({w: 0.2 for w in h.graph.workers})
        rep = simulate_binary(
            SimConfig(40_000, 21, UniformWrong(m=2, C=16.0), h, strategies)
        )
        names = {r.worker for r in rep.rows}
        assert set(h.graph.workers) <= names
        assert names == tree_workers | set(h.graph.workers)
        graph_rows = [r for r in rep.rows if r.worker in set(h.graph.workers)]
        lvl = h.tree.depth - 1
        for r in graph_rows:
            assert r.level == lvl
            assert abs(r.z) <= 4.0


_PEG = build_peg_assignment(6, 5, 3, seed=3)


@pytest.mark.parametrize("model", [UniformWrong(m=3, C=4.0), Gaussian(c=1.5)], ids=["binary", "gaussian"])
@pytest.mark.parametrize(
    "structure",
    [build_supervision_tree(27, 3, seed=2), build_supervision_hierarchy(_PEG.graph, k=2, seed=3)],
    ids=["tree", "hierarchy"],
)
def test_task_by_task_engine_matches_the_frozen_original(structure, model):
    _, pairs = _oracles._supervision_pairs(structure)
    workers = sorted({w for p, c, _, _ in pairs for w in (p, c)})
    if isinstance(model, UniformWrong):
        strategies = {w: 0.05 + 0.01 * (i % 20) for i, w in enumerate(workers)}
    else:
        strategies = {w: (0.5 + 0.1 * (i % 10), 0.2 * (i % 3 - 1)) for i, w in enumerate(workers)}
    config = SimConfig(20_000, 1, model, structure, strategies)
    new, old = simulate(config).rows, _oracles.simulate(config).rows
    assert [(r.worker, r.level, r.analytic) for r in new] == [(r.worker, r.level, r.analytic) for r in old]
    # the draw orders differ, so the empirical means are two samples of one mean: Bonferroni over the pairs at 1e-3
    bound = statistics.NormalDist().inv_cdf(1 - 1e-3 / (2 * len(new)))
    for a, b in zip(new, old):
        assert abs(a.empirical - b.empirical) <= bound * math.hypot(a.stderr, b.stderr), (a, b)


# A 3-performer chain, z judging b judging a on task t, named so that the sorted ``judged`` rows put the child's row
# first; and a 3-performer star, b judging g1 and g2 on task t2 of a hierarchy, whose supervisor judges b on t1.
_CHAIN = SupervisionTree(levels=(("z",), ("b",), ("a",), ("t",)), edges=(("z", "b"), ("b", "a"), ("a", "t")),
                         shared=(("z", "b", "t"), ("b", "a", "t")))
_STAR = SupervisionHierarchy(
    graph=AssignmentGraph(workers=("g1", "g2"), tasks=("t1", "t2"), edges=(("g1", "t2"), ("g2", "t2"))),
    tree=SupervisionTree(levels=(("s",), ("b",), ("t1", "t2")), edges=(("s", "b"), ("b", "t1"), ("b", "t2")),
                         shared=(("s", "b", "t1"),)),
    coverage=(("g1", "t2"), ("g2", "t2")),
)
# Fixed before the test first ran, from the Pearson statistic's noncentrality under planted faults (a child drawn
# before its superior, a root drawn anew per row, a child's count without its both-wrong episodes, 1/m for
# 1/(m - 1)), each of which then exceeds the bound several times over: N = 3 episodes, 4000 runs a case, cells
# expected below 5 pooled, and the chi-square quantile at 1 - 1e-3 by Wilson and Hilferty's cube-root form.
_LAW_EPISODES, _LAW_RUNS, _LAW_ALPHA = 3, 4000, 1e-3
_LAW_CASES = (
    (_CHAIN, "t", {"z": 0.4, "b": 0.6, "a": 0.2}),
    (_STAR, "t2", {"b": 0.6, "g1": 0.2, "g2": 0.7}),
)


def _chi2_quantile(q: float, df: int) -> float:
    z = statistics.NormalDist().inv_cdf(q)
    return df * (1.0 - 2.0 / (9 * df) + z * math.sqrt(2.0 / (9 * df))) ** 3


def test_binary_counts_have_the_exact_joint_law():
    """One Pearson test over the chain and the star at m = 2 and 3: the counts of a task's rows, read from the
    reports of seeded runs, against their joint law enumerated over every performer's answer in every episode."""
    stat, df = 0.0, 0
    for structure, task, strategies in _LAW_CASES:
        rows = [row for row in structure.judged if row[0] == task]
        for m in (2, 3):
            model, n = UniformWrong(m=m, C=1.0), _LAW_EPISODES
            law = _oracles.binary_count_law(rows, model, {structure.supervisor: 0.0, **strategies}, n)
            seen = collections.Counter()
            for seed in range(_LAW_RUNS):
                report = {r.worker: r for r in simulate(SimConfig(n, seed, model, structure, strategies)).rows}
                seen[tuple(round(report[w].empirical * n) for _, _, w, _ in rows)] += 1
            pooled_want = pooled_seen = 0.0
            for cell in set(law) | set(seen):
                want = _LAW_RUNS * law.get(cell, 0.0)
                if want < 5.0:
                    pooled_want, pooled_seen = pooled_want + want, pooled_seen + seen[cell]
                else:
                    stat, df = stat + (seen[cell] - want) ** 2 / want, df + 1
            stat += (pooled_seen - pooled_want) ** 2 / pooled_want if pooled_want else (math.inf if pooled_seen else 0.0)
            df += bool(pooled_want) - 1
    assert stat <= _chi2_quantile(1.0 - _LAW_ALPHA, df), (stat, df)


# Fixed before the tests first ran, the binary one's and then the Gaussian one's: 400 seeds an engine at 40 episodes,
# and a bound of the normal quantile at a family-wise 1e-3, split over each row's two statistics and each row pair's
# covariance.
_DENSE_SEEDS, _DENSE_EPISODES, _DENSE_ALPHA = 400, 40, 1e-3
_SEEDED_STRUCTURES = pytest.mark.parametrize(
    "structure",
    [build_supervision_tree(27, 3, seed=2), build_supervision_hierarchy(_PEG.graph, k=2, seed=3)],
    ids=["tree", "hierarchy"],
)


def _over_seeds(engine, model, structure, strategies):
    """Each row's empirical column over the seeds, one run a row of the array, after checking that every run has
    the same rows in worker, level and analytic column."""
    runs = [engine(SimConfig(_DENSE_EPISODES, seed, model, structure, strategies)).rows
            for seed in range(_DENSE_SEEDS)]
    assert all([r[:2] + r[4:5] for r in rows] == [r[:2] + r[4:5] for r in runs[0]] for rows in runs)
    return np.array([[r.empirical for r in rows] for rows in runs])


def _assert_same_moments(new, old, pairs=()):
    """Each column's mean and variance, and the covariance of each pair of columns, agree between two samples of
    the seeds, within the bound times the standard error of their difference."""
    s = _DENSE_SEEDS
    bound = statistics.NormalDist().inv_cdf(1 - _DENSE_ALPHA / (2 * (2 * new.shape[1] + len(pairs))))

    def moments(x):
        mean, var = x.mean(axis=0), x.var(axis=0, ddof=1)
        m4 = ((x - mean) ** 4).mean(axis=0)
        return mean, var, var / s, (m4 - var**2 * (s - 3) / (s - 1)) / s  # the two estimates and their variances

    def covariances(x):
        dev = x - x.mean(axis=0)
        prods = np.array([dev[:, i] * dev[:, j] for i, j in pairs]).reshape(len(pairs), s)
        cov = prods.sum(axis=1) / (s - 1)
        return cov, ((prods**2).mean(axis=1) - cov**2) / s  # the estimates and their variances

    (mean_a, var_a, v_mean_a, v_var_a), (mean_b, var_b, v_mean_b, v_var_b) = moments(new), moments(old)
    (cov_a, v_cov_a), (cov_b, v_cov_b) = covariances(new), covariances(old)
    for diff, v in ((mean_a - mean_b, v_mean_a + v_mean_b), (var_a - var_b, v_var_a + v_var_b),
                    (cov_a - cov_b, v_cov_a + v_cov_b)):
        assert np.all(np.abs(diff) <= bound * np.sqrt(v)), (diff / np.sqrt(v))


@pytest.mark.parametrize("m", [2, 3])
@_SEEDED_STRUCTURES
def test_counts_match_the_frozen_dense_engine_over_seeds(structure, m):
    """Each row's mean and variance over seeds agree between the count engine and the frozen dense engine, within
    the bound times the standard error of their difference."""
    workers = sorted({w for _, p, c, _ in structure.judged for w in (p, c)})
    strategies = {w: 0.05 + 0.04 * (i % 10) for i, w in enumerate(workers)}
    model = UniformWrong(m=m, C=4.0)
    _assert_same_moments(*(_over_seeds(engine, model, structure, strategies)
                           for engine in (simulate, _oracles.simulate_dense_binary)))


@_SEEDED_STRUCTURES
def test_gaussian_rows_match_the_frozen_answer_engine_over_seeds(structure):
    """Each row's mean and variance over seeds, and the covariance of the first two rows of every task with two,
    agree between the engine that draws each task relative to its roots and the frozen one that draws every answer,
    within the bound times the standard error of their difference.  The supervisor has a sigma too, so every task's
    root is noisy."""
    workers = sorted({w for _, p, c, _ in structure.judged for w in (p, c)})
    strategies = {w: (0.3 + 0.2 * (i % 7), 0.25 * (i % 3 - 1)) for i, w in enumerate(workers)}
    model = Gaussian(c=1.5)
    # the rows' report order is by level and worker; a pair is the first two rows of a task, parents first
    report = simulate(SimConfig(2, 0, model, structure, strategies))
    column = {(r.worker, r.level): i for i, r in enumerate(report.rows)}
    pairs = []
    for _, rows in itertools.groupby(structure.judged, itemgetter(0)):
        rows = sorted(rows, key=itemgetter(3))
        if len(rows) >= 2:
            pairs.append(tuple(column[(w, level)] for _, _, w, level in rows[:2]))
    assert pairs
    _assert_same_moments(*(_over_seeds(engine, model, structure, strategies)
                           for engine in (simulate, _oracles.simulate_task_by_task)), pairs)


def _unit_normals():
    """A stand-in for ``standard_normal(out=...)`` whose k-th draw is the k-th unit vector, and the draw count."""
    drawn = [0]

    def normal(out):
        out[...] = 0.0
        out[drawn[0]] = 1.0
        drawn[0] += 1
        return out

    return normal, drawn


# Forests of one task's rows, (superior, worker, level), and each performer's sigma: a chain, a star, two trees, a
# root without noise and a middle worker without noise, each with at least three rows below some noisy performer.
_FORESTS = {
    "chain": ([("r", "a", 1), ("a", "b", 2), ("b", "c", 3)], {"r": 1.5, "a": 0.7, "b": 2.0, "c": 0.4}),
    "star": ([("r", "a", 1), ("r", "b", 1), ("r", "c", 1), ("b", "d", 2)],
             {"r": 1.2, "a": 0.5, "b": 1.7, "c": 0.9, "d": 1.1}),
    "two trees": ([("r1", "a", 1), ("r2", "c", 2), ("a", "b", 2), ("r2", "d", 2), ("c", "e", 3)],
                  {"r1": 0.8, "a": 1.1, "b": 0.3, "r2": 2.0, "c": 0.6, "d": 1.4, "e": 3.0}),
    "quiet root": ([("r", "a", 1), ("r", "c", 1), ("a", "b", 2)], {"r": 0.0, "a": 1.0, "b": 0.5, "c": 2.0}),
    "quiet middle": ([("r", "a", 1), ("r", "d", 1), ("a", "b", 2), ("a", "c", 2), ("b", "e", 3)],
                     {"r": 1.0, "a": 0.0, "b": 0.7, "c": 1.3, "d": 0.4, "e": 0.9}),
}


@pytest.mark.parametrize("forest", sorted(_FORESTS))
def test_gaussian_answer_gaps_have_the_exact_joint_law(forest):
    """With the k-th normal draw the k-th unit vector, each row's answer gap is its coefficient vector on the
    draws, so the gaps' products summed over the episodes are their exact covariances: for rows e = (p -> c) and
    f = (q -> w), ``s_p² [p = q] - s_c² [c = q] - s_w² [w = p]``, and ``s_p² + s_c²`` for e = f, the law of
    independent answers.  One draw a row, and the biases shift each gap by ``b_w - b_p``."""
    edges, sigma = _FORESTS[forest]
    rows = sorted((("t", p, c, level) for p, c, level in edges), key=itemgetter(3))
    n = len(rows) + 2  # more episodes than draws: the last ones are all 0
    bias = {w: 0.25 * i - 0.5 for i, w in enumerate(sorted(sigma))}
    normal, drawn = _unit_normals()
    gaps = [(row, x.copy()) for row, x in _answer_gaps(normal, {w: (s, bias[w]) for w, s in sigma.items()}, n)(rows)]
    assert [row for row, _ in gaps] == rows and drawn[0] == len(rows)
    scale = max(sigma.values()) ** 2
    for (_, p, c, _), x in gaps:
        for (_, q, w, _), y in gaps:
            if (p, c) == (q, w):
                want = sigma[p] ** 2 + sigma[c] ** 2
            else:
                want = sigma[p] ** 2 * (p == q) - sigma[c] ** 2 * (c == q) - sigma[w] ** 2 * (w == p)
            got = float(np.dot(x - (bias[c] - bias[p]), y - (bias[w] - bias[q])))
            assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12 * scale), ((p, c), (q, w), got, want)


def test_a_binary_run_at_a_trillion_episodes_gives_finite_rows():
    tree = build_supervision_tree(81, 3, seed=1)
    strategies = {n: 0.1 for lv in tree.levels[:-1] for n in lv}
    report = simulate(SimConfig(10**12, 0, UniformWrong(m=3, C=1.0), tree, strategies))
    assert len(report.rows) == len(tree.judged) and report.episodes == 10**12
    assert all(math.isfinite(x) for r in report.rows for x in r[2:])
    assert report.max_abs_z <= 5.0  # a Bonferroni bound of about 2e-5 over the 39 rows


def test_a_binary_cost_near_the_float_maximum_gives_finite_rows():
    """A row's mean is ``C * (n / N)``, never above C: ``(C * n) / N`` would overflow and be refused."""
    report = simulate(tree_config(episodes=1_000, seed=4, e=0.5, C=FLOAT_MAX, m=3, n_tasks=9))
    assert all(math.isfinite(r.empirical) and math.isfinite(r.stderr) and r.empirical <= FLOAT_MAX
               for r in report.rows)
    assert any(r.empirical > FLOAT_MAX / 4 for r in report.rows)


def _traced_peak(config):
    """The peak traced allocation of one run, after a two-episode run has let numpy's first draws import modules."""
    simulate(dataclasses.replace(config, episodes=2))
    tracemalloc.start()
    try:
        simulate(config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_holds_one_task_at_a_time():
    """Gaussian answers, the model that still makes episode arrays: the deepest task of an 81-task tree has three
    rows, and a run peaks near 5 arrays of ``episodes`` values; the engine that held every task's arrays at once
    peaked near 96."""
    tree = build_supervision_tree(81, 3, seed=1)
    strategies = {n: (0.5, 0.1) for lv in tree.levels[:-1] for n in lv}
    config = SimConfig(20_000, 0, Gaussian(c=1.0), tree, strategies)
    peak = _traced_peak(config)
    assert peak <= 16 * config.episodes * 8, peak / (config.episodes * 8)


def test_a_one_row_gaussian_run_holds_at_most_three_episode_arrays():
    """One pair under a noisy supervisor at 10⁶ episodes, where a run's arrays outweigh everything else: the
    worker's D and the penalty array, as the last row of its tree folds nothing into its root's law; the engine
    that drew an answer per performer held three."""
    tree = build_supervision_tree(1, 2, seed=0)
    config = SimConfig(1_000_000, 0, Gaussian(c=2.0), tree, {"w0": (1.0, 0.5), tree.supervisor: (0.8, -0.5)})
    peak = _traced_peak(config)
    assert peak <= 3 * config.episodes * 8, peak / (config.episodes * 8)


@pytest.mark.parametrize("model", [UniformWrong(m=3, C=1.0), Gaussian(c=1.0)], ids=["binary", "gaussian"])
def test_memory_stays_within_eight_episode_arrays(model):
    """The deepest task's three rows hold a D each and their noisy root's M, and the penalty array adds one: about
    5.1 arrays for Gaussian answers.
    Binary rows come from counts, so a binary run's peak does not grow with its episodes: from 2·10⁴ to 2·10⁶
    episodes it grows by less than a tenth of one 2·10⁴-episode array, where one 2·10⁶-episode array is 16 MB."""
    tree = build_supervision_tree(81, 3, seed=1)
    s = 0.1 if isinstance(model, UniformWrong) else (0.5, 0.1)
    strategies = {n: s for lv in tree.levels[:-1] for n in lv}
    config = SimConfig(20_000, 0, model, tree, strategies)
    peak = _traced_peak(config)
    assert peak <= 8 * config.episodes * 8, peak / (config.episodes * 8)
    if isinstance(model, UniformWrong):
        grown = _traced_peak(dataclasses.replace(config, episodes=2_000_000)) - peak
        assert grown <= config.episodes * 8 // 10, grown


class TestQuant:
    def quant_config(self, episodes=200_000, seed=0):
        tree = build_supervision_tree(1, 2, seed=0)
        strategies = {"w0": (1.0, 0.5), tree.supervisor: (0.8, -0.5)}
        return SimConfig(episodes, seed, Gaussian(c=2.0), tree, strategies)

    def test_anchor_value(self):
        rep = simulate_quant(self.quant_config())
        (row,) = rep.rows
        assert row.analytic == pytest.approx(5.28, rel=1e-15)
        assert abs(row.z) <= 3.0

    def test_zero_noise_is_exact(self):
        tree = build_supervision_tree(1, 2, seed=0)
        cfg = SimConfig(1_000, 0, Gaussian(c=2.0), tree, {"w0": (0.0, 0.0)})
        (row,) = simulate_quant(cfg).rows
        assert row.empirical == 0.0 and row.z == 0.0

    def test_dispatch(self):
        rep = simulate(self.quant_config(episodes=5_000))
        assert rep.rows[0].analytic == pytest.approx(5.28)
        rep2 = simulate(tree_config(episodes=5_000))
        assert rep2.rows[0].analytic == pytest.approx(2.0)

    def test_sigma_bias_validation(self):
        tree = build_supervision_tree(1, 2, seed=0)
        with pytest.raises(ModelMismatchError):
            simulate_quant(SimConfig(100, 0, Gaussian(c=2.0), tree, {"w0": (-1.0, 0.0)}))
        with pytest.raises(ModelMismatchError):
            simulate_quant(SimConfig(100, 0, Gaussian(c=2.0), tree, {"w0": 0.5}))


class TestSweeps:
    def test_flat_sweep_finds_the_best_response(self):
        f = SL(1.0)
        pr = SchemeParams(k=2, epsilon=0.25, C=10.0)
        grid = [round(0.3 + 0.005 * i, 10) for i in range(41)]
        for seed in (0, 1, 2, 3):
            res = sweep_flat(f, pr, p=0.5, grid=grid, episodes=200_000, seed=seed)
            assert abs(res.best_value - 0.4) <= 0.016  # three grid steps of sampling noise
            assert res.mean_losses[res.best_index] == min(res.mean_losses)

    def test_pair_sweep_finds_the_best_response(self):
        f = SL(1.0)
        pr = SchemeParams(k=2, epsilon=0.25, C=16.0, D=0.0)
        grid = [round(0.05 + 0.005 * i, 10) for i in range(41)]
        for seed in (0, 1, 2, 3):
            res = sweep_pair(f, pr, e_w=0.0, grid=grid, episodes=200_000, seed=seed)
            assert abs(res.best_index - grid.index(0.125)) <= 1  # one grid step of sampling noise

    def test_quant_sweep_ignores_the_superior(self):
        grid = [round(1.0 + 0.05 * i, 10) for i in range(41)]
        for seed in (0, 1, 2):
            r1 = sweep_quant(IP(1.0), k=4, c=1.0, grid=grid, episodes=100_000, seed=seed, sigma_w=0.5)
            r2 = sweep_quant(IP(1.0), k=4, c=1.0, grid=grid, episodes=100_000, seed=seed, sigma_w=2.0)
            assert abs(r1.best_value - 2.0) <= 0.1
            assert r1.best_index == r2.best_index

    def test_grid_validation(self):
        with pytest.raises(SuperviseError):
            sweep_flat(SL(1.0), SchemeParams(k=2, epsilon=0.25, C=10.0), 0.5, [0.4], 100, 0)
        with pytest.raises(SuperviseError):
            sweep_pair(SL(1.0), SchemeParams(k=2, epsilon=0.25, C=10.0), 1.5, [0.3, 0.4], 100, 0)
        with pytest.raises(EffortDomainError):
            sweep_quant(IP(1.0), k=4, c=1.0, grid=[-1.0, 1.0], episodes=100, seed=0)

    def test_episode_floor(self):
        cfg = tree_config(episodes=2)
        assert cfg.episodes == 2
        with pytest.raises(SuperviseError):
            tree_config(episodes=1)


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _pinned_outputs():
    """The outputs pinned below, at fixed seeds: CSV reports and sweep losses."""
    binary_tree = tree_config(episodes=3_000, seed=7, n_tasks=27, k=3, e=0.1, m=3, C=4.0)
    tree = build_supervision_tree(27, 3, seed=2)
    workers = sorted(n for lv in tree.levels[:-1] for n in lv)
    gaussian = {w: (0.5 + 0.1 * i, 0.2 * (i % 3 - 1)) for i, w in enumerate(workers)}
    peg = build_peg_assignment(6, 5, 3, seed=3)
    h = build_supervision_hierarchy(peg.graph, k=2, seed=3)
    hier = {n: 0.05 for lv in h.tree.levels[:-1] for n in lv}
    hier.update({w: 0.2 for w in h.graph.workers})
    grid = [0.1 + 0.05 * i for i in range(8)]
    return {
        "binary_tree": simulate_binary(binary_tree).to_csv(),
        "quant_tree": simulate_quant(SimConfig(3_000, 8, Gaussian(c=1.5), tree, gaussian)).to_csv(),
        "binary_hierarchy": simulate_binary(SimConfig(3_000, 9, UniformWrong(m=2, C=16.0), h, hier)).to_csv(),
        "sweep_flat": repr(
            sweep_flat(SL(1.0), SchemeParams(k=2, epsilon=0.25, C=10.0), 0.5, grid, 5_000, 4).mean_losses
        ),
        "sweep_pair": repr(
            sweep_pair(SL(1.0), SchemeParams(k=2, epsilon=0.25, C=16.0, m=3), 0.1, grid, 5_000, 5).mean_losses
        ),
        "sweep_quant": repr(sweep_quant(IP(1.0), 4, 1.0, grid, 5_000, 6, sigma_w=0.7, bias_w=0.3).mean_losses),
    }


# sha256 of each output: the flat and quadratic sweeps' taken before the two simulators and the three sweep loops
# became one, the pair sweep's when it stopped drawing its unread truth, the two binary reports' when their rows
# came from counts, the Gaussian report's when each task was drawn relative to its roots, one normal array a row; a
# change to the RNG stream must update these on purpose
PINNED_SHA256 = {
    "binary_hierarchy": "8936a0b4b20729439d5f382fb276349c16bd4fb674f3fe1455b6dddb04fead7b",
    "binary_tree": "7c9d2677662ca8a67b79eb81736fcee088bd8360444bc37ca55011c930fa6ad6",
    "quant_tree": "242d6953079a653cb01a76a602ed12ee4523ec78ab94b0b8988121d3fc348987",
    "sweep_flat": "5a8f02c9eb313510c57e7bccbea82512d689bf87657b37cbd6b03fd172f5abce",
    "sweep_pair": "00672ee622c9214a98cd6f44ab3c826f6f38aaaee7ddcf68bccd8c3d7c9facdb",
    "sweep_quant": "e7a8b9309cbf56f88f303376458b85b9ef2511da51b301a1d6a7310dc40970e3",
}


@pytest.fixture(scope="module")
def pinned_outputs():
    return _pinned_outputs()


def test_the_frozen_dense_engine_gives_the_binary_bytes_of_its_time():
    """The binary reports' digests before their rows came from counts, from the frozen dense engine."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys.modules[__name__], "simulate_binary", _oracles.simulate_dense_binary)
        outputs = _pinned_outputs()
    assert _sha(outputs["binary_tree"]) == "021356f0b5aab8987d0b5169f11ef281ea61f927903868bfc8df99fef34bbe9d"
    assert _sha(outputs["binary_hierarchy"]) == "f3cbe7346b56d0390e799420c56a68485c8664ea99169ba72ab1ad8a8b967980"


@pytest.mark.parametrize("name", sorted(PINNED_SHA256))
def test_pinned_bytes(pinned_outputs, name):
    assert _sha(pinned_outputs[name]) == PINNED_SHA256[name]


def _same_bits(a: float, b: float) -> bool:
    """Equal bit patterns, any NaN matching any NaN (one episode's ddof=1 stderr is NaN)."""
    return struct.pack("<d", a) == struct.pack("<d", b) or (math.isnan(a) and math.isnan(b))


@settings(max_examples=300, derandomize=True)
@given(
    m=st.one_of(st.integers(2, 6), st.just(2**62)),
    n=st.integers(1, 500),
    mask=st.sampled_from(["all wrong", "none wrong", "random"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_array_method_helpers_match_the_frozen_originals(m, n, mask, seed):
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, m, size=n)
    offset = rng.integers(1, m, size=n)
    if mask == "random":
        wrong = rng.random(n) < rng.random()
    else:
        wrong = np.full(n, mask == "all wrong")
    # the in-place helper takes offsets zeroed where the answer is right, and overwrites them
    answers = _oracles._offset_answers_in_place(truth, offset * wrong, m, np.empty(n))
    want = _oracles._offset_answers(truth, wrong, offset, m)
    assert answers.dtype == want.dtype and np.array_equal(answers, want)
    # the two penalty kinds simulate summarises: scaled disagreements and squared differences; the helper
    # overwrites its argument, so it gets a copy
    for penalty in (1.5 * (answers != truth), (answers - truth + rng.standard_normal(n)) ** 2):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got, ref = _mean_stderr(penalty.copy()), _oracles._mean_stderr(penalty)
        assert all(map(_same_bits, got, ref)), (got, ref)


@pytest.mark.parametrize("m", [2, 3, 5])
@pytest.mark.parametrize("e", [0.0, 0.3, 1.0])
def test_binary_answers_match_the_sampler_that_draws_offsets(m, e):
    """The sampler draws offsets from the truth, and skips ``integers(1, 2)`` at m = 2, which draws nothing: added
    to any truth mod m, its offsets are the answers of the frozen sampler that draws them on that truth at every m,
    and the generator's state after the call is that sampler's."""
    n = 1000
    truth = np.random.default_rng(1).integers(0, m, size=n)
    got_rng, want_rng = np.random.default_rng(7), np.random.default_rng(7)
    offsets = _offsets(got_rng, e, m, n)
    assert offsets.dtype == (bool if m == 2 else np.int64)
    want = _oracles.sample_binary_answers_with_offsets(want_rng, truth, e, m, _oracles.DenseWork(n))
    assert np.array_equal((truth + offsets) % m, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


_STRUCTURES = st.one_of(
    st.builds(build_supervision_tree, st.integers(1, 30), st.integers(2, 4), st.integers(0, 2**16)),
    st.builds(
        lambda n, seed: build_supervision_hierarchy(build_peg_assignment(n, n, 3, seed=seed).graph, k=2, seed=seed),
        st.integers(3, 12), st.integers(0, 2**16),
    ),
)


@settings(max_examples=150, derandomize=True)
@given(
    structure=_STRUCTURES,
    model=st.builds(UniformWrong, st.one_of(st.integers(2, 6), st.just(2**62)), st.floats(0.1, 100.0)),
    episodes=st.one_of(st.just(2), st.integers(3, 300)),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_reused_arrays_give_the_frozen_engines_rows_to_the_bit(structure, model, episodes, seed, data):
    """Binary rows come from counts, which share no draws with the frozen engine: each row is its row in worker,
    level and analytic column, and a count's row, the mean and ddof=1 stderr of n values C and N - n zeros for an
    integer n in [0, N], to 1e-12 of each or of C (the array summary's mean may round off C, and leave a stderr of a
    few ulps where the count's is 0).  Gaussian rows are drawn relative to each task's roots, so they share no
    draws with it either; ``test_gaussian_answer_gaps_have_the_exact_joint_law`` and
    ``test_gaussian_rows_match_the_frozen_answer_engine_over_seeds`` check their law."""
    _, pairs = _oracles._supervision_pairs(structure)
    workers = sorted({w for p, c, _, _ in pairs for w in (p, c)})
    strategies = {w: data.draw(st.floats(0.0, 1.0)) for w in workers}
    config = SimConfig(episodes, seed, model, structure, strategies)
    old = _oracles.simulate_task_by_task(config).rows
    new = simulate(config).rows
    assert [r[:2] + r[4:5] for r in new] == [r[:2] + r[4:5] for r in old]
    for r in new:
        n = round(r.empirical * episodes / model.C)
        assert 0 <= n <= episodes
        mean, stderr = _oracles._mean_stderr(np.where(np.arange(episodes) < n, model.C, 0.0))
        close = lambda a, b: math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12 * model.C)  # noqa: E731
        assert close(r.empirical, mean) and close(r.stderr, stderr), r


def _uniforms(kind: str, m: int, n: int, seed: int) -> np.ndarray:
    """The worker's uniforms a binary sweep draws, replayed from its draw order."""
    rng = np.random.default_rng(seed)
    if kind == "pair":
        rng.random(n)  # the superior's uniforms and offsets
        rng.integers(1, m, size=n)
    else:
        rng.random(n)  # whether each episode is checked
    return rng.random(n)


@settings(max_examples=200, derandomize=True)
@given(
    kind=st.sampled_from(["flat", "pair"]),
    m=st.one_of(st.integers(2, 6), st.just(2**62)),
    above_one=st.booleans(),
    episodes=st.integers(1, 400),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_sorted_binary_sweeps_give_the_frozen_losses_to_the_bit(kind, m, above_one, episodes, seed, data):
    # points above 1 need an effort curve defined there; a tie is a point equal to a drawn uniform
    f, hi = (IP(0.5), 3.0) if above_one else (SL(1.0), 1.0)
    points = data.draw(st.lists(st.floats(1e-9, hi), min_size=1, max_size=10))
    u = _uniforms(kind, m, episodes, seed)
    ties = data.draw(st.lists(st.integers(0, episodes - 1), max_size=3))
    grid = points + [float(u[j]) for j in ties]
    grid += data.draw(st.lists(st.sampled_from(grid), min_size=1, max_size=3))  # duplicate points
    grid = data.draw(st.permutations(grid))
    C = data.draw(st.floats(0.1, 100.0))
    if kind == "flat":
        params, p = SchemeParams(k=2, epsilon=0.25, C=C), data.draw(st.floats(0.0, 1.0))
        got = sweep_flat(f, params, p, grid, episodes, seed).mean_losses
        want = _oracles.sweep_flat_losses(f, params, p, grid, episodes, seed)
    else:
        # the frozen sweep adds a truth to the offsets; drawn from a generator of its own, it leaves the stream
        # the library's, and two answers on any truth differ as their offsets do
        params, e_w = SchemeParams(k=2, epsilon=0.25, C=C, m=m), data.draw(st.floats(0.0, 1.0))
        truth_rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="truth seed"))
        got = sweep_pair(f, params, e_w, grid, episodes, seed).mean_losses
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_oracles, "pair_truth", lambda rng, m, n: truth_rng.integers(0, m, size=n))
            want = _oracles.sweep_pair_losses(f, params, e_w, grid, episodes, seed)
    assert all(map(_same_bits, got, want)), (got, want)


@settings(max_examples=100, derandomize=True)
@given(
    points=st.lists(st.floats(1e-6, 50.0), min_size=1, max_size=8),
    episodes=st.integers(1, 400),
    seed=st.integers(0, 2**32 - 1),
    c=st.floats(0.1, 10.0),
    sigma_w=st.floats(0.0, 5.0),
    bias_w=st.floats(-2.0, 2.0),
)
def test_reused_quant_sweep_gives_the_frozen_losses_to_the_bit(points, episodes, seed, c, sigma_w, bias_w):
    grid = points + points[:1]  # a duplicate point; points above 1 under inverse_power
    got = sweep_quant(IP(1.0), 3, c, grid, episodes, seed, sigma_w, bias_w).mean_losses
    want = _oracles.sweep_quant_losses(IP(1.0), 3, c, grid, episodes, seed, sigma_w, bias_w)
    assert all(map(_same_bits, got, want)), (got, want)
