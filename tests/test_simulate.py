"""Monte Carlo engine: sampled penalties against the analytic expectations."""

import hashlib
import math
import statistics
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supervise import (
    EffortDomainError,
    EffortFunction,
    Gaussian,
    ModelMismatchError,
    SchemeParams,
    SimConfig,
    SuperviseError,
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
from supervise.simulate import _mean_stderr, _offset_answers, _sample_binary_answers, _Work

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
        rng = np.random.default_rng(17)
        n = 200_000
        truth = rng.integers(0, 2, size=n)
        work = _Work(n)
        a = _sample_binary_answers(rng, truth, 0.3, 2, work) == truth
        b = _sample_binary_answers(rng, truth, 0.4, 2, work) == truth
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


def test_memory_holds_one_task_at_a_time():
    """The deepest task of an 81-task tree has four performers, and a run peaks near 7 arrays of ``episodes``
    values; the engine that held every task's arrays at once peaked near 96."""
    tree = build_supervision_tree(81, 3, seed=1)
    strategies = {n: 0.1 for lv in tree.levels[:-1] for n in lv}
    config = SimConfig(20_000, 0, UniformWrong(m=3, C=1.0), tree, strategies)
    simulate(SimConfig(2, 0, config.answer_model, tree, strategies))  # numpy's first draws import modules
    tracemalloc.start()
    try:
        simulate(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * config.episodes * 8, peak / (config.episodes * 8)


@pytest.mark.parametrize("model", [UniformWrong(m=3, C=1.0), Gaussian(c=1.0)], ids=["binary", "gaussian"])
def test_memory_stays_within_eight_episode_arrays(model):
    """The reused arrays add about three to the deepest task's truth and four answers: about 7.1 arrays."""
    tree = build_supervision_tree(81, 3, seed=1)
    s = 0.1 if isinstance(model, UniformWrong) else (0.5, 0.1)
    strategies = {n: s for lv in tree.levels[:-1] for n in lv}
    config = SimConfig(20_000, 0, model, tree, strategies)
    simulate(SimConfig(2, 0, model, tree, strategies))  # numpy's first draws import modules
    tracemalloc.start()
    try:
        simulate(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * config.episodes * 8, peak / (config.episodes * 8)


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
            assert abs(res.best_value - 0.125) <= 0.005

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


# sha256 of each output: the sweeps' taken before the two simulators and the three sweep loops became one, the
# three reports' when the engine began drawing one task at a time; a change to the RNG stream must update these on
# purpose
PINNED_SHA256 = {
    "binary_hierarchy": "ed6c0310049665f7191892ffaa8fb5971ed2cfe02e1d45517d79c78a141ebd2d",
    "binary_tree": "1826649744171de450a68d50630efab6d04e5b2e1ff306aeccb533d401dbc31e",
    "quant_tree": "c21f9e5f7b0c8964a53c192ae14c7900bbb12afa4963676816d8d6607d2abc15",
    "sweep_flat": "5a8f02c9eb313510c57e7bccbea82512d689bf87657b37cbd6b03fd172f5abce",
    "sweep_pair": "4faefb93422115799f0bdd724281006713b0fc176ba44d8d89d8d71c1020e3f4",
    "sweep_quant": "e7a8b9309cbf56f88f303376458b85b9ef2511da51b301a1d6a7310dc40970e3",
}


@pytest.fixture(scope="module")
def pinned_outputs():
    return _pinned_outputs()


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
    answers = _offset_answers(truth, offset * wrong, m, np.empty(n))
    want = _oracles._offset_answers(truth, wrong, offset, m)
    assert answers.dtype == want.dtype and np.array_equal(answers, want)
    # the two penalty kinds simulate summarises: scaled disagreements and squared differences; the helper
    # overwrites its argument, so it gets a copy
    for penalty in (1.5 * (answers != truth), (answers - truth + rng.standard_normal(n)) ** 2):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got, ref = _mean_stderr(penalty.copy()), _oracles._mean_stderr(penalty)
        assert all(map(_same_bits, got, ref)), (got, ref)


def _same_row(a, b) -> bool:
    return a[:2] == b[:2] and all(map(_same_bits, a[2:], b[2:]))


_STRUCTURES = st.one_of(
    st.builds(build_supervision_tree, st.integers(1, 30), st.integers(2, 4), st.integers(0, 2**16)),
    st.builds(
        lambda n, seed: build_supervision_hierarchy(build_peg_assignment(n, n, 3, seed=seed).graph, k=2, seed=seed),
        st.integers(3, 12), st.integers(0, 2**16),
    ),
)
_MODELS = st.one_of(
    st.builds(UniformWrong, st.one_of(st.integers(2, 6), st.just(2**62)), st.floats(0.1, 100.0)),
    st.builds(Gaussian, st.floats(0.1, 100.0)),
)


@settings(max_examples=150, derandomize=True)
@given(
    structure=_STRUCTURES,
    model=_MODELS,
    episodes=st.one_of(st.just(2), st.integers(3, 300)),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_reused_arrays_give_the_frozen_engines_rows_to_the_bit(structure, model, episodes, seed, data):
    _, pairs = _oracles._supervision_pairs(structure)
    workers = sorted({w for p, c, _, _ in pairs for w in (p, c)})
    if isinstance(model, UniformWrong):
        one = st.floats(0.0, 1.0)
    else:
        one = st.tuples(st.floats(0.0, 5.0), st.floats(-2.0, 2.0))
    strategies = {w: data.draw(one) for w in workers}
    config = SimConfig(episodes, seed, model, structure, strategies)
    new, old = simulate(config).rows, _oracles.simulate_task_by_task(config).rows
    assert len(new) == len(old) and all(map(_same_row, new, old)), (new, old)


def _uniforms(kind: str, m: int, n: int, seed: int) -> np.ndarray:
    """The worker's uniforms a binary sweep draws, replayed from its draw order."""
    rng = np.random.default_rng(seed)
    if kind == "pair":
        rng.integers(0, m, size=n)  # the truth, then the superior's uniforms and offsets
        rng.random(n)
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
        params, e_w = SchemeParams(k=2, epsilon=0.25, C=C, m=m), data.draw(st.floats(0.0, 1.0))
        got = sweep_pair(f, params, e_w, grid, episodes, seed).mean_losses
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
