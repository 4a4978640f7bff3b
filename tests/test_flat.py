"""Flat spot-check scheme: probability bounds, losses, best responses."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from supervise import (
    EffortFunction,
    NoIncentiveError,
    SchemeParams,
    best_response_flat,
    best_response_flat_quant,
    expected_loss_flat,
    expected_loss_flat_quant,
    min_verification_probability_binary,
    min_verification_probability_quant,
)

from _oracles import effort_vec, grid_argmin


class TestBound:
    def test_worked_value(self):
        f = EffortFunction.simple_log(1.0)
        b = min_verification_probability_binary(f, SchemeParams(k=3, epsilon=0.1, C=100.0))
        assert b.bound == pytest.approx(0.3, rel=1e-15)
        assert b.feasible
        assert float(b) == b.bound

    def test_infeasible_when_above_one(self):
        f = EffortFunction.simple_log(1.0)
        b = min_verification_probability_binary(f, SchemeParams(k=3, epsilon=0.1, C=10.0))
        assert b.bound == pytest.approx(3.0)
        assert not b.feasible

    def test_boundary_bound_of_one_is_feasible(self):
        f = EffortFunction.simple_log(1.0)
        b = min_verification_probability_binary(f, SchemeParams(k=3, epsilon=0.1, C=30.0))
        assert b.bound == pytest.approx(1.0)
        assert b.feasible

    def test_quant_uses_weight_c(self):
        f = EffortFunction.inverse_power(1.0)
        b = min_verification_probability_quant(f, SchemeParams(k=2, epsilon=2.0, c=1.0))
        # -f'(2) = 1/4, times k/c = 2
        assert b.bound == pytest.approx(0.5)


class TestLossAndBestResponse:
    def test_loss_worked_value(self):
        f = EffortFunction.simple_log(1.0)
        loss = expected_loss_flat(f, e=0.5, p=0.5, params=SchemeParams(k=2, epsilon=0.25, C=10.0))
        assert loss == pytest.approx(2.0 * math.log(2.0) + 2.5, rel=1e-15)

    def test_quant_loss_worked_value(self):
        f = EffortFunction.inverse_power(2.0)
        loss = expected_loss_flat_quant(f, v=0.5, p=0.25, params=SchemeParams(k=3, epsilon=1.0, c=8.0))
        assert loss == pytest.approx(3 * (2.0 / 0.5) + 0.5 * 0.25 * 8.0, rel=1e-15)

    def test_best_response_worked_value(self):
        f = EffortFunction.simple_log(1.0)
        r = best_response_flat(f, p=0.5, params=SchemeParams(k=2, epsilon=0.25, C=10.0))
        assert r.value == pytest.approx(0.4, rel=1e-15)
        assert not r.clamped

    def test_quant_best_response(self):
        f = EffortFunction.inverse_power(1.0)
        r = best_response_flat_quant(f, p=0.5, params=SchemeParams(k=2, epsilon=1.0, c=4.0))
        # f'(v) = -p c / k = -1  ->  v = 1
        assert r.value == pytest.approx(1.0, rel=1e-15)

    def test_no_incentive_without_checks(self):
        f = EffortFunction.simple_log(1.0)
        with pytest.raises(NoIncentiveError):
            best_response_flat(f, p=0.0, params=SchemeParams(k=2, epsilon=0.25, C=10.0))
        with pytest.raises(NoIncentiveError):
            best_response_flat_quant(f, p=-0.1, params=SchemeParams(k=2, epsilon=0.25, c=10.0))

    def test_weak_incentive_clamps_to_max_error(self):
        f = EffortFunction.simple_log(1.0)
        r = best_response_flat(f, p=0.01, params=SchemeParams(k=2, epsilon=0.25, C=10.0))
        assert r.value == 1.0 and r.clamped

    @given(
        st.floats(min_value=0.2, max_value=5.0),
        st.integers(min_value=1, max_value=5),
        st.floats(min_value=0.02, max_value=0.45),
        st.floats(min_value=1.001, max_value=50.0),
    )
    def test_bound_is_the_incentive_threshold(self, alpha, k, eps, margin):
        f = EffortFunction.simple_log(alpha)
        params = SchemeParams(k=k, epsilon=eps, C=200.0 * alpha)
        b = min_verification_probability_binary(f, params)
        if b.bound * margin <= 1.0:
            above = best_response_flat(f, b.bound * margin, params)
            assert above.value < eps
        if b.bound / margin > 0.0:
            below = best_response_flat(f, b.bound / margin, params)
            assert below.value >= eps

    def test_best_response_matches_grid(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            alpha = float(rng.uniform(0.2, 5.0))
            k = int(rng.integers(1, 6))
            C = float(rng.uniform(5.0, 60.0))
            p = float(rng.uniform(0.05, 1.0))
            f = EffortFunction.simple_log(alpha)
            params = SchemeParams(k=k, epsilon=0.25, C=C)
            r = best_response_flat(f, p, params)

            def loss(xs):
                return k * effort_vec(f, xs) + xs * p * C

            got, step = grid_argmin(loss, 1e-6, 1.0, 10_001)
            if r.clamped:
                assert got >= 1.0 - step
            else:
                assert abs(r.value - got) <= step
