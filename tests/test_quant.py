"""Quantitative (real-valued) answers with quadratic disagreement penalties."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from supervise import (
    AssumptionError,
    EffortFunction,
    QuantWorkerType,
    SuperviseError,
    best_response_quant,
    expected_penalty_quant,
    quant_equilibrium,
)

from _oracles import effort_vec, grid_argmin

IP = EffortFunction.inverse_power


class TestPenalty:
    def test_worked_value(self):
        assert expected_penalty_quant(1.0, 0.5, 0.8, -0.5, c=2.0) == pytest.approx(5.28, rel=1e-15)

    def test_zero_when_both_exact(self):
        assert expected_penalty_quant(0.0, 0.0, 0.0, 0.0, c=3.0) == 0.0

    def test_shared_bias_cancels(self):
        # equal biases subtract out of the disagreement
        a = expected_penalty_quant(1.0, 0.7, 0.5, 0.7, c=1.0)
        b = expected_penalty_quant(1.0, 0.0, 0.5, 0.0, c=1.0)
        assert a == pytest.approx(b, rel=1e-15)

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(123)
        n = 400_000
        t = rng.standard_normal(n)
        x = t + 0.5 + 1.0 * rng.standard_normal(n)
        y = t - 0.5 + 0.8 * rng.standard_normal(n)
        pen = 2.0 * (x - y) ** 2
        se = float(np.std(pen, ddof=1) / math.sqrt(n))
        assert abs(float(np.mean(pen)) - 5.28) <= 4.0 * se

    def test_validation(self):
        with pytest.raises(SuperviseError):
            expected_penalty_quant(-1.0, 0.0, 0.5, 0.0, c=1.0)
        with pytest.raises(SuperviseError):
            expected_penalty_quant(1.0, 0.0, 0.5, 0.0, c=0.0)


class TestBestResponse:
    def test_worked_values(self):
        assert best_response_quant(IP(1.0), k=4, c=1.0).value == 2.0
        assert best_response_quant(IP(1.0), k=1, c=4.0).value == 0.5

    def test_independent_of_superior_by_signature(self):
        # the quadratic loss separates: no superior argument even exists
        import inspect

        sig = inspect.signature(best_response_quant)
        assert set(sig.parameters) == {"f", "k", "c"}

    @given(
        st.floats(min_value=0.1, max_value=10.0),
        st.integers(min_value=1, max_value=8),
        st.floats(min_value=0.1, max_value=10.0),
    )
    def test_monotone_in_k_and_c(self, alpha, k, c):
        v = best_response_quant(IP(alpha), k=k, c=c).value
        assert best_response_quant(IP(alpha), k=k + 1, c=c).value > v
        assert best_response_quant(IP(alpha), k=k, c=c * 2.0).value < v

    def test_matches_grid(self):
        rng = np.random.default_rng(5)
        for _ in range(150):
            alpha = float(rng.uniform(0.2, 5.0))
            k = int(rng.integers(1, 6))
            c = float(rng.uniform(0.2, 5.0))
            f = IP(alpha)
            r = best_response_quant(f, k=k, c=c)

            def loss(xs):
                return k * effort_vec(f, xs) + c * xs

            hi = 2.0 * r.value + 1.0
            got, step = grid_argmin(loss, hi * 1e-7, hi, 10_001)
            assert abs(r.value - got) <= step


class TestEquilibrium:
    def pop(self, biases=(0.3, -0.3), alphas=(1.0, 1.0)):
        return (
            (QuantWorkerType(IP(alphas[0]), bias=biases[0], id="a"), 0.5),
            (QuantWorkerType(IP(alphas[1]), bias=biases[1], id="b"), 0.5),
        )

    def test_constant_across_levels(self):
        eq = quant_equilibrium(self.pop(), k=4, c=1.0, epsilon=2.5, depth=6)
        rows = [line.split(",") for line in "".join(eq.csv_chunks()).splitlines()[1:]]
        assert [(r[0], r[1]) for r in rows] == [(tp.worker.id, str(t)) for tp in eq.types for t in range(1, 7)]
        for tp in eq.types:
            vs = {float(r[2]) for r in rows if r[0] == tp.worker.id}
            assert vs == {tp.vstar} == {2.0}  # exact equality, not approximate

    def test_truthful_iff_below_threshold(self):
        eq = quant_equilibrium(self.pop(), k=4, c=1.0, epsilon=2.5, depth=3)
        assert eq.all_truthful
        eq2 = quant_equilibrium(self.pop(), k=4, c=1.0, epsilon=1.5, depth=3)
        assert not eq2.all_truthful
        assert all(line.endswith(",false") for line in "".join(eq2.csv_chunks()).splitlines()[1:])

    def test_mixed_proficiency(self):
        eq = quant_equilibrium(self.pop(alphas=(1.0, 9.0)), k=1, c=1.0, epsilon=2.0, depth=2)
        a, b = eq.types
        assert a.truthful and a.vstar == 1.0
        assert not b.truthful and b.vstar == 3.0

    def test_bias_must_cancel_on_average(self):
        with pytest.raises(AssumptionError):
            quant_equilibrium(self.pop(biases=(0.3, -0.1)), k=4, c=1.0, epsilon=2.5, depth=3)
        with pytest.raises(AssumptionError):  # a net bias of either sign
            quant_equilibrium(self.pop(biases=(-0.3, 0.1)), k=4, c=1.0, epsilon=2.5, depth=3)

    def test_a_small_net_bias_is_refused_too(self):
        """A mean bias of 5e-7 lies far above the gate's float tolerance, though a loose one would take it."""
        with pytest.raises(AssumptionError):
            quant_equilibrium(self.pop(biases=(1e-6, 0.0)), k=4, c=1.0, epsilon=2.5, depth=3)

    def test_symmetric_biases_pass_the_gate(self):
        eq = quant_equilibrium(self.pop(biases=(0.8, -0.8)), k=4, c=1.0, epsilon=2.5, depth=2)
        assert eq.all_truthful

    def test_weights_checked(self):
        bad = ((QuantWorkerType(IP(1.0), id="a"), 0.7), (QuantWorkerType(IP(1.0), id="b"), 0.7))
        with pytest.raises(SuperviseError):
            quant_equilibrium(bad, k=4, c=1.0, epsilon=2.5, depth=2)

    def test_csv_shape(self):
        eq = quant_equilibrium(self.pop(), k=4, c=1.0, epsilon=2.5, depth=2)
        lines = "".join(eq.csv_chunks()).splitlines()
        assert lines[0] == "type,level,vstar,truthful"
        assert lines[1] == "a,1,2.0,true"
        assert len(lines) == 1 + 2 * 2
