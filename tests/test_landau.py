import math

import mpmath
import numpy as np
import pytest
from scipy.special import eval_hermite, factorial

from kleinb import (
    InvalidSpinIndex,
    OscillatorRange,
    Regime,
    Spin,
    amplitudes,
    classify,
    current_budget,
    eval_oscillator,
    level_energy,
    make_channel,
    momentum_left,
    momentum_right,
)
from kleinb.landau import MAX_OSCILLATOR_INDEX


def oscillator_explicit(n, x):
    """Independent route: raw Hermite polynomial times the Gaussian."""
    norm = math.sqrt(2.0 ** n * float(factorial(n, exact=True)) * math.sqrt(math.pi))
    return eval_hermite(n, x) * np.exp(-0.5 * np.asarray(x) ** 2) / norm


class TestOscillator:
    def test_ground_state_at_origin(self):
        assert eval_oscillator(0, 0.0) == pytest.approx(math.pi ** -0.25, abs=1e-15)

    def test_first_state_is_odd(self):
        assert eval_oscillator(1, 0.0) == 0.0

    def test_absent_component_convention(self):
        assert eval_oscillator(-1, 0.7) == 0.0
        assert np.all(eval_oscillator(-1, np.linspace(-5, 5, 11)) == 0.0)

    def test_frozen_high_precision_values(self):
        # 50-digit Hermite-summation values
        assert eval_oscillator(5, 1.3) == pytest.approx(-0.3993914628137507346, rel=1e-14)
        assert eval_oscillator(12, -2.1) == pytest.approx(-0.2705487198239572140, rel=1e-13)
        assert eval_oscillator(30, 3.7) == pytest.approx(0.2677943639045690508, rel=1e-13)

    def test_recurrence_matches_explicit_formula(self):
        x = np.linspace(-6.0, 6.0, 241)
        for n in range(0, 31):
            got = eval_oscillator(n, x)
            want = oscillator_explicit(n, x)
            scale = np.abs(want).max()
            assert np.abs(got - want).max() < 1e-12 * scale, f"n = {n}"

    def test_orthonormal_under_gauss_hermite(self):
        nodes, weights = np.polynomial.hermite.hermgauss(64)
        table = np.array([eval_oscillator(n, nodes) for n in range(31)])
        # Phi_m Phi_n e^{x^2} is a polynomial: 64 nodes integrate it exactly
        overlap = np.einsum("k,mk,nk->mn", weights * np.exp(nodes ** 2), table, table)
        assert np.abs(overlap - np.eye(31)).max() < 1e-10

    def test_scalar_and_array_shapes(self):
        assert isinstance(eval_oscillator(3, 0.5), float)
        out = eval_oscillator(3, np.zeros((7,)))
        assert out.shape == (7,)

    def test_far_tail_underflows_to_zero(self):
        assert eval_oscillator(4, 60.0) == 0.0

    def test_range_guards(self):
        with pytest.raises(OscillatorRange):
            eval_oscillator(MAX_OSCILLATOR_INDEX + 1, 0.0)
        with pytest.raises(OscillatorRange):
            eval_oscillator(2, 2e4)
        with pytest.raises(InvalidSpinIndex):
            eval_oscillator(-2, 0.0)
        with pytest.raises(ValueError):
            eval_oscillator(2, math.nan)

    def test_stable_upper_range(self):
        # top of the documented range evaluates to finite values
        x = np.linspace(-25, 25, 501)
        vals = eval_oscillator(MAX_OSCILLATOR_INDEX, x)
        assert np.all(np.isfinite(vals))
        assert np.abs(vals).max() < 1.0


class TestLevelEnergy:
    def test_lowest_level_field_independent(self):
        for b in (0.0, 0.3, 1.0):
            assert level_energy(Spin.DOWN, 0, 0.0, b) == 1.0

    def test_degenerate_pair(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 15))
            cp = float(rng.uniform(0, 3))
            b = float(rng.uniform(0, 1))
            v = float(rng.uniform(0, 5))
            assert level_energy(Spin.UP, n - 1, cp, b, v) == level_energy(Spin.DOWN, n, cp, b, v)

    def test_direct_value(self):
        assert level_energy(Spin.UP, 0, 1.0, 0.5, 2.0) == pytest.approx(2.0 + math.sqrt(3.0))

    def test_invalid_index(self):
        with pytest.raises(InvalidSpinIndex):
            level_energy(Spin.UP, -1, 1.0, 0.5)
        with pytest.raises(ValueError):
            level_energy(Spin.DOWN, 1, -0.5, 0.5)


class TestMomenta:
    def test_left_momentum_values(self):
        assert momentum_left(make_channel(math.sqrt(2), 0.0, 0.0, Spin.DOWN, 0)) == pytest.approx(1.0)
        p = make_channel(2.5, 0.0, 0.01, Spin.DOWN, 3)
        assert momentum_left(p) == pytest.approx(2.2781571499789035, rel=1e-15)

    def test_left_momentum_dispersion_identity(self, param_grid):
        for p in param_grid[:200]:
            cp = momentum_left(p)
            assert abs(cp * cp + 1.0 + p.C - p.E * p.E) <= 8 * np.finfo(float).eps * p.E * p.E

    def test_threshold_limit(self):
        b, n = 0.3, 2
        m = math.sqrt(1.0 + 2 * b * n)
        p = make_channel(m * (1.0 + 1e-12), 0.0, b, Spin.DOWN, n)
        assert 0.0 < momentum_left(p) < 3e-6

    def test_right_momentum_above_step(self):
        q = momentum_right(make_channel(5.0, 2.0, 0.0, Spin.DOWN, 0))
        assert q == pytest.approx(2.0 * math.sqrt(2.0))
        assert q.imag == 0.0

    def test_right_momentum_inside_step(self):
        q = momentum_right(make_channel(2.0, 5.0, 0.0, Spin.DOWN, 0))
        assert q.real == pytest.approx(-2.0 * math.sqrt(2.0))
        assert q.imag == 0.0

    def test_right_momentum_evanescent(self):
        q = momentum_right(make_channel(2.0, 2.0, 0.0, Spin.DOWN, 0))
        assert q == pytest.approx(1j)

    def test_branch_rule_on_grid(self, param_grid):
        for p in param_grid:
            q = momentum_right(p)
            regime = classify(p)
            if regime is Regime.CASE_III:
                assert q.real == 0.0 and q.imag >= 0.0
            else:
                # transmitted group velocity q/(E - V0) points rightward
                assert q.imag == 0.0
                assert q.real * (p.E - p.V0) > 0.0


class TestThresholdCancellation:
    """cp and cq next to |x| = 1 at b = 0, where x^2 - 1 would cancel,
    against a 60-digit reference on the same binary inputs."""

    @staticmethod
    def reference(E, V0):
        with mpmath.workdps(60):
            e, v = mpmath.mpf(E), mpmath.mpf(V0)
            cp = mpmath.sqrt(e * e - 1)
            q2 = (e - v) ** 2 - 1
            cq = mpmath.sqrt(q2) * mpmath.sign(e - v) if q2 > 0 else 1j * mpmath.sqrt(-q2)
            return cp, cq, e, v

    # E - V0 next to 1 but not exactly representable: the rounding of
    # E - V0 alone (~1e-16) is 2e-12 of E - V0 - 1 here
    ROUNDED_EBAR = (1.0010505086187926, 0.0009963222587647113)

    @pytest.mark.parametrize("E, V0", [
        (30.0, 31.0 * (1.0 + 1e-9)), (30.0, 31.0 * (1.0 + 3e-12)),
        (30.0, 31.0 * (1.0 - 1e-9)), (30.0, 31.0 * (1.0 - 3e-12)), ROUNDED_EBAR,
    ])
    def test_step_side_momentum(self, E, V0):
        _, cq, _, _ = self.reference(E, V0)
        got = momentum_right(make_channel(E, V0, 0.0, Spin.DOWN, 0))
        assert abs(got - complex(cq)) <= 1e-15 * abs(complex(cq))

    @pytest.mark.parametrize("E, V0", [
        (30.0, 31.0 * (1.0 + 1e-9)), (30.0, 31.0 * (1.0 + 3e-12)), ROUNDED_EBAR,
    ])
    def test_transmitted_fraction(self, E, V0):
        cp, cq, e, v = self.reference(E, V0)
        with mpmath.workdps(60):
            kappa = cq * (e + 1) / (cp * (e + 1 - v))
            trans_same = float(4 * kappa / (1 + kappa) ** 2)
        got = current_budget(make_channel(E, V0, 0.0, Spin.DOWN, 0)).trans_same
        assert abs(got - trans_same) <= 1e-13 * trans_same

    @pytest.mark.parametrize("offset", [1e-9, 1e-13])
    def test_left_momentum_near_rest(self, offset):
        E = 1.0 + offset
        cp, _, _, _ = self.reference(E, 0.0)
        got = momentum_left(make_channel(E, 0.0, 0.0, Spin.DOWN, 0))
        assert abs(got - float(cp)) <= 1e-15 * float(cp)

    def test_field_free_reflection(self):
        E, V0 = self.ROUNDED_EBAR
        cp, cq, e, v = self.reference(E, V0)
        with mpmath.workdps(60):
            kappa = cq * (e + 1) / (cp * (e + 1 - v))
            R = complex((1 - kappa) / (1 + kappa))
        got = amplitudes(make_channel(E, V0, 0.0, Spin.DOWN, 0)).R
        assert abs(got - R) <= 1e-15 * abs(R)
