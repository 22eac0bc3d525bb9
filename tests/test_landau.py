import math

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
    make_channel,
    momentum_left,
    momentum_right,
)
from kleinb.landau import MAX_OSCILLATOR_INDEX, _oscillator_pair, longitudinal_momenta
from kleinb.states import EVANESCENT, REGIMES, regime_codes

import _reference as reference
from _points import channels, strata


def seeded_recurrence(n, x):
    """The normalized recurrence with separate Phi_{-1}, Phi_0 and Phi_1 seeds."""
    if n == -1:
        return np.zeros_like(x)
    prev = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    if n == 0:
        return prev
    cur = math.sqrt(2.0) * x * prev
    for k in range(1, n):
        prev, cur = cur, math.sqrt(2.0 / (k + 1)) * x * cur - math.sqrt(k / (k + 1.0)) * prev
    return cur


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
        with pytest.raises(OscillatorRange, match="^oscillator index 201 beyond"):
            eval_oscillator(MAX_OSCILLATOR_INDEX + 1, 0.0)
        with pytest.raises(OscillatorRange, match=r"^\|xi\| beyond documented range 10000$"):
            eval_oscillator(2, 2e4)
        with pytest.raises(InvalidSpinIndex, match="^oscillator index must be >= -1, got -2$"):
            eval_oscillator(-2, 0.0)
        for n in (1.5, True):
            with pytest.raises(InvalidSpinIndex, match=f"^oscillator index must be an integer, got {n}$"):
                eval_oscillator(n, 0.5)
        for n in (-1, 2):
            for xi in (math.nan, [1.0, math.inf]):
                with pytest.raises(ValueError, match="^oscillator argument must be finite$"):
                    eval_oscillator(n, xi)

    def test_one_pass_matches_seeded_recurrence(self):
        # bit for bit, signed zeros included: the first step of the pair
        # subtracts 0.0 * Phi_{-1} = 0.0 where the seeded form has none
        x = np.array([0.0, -0.0, 1e-300, -1e-300, 0.7, -2.1, 13.0, 1e4, -1e4])
        for n in range(MAX_OSCILLATOR_INDEX + 1):
            lo, hi = _oscillator_pair(n, x)
            assert lo.tobytes() == seeded_recurrence(n - 1, x).tobytes()
            assert hi.tobytes() == seeded_recurrence(n, x).tobytes() == eval_oscillator(n, x).tobytes()
        assert eval_oscillator(-1, x).tobytes() == np.zeros_like(x).tobytes()

    def test_stable_upper_range(self):
        # top of the documented range evaluates to finite values
        x = np.linspace(-25, 25, 501)
        vals = eval_oscillator(MAX_OSCILLATOR_INDEX, x)
        assert np.all(np.isfinite(vals))
        assert np.abs(vals).max() < 1.0


class TestMomenta:
    def test_left_momentum_values(self):
        assert momentum_left(make_channel(math.sqrt(2), 0.0, 0.0, Spin.DOWN, 0)) == pytest.approx(1.0)
        p = make_channel(2.5, 0.0, 0.01, Spin.DOWN, 3)
        assert momentum_left(p) == pytest.approx(2.2781571499789035, rel=1e-15)

    def test_left_momentum_dispersion_identity(self, param_grid):
        for p in channels(param_grid[:200]):
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

    def test_branch_rule_on_grid(self, seed, param_grid):
        # one threshold rule: the regime is the sign pattern of cq, on the
        # seeded grid and on channels within 1e-17..1e-12 of E = V0 +- M_n
        edge = strata(np.random.default_rng([seed, 11]), 24_000, "edge")
        E, V0, b, n = (np.concatenate([getattr(param_grid, k), x]) for k, x in zip(("E", "V0", "b", "n"), edge))
        C = 2.0 * b * n
        cq = longitudinal_momenta(E, V0, C)[1]
        codes = regime_codes(E, V0, C)
        np.testing.assert_array_equal(codes == EVANESCENT, cq.real == 0.0)
        np.testing.assert_array_equal(codes == REGIMES.index(Regime.CASE_I), cq.real < 0.0)
        np.testing.assert_array_equal(codes == REGIMES.index(Regime.CASE_II), cq.real > 0.0)
        evanescent = codes == EVANESCENT
        assert np.all(cq.imag[evanescent] >= 0.0) and np.all(cq.imag[~evanescent] == 0.0)
        # transmitted group velocity q/(E - V0) points rightward
        assert np.all(cq.real[~evanescent] * (E - V0)[~evanescent] > 0.0)
        # the scalar views are the same rule
        for i, p in enumerate(channels(param_grid)):
            assert momentum_right(p) == cq[i] and classify(p) is REGIMES[codes[i]]


class TestThresholdCancellation:
    """cp and cq next to |x| = 1 at b = 0, where x^2 - 1 would cancel,
    against the extended-precision reference on the same binary inputs."""

    # E - V0 next to 1 but not exactly representable: the rounding of
    # E - V0 alone (~1e-16) is 2e-12 of E - V0 - 1 here
    ROUNDED_EBAR = (1.0010505086187926, 0.0009963222587647113)

    @pytest.mark.parametrize("E, V0", [
        (30.0, 31.0 * (1.0 + 1e-9)), (30.0, 31.0 * (1.0 + 3e-12)),
        (30.0, 31.0 * (1.0 - 1e-9)), (30.0, 31.0 * (1.0 - 3e-12)), ROUNDED_EBAR,
    ])
    def test_step_side_momentum(self, E, V0):
        cq = complex(reference.closed_forms(E, V0).cq)
        got = momentum_right(make_channel(E, V0, 0.0, Spin.DOWN, 0))
        assert abs(got - cq) <= 1e-15 * abs(cq)

    @pytest.mark.parametrize("E, V0", [
        (30.0, 31.0 * (1.0 + 1e-9)), (30.0, 31.0 * (1.0 + 3e-12)), ROUNDED_EBAR,
    ])
    def test_transmitted_fraction(self, E, V0):
        trans_same = float(reference.closed_forms(E, V0).trans_same)
        got = current_budget(make_channel(E, V0, 0.0, Spin.DOWN, 0)).trans_same
        assert abs(got - trans_same) <= 1e-13 * trans_same

    @pytest.mark.parametrize("offset", [1e-9, 1e-13])
    def test_left_momentum_near_rest(self, offset):
        E = 1.0 + offset
        cp = float(reference.closed_forms(E, 0.0).cp)
        got = momentum_left(make_channel(E, 0.0, 0.0, Spin.DOWN, 0))
        assert abs(got - cp) <= 1e-15 * cp

    def test_field_free_reflection(self):
        E, V0 = self.ROUNDED_EBAR
        R = complex(reference.closed_forms(E, V0).R)
        got = amplitudes(make_channel(E, V0, 0.0, Spin.DOWN, 0)).R
        assert abs(got - R) <= 1e-15 * abs(R)
