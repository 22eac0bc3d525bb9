import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kleinb.scattering
from kleinb import (
    ClosedChannel,
    InvalidSpinIndex,
    Regime,
    SingularMatrix,
    SingularStep,
    Spin,
    amplitudes,
    amplitudes_batch,
    assemble_field,
    continuity_residual,
    current_budget,
    klein_limit,
    make_channel,
    momentum_left,
    momentum_right,
    solve_boundary_batch,
    solve_boundary_system,
)
from kleinb.scattering import NEAR_SINGULAR_FRACTION, kinematics, point_kinematics, spinor_table
from kleinb.selftest import _deviation, sample_grid
from kleinb.states import EVANESCENT, REGIMES, channel_valid

import _reference as reference
from _points import amplitude_deviation, channels, strata


def kappa_reference(e, v0, b, n):
    """Kinematic factor straight from the momentum definitions."""
    c = 2.0 * b * n
    cp = math.sqrt(e * e - 1.0 - c)
    q2 = (e - v0) ** 2 - 1.0 - c
    if q2 >= 0.0:
        cq = complex(math.copysign(math.sqrt(q2), e - v0), 0.0)
    else:
        cq = complex(0.0, math.sqrt(-q2))
    return cq * (e + 1.0) / (cp * (e + 1.0 - v0))


class TestKinematicFactor:
    """kappa = cq*eps/(cp*eps_bar) weights the transmitted currents:
    trans_same = kappa*|1 + R|^2 and trans_flip = kappa*|Rp|^2."""

    def test_no_step_is_unity(self):
        p = make_channel(2.0, 0.0, 0.1, Spin.UP, 1)
        a, bud = amplitudes(p), current_budget(p)
        assert a.R == 0.0 and bud.trans_same == 1.0

    def test_evanescent_interior_is_positive_imaginary(self):
        # eps_bar = 1 > 0, so kappa has the phase of cq = +i|cq|
        p = make_channel(2.0, 2.0, 0.0, Spin.DOWN, 0)
        cq = momentum_right(p)
        assert cq.real == 0.0 and cq.imag > 0.0
        bud = current_budget(p)
        assert bud.trans_same == 0.0 and bud.trans_flip == 0.0

    def test_klein_regime_value(self):
        # q < 0 and eps_bar < 0 cancel: kappa real and positive
        bud = current_budget(make_channel(2.0, 6.0, 0.2, Spin.UP, 1))
        assert bud.refl_flip > 0.0
        kappa = bud.trans_flip / bud.refl_flip
        assert kappa == pytest.approx(math.sqrt(14.6 / 2.6), rel=1e-15)
        assert kappa == pytest.approx(kappa_reference(2.0, 6.0, 0.2, 1).real, rel=1e-15)

    def test_propagating_regimes_real_nonnegative(self, param_grid):
        a = param_grid.amps
        evanescent = a.regime == EVANESCENT
        for f in (a.trans_same, a.trans_flip):
            assert (f[evanescent] == 0.0).all()
            assert (f[~evanescent] >= 0.0).all()

    def test_singular_step_guard(self):
        with pytest.raises(SingularStep):
            current_budget(make_channel(2.0, 3.0, 0.1, Spin.UP, 1))
        with pytest.raises(SingularStep):
            amplitudes(make_channel(2.0, 3.0 + 1e-14, 0.1, Spin.UP, 1))


class TestAmplitudes:
    def test_no_step(self):
        a = amplitudes(make_channel(2.0, 0.0, 0.1, Spin.UP, 1))
        assert a.R == 0.0 and a.Rp == 0.0 and a.Tp == 0.0
        assert a.T == 1.0

    def test_field_free_reduces_to_kappa_form(self):
        for e, v0 in [(2.0, 0.7), (2.0, 10.0), (1.5, 2.2), (3.0, 3.5)]:
            a = amplitudes(make_channel(e, v0, 0.0, Spin.DOWN, 0))
            kappa = kappa_reference(e, v0, 0.0, 0)
            assert a.R == pytest.approx((1.0 - kappa) / (1.0 + kappa), rel=1e-14, abs=1e-14)
            assert a.Rp == 0.0 and a.Tp == 0.0

    def test_lowest_state_never_flips(self):
        for e, v0, b in [(2.0, 1.0, 0.9), (1.3, 5.0, 0.4), (4.0, 2.0, 1.0)]:
            a = amplitudes(make_channel(e, v0, b, Spin.DOWN, 0))
            assert a.Rp == 0.0 and a.Tp == 0.0

    def test_matches_boundary_solve_at_reference_point(self):
        p = make_channel(2.0, 6.0, 0.2, Spin.UP, 1)
        assert amplitude_deviation(p) < 1e-12

    def test_spin_down_reverses_flip_signs(self):
        up = amplitudes(make_channel(2.0, 6.0, 0.2, Spin.UP, 1))
        down = amplitudes(make_channel(2.0, 6.0, 0.2, Spin.DOWN, 1))
        assert down.R == up.R and down.T == up.T
        assert down.Rp == -up.Rp and down.Tp == -up.Tp

    def test_evanescent_total_reflection(self, param_grid):
        for p in channels(param_grid):
            a = amplitudes(p)
            if a.regime is Regime.CASE_III:
                assert abs(abs(a.R) ** 2 + abs(a.Rp) ** 2 - 1.0) < 1e-12

    def test_flip_scales_as_sqrt_b(self):
        bs = np.logspace(-8, -4, 9)
        mags = [abs(amplitudes(make_channel(2.0, 6.0, float(b), Spin.UP, 1)).Rp) for b in bs]
        slope = np.polyfit(np.log(bs), np.log(mags), 1)[0]
        assert slope == pytest.approx(0.5, abs=0.01)

    def test_accurate_next_to_kinematic_singularity(self):
        # V0 within 1e-10 of E + 1 sits deep in the evanescent regime;
        # the reflection identity must still hold at rounding level
        for e, b, n in [(2.0, 0.2, 1), (1.5, 0.05, 3), (4.0, 0.05, 10)]:
            for delta in (1e-10, 1e-7, 1e-5):
                for sign in (1.0, -1.0):
                    p = make_channel(e, (e + 1.0) * (1.0 + sign * delta), b, Spin.UP, n)
                    a = amplitudes(p)
                    assert a.regime is Regime.CASE_III
                    assert abs(abs(a.R) ** 2 + abs(a.Rp) ** 2 - 1.0) < 5e-15

    def test_both_forms_agree_with_solver_at_the_switch(self):
        # the evaluation switches form at |eps_bar| = 0.01 (1 + V0);
        # both sides must still match the independent boundary solve
        from kleinb.scattering import NEAR_SINGULAR_FRACTION

        for e, b, n in [(2.0, 0.2, 1), (3.0, 0.4, 2)]:
            for frac in (0.9 * NEAR_SINGULAR_FRACTION, 1.1 * NEAR_SINGULAR_FRACTION):
                for sign in (1.0, -1.0):
                    # solve e + 1 - v0 = sign * frac * (1 + v0) for v0
                    v0 = (e + 1.0 - sign * frac) / (1.0 + sign * frac)
                    p = make_channel(e, v0, b, Spin.UP, n)
                    assert amplitude_deviation(p) < 1e-12


class TestBoundarySolve:
    def test_no_step(self):
        s = solve_boundary_system(make_channel(2.0, 0.0, 0.1, Spin.UP, 1))
        assert abs(s.R) < 1e-14 and abs(s.Rp) < 1e-14 and abs(s.Tp) < 1e-14
        assert s.T == pytest.approx(1.0, abs=1e-14)

    def test_field_free_flip_columns_decouple(self):
        s = solve_boundary_system(make_channel(2.0, 4.0, 0.0, Spin.DOWN, 0))
        assert abs(s.Rp) < 1e-15 and abs(s.Tp) < 1e-15

    def test_agreement_on_seeded_grid(self, param_grid):
        worst = max(amplitude_deviation(p) for p in channels(param_grid))
        assert worst < 1e-12

    def test_degenerate_normalization_reported(self):
        # E = V0 or V0 = E + 1 exactly: the transmitted spinor cannot be normalized
        with pytest.raises(SingularMatrix):
            solve_boundary_system(make_channel(2.0, 2.0, 0.0, Spin.DOWN, 0))
        with pytest.raises(SingularMatrix):
            solve_boundary_system(make_channel(2.0, 3.0, 0.1, Spin.UP, 1))

    def test_matches_extended_precision_solve(self, seed):
        E, V0, b, n, up = strata(np.random.default_rng([seed, 17]), 80, "bulk", "tall", "e_near_v0")
        solved, failed = solve_boundary_batch(E, V0, b, n, np.where(up, "up", "down"))
        exact = np.array([[complex(x) for x in reference.boundary_solve(*point)]
                          for point in zip(E, V0, b, n, up)])
        assert not failed.any()
        assert _deviation(exact.T, solved.T).max() < 1e-14


class TestSpinorTable:
    """The coefficients the oracle and the field both read, in the
    matching system's layout (N, 4, 5): components by pieces."""

    def test_spin_up_pieces_are_the_documented_vectors(self, param_grid):
        k = param_grid.kin
        table = spinor_table(k)
        assert table.shape == (len(param_grid), 4, 5) and k.up.any()
        for i in np.flatnonzero(k.up):
            eps, eps_bar, cp, cq, rc = k.eps[i], k.eps_bar[i], k.cp[i], k.cq[i], k.rc[i]
            pieces = [(eps, 0, cp, rc), (eps, 0, -cp, rc), (0, eps, rc, cp),
                      (eps_bar, 0, cq, rc), (0, eps_bar, rc, -cq)]
            for j, piece in enumerate(pieces):
                assert table[i, :, j].tolist() == [complex(x) for x in piece]

    def test_spin_down_is_spin_up_mirrored(self, param_grid):
        # cp, cq negated and components 1 <-> 2, 3 <-> 4 swapped
        k = param_grid.kin
        down = ~k.up
        assert down.any()
        up = kinematics(k.E, k.V0, k.C, np.ones_like(k.up))._replace(cp=-k.cp, cq=-k.cq)
        mirrored = spinor_table(up)[:, [1, 0, 3, 2], :]
        assert np.array_equal(spinor_table(k)[down], mirrored[down])


def _zero_signs(z):
    """'+' or '-' per signed zero of (z.real, z.imag), '.' per nonzero part."""
    return "".join("." if x != 0.0 else "-+"[math.copysign(1.0, x) > 0] for x in (z.real, z.imag))


#: Signed zeros of (R, Rp, T, Tp), real and imaginary parts, at C = 0 by
#: incoming spin and E, for V0 = 0, (E - 1)/2, E - 1, E, E + 0.5,
#: E + 1.5, 2E + 10 and 1e6: every regime, its thresholds and E = V0.
SIGNED_ZEROS = {
    ("down", 1.5): "++--.+-- .+--.+-- .+--.+-- ..-++--+ ..++..++ .+--.+-- .+--.+-- .+--.+--",
    ("down", 2.0): "++--.+-- .+--.+-- .+--.+-- ..-++--+ ..++..++ .+--.+-- .+--.+-- .+--.+--",
    ("down", 7.0): "++--.+-- .+--.+-- .+--.+-- ..-++--+ ..-+..-+ .+--.+-- .+--.+-- .+--.+--",
    ("up", 1.5): "++++.+++ .+++.+++ .+++.+++ ..+-+-+- ..--..-- .+++.+++ .+++.+++ .+++.+++",
    ("up", 2.0): "++++.+++ .+++.+++ .+++.+++ ..+-+-+- ..--..-- .+++.+++ .+++.+++ .+++.+++",
    ("up", 7.0): "++++.+++ .+++.+++ .+++.+++ ..+-+-+- ..+-..+- .+++.+++ .+++.+++ .+++.+++",
}


class TestClosedForms:
    def test_one_division_per_evaluation(self, monkeypatch):
        # the band next to V0 = E + 1 takes other factors, not a second division
        cdiv, calls = kleinb.scattering._cdiv, []
        monkeypatch.setattr(kleinb.scattering, "_cdiv",
                            lambda num, den: calls.append(num.shape) or cdiv(num, den))
        V0 = np.array([0.5, 6.0, 3.0 * (1.0 + 1e-3), 3.0 * (1.0 - 1e-9), 3.0])
        batch = amplitudes_batch(2.0, V0, 0.2, 1, "up")
        assert calls == [(5, 5)]
        assert batch.singular.tolist() == [False] * 4 + [True]
        near = np.abs(3.0 - V0) < NEAR_SINGULAR_FRACTION * (1.0 + V0)
        assert near.tolist() == [False, False, True, True, True]
        calls.clear()
        current_budget(make_channel(2.0, 3.0 * (1.0 + 1e-3), 0.2, Spin.UP, 1))
        assert calls == [(5, 1)]

    @pytest.mark.parametrize("b, spin, n", [(0.0, "down", 0), (0.0, "up", 1), (0.0, "down", 3),
                                            (0.4, "down", 0)])
    @pytest.mark.parametrize("e", [1.5, 2.0, 7.0])
    def test_signed_zeros(self, b, spin, n, e):
        v0s = [0.0, 0.5 * (e - 1.0), e - 1.0, e, e + 0.5, e + 1.5, 2.0 * e + 10.0, 1e6]
        batch = amplitudes_batch(e, v0s, b, n, spin)
        assert batch.regime.tolist() == [1, 1, 2, 2, 2, 0, 0, 0]
        signs = []
        for i, v0 in enumerate(v0s):
            a = amplitudes(make_channel(e, v0, b, spin, n))
            signs.append("".join(_zero_signs(z) for z in (a.R, a.Rp, a.T, a.Tp)))
            assert signs[-1] == "".join(_zero_signs(getattr(batch, f)[i]) for f in ("R", "Rp", "T", "Tp"))
        assert " ".join(signs) == SIGNED_ZEROS[spin, e]

    def test_transmitted_against_extended_precision(self, seed):
        # T, Tp and trans_same to a few units of roundoff u, inside the
        # band and out, at C > 0 and at C = 0 (where Tp is exactly 0)
        E, V0, b, n, up = strata(np.random.default_rng([seed, 29]), 100, "bulk", "band")
        batch = amplitudes_batch(E, V0, b, n, np.where(up, "up", "down"))
        u = 2.0 ** -53
        flat = 2.0 * b * n == 0.0
        evanescent = batch.regime == EVANESCENT
        assert flat.any() and (~flat).any() and (evanescent & flat).any() and (~evanescent).any()
        assert np.all(batch.Tp[flat] == 0.0) and np.all(batch.trans_same[evanescent] == 0.0)
        worst = {"T": 0.0, "Tp": 0.0, "trans_same": 0.0}
        for i, point in enumerate(zip(E, V0, b, n, up)):
            exact = {name: getattr(reference.closed_forms(*point), name) for name in worst}
            if flat[i]:
                del exact["Tp"]
            if evanescent[i]:
                del exact["trans_same"]
            for name, value in exact.items():
                got = mpmath.mpmathify(complex(getattr(batch, name)[i]))
                worst[name] = max(worst[name], float(abs(got - value) / abs(value)) / u)
        assert worst["T"] <= 16.0 and worst["Tp"] <= 16.0 and worst["trans_same"] <= 24.0, worst


class TestScalarEvaluations:
    def test_closed_forms_evaluated_once_per_call(self, monkeypatch):
        # a scalar call is the batch core's _evaluate on one point
        closed_forms, evaluate, calls = kleinb.scattering._closed_forms, kleinb.scattering._evaluate, []
        monkeypatch.setattr(kleinb.scattering, "_closed_forms",
                            lambda k: calls.append("closed_forms") or closed_forms(k))
        monkeypatch.setattr(kleinb.scattering, "_evaluate",
                            lambda k, shape: calls.append("_evaluate") or evaluate(k, shape))
        points = [(2.0, 6.0, 0.2, Spin.UP, 1), (2.0, 2.0, 0.0, Spin.DOWN, 0),
                  (2.0, 2.0, 0.3, Spin.UP, 1)]
        for f in (amplitudes, current_budget):
            for point in points:
                calls.clear()
                f(make_channel(*point))
                assert calls == ["_evaluate", "closed_forms"]
            calls.clear()
            with pytest.raises(SingularStep):
                f(make_channel(2.0, 3.0, 0.1, Spin.UP, 1))  # V0 = E + 1
            assert not calls


class TestCurrentBudget:
    def test_no_step(self):
        b = current_budget(make_channel(2.0, 0.0, 0.1, Spin.UP, 1))
        assert (b.refl_same, b.refl_flip, b.trans_same, b.trans_flip) == (0.0, 0.0, 1.0, 0.0)
        assert b.sum == 1.0

    def test_evanescent_budget(self):
        b = current_budget(make_channel(2.0, 2.5, 0.3, Spin.UP, 2))
        assert b.trans_same == 0.0 and b.trans_flip == 0.0
        assert b.refl_same + b.refl_flip == pytest.approx(1.0, abs=1e-12)

    def test_klein_point_conserves_current(self):
        b = current_budget(make_channel(2.0, 6.0, 0.2, Spin.UP, 1))
        assert abs(b.sum - 1.0) < 1e-12
        assert min(b.refl_same, b.refl_flip, b.trans_same, b.trans_flip) >= 0.0

    def test_budget_continuous_at_propagation_threshold(self):
        # transmitted fractions vanish as E -> V0 + M from above
        v0, b, n = 1.0, 0.3, 2
        m = math.sqrt(1.0 + 2 * b * n)
        trans = []
        for eps in [1e-2, 1e-4, 1e-6, 1e-8, 1e-10]:
            bud = current_budget(make_channel(v0 + m + eps, v0, b, Spin.UP, n))
            trans.append(bud.trans_same + bud.trans_flip)
            assert abs(bud.sum - 1.0) < 1e-12
        assert all(t2 < t1 for t1, t2 in zip(trans, trans[1:]))
        assert trans[-1] < 1e-4

    def test_conservation_on_seeded_grid(self, param_grid):
        worst = max(abs(current_budget(p).sum - 1.0) for p in channels(param_grid))
        assert worst < 1e-12

    def test_conservation_next_to_thresholds(self, seed):
        # next to cp = 0 and to E - V0 = M_n the four fractions sum to 1
        # only if cp^2 and cq^2 are accurate, which the seeded grid rarely tests
        E, V0, b, n, up = strata(np.random.default_rng([seed, 31]), 200_000, "threshold")
        batch = amplitudes_batch(E, V0, b, n, np.where(up, Spin.UP, Spin.DOWN))
        assert (b * n == 0.0).any() and (batch.regime == EVANESCENT).any()
        worst = float(np.abs(batch.sum - 1.0).max())
        assert worst <= 1e-12, worst


@settings(max_examples=200, deadline=None)
@given(
    e_margin=st.floats(1e-3, 5.0),
    v0=st.floats(0.0, 30.0),
    b=st.floats(0.0, 1.0),
    n=st.integers(0, 20),
    spin_up=st.booleans(),
)
@example(e_margin=0.001, v0=1.001, b=0.0, n=0, spin_up=False)  # E == V0 exactly
def test_conservation_and_oracle_property(e_margin, v0, b, n, spin_up):
    spin = Spin.UP if (spin_up and n >= 1) else Spin.DOWN
    e = math.sqrt(1.0 + 2 * b * n) + e_margin
    if abs(e + 1.0 - v0) < 1e-9 * (1.0 + v0):
        return  # kinematic singularity slice
    p = make_channel(e, v0, b, spin, n)
    assert abs(current_budget(p).sum - 1.0) < 1e-12
    if e == v0:
        # the transmitted normalization vanishes: the 4x4 oracle is singular
        # by design, and the assembled field checks the amplitudes instead
        with pytest.raises(SingularMatrix):
            solve_boundary_system(p)
        assert continuity_residual(assemble_field(p, ny=33, nz=2)) < 1e-10
    else:
        assert amplitude_deviation(p) < 1e-12


class TestKleinLimit:
    def test_field_free_anchor(self):
        t2, tp2 = klein_limit(Spin.DOWN, 0, math.sqrt(2.0), 0.0)
        assert t2 == pytest.approx(2.0 / (2.0 + math.sqrt(2.0)), rel=1e-12)
        assert tp2 == 0.0

    def test_field_free_closed_form(self):
        # |T|^2_inf = 2 cp^2 / (E (E + cp)) when the flip channel is absent
        for e in (1.2, 2.0, 5.0):
            cp = math.sqrt(e * e - 1.0)
            t2, tp2 = klein_limit(Spin.DOWN, 0, e, 0.0)
            assert t2 == pytest.approx(2.0 * cp * cp / (e * (e + cp)), rel=1e-14)
            assert tp2 == 0.0

    def test_tall_step_converges_to_limit(self):
        for (e, b, n, spin) in [(2.0, 0.2, 1, Spin.UP), (1.6, 0.05, 3, Spin.DOWN),
                                (4.0, 1.0, 5, Spin.UP)]:
            t2_inf, tp2_inf = klein_limit(spin, n, e, b)
            a = amplitudes(make_channel(e, 1e4, b, spin, n))
            assert abs(a.T) ** 2 == pytest.approx(t2_inf, rel=1e-3)
            assert abs(a.Tp) ** 2 == pytest.approx(tp2_inf, rel=1e-3)

    def test_tall_step_equals_limit(self):
        # past V0 ~ 1e16 the 1/V0 correction is below rounding: the finite
        # step is the limit to a few ulp, up to MAX_ENERGY
        g = sample_grid(2000, seed=3)
        limits = np.array([klein_limit(s, int(n), e, b) for s, n, e, b in zip(g.spin, g.n, g.E, g.b)])
        t2_inf, tp2_inf = limits.T
        flip = tp2_inf > 0.0
        for v0 in (1e17, 1e20, 1e30, 1e40, 1e50):
            a = amplitudes_batch(g.E, v0, g.b, g.n, g.spin)
            assert np.all(a.regime == REGIMES.index(Regime.CASE_I))
            np.testing.assert_allclose(np.abs(a.T) ** 2, t2_inf, rtol=4e-15, atol=0.0)
            np.testing.assert_allclose(np.abs(a.Tp[flip]) ** 2, tp2_inf[flip], rtol=4e-15, atol=0.0)
            assert np.all(a.Tp[~flip] == 0.0)

    @pytest.mark.parametrize("e, b, n, spin", [
        (2.0, 0.1, 1, Spin.UP), (3.0, 0.5, 2, Spin.DOWN), (1.5, 0.0, 0, Spin.DOWN), (5.0, 1.0, 3, Spin.UP),
    ])
    def test_approach_is_one_over_v0(self, e, b, n, spin):
        # V0 (|T|^2 / |T|^2_inf - 1) tends to the 60-digit coefficient at
        # V0 = 1e20, and likewise for Tp where C > 0
        limits = klein_limit(spin, n, e, b)
        coefficients = reference.klein_approach(e, b, n, spin is Spin.UP)
        assert (coefficients[1] is None) == (n * b == 0.0)
        for v0 in (1e6, 1e8, 1e10):
            a = amplitudes(make_channel(e, v0, b, spin, n))
            for z, limit, c in zip((a.T, a.Tp), limits, coefficients):
                if c is not None:
                    assert v0 * (abs(z) ** 2 / limit - 1.0) == pytest.approx(float(c), rel=1e-4)

    def test_tail_is_monotone(self):
        e, b, n = 2.0, 0.2, 1
        t2_inf = klein_limit(Spin.UP, n, e, b)[0]
        tail = [abs(amplitudes(make_channel(e, float(v0), b, Spin.UP, n)).T) ** 2
                for v0 in np.logspace(3, 5, 9)]
        gaps = [abs(t - t2_inf) for t in tail]
        assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))

    def test_spin_independent(self):
        assert klein_limit(Spin.UP, 2, 2.5, 0.4) == klein_limit(Spin.DOWN, 2, 2.5, 0.4)

    def test_nonzero_for_any_open_channel(self, param_grid):
        for p in channels(param_grid[:100]):
            t2, tp2 = klein_limit(p.spin, p.n, p.E, p.field.b)
            assert t2 > 0.0
            assert tp2 >= 0.0
            assert (tp2 > 0.0) == (p.C > 0.0)

    def test_validation(self):
        with pytest.raises(ClosedChannel):
            klein_limit(Spin.DOWN, 4, 1.5, 0.5)


def h0_amplitudes(e, v0):
    """Field-free amplitudes: the lowest spin-down channel at b = 0."""
    return amplitudes(make_channel(e, v0, 0.0, Spin.DOWN, 0))


class TestFieldFreePath:
    def test_no_step(self):
        a = h0_amplitudes(2.0, 0.0)
        assert (a.R, a.Rp, a.T, a.Tp) == (0.0, 0.0, 1.0, 0.0)

    def test_kappa_closed_forms(self):
        # R = (1 - kappa)/(1 + kappa); T = w 2 eps / (eps_bar (1 + kappa))
        for e, v0 in [(2.0, 10.0), (1.7, 2.0), (3.0, 1.5)]:
            a = h0_amplitudes(e, v0)
            kappa = kappa_reference(e, v0, 0.0, 0)
            eps, eps_bar, ebar = e + 1.0, e + 1.0 - v0, e - v0
            w = math.sqrt(abs(eps_bar * ebar) / (eps * e))
            assert a.R == pytest.approx((1 - kappa) / (1 + kappa), rel=1e-14, abs=1e-14)
            assert a.T == pytest.approx(w * 2 * eps / (eps_bar * (1 + kappa)), rel=1e-13)

    def test_evanescent_unimodular_reflection(self):
        for v0 in (1.5, 2.0, 2.9):
            a = h0_amplitudes(2.0, v0)
            assert a.regime is Regime.CASE_III
            assert abs(abs(a.R) ** 2 - 1.0) < 1e-14

    def test_tall_step_reflection_limit(self):
        # R -> (sqrt(E-1) - sqrt(E+1)) / (sqrt(E-1) + sqrt(E+1))
        e = 2.0
        want = (math.sqrt(e - 1) - math.sqrt(e + 1)) / (math.sqrt(e - 1) + math.sqrt(e + 1))
        a = h0_amplitudes(e, 1e6)
        assert a.R.real == pytest.approx(want, rel=1e-4)

    def test_requires_open_channel(self):
        with pytest.raises(ClosedChannel):
            h0_amplitudes(1.0, 2.0)
        with pytest.raises(ClosedChannel):
            h0_amplitudes(0.5, 2.0)


class TestMomentumConsistency:
    def test_kappa_assembled_from_parts(self, param_grid):
        for p in channels(param_grid[:150]):
            k = point_kinematics(p)
            assert k.cp[0] == momentum_left(p)
            assert k.cq[0] == momentum_right(p)


def _edge_point(kind, n, spin_up, b, margin, v0, delta):
    """A point on one of the edges of the domain, displaced by delta."""
    m = math.sqrt(1.0 + 2 * b * n)
    e = m * (1.0 + margin)
    if kind == "generic":
        pass
    elif kind == "channel":
        e = m * (1.0 + abs(delta))
    elif kind == "above":       # E = V0 + M_n
        v0 = e - m * (1.0 + delta)
    elif kind == "inside":      # E = V0 - M_n
        v0 = e + m * (1.0 + delta)
    else:                       # the sliver V0 = E + 1, SingularStep within 1e-12
        v0 = (e + 1.0) * (1.0 + delta)
    return e, v0, b, n, "up" if (spin_up and n >= 1) else "down"


edge_points = st.lists(
    st.builds(
        _edge_point,
        kind=st.sampled_from(["generic", "channel", "above", "inside", "sliver"]),
        n=st.integers(0, 20),
        spin_up=st.booleans(),
        b=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
        margin=st.floats(1e-3, 5.0),
        v0=st.floats(0.0, 30.0),
        delta=st.one_of(st.just(0.0), st.floats(-1e-10, 1e-10)),
    ),
    min_size=1, max_size=24,
)


def assert_phase_identity(batch):
    """The step gives the same-spin and the flipped beam one phase, up to
    sign: the numerators of R and Rp are real in every regime (cq^2 is
    real), so R conj(Rp) is real to rounding, and T/Tp = x/(rc V0) is
    real wherever cq is, so T conj(Tp) is exactly real off CASE_III."""
    ok = ~batch.singular & (batch.Rp != 0.0)
    R, Rp = batch.R[ok], batch.Rp[ok]
    assert np.all(np.abs((R * np.conj(Rp)).imag) <= 4.0 * 2.0 ** -53 * np.abs(R) * np.abs(Rp))
    open_ = ~batch.singular & (batch.regime != EVANESCENT)
    assert np.all((batch.T[open_] * np.conj(batch.Tp[open_])).imag == 0.0)


class TestBatch:
    def test_arrays_are_read_only(self, param_grid):
        # a write into R would leave refl_same and the sum stale
        for batch in (amplitudes_batch([2.0, 3.0], 1.0, 0.1, 1, "up"), param_grid.amps,
                      param_grid[::7].amps, param_grid[param_grid.b > 0.0].amps, param_grid.mirror,
                      param_grid.family.amps):
            for name, array in vars(batch).items():
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 7
        # the arrays given to the class keep their own flags
        given = [np.zeros(2) for _ in vars(batch)]
        kleinb.BatchAmplitudes(*given)
        assert all(x.flags.writeable for x in given)

    @settings(max_examples=150, deadline=None)
    @given(points=edge_points)
    def test_bit_identical_to_scalar(self, points):
        channels, kept = [], []
        for point in points:
            e, v0, b, n, spin = point
            try:
                channels.append(make_channel(e, v0, b, spin, n))
            except (ClosedChannel, ValueError):
                continue  # outside the channel domain (negative V0, closed channel)
            kept.append(point)
        if not channels:
            return
        batch = amplitudes_batch(*map(np.array, zip(*kept)))
        for i, p in enumerate(channels):
            if batch.singular[i]:
                with pytest.raises(SingularStep):
                    amplitudes(p)
                assert np.isnan(batch.R[i]) and np.isnan(batch.sum[i])
                continue
            a, bud = amplitudes(p), current_budget(p)
            assert REGIMES[batch.regime[i]] is a.regime
            assert (batch.R[i], batch.Rp[i], batch.T[i], batch.Tp[i]) == (a.R, a.Rp, a.T, a.Tp)
            assert (batch.refl_same[i], batch.refl_flip[i], batch.trans_same[i],
                    batch.trans_flip[i], batch.sum[i]) == (
                bud.refl_same, bud.refl_flip, bud.trans_same, bud.trans_flip, bud.sum)

    @settings(max_examples=150, deadline=None)
    @given(points=edge_points)
    def test_spin_symmetry_at_edges(self, points):
        # the thresholds and the V0 = E + 1 sliver included: flipping the
        # incoming spin flips the sign of Rp and Tp and nothing else
        E, V0, b, n = (np.array(col, dtype=float) for col in list(zip(*points))[:4])
        keep = (n >= 1) & channel_valid(E, V0, b, n, True)
        if not keep.any():
            return
        up, down = (amplitudes_batch(E[keep], V0[keep], b[keep], n[keep], s) for s in ("up", "down"))
        same = ("R", "T", "refl_same", "refl_flip", "trans_same", "trans_flip", "singular")
        for name in same:
            assert np.array_equal(getattr(up, name), getattr(down, name), equal_nan=True), name
        for name in ("Rp", "Tp"):
            assert np.array_equal(getattr(up, name), -getattr(down, name), equal_nan=True), name

    @settings(max_examples=150, deadline=None)
    @given(points=edge_points)
    def test_phase_identity_at_edges(self, points):
        # the thresholds and the V0 = E + 1 sliver included
        E, V0, b, n = (np.array(col, dtype=float) for col in list(zip(*points))[:4])
        up = np.array([p[4] == "up" for p in points])
        keep = channel_valid(E, V0, b, n, up)
        if keep.any():
            assert_phase_identity(amplitudes_batch(E[keep], V0[keep], b[keep], n[keep],
                                                   np.where(up[keep], "up", "down")))

    def test_phase_identity_on_seeded_grid(self, param_grid):
        assert_phase_identity(param_grid.amps)

    def test_oracle_matches_scalar_solve_on_seeded_grid(self, param_grid):
        g = param_grid
        solved, failed = solve_boundary_batch(g.E, g.V0, g.b, g.n, g.spin)
        assert not failed.any()
        for p, row in zip(channels(param_grid), solved):
            s = solve_boundary_system(p)
            assert tuple(row) == (s.R, s.Rp, s.T, s.Tp)

    def test_per_point_fallback_matches_batched_solve(self, param_grid, monkeypatch):
        g = param_grid[:200]
        batched, batched_failed = solve_boundary_batch(g.E, g.V0, g.b, g.n, g.spin)
        assert not batched_failed.any()
        solve, calls = np.linalg.solve, []

        def per_point_only(a, rhs):
            if np.ndim(a) > 2:
                raise np.linalg.LinAlgError("batched solve refused")
            calls.append(len(calls))
            if len(calls) == 8:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, rhs)

        monkeypatch.setattr(np.linalg, "solve", per_point_only)
        x, failed = solve_boundary_batch(g.E, g.V0, g.b, g.n, g.spin)
        assert len(calls) == len(g)
        assert failed[7] and np.isnan(x[7]).all()
        rest = np.arange(len(g)) != 7
        assert not failed[rest].any() and np.array_equal(x[rest], batched[rest])

    def test_broadcasting(self):
        e = np.array([[2.0], [3.0]])
        v0 = np.array([0.5, 6.0, 3.0])
        batch = amplitudes_batch(e, v0, 0.2, 1, "down")
        assert batch.R.shape == batch.singular.shape == batch.sum.shape == (2, 3)
        assert batch.singular[0, 2] and not batch.singular.ravel()[[0, 1, 3, 4, 5]].any()
        a = amplitudes(make_channel(3.0, 6.0, 0.2, Spin.DOWN, 1))
        assert batch.T[1, 1] == a.T and REGIMES[batch.regime[1, 1]] is a.regime

    @pytest.mark.parametrize("spin", [True, np.array([True, False]), 1, Spin])
    def test_spin_not_a_bool_mask(self, spin):
        # public batch calls parse spins strictly; only the private
        # _mask_kinematics, which selftest calls, takes a bool mask
        with pytest.raises(ValueError, match="spin must be 'up' or 'down'"):
            amplitudes_batch(2.0, 1.0, 0.1, 1, spin)
        with pytest.raises(ValueError, match="spin must be 'up' or 'down'"):
            solve_boundary_batch(2.0, 1.0, 0.1, 1, spin)

    def test_invalid_point_raises_typed_error(self):
        with pytest.raises(ClosedChannel, match=r"point \(1,\)"):
            amplitudes_batch([2.0, 1.0], 3.0, 0.0, 0, "down")
        with pytest.raises(InvalidSpinIndex, match=r"point \(0,\)"):
            amplitudes_batch(2.0, [1.0, 2.0], 0.1, [0.5, 1], "down")
        with pytest.raises(InvalidSpinIndex):
            amplitudes_batch(2.0, 1.0, 0.1, [1, 0], "up")
        with pytest.raises(ValueError):
            amplitudes_batch([2.0, np.nan], 1.0, 0.1, 1, "down")

    @pytest.mark.parametrize("batch", [amplitudes_batch, solve_boundary_batch])
    @pytest.mark.parametrize("n, where, message", [
        (10 ** 400, "()", "channel index n must be <= MAX_LEVEL = 9007199254740991, got 9007199254740992"),
        ([1, 10 ** 400], "(1,)", "channel index n must be <= MAX_LEVEL = 9007199254740991, got 9007199254740992"),
        ([-(10 ** 400), 1], "(0,)", "channel index n must be >= 0, got -9007199254740992"),
    ])
    def test_level_beyond_float_range(self, batch, n, where, message):
        # an int too large for a float is out of range, as in make_channel
        with pytest.raises(InvalidSpinIndex) as got:
            batch(2.0, 1.0, 0.1, n, "down")
        assert str(got.value) == f"point {where}: {message}"
        with pytest.raises(InvalidSpinIndex, match="MAX_LEVEL"):
            make_channel(2.0, 1.0, 0.1, "down", 10 ** 400)

    @pytest.mark.parametrize("batch", [amplitudes_batch, solve_boundary_batch])
    @pytest.mark.parametrize("n, shown", [
        (True, "True"), (False, "False"), (np.array([True, False]), "True"), ([10 ** 400, True], "True"),
        ([2, True], "True"), ((False, 1), "False"), ([1, np.True_], "True"),
    ])
    def test_level_not_a_bool(self, batch, n, shown):
        # make_channel's integer rule: a bool is not taken as 0 or 1
        message = f"channel index n must be an integer, got {shown}"
        with pytest.raises(InvalidSpinIndex, match="^" + re.escape(message) + "$"):
            batch(2.0, 1.0, 0.1, n, "down")

    @pytest.mark.parametrize("batch", [amplitudes_batch, solve_boundary_batch])
    @pytest.mark.parametrize("n, shown", [
        ("1", "'1'"), (b"1", "b'1'"), (["1", "2"], "'1'"), ([1, "2"], "'2'"), (np.array(["3"]), "'3'"),
        (np.array([1, b"2"], dtype=object), "b'2'"), (np.str_("1"), "'1'"), ([[1, 2], ["3", 4]], "'3'"),
    ])
    def test_level_not_a_text(self, batch, n, shown):
        # make_channel's integer rule: a str or bytes is not read as its number
        message = f"channel index n must be an integer, got {shown}"
        with pytest.raises(InvalidSpinIndex, match="^" + re.escape(message) + "$"):
            batch(2.0, 6.0, 0.2, n, "up")
