import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    h0_amplitudes,
    kinematic_factor,
    klein_limit,
    make_channel,
    momentum_left,
    momentum_right,
    solve_boundary_batch,
    solve_boundary_system,
)
from kleinb.selftest import amplitude_deviation
from kleinb.states import REGIMES


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
    def test_no_step_is_unity(self):
        k = kinematic_factor(make_channel(2.0, 0.0, 0.1, Spin.UP, 1))
        assert k.kappa == 1.0

    def test_evanescent_interior_is_positive_imaginary(self):
        k = kinematic_factor(make_channel(2.0, 2.0, 0.0, Spin.DOWN, 0))
        assert k.kappa.real == 0.0
        assert k.kappa.imag > 0.0

    def test_klein_regime_value(self):
        # q < 0 and eps_bar < 0 cancel: kappa real and positive
        k = kinematic_factor(make_channel(2.0, 6.0, 0.2, Spin.UP, 1))
        assert k.kappa.imag == 0.0
        assert k.kappa.real == pytest.approx(math.sqrt(14.6 / 2.6), rel=1e-15)
        assert k.kappa == pytest.approx(kappa_reference(2.0, 6.0, 0.2, 1), rel=1e-15)

    def test_propagating_regimes_real_nonnegative(self, param_grid):
        for p in param_grid:
            k = kinematic_factor(p).kappa
            if classify_regime(p) is Regime.CASE_III:
                assert k.real == 0.0
            else:
                assert k.imag == 0.0 and k.real >= 0.0

    def test_singular_step_guard(self):
        with pytest.raises(SingularStep):
            kinematic_factor(make_channel(2.0, 3.0, 0.1, Spin.UP, 1))
        with pytest.raises(SingularStep):
            amplitudes(make_channel(2.0, 3.0 + 1e-14, 0.1, Spin.UP, 1))


def classify_regime(p):
    return amplitudes(p).regime


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
        for p in param_grid:
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
        worst = max(amplitude_deviation(p) for p in param_grid)
        assert worst < 1e-12

    def test_degenerate_normalization_reported(self):
        # E = V0 exactly: the transmitted spinor cannot be normalized
        with pytest.raises(SingularMatrix):
            solve_boundary_system(make_channel(2.0, 2.0, 0.0, Spin.DOWN, 0))


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
        worst = max(abs(current_budget(p).sum - 1.0) for p in param_grid)
        assert worst < 1e-12


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
        for p in param_grid[:100]:
            t2, tp2 = klein_limit(p.spin, p.n, p.E, p.field.b)
            assert t2 > 0.0
            assert tp2 >= 0.0
            assert (tp2 > 0.0) == (p.C > 0.0)

    def test_validation(self):
        with pytest.raises(ClosedChannel):
            klein_limit(Spin.DOWN, 4, 1.5, 0.5)


class TestFieldFreePath:
    def test_no_step(self):
        a = h0_amplitudes(2.0, 0.0)
        assert (a.R, a.Rp, a.T, a.Tp) == (0.0, 0.0, 1.0, 0.0)

    def test_bit_identical_to_general_path(self):
        for e, v0 in [(2.0, 10.0), (1.3, 0.4), (2.0, 2.5), (5.0, 3.0)]:
            a = h0_amplitudes(e, v0)
            g = amplitudes(make_channel(e, v0, 0.0, Spin.DOWN, 0))
            assert (a.R, a.Rp, a.T, a.Tp, a.regime) == (g.R, g.Rp, g.T, g.Tp, g.regime)

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
        for p in param_grid[:150]:
            k = kinematic_factor(p)
            assert k.cp == momentum_left(p)
            assert k.cq == momentum_right(p)
            want = k.cq * k.eps / (k.cp * k.eps_bar)
            assert cmath.isclose(k.kappa, want, rel_tol=1e-15, abs_tol=0.0)


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


class TestBatch:
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

    def test_oracle_matches_scalar_solve_on_seeded_grid(self, param_grid):
        g = param_grid
        solved, failed = solve_boundary_batch(g.E, g.V0, g.b, g.n, g.spin)
        assert not failed.any()
        for p, row in zip(param_grid, solved):
            s = solve_boundary_system(p)
            assert tuple(row) == (s.R, s.Rp, s.T, s.Tp)

    def test_broadcasting(self):
        e = np.array([[2.0], [3.0]])
        v0 = np.array([0.5, 6.0, 3.0])
        batch = amplitudes_batch(e, v0, 0.2, 1, "down")
        assert batch.R.shape == batch.singular.shape == batch.sum.shape == (2, 3)
        assert batch.singular[0, 2] and not batch.singular.ravel()[[0, 1, 3, 4, 5]].any()
        a = amplitudes(make_channel(3.0, 6.0, 0.2, Spin.DOWN, 1))
        assert batch.T[1, 1] == a.T and REGIMES[batch.regime[1, 1]] is a.regime

    def test_invalid_point_raises_typed_error(self):
        with pytest.raises(ClosedChannel, match=r"point \(1,\)"):
            amplitudes_batch([2.0, 1.0], 3.0, 0.0, 0, "down")
        with pytest.raises(InvalidSpinIndex, match=r"point \(0,\)"):
            amplitudes_batch(2.0, [1.0, 2.0], 0.1, [0.5, 1], "down")
        with pytest.raises(InvalidSpinIndex):
            amplitudes_batch(2.0, 1.0, 0.1, [1, 0], "up")
        with pytest.raises(ValueError):
            amplitudes_batch([2.0, np.nan], 1.0, 0.1, 1, "down")
