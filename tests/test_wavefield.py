import math
import re
import threading
import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from kleinb import (
    GridTooLarge,
    Regime,
    ScatterAmplitudes,
    Spin,
    amplitudes,
    assemble_field,
    boundary_values,
    continuity_residual,
    current_budget,
    integrated_current,
    load_grid,
    make_channel,
    momentum_right,
    save_grid,
)
from kleinb import wavefield
from kleinb.landau import eval_oscillator
from kleinb.wavefield import GRID_KIND_COMPONENTS, GRID_KIND_FACTORS, MAX_GRID_POINTS, _pieces

from _points import channels, sample_params
from _pool import forking, in_forked_child, never_started


def reference_field(params, y, z, y0=0.0):
    """Direct per-piece sum: every piece on its own side, every component.

    Returns the (4, ny, nz) values, the one-sided limits at z = 0 and,
    per side, the largest sum of the magnitudes of the terms there.
    """
    amps = amplitudes(params)
    if params.field.b == 0.0:
        lo = np.zeros_like(y) if params.n == 0 else np.ones_like(y)
        hi = np.ones_like(y)
    else:
        xi = (y - y0) / params.field.magnetic_length
        lo, hi = eval_oscillator(params.n - 1, xi), eval_oscillator(params.n, xi)
    trans = (lo, hi, lo, hi)
    values = np.zeros((4, y.size, z.size), dtype=complex)
    edges = [np.zeros((4, y.size), dtype=complex) for _ in range(2)]
    magnitudes = [np.zeros((4, y.size)) for _ in range(2)]
    left = z < 0.0
    for coeff, kz, side in _pieces(params, amps):
        mask = left if side < 0 else ~left
        phase = np.exp(1j * kz * z[mask])
        for i in range(4):
            values[i][:, mask] += coeff[i] * trans[i][:, None] * phase[None, :]
            edges[side > 0][i] += coeff[i] * trans[i]
            magnitudes[side > 0][i] += abs(coeff[i]) * np.abs(trans[i])
    return values, edges, [m.max() for m in magnitudes]


def full_grid_current(field):
    """Reference for integrated_current: the full-grid formula, trapezoid
    over y of 2 Re(v0* v2) - 2 Re(v1* v3) on the (4, ny, nz) values."""
    v = field.values
    jz = 2.0 * np.real(np.conj(v[0]) * v[2]) - 2.0 * np.real(np.conj(v[1]) * v[3])
    return np.trapezoid(jz, field.y, axis=0)


def current_fractions(params, ny=2049, nz=32):
    """y-integrated currents on each side, normalized to the incident one."""
    length = params.field.magnetic_length if params.field.b > 0 else 1.0
    half = (6.0 + math.sqrt(2.0 * params.n + 1.0)) * length
    y = np.linspace(-half, half, ny)
    field = assemble_field(params, y=y, nz=nz)
    zero = ScatterAmplitudes(R=0j, Rp=0j, T=0j, Tp=0j, regime=field.amps.regime)
    ref = assemble_field(params, amps=zero, y=y, nz=nz)
    j = integrated_current(field)
    j_inc = integrated_current(ref)[0]
    return j[field.z < 0] / j_inc, j[field.z >= 0] / j_inc


class TestAssembly:
    def test_no_step_is_plane_wave(self):
        p = make_channel(2.0, 0.0, 0.1, Spin.UP, 1)
        f = assemble_field(p, ny=65, nz=41)
        dens = f.density()
        # |e^{ipz}| = 1: no z structure anywhere
        assert np.ptp(dens, axis=1).max() < 1e-12 * dens.max()
        assert continuity_residual(f) == 0.0

    def test_default_grid_spans(self):
        p = make_channel(2.0, 1.0, 0.25, Spin.UP, 1)
        f = assemble_field(p, ny=33, nz=17)
        # six magnetic lengths past the turning point sqrt(2n + 1) L
        half = (math.sqrt(3.0) + 6.0) * p.field.magnetic_length
        assert f.y[0] == pytest.approx(-half)
        assert f.y[-1] == pytest.approx(half)
        lam = 2.0 * math.pi / math.sqrt(p.E ** 2 - 1.0 - p.C)
        assert f.z[0] == pytest.approx(-10.0 * lam)

    def test_guiding_center_offset(self):
        p = make_channel(2.0, 1.0, 0.25, Spin.UP, 1)
        f = assemble_field(p, ny=33, nz=9, k_x=0.5)
        length = p.field.magnetic_length
        assert f.y0 == pytest.approx(0.5 * length ** 2)
        assert f.y[0] == pytest.approx(f.y0 - (math.sqrt(3.0) + 6.0) * length)

    def test_density_nonnegative(self):
        p = make_channel(2.0, 6.0, 0.2, Spin.UP, 1)
        f = assemble_field(p, ny=65, nz=65)
        assert np.all(f.density() >= 0.0)

    def test_density_matches_abs_squared(self):
        f = assemble_field(make_channel(2.0, 6.0, 0.2, Spin.UP, 1), ny=300, nz=257)
        old = np.sum(np.abs(f.values) ** 2, axis=0)
        assert np.all(np.abs(f.density() - old) <= 4 * np.finfo(float).eps * old)

    def test_density_temporaries_bounded(self):
        f = assemble_field(make_channel(2.0, 6.0, 0.2, Spin.UP, 1), ny=500, nz=500)
        tracemalloc.start()
        try:
            dens = f.density()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - dens.nbytes < 2 * dens.nbytes

    def test_grid_guard(self):
        p = make_channel(2.0, 1.0, 0.1, Spin.UP, 1)
        with pytest.raises(GridTooLarge):
            assemble_field(p, ny=4096, nz=4096)

    def test_evanescent_density_decays(self):
        p = make_channel(2.0, 2.5, 0.3, Spin.UP, 2)
        assert amplitudes(p).regime is Regime.CASE_III
        f = assemble_field(p, ny=129, nz=201)
        dens = f.density()[:, f.z >= 0].sum(axis=0)
        assert np.all(np.diff(dens) < 0.0)

    def test_evanescent_decay_rate_matches_momentum(self):
        p = make_channel(2.0, 2.5, 0.3, Spin.UP, 2)
        q_mag = abs(momentum_right(p))
        f = assemble_field(p, ny=257, nz=257)
        mask = f.z > 0.2
        integrated = np.trapezoid(f.density()[:, mask], f.y, axis=0)
        slope = np.polyfit(f.z[mask], np.log(integrated), 1)[0]
        assert slope == pytest.approx(-2.0 * q_mag, rel=0.01)


class TestSeparableAssembly:
    @staticmethod
    def assert_matches_reference(p, k_x=0.0):
        f = assemble_field(p, ny=33, nz=24, k_x=k_x)
        ref, (lo_ref, hi_ref), (lo_mag, hi_mag) = reference_field(p, f.y, f.z, f.y0)
        assert np.abs(f.values - ref).max() <= 1e-14 * np.abs(ref).max()
        # the evanescent pieces cancel at z = 0+ (terms ~100x their sum),
        # so the limits are compared on the scale of the terms summed
        lo, hi = boundary_values(f)
        assert np.abs(lo - lo_ref).max() <= 1e-14 * lo_mag
        assert np.abs(hi - hi_ref).max() <= 1e-14 * hi_mag

    def test_matches_per_piece_sum_on_seeded_grid(self, param_grid):
        for p in channels(param_grid):
            self.assert_matches_reference(p)

    @pytest.mark.parametrize("args", [
        (2.0, 2.0, 0.3, Spin.UP, 1),     # E = V0: degenerate normalization
        (3.0, 3.0, 0.0, Spin.DOWN, 0),   # E = V0 without a field
        (2.0, 1.2, 0.0, Spin.DOWN, 0),   # b = 0, Phi_{-1} = 0
        (2.0, 6.0, 0.0, Spin.UP, 2),     # b = 0, Klein regime
    ])
    def test_matches_per_piece_sum_at_special_points(self, args):
        self.assert_matches_reference(make_channel(*args), k_x=0.4)


SPECIAL_POINTS = [
    (2.0, 2.0, 0.3, Spin.UP, 1),     # E = V0: degenerate normalization
    (2.0, 1.2, 0.0, Spin.DOWN, 0),   # b = 0, Phi_{-1} = 0
    (2.0, 6.0, 0.0, Spin.UP, 2),     # b = 0, Klein regime
]


class TestFactorisedField:
    def test_current_matches_full_grid_formula(self, param_grid):
        worst = 0.0
        for p in list(channels(param_grid)) + [make_channel(*args) for args in SPECIAL_POINTS]:
            f = assemble_field(p, ny=65, nz=17)
            zero = ScatterAmplitudes(R=0j, Rp=0j, T=0j, Tp=0j, regime=f.amps.regime)
            # incident current from the reference formula; in regime III the
            # transmitted current is 0 and the reference there is rounding noise
            j_inc = full_grid_current(assemble_field(p, amps=zero, y=f.y, z=f.z[:1]))[0]
            err = np.abs(integrated_current(f) - full_grid_current(f)).max() / j_inc
            worst = max(worst, err)
        assert worst <= 1e-14

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="needs an extended-precision long double")
    def test_density_against_extended_precision(self, param_grid):
        # the abs-squared reference above carries its own ~3.7 eps; this one
        # squares the stored float factors in long double
        eps = np.finfo(float).eps
        for p in channels(param_grid[:200]):
            f = assemble_field(p, ny=65, nz=17)
            t, re, im = (x.astype(np.longdouble) for x in (f.trans, f.profile.real, f.profile.imag))
            exact = np.einsum("cy,cz->yz", t * t, re * re + im * im)
            normal = exact > 1e-290  # subnormal squares carry no relative accuracy
            assert np.all(np.abs(f.density() - exact)[normal] <= 2.5 * eps * exact[normal])

    @pytest.mark.parametrize("read_first", [False, True])
    def test_components_payload_is_values(self, tmp_path, param_grid, read_first):
        points = list(channels(param_grid[:30])) + [make_channel(*args) for args in SPECIAL_POINTS]
        for p in points:
            f = assemble_field(p, ny=33, nz=24, k_x=0.4)
            if read_first:
                f.values
            save_grid(tmp_path / "comp.bin", f, what="components")
            _, data = load_grid(tmp_path / "comp.bin")
            assert np.array_equal(data.view(np.int64), f.values.view(np.int64))

    @pytest.mark.parametrize("ny, nz", [
        (200, 1000),
        (2000, 64),
        (100_000, 1),    # one column
        (3, 70_000),     # rows wider than 1 MiB
        (1, 1000),
        (1000, 1),
    ])
    def test_blocked_components_payload_is_values(self, tmp_path, ny, nz):
        for args in [(2.0, 6.0, 0.2, Spin.UP, 1), *SPECIAL_POINTS]:
            f = assemble_field(make_channel(*args), ny=ny, nz=nz, k_x=0.4)
            save_grid(tmp_path / "comp.bin", f, what="components")
            _, data = load_grid(tmp_path / "comp.bin")
            assert np.array_equal(data.view(np.int64), f.values.view(np.int64))

    def test_components_writer_memory_bounded(self, tmp_path):
        # one (1000, 1000) complex slab is 16 MB; the writer writes the factors
        f = assemble_field(make_channel(2.0, 6.0, 0.2, Spin.UP, 1), ny=1000, nz=1000)
        tracemalloc.start()
        try:
            save_grid(tmp_path / "comp.bin", f, what="components")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 << 10

    def test_factor_consumers_build_no_grid(self, tmp_path):
        for args in [(2.0, 6.0, 0.2, Spin.UP, 1), *SPECIAL_POINTS]:
            f = assemble_field(make_channel(*args), ny=40, nz=30)
            f.density()
            integrated_current(f)
            continuity_residual(f)
            boundary_values(f)
            save_grid(tmp_path / "dens.bin", f, what="density")
            save_grid(tmp_path / "comp.bin", f, what="components")
            assert "values" not in f.__dict__
            assert f.values is f.values  # built once, then kept

    def test_field_is_frozen(self):
        # the kept grid is the product of the factors it was built from
        f = assemble_field(make_channel(2.0, 6.0, 0.2, Spin.UP, 1), ny=8, nz=6)
        values = f.values
        for name, value in [("trans", f.trans[:, ::-1]), ("profile", f.profile * 2.0),
                            ("values", None), ("y0", 1.0)]:
            with pytest.raises(FrozenInstanceError):
                setattr(f, name, value)
        assert f.values is values
        assert np.array_equal(values, f.trans[:, :, None] * f.profile[:, None, :])

    def test_arrays_are_read_only(self, tmp_path):
        # a write into a factor would leave the kept grid stale
        y = np.linspace(-3.0, 3.0, 8)
        f = assemble_field(make_channel(2.0, 6.0, 0.2, Spin.UP, 1), y=y, nz=6)
        values = f.values
        for name in ("y", "z", "trans", "profile", "ends", "values"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(f, name)[0] = 5.0
        assert f.values is values
        assert np.array_equal(values, f.trans[:, :, None] * f.profile[:, None, :])
        # the caller's arrays stay writable, and apart from the field's
        y[0] = 5.0
        assert f.y[0] == -3.0
        trans = np.array(f.trans)
        assert replace(f, trans=trans).trans.base is trans and trans.flags.writeable
        save_grid(tmp_path / "c.bin", f, what="components")
        for array in (f.density(), load_grid(tmp_path / "c.bin")[1]):
            array[0] = 5.0

    def test_current_temporaries_bounded(self):
        f = assemble_field(make_channel(2.0, 6.0, 0.2, Spin.UP, 1), ny=500, nz=500)
        tracemalloc.start()
        try:
            integrated_current(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * 500 * 500 * 8


class TestInputValidation:
    P = make_channel(2.0, 1.0, 0.2, Spin.DOWN, 1)
    P_FREE = make_channel(2.0, 1.0, 0.0, Spin.DOWN, 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_z_rejected(self, bad):
        with pytest.raises(ValueError, match="^z must"):
            assemble_field(self.P, z=np.array([-1.0, bad, 1.0]), ny=8)

    def test_non_finite_y_rejected_without_field(self):
        with pytest.raises(ValueError, match="^y must"):
            assemble_field(self.P_FREE, y=np.array([0.0, math.nan]), nz=8)

    @pytest.mark.parametrize("y", [np.zeros((2, 3)), np.array([]), np.float64(1.0)])
    def test_axis_must_be_non_empty_1d(self, y):
        with pytest.raises(ValueError, match="^y must"):
            assemble_field(self.P, y=y, nz=8)

    @pytest.mark.parametrize("count", [2.7, 0, -3, True, "8"])
    def test_counts_must_be_positive_integers(self, count):
        with pytest.raises(ValueError, match="^ny must"):
            assemble_field(self.P, ny=count, nz=8)
        with pytest.raises(ValueError, match="^nz must"):
            assemble_field(self.P, ny=8, nz=count)

    def test_numpy_integer_counts_accepted(self):
        f = assemble_field(self.P, ny=np.int64(5), nz=np.int32(3))
        assert f.values.shape == (4, 5, 3)

    @pytest.mark.parametrize("half", [0.0, -1.0, math.inf, math.nan])
    @pytest.mark.parametrize("axis", ["y", "z"])
    def test_halfwidth_must_be_finite_and_positive(self, axis, half):
        message = f"{axis} halfwidth must be finite and > 0, got {half}"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            assemble_field(self.P, ny=8, nz=8, **{f"{axis}_halfwidth": half})

    @pytest.mark.parametrize("b", [0.2, 0.0])
    @pytest.mark.parametrize("halfwidth, message", [
        ({"z_halfwidth": 1e308}, "^z must be a finite"),    # z's span 2e308 overflows
        ({"y_halfwidth": 1e308}, "^y must be a finite"),
        ({"z_halfwidth": 8e307}, "^longitudinal profile is not finite on the z grid"),  # k_z z overflows
    ])
    def test_overflowing_spans_rejected(self, b, halfwidth, message):
        # RuntimeWarnings are errors in this suite: none may be emitted on the way
        with pytest.raises(ValueError, match=message):
            assemble_field(make_channel(2.0, 6.0, b, Spin.UP, 1), ny=3, nz=4, **halfwidth)

    @pytest.mark.parametrize("z", [[-1.5e308, 0.0, 1.0], [-1.7e308]])
    def test_profile_beyond_float_range_rejected(self, z):
        # cp z overflows on the incident side, cp = 1.6
        with pytest.raises(ValueError, match="^longitudinal profile is not finite on the z grid"):
            assemble_field(self.P, z=np.array(z), ny=3)
        # the evanescent side decays to 0 at any finite z
        assert np.isfinite(assemble_field(self.P, z=np.array([0.0, 1.7e308]), ny=3).profile).all()

    def test_guiding_center_overflow_rejected(self):
        for k_x in (1e308, math.nan):
            with pytest.raises(ValueError, match="k_x"):
                assemble_field(self.P, ny=8, nz=8, k_x=k_x)
        # at b = 0 the guiding center is 0 whatever k_x, but k_x is still checked
        for k_x in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"^guiding center k_x L\\^2 must be finite, got k_x = {k_x}$"):
                assemble_field(make_channel(2.0, 6.0, 0.0, Spin.DOWN, 0), ny=8, nz=8, k_x=k_x)


class TestContinuity:
    def test_matched_amplitudes_are_continuous(self, param_grid):
        for p in channels(param_grid[:60]):
            f = assemble_field(p, ny=257, nz=2)
            assert continuity_residual(f) < 1e-10

    def test_boundary_values_shapes(self):
        p = make_channel(2.0, 6.0, 0.2, Spin.UP, 1)
        f = assemble_field(p, ny=33, nz=2)
        lo, hi = boundary_values(f)
        assert lo.shape == hi.shape == (4, 33)

    def test_perturbed_reflection_detected(self):
        p = make_channel(2.0, 6.0, 0.2, Spin.UP, 1)
        a = amplitudes(p)
        bad = replace(a, R=a.R + 1e-3)
        f = assemble_field(p, amps=bad, ny=129, nz=2)
        assert continuity_residual(f) > 1e-4

    def test_underflowed_boundary_reads_zero(self):
        # 900 magnetic lengths off the guiding center every Phi underflows to 0
        f = assemble_field(make_channel(2.0, 1.0, 1.0, Spin.UP, 1), y=[900.0], nz=4)
        assert not f.trans.any()
        assert continuity_residual(f) == 0.0

    def test_degenerate_normalization_point(self):
        # E = V0: T vanishes while its normalization diverges; the
        # assembled field must stay finite and continuous regardless
        p = make_channel(2.0, 2.0, 0.3, Spin.UP, 1)
        f = assemble_field(p, ny=129, nz=65)
        assert np.all(np.isfinite(f.values.view(float)))
        assert continuity_residual(f) < 1e-10
        right = f.density()[:, f.z >= 0]
        assert right.max() > 0.0  # transmitted tail exists even though T = 0


class TestCurrent:
    @pytest.mark.parametrize("args", [
        (2.0, 6.0, 0.2, Spin.UP, 1),     # Klein regime with flips
        (5.0, 2.0, 0.35, Spin.DOWN, 2),  # above the step with flips
        (2.0, 2.5, 0.3, Spin.UP, 2),     # evanescent
        (2.0, 1.2, 0.0, Spin.DOWN, 0),   # field-free
    ])
    def test_field_current_matches_budget(self, args):
        p = make_channel(*args)
        left, right = current_fractions(p)
        b = current_budget(p)
        assert np.abs(left - (1.0 - b.refl_same - b.refl_flip)).max() < 1e-8
        assert np.abs(right - (b.trans_same + b.trans_flip)).max() < 1e-8

    @pytest.mark.parametrize("n", [18, 60])
    def test_default_grid_conserves_current(self, n):
        # from n = 18 on the turning point sqrt(2n + 1) L lies past 6 L: a
        # grid that stops there truncates the transverse integrals
        p = make_channel(3.0, 1.0, 0.01, Spin.DOWN, n)
        f = assemble_field(p, ny=2048, nz=64)
        # incident current from the incident wave alone, on the same y grid
        zero = ScatterAmplitudes(R=0j, Rp=0j, T=0j, Tp=0j, regime=f.amps.regime)
        v = assemble_field(p, amps=zero, y=f.y, z=np.array([-1.0])).values[:, :, 0]
        jz = 2.0 * np.real(np.conj(v[0]) * v[2]) - 2.0 * np.real(np.conj(v[1]) * v[3])
        j = integrated_current(f) / np.trapezoid(jz, f.y)
        b = current_budget(p)
        left = f.z < 0.0
        assert np.abs(j[left] - (1.0 - b.refl_same - b.refl_flip)).max() < 1e-8
        assert np.abs(j[~left] - (b.trans_same + b.trans_flip)).max() < 1e-8

    def test_current_is_z_independent(self):
        p = make_channel(2.0, 6.0, 0.2, Spin.UP, 1)
        left, right = current_fractions(p)
        assert np.ptp(left) < 1e-10
        assert np.ptp(right) < 1e-10


class TestGridFiles:
    def test_density_round_trip(self, tmp_path):
        p = make_channel(2.0, 2.5, 0.3, Spin.UP, 2)
        f = assemble_field(p, ny=48, nz=40)
        path = tmp_path / "dens.bin"
        payload = save_grid(path, f, what="density")
        assert path.stat().st_size == 64 + 48 * 40 * 8
        info, data = load_grid(path)
        assert (info["ny"], info["nz"]) == (48, 40)
        assert info["kind"] == 0
        assert info["y_start"] == f.y[0] and info["z_start"] == f.z[0]
        assert info["dy"] == pytest.approx(f.y[1] - f.y[0])
        np.testing.assert_array_equal(data, f.density())
        assert len(payload) == 1 and np.array_equal(data.view(np.int64), payload[0].view(np.int64))

    def test_components_round_trip(self, tmp_path):
        p = make_channel(2.0, 1.0, 0.2, Spin.DOWN, 1)
        f = assemble_field(p, ny=24, nz=20)
        path = tmp_path / "comp.bin"
        payload = save_grid(path, f, what="components")
        info, data = load_grid(path)
        assert info["kind"] == GRID_KIND_FACTORS
        assert data.shape == (4, 24, 20)
        np.testing.assert_array_equal(data, f.values)
        assert len(payload) == 2 and payload[0] is f.trans and payload[1] is f.profile

    @pytest.mark.parametrize("ny, nz", [(24, 20), (1, 1000), (2000, 1)])
    def test_components_stored_as_factors(self, tmp_path, ny, nz):
        f = assemble_field(make_channel(2.0, 6.0, 0.2, Spin.UP, 1), ny=ny, nz=nz)
        path = tmp_path / "comp.bin"
        save_grid(path, f, what="components")
        assert path.stat().st_size == 64 + 32 * ny + 64 * nz
        assert load_grid(path)[0]["kind"] == GRID_KIND_FACTORS
        assert "values" not in f.__dict__

    def test_grid_components_file_still_read(self, tmp_path):
        # a components file as written before the factors payload, the (4, ny, nz)
        # grid, loads to the array save_grid's factors file of the field loads to
        for args in [(2.0, 6.0, 0.2, Spin.UP, 1), *SPECIAL_POINTS]:
            f = assemble_field(make_channel(*args), ny=24, nz=20, k_x=0.4)
            grid, factors = tmp_path / "grid.bin", tmp_path / "factors.bin"
            with open(grid, "wb") as fh:
                fh.write(wavefield._HEADER.pack(
                    b"KLBFIELD", 1, GRID_KIND_COMPONENTS, 24, 20, wavefield._spacing("y", f.y),
                    wavefield._spacing("z", f.z), f.y0, f.y[0], f.z[0]))
                f.values.tofile(fh)
            save_grid(factors, f, what="components")
            (info, data), (info_f, data_f) = load_grid(grid), load_grid(factors)
            assert (info["kind"], info_f["kind"]) == (GRID_KIND_COMPONENTS, GRID_KIND_FACTORS)
            assert {**info, "kind": 0} == {**info_f, "kind": 0}
            assert data.shape == (4, 24, 20)
            assert np.array_equal(data.view(np.int64), f.values.view(np.int64))
            assert np.array_equal(data.view(np.int64), data_f.view(np.int64))

    def test_factors_header_beyond_guard_rejected(self, tmp_path):
        # 9.6 MB of factors would describe a 640 GB grid
        ny = nz = 100_000
        path = tmp_path / "huge.bin"
        path.write_bytes(wavefield._HEADER.pack(
            b"KLBFIELD", 1, GRID_KIND_FACTORS, ny, nz, 1.0, 1.0, 0.0, 0.0, 0.0))
        with open(path, "ab") as fh:
            fh.truncate(64 + 32 * ny + 64 * nz)
        with pytest.raises(GridTooLarge, match=f"guard of {MAX_GRID_POINTS}"):
            load_grid(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"\x00" * 128)
        with pytest.raises(ValueError):
            load_grid(path)

    def test_bumped_version_rejected(self, tmp_path):
        path = tmp_path / "v2.bin"
        save_grid(path, assemble_field(make_channel(2.0, 1.0, 0.2, Spin.DOWN, 1), ny=8, nz=8))
        raw = bytearray(path.read_bytes())
        raw[8:12] = (2).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="version 2"):
            load_grid(path)

    @pytest.mark.parametrize("what", ["density", "components"])
    def test_payload_length_checked(self, tmp_path, what):
        path = tmp_path / "cut.bin"
        save_grid(path, assemble_field(make_channel(2.0, 1.0, 0.2, Spin.DOWN, 1), ny=8, nz=8),
                  what=what)
        raw = path.read_bytes()
        for payload in (raw[:-8], raw + b"\x00" * 8, raw[:64], raw[:-1], raw + b"\x00"):
            path.write_bytes(payload)
            with pytest.raises(ValueError, match="payload"):
                load_grid(path)
        path.write_bytes(raw[:40])
        with pytest.raises(ValueError, match="header"):
            load_grid(path)

    @pytest.mark.parametrize("axes", [
        {"y": np.array([0.0, 1.0, 5.0]), "z": np.array([-1.0, 0.0, 1.0])},
        {"y": np.array([-1.0, 0.0, 1.0]), "z": np.array([0.0, 1.0, 5.0])},
        {"y": np.array([2.0, 2.0, 2.0]), "z": np.array([-1.0, 0.0, 1.0])},
    ])
    def test_non_uniform_grid_rejected(self, tmp_path, axes):
        f = assemble_field(make_channel(2.0, 1.0, 0.2, Spin.DOWN, 1), **axes)
        path = tmp_path / "bad.bin"
        with pytest.raises(ValueError, match="uniformly spaced"):
            save_grid(path, f)
        assert not path.exists()

    def test_offset_linspace_grids_accepted(self, tmp_path):
        p = make_channel(2.0, 1.0, 0.01, Spin.DOWN, 1)
        for k_x in (0.0, 1.0, 1e3):
            f = assemble_field(p, ny=2001, nz=3, k_x=k_x)
            save_grid(tmp_path / "off.bin", f)
            info, _ = load_grid(tmp_path / "off.bin")
            assert info["dy"] == pytest.approx(f.y[1] - f.y[0], rel=1e-9)

    def test_unknown_payload_rejected(self, tmp_path):
        p = make_channel(2.0, 1.0, 0.2, Spin.DOWN, 1)
        f = assemble_field(p, ny=8, nz=8)
        with pytest.raises(ValueError):
            save_grid(tmp_path / "x.bin", f, what="phase")
        path = tmp_path / "kind7.bin"
        save_grid(path, f)
        raw = bytearray(path.read_bytes())
        raw[12:16] = (7).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="^unknown payload kind 7$"):
            load_grid(path)


def random_factors(ny, nz, seed=0):
    """Seeded (4, ny) float and (4, nz) complex factors with +0 and -0 entries."""
    rng = np.random.default_rng([ny, nz, seed])
    trans = rng.standard_normal((4, ny))
    trans[:, ::7], trans[:, 3::11] = 0.0, -0.0
    profile = rng.standard_normal((4, nz)) + 1j * rng.standard_normal((4, nz))
    profile[:, ::5], profile[:, 2::13] = complex(0.0, -0.0), complex(-0.0, 0.0)
    return trans, profile


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestOuterProduct:
    """wavefield._outer fills (4, ny, nz) in row blocks, on at most one thread
    per CPU, and must give the bits of the one broadcast product computed here."""

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    @pytest.mark.parametrize("ny, nz", [
        (1, 1),
        (1, 100_000),
        (100_000, 1),    # 400000 rows: 3 and 6 blocks leave remainders
        (3, 70_000),     # 12 rows over 8 blocks
        (1000, 1000),
        (1001, 333),     # 4004 rows over 3 and 8 blocks
        (182, 182),      # just above the inline limit: two blocks
    ])
    def test_bits_equal_broadcast_product(self, monkeypatch, cpus, ny, nz):
        monkeypatch.setattr(wavefield, "_cpu_count", lambda: cpus)
        trans, profile = random_factors(ny, nz)
        want = trans[:, :, None] * profile[:, None, :]
        assert same_bits(wavefield._outer(trans, profile), want)

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_values_and_loaded_grid_equal_broadcast_product(self, tmp_path, monkeypatch, cpus):
        monkeypatch.setattr(wavefield, "_cpu_count", lambda: cpus)
        f = assemble_field(make_channel(2.0, 6.0, 0.2, Spin.UP, 1), ny=1000, nz=1000, k_x=0.4)
        want = f.trans[:, :, None] * f.profile[:, None, :]
        save_grid(tmp_path / "comp.bin", f, what="components")
        assert same_bits(load_grid(tmp_path / "comp.bin")[1], want)
        assert same_bits(f.values, want)

    @pytest.mark.parametrize("ny, nz, cpus, pooled", [
        (64, 64, 8, False), (128, 128, 8, False), (181, 181, 8, False), (1, 32767, 8, False),
        (182, 182, 8, True), (1, 32768, 8, True),
        (1000, 1000, 1, False),
    ])
    def test_small_grids_and_one_cpu_run_inline(self, monkeypatch, ny, nz, cpus, pooled):
        # under 2 MiB of output, or on one CPU, is one block on the caller's thread
        used, executor = [], wavefield._executor

        def counted():
            used.append(True)
            return executor()

        monkeypatch.setattr(wavefield, "_cpu_count", lambda: cpus)
        monkeypatch.setattr(wavefield, "_executor", counted)
        trans, profile = random_factors(ny, nz)
        assert same_bits(wavefield._outer(trans, profile), trans[:, :, None] * profile[:, None, :])
        assert bool(used) == pooled

    @pytest.mark.parametrize("workers", ["never", "late"])
    def test_caller_fills_every_block_no_worker_claimed(self, monkeypatch, workers):
        # a worker that has not started when the caller runs out of free
        # blocks must neither hold up the product nor touch it later
        monkeypatch.setattr(wavefield, "_cpu_count", lambda: 3)
        queued = never_started(monkeypatch)
        trans, profile = random_factors(700, 700)
        want = trans[:, :, None] * profile[:, None, :]
        got = wavefield._outer(trans, profile)
        assert len(queued) == 2 and same_bits(got, want)
        if workers == "late":
            got[...] = 0.0
            for job in queued:
                job.fn(*job.args)
            assert not np.any(got)

    @staticmethod
    def worker_fills_a_block(monkeypatch, failing=None):
        """Patch np.multiply so that the caller's first multiply waits until a
        pool worker is inside one: the product then needs a worker that runs.
        The thread named by failing raises BlockFailed from its multiplies."""
        entered, multiply = threading.Event(), np.multiply

        def paired(*args, **kwargs):
            on_worker = threading.current_thread() is not threading.main_thread()
            if on_worker:
                entered.set()
            elif not entered.wait(10):
                raise AssertionError("no pool worker filled a block")
            if failing == ("worker" if on_worker else "caller"):
                raise BlockFailed(failing)
            return multiply(*args, **kwargs)

        monkeypatch.setattr(np, "multiply", paired)

    @pytest.mark.parametrize("cpus", [2, 3, 8])
    @pytest.mark.parametrize("ny, nz", [(1000, 1000), (1001, 333)])
    def test_every_row_filled_once(self, monkeypatch, cpus, ny, nz):
        # a block filled twice writes the same bits again: only a count sees it
        filled, multiply = [], np.multiply

        def counted(*args, **kwargs):
            filled.append(kwargs["out"].shape[0])
            return multiply(*args, **kwargs)

        monkeypatch.setattr(wavefield, "_cpu_count", lambda: cpus)
        monkeypatch.setattr(np, "multiply", counted)
        wavefield._outer(*random_factors(ny, nz))
        assert sum(filled) == 4 * ny

    @pytest.mark.parametrize("failing", ["worker", "caller"])
    def test_block_exception_raised_to_caller(self, monkeypatch, failing):
        monkeypatch.setattr(wavefield, "_cpu_count", lambda: 2)
        trans, profile = random_factors(1000, 1000)
        self.worker_fills_a_block(monkeypatch, failing)
        with pytest.raises(BlockFailed, match=f"^{failing}$"):
            wavefield._outer(trans, profile)

    @forking
    def test_forked_child_gets_a_working_pool(self, monkeypatch):
        # a child inherits the pool object but not its threads; without the
        # at-fork hook no worker of the child's first pooled product runs
        monkeypatch.setattr(wavefield, "_cpu_count", lambda: 2)
        trans, profile = random_factors(512, 512)
        want = trans[:, :, None] * profile[:, None, :]
        assert same_bits(wavefield._outer(trans, profile), want)

        def check():
            self.worker_fills_a_block(monkeypatch)
            return same_bits(wavefield._outer(trans, profile), want)

        in_forked_child(check, 10)


class BlockFailed(Exception):
    pass


def test_random_fields_are_finite(seed):
    rng = np.random.default_rng(seed)
    for _ in range(10):
        p = sample_params(rng, n_max=8)
        f = assemble_field(p, ny=64, nz=32)
        assert np.all(np.isfinite(f.values.view(float)))
