import math
import tracemalloc
from dataclasses import replace

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
from kleinb.landau import eval_oscillator
from kleinb.selftest import sample_params
from kleinb.wavefield import _pieces


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


def incident_only(params):
    zero = ScatterAmplitudes(R=0j, Rp=0j, T=0j, Tp=0j, regime=amplitudes(params).regime)
    return assemble_field(params, amps=zero, ny=257, nz=33)


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
        length = p.field.magnetic_length
        assert f.y[0] == pytest.approx(-6.0 * length)
        assert f.y[-1] == pytest.approx(6.0 * length)
        lam = 2.0 * math.pi / math.sqrt(p.E ** 2 - 1.0 - p.C)
        assert f.z[0] == pytest.approx(-10.0 * lam)

    def test_guiding_center_offset(self):
        p = make_channel(2.0, 1.0, 0.25, Spin.UP, 1)
        f = assemble_field(p, ny=33, nz=9, k_x=0.5)
        length = p.field.magnetic_length
        assert f.y0 == pytest.approx(0.5 * length ** 2)
        assert f.y[0] == pytest.approx(f.y0 - 6.0 * length)

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
        for p in param_grid:
            self.assert_matches_reference(p)

    @pytest.mark.parametrize("args", [
        (2.0, 2.0, 0.3, Spin.UP, 1),     # E = V0: degenerate normalization
        (3.0, 3.0, 0.0, Spin.DOWN, 0),   # E = V0 without a field
        (2.0, 1.2, 0.0, Spin.DOWN, 0),   # b = 0, Phi_{-1} = 0
        (2.0, 6.0, 0.0, Spin.UP, 2),     # b = 0, Klein regime
    ])
    def test_matches_per_piece_sum_at_special_points(self, args):
        self.assert_matches_reference(make_channel(*args), k_x=0.4)


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

    def test_guiding_center_overflow_rejected(self):
        for k_x in (1e308, math.nan):
            with pytest.raises(ValueError, match="k_x"):
                assemble_field(self.P, ny=8, nz=8, k_x=k_x)


class TestContinuity:
    def test_matched_amplitudes_are_continuous(self, param_grid):
        for p in param_grid[:60]:
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
        save_grid(path, f, what="density")
        assert path.stat().st_size == 64 + 48 * 40 * 8
        info, data = load_grid(path)
        assert (info["ny"], info["nz"]) == (48, 40)
        assert info["kind"] == 0
        assert info["y_start"] == f.y[0] and info["z_start"] == f.z[0]
        assert info["dy"] == pytest.approx(f.y[1] - f.y[0])
        np.testing.assert_array_equal(data, f.density())

    def test_components_round_trip(self, tmp_path):
        p = make_channel(2.0, 1.0, 0.2, Spin.DOWN, 1)
        f = assemble_field(p, ny=24, nz=20)
        path = tmp_path / "comp.bin"
        save_grid(path, f, what="components")
        info, data = load_grid(path)
        assert info["kind"] == 1
        assert data.shape == (4, 24, 20)
        np.testing.assert_array_equal(data, f.values)

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


def test_random_fields_are_finite(seed):
    rng = np.random.default_rng(seed)
    for _ in range(10):
        p = sample_params(rng, n_max=8)
        f = assemble_field(p, ny=64, nz=32)
        assert np.all(np.isfinite(f.values.view(float)))
