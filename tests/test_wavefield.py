import math
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
from kleinb.selftest import sample_params


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
        for payload in (raw[:-8], raw + b"\x00" * 8, raw[:64]):
            path.write_bytes(payload)
            with pytest.raises(ValueError, match="payload"):
                load_grid(path)
        path.write_bytes(raw[:40])
        with pytest.raises(ValueError, match="header"):
            load_grid(path)

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
