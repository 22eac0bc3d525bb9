import json
import math
import shlex

import numpy as np
import pytest

from kleinb import Spin, make_channel
from kleinb.states import REGIMES
from kleinb.cli import main
from kleinb.scattering import solve_boundary_batch
from kleinb.selftest import (
    BLOCK_SIZE,
    MAX_SELFTEST_POINTS,
    check_oracle,
    check_unitarity,
    run,
    sample_grid,
    sample_params,
)


def grid_arrays(grid):
    return (grid.E, grid.V0, grid.b, grid.n, grid.spin)


def in_sliver(E, V0):
    return np.abs(E + 1.0 - V0) < 2e-3 * (1.0 + V0)


class TestSampleGrid:
    def test_same_seed_same_arrays(self, seed):
        a, b = sample_grid(1500, seed), sample_grid(1500, seed)
        for x, y in zip(grid_arrays(a), grid_arrays(b)):
            assert x.dtype == y.dtype and np.array_equal(x, y)
        assert np.array_equal(a.amps.R, b.amps.R)

    def test_prefix_property(self, seed):
        small = sample_grid(700, seed)
        large = sample_grid(3 * BLOCK_SIZE + 5, seed)
        for x, y in zip(grid_arrays(small), grid_arrays(large)):
            assert np.array_equal(x, y[:700])
        assert np.array_equal(small.amps.T, large.amps.T[:700])

    def test_regimes_and_spins_covered(self, seed):
        grid = sample_grid(2000, seed)
        assert set(np.unique(grid.amps.regime)) == set(range(len(REGIMES)))
        assert set(grid.spin) == {Spin.UP, Spin.DOWN}
        paired = grid.spin[grid.n != 0]
        up = np.count_nonzero(paired == Spin.UP) / paired.size
        assert abs(up - 0.5) < 5 * math.sqrt(0.25 / paired.size)

    def test_lowest_state_is_spin_down(self, seed):
        grid = sample_grid(5000, seed)
        assert np.count_nonzero(grid.n == 0) > 0
        assert all(s is Spin.DOWN for s in grid.spin[grid.n == 0])

    def test_field_free_fraction(self, seed):
        points = 20000
        grid = sample_grid(points, seed)
        sigma = math.sqrt(0.15 * 0.85 / points)
        assert abs(np.count_nonzero(grid.b == 0.0) / points - 0.15) < 5 * sigma

    def test_sliver_excluded(self, seed):
        grid = sample_grid(20000, seed)
        assert not in_sliver(grid.E, grid.V0).any()
        assert not grid.amps.singular.any()

    def test_every_point_is_a_valid_channel(self, seed):
        grid = sample_grid(1000, seed)
        channels = list(grid)
        assert len(channels) == len(grid)
        for i, p in enumerate(channels):
            assert p == make_channel(grid.E[i], grid.V0[i], grid.b[i], grid.spin[i], int(grid.n[i]))

    @pytest.mark.parametrize("points", [0, -5, MAX_SELFTEST_POINTS + 1, 2.5, True])
    def test_points_bounded(self, points):
        with pytest.raises(ValueError, match="points"):
            sample_grid(points, 1)
        with pytest.raises(ValueError, match="points"):
            run(points, 1)


class TestSampleParams:
    @pytest.mark.parametrize("n_max", [20, 8])
    def test_same_rules(self, seed, n_max):
        rng = np.random.default_rng(seed)
        points = [sample_params(rng, n_max=n_max) for _ in range(3000)]
        E = np.array([p.E for p in points])
        V0 = np.array([p.V0 for p in points])
        b = np.array([p.field.b for p in points])
        n = np.array([p.n for p in points])
        spins = [p.spin for p in points]
        assert n.min() == 0 and n.max() == n_max
        assert all(s is Spin.DOWN for s, k in zip(spins, n) if k == 0)
        assert {Spin.UP, Spin.DOWN} == set(spins)
        assert np.all((b >= 0.0) & (b <= 1.0))
        sigma = math.sqrt(0.15 * 0.85 / len(points))
        assert abs(np.count_nonzero(b == 0.0) / len(points) - 0.15) < 5 * sigma
        m = np.sqrt(1.0 + 2.0 * b * n)
        assert np.all(E > m * (1.0 + 1e-3) * (1.0 - 1e-15))
        assert np.all(E < m * (1.0 + 10.0 ** 0.7) * (1.0 + 1e-15))
        assert not in_sliver(E, V0).any()
        klein, above = V0 - m > E, E > V0 + m
        assert klein.any() and above.any() and (~klein & ~above).any()


class TestRun:
    @pytest.mark.parametrize("grid_seed", range(1, 51))
    def test_all_checks_pass(self, grid_seed):
        results = run(1000, grid_seed)
        assert len(results) == 6
        assert all(r.passed for r in results), [r.line() for r in results if not r.passed]
        assert not any("worst point" in r.line() for r in results)

    @pytest.mark.parametrize("points", ["0", "-5", str(MAX_SELFTEST_POINTS + 1)])
    def test_cli_rejects_points(self, capsys, points):
        code = main(["selftest", "--points", points, "--seed", "1"])
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and "error: ValueError" in err


class TestFailureNamesPoint:
    @pytest.mark.parametrize("check", [check_unitarity, check_oracle])
    def test_printed_command_reproduces_worst_point(self, capsys, seed, check):
        grid = sample_grid(40, seed)
        result = check(grid, tol=0.0)
        assert not result.passed
        assert result.line().startswith("FAIL")
        command = result.detail.split("worst point: ")[1]
        argv = shlex.split(command)
        assert argv[:2] == ["kleinb", "amps"]

        if check is check_unitarity:
            worst = np.abs(grid.amps.sum - 1.0)
        else:
            solved = solve_boundary_batch(*grid_arrays(grid))[0]
            a = grid.amps
            closed = np.stack([a.R, a.Rp, a.T, a.Tp], axis=-1)
            worst = (np.abs(closed - solved).max(axis=-1)
                     / np.maximum(1.0, np.abs(closed).max(axis=-1)))
        i = int(np.argmax(worst))
        assert command == grid.reproducer(i)

        assert main(argv[1:]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert (rec["E"], rec["V0"], rec["b"], rec["n"]) == (
            grid.E[i], grid.V0[i], grid.b[i], grid.n[i])
        assert rec["spin"] == grid.spin[i].value
        a = grid.amps
        for name in ("R", "Rp", "T", "Tp"):
            value = getattr(a, name)[i]
            assert complex(rec[name]["re"], rec[name]["im"]) == value
        for name in ("refl_same", "refl_flip", "trans_same", "trans_flip"):
            assert rec[name] == getattr(a, name)[i]
