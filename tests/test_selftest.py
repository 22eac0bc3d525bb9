import dataclasses
import json
import math
import re
import shlex

import numpy as np
import pytest

import kleinb.scattering
import kleinb.selftest
from kleinb import Spin
from kleinb.states import REGIMES
from kleinb.cli import main
from kleinb.scattering import _evaluate, _mask_kinematics, _spin_up, amplitudes_batch, solve_boundary_batch
from kleinb.selftest import (
    BLOCK_SIZE,
    DEFAULT_SEED,
    MAX_SELFTEST_POINTS,
    SEED_ENV_VAR,
    CheckResult,
    check_field_free,
    check_lowest_state_noflip,
    check_oracle,
    check_spin_symmetry,
    check_unitarity,
    resolve_seed,
    run,
    sample_grid,
)

from _points import channels, in_sliver, sample_params


def grid_arrays(grid):
    return (grid.E, grid.V0, grid.b, grid.n, grid.spin)


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
        points = list(channels(grid))
        assert len(points) == len(grid)
        for i, p in enumerate(points):
            assert (p.E, p.V0, p.field.b, p.n, p.spin) == (grid.E[i], grid.V0[i], grid.b[i], grid.n[i], grid.spin[i])

    def test_arrays_are_read_only(self, param_grid):
        # the kinematics hold the regime the amplitudes read: a write into
        # one would change the other
        for grid in (param_grid, param_grid[::7], param_grid[param_grid.b > 0.0], param_grid.family):
            for array in (*grid_arrays(grid), *grid.kin, *vars(grid.amps).values()):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = array[-1]
        for array in vars(param_grid.mirror).values():
            assert not array.flags.writeable

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


def bits(x):
    return np.ascontiguousarray(x).view(np.uint8)


@pytest.mark.parametrize("index", ["full", "slice", "mask"])
def test_oracle_on_kept_kinematics_matches_public_solve(monkeypatch, param_grid, index):
    # check_oracle solves from the kinematics the grid keeps; they must stay
    # aligned with the grid's arrays under indexing, so its deviations are
    # those of solve_boundary_batch on the sub-grid's arrays, bit for bit
    grid = param_grid[{"full": slice(None), "slice": slice(5, 500, 3),
                       "mask": (param_grid.b > 0.3) | (param_grid.n % 2 == 1)}[index]]
    k, _ = _mask_kinematics(grid.E, grid.V0, grid.b, grid.n, _spin_up(grid.spin))
    for name, kept, rebuilt in zip(k._fields, grid.kin, k):
        assert kept.dtype == rebuilt.dtype and np.array_equal(bits(kept), bits(rebuilt)), name

    scores, result = [], kleinb.selftest._result

    def spy(*args):
        scores.append(args[-1])
        return result(*args)

    monkeypatch.setattr(kleinb.selftest, "_result", spy)
    assert check_oracle(grid).passed
    solved, failed = solve_boundary_batch(*grid_arrays(grid))
    a = grid.amps
    closed = np.stack([a.R, a.Rp, a.T, a.Tp], axis=-1)
    want = np.where(failed, np.inf, np.abs(closed - solved).max(axis=-1)
                    / np.maximum(1.0, np.abs(closed).max(axis=-1)))
    assert len(scores) == 1 and np.array_equal(bits(scores[0]), bits(want))


def _own_spin(rows):
    """_evaluate that gives the mirror rows the grid's own spin."""
    def evaluate(k, shape):
        up = k.up.copy()
        up[rows] = ~up[rows]
        return _evaluate(k._replace(up=up), shape)
    return evaluate


def _unsigned_flip(rows):
    """_evaluate that gives the mirror rows flip amplitudes without the sign change."""
    def evaluate(k, shape):
        a = _evaluate(k, shape)
        sign = np.ones(a.Rp.shape)
        sign[rows] = -1.0
        return dataclasses.replace(a, Rp=sign * a.Rp, Tp=sign * a.Tp)
    return evaluate


@pytest.mark.parametrize("mirror", [_own_spin, _unsigned_flip])
def test_spin_symmetry_catches_a_wrong_mirror(monkeypatch, seed, param_grid, mirror):
    # sample_grid evaluates the spin mirror in one batch with the grid, in
    # the rows after the grid's.  A mirror evaluated with the grid's own
    # spin, or with flip amplitudes without the sign change, keeps every
    # budget equal: only the exact sign check can fail, at the first pair
    # with a flip
    points = len(param_grid)
    monkeypatch.setattr(kleinb.selftest, "_evaluate",
                        mirror(slice(points, points + param_grid.pairs.size)))
    grid = sample_grid(points, seed)
    result = check_spin_symmetry(grid)
    assert not result.passed and result.line().startswith("FAIL")
    assert "max budget difference = 0.000e+00" in result.detail
    assert "exact sign flip = False" in result.detail
    at = grid.pairs
    first_flip = int(at[np.argmax((grid.amps.Rp[at] != 0.0) | (grid.amps.Tp[at] != 0.0))])
    assert result.detail.endswith(f"worst point: {grid.reproducer(first_flip)}")


def mirrored_spins(grid):
    return np.where(grid.spin == Spin.UP, Spin.DOWN, Spin.UP)


def assert_same_bits(got, want):
    for f in dataclasses.fields(want):
        x, y = getattr(got, f.name), getattr(want, f.name)
        assert x.dtype == y.dtype and np.array_equal(bits(x), bits(y)), f.name


def test_spin_mirror_matches_public_evaluation(param_grid):
    # the mirror is evaluated in the grid's batch with up flipped: bit for
    # bit what amplitudes_batch gives for the mirrored spins
    g = param_grid[param_grid.pairs]
    assert_same_bits(param_grid.mirror, amplitudes_batch(g.E, g.V0, g.b, g.n, mirrored_spins(g)))


def owners(grid):
    """The arrays that own the memory of each array of the grid."""
    a = grid.amps
    arrays = (*grid_arrays(grid), *grid.kin, *(getattr(a, f.name) for f in dataclasses.fields(a)))
    return [x.base for x in arrays]


def standalone_lines(points, seed):
    """run(points, seed) by the route that evaluates the spin mirror and
    the flip family on their own, through amplitudes_batch, fits the flip
    slope with np.polyfit and checks copied sub-grids of the field-free
    and n = 0 points; with the mirror and the family it evaluated."""
    grid = sample_grid(points, seed)
    pairs = np.flatnonzero(grid.n[: max(1, points // 10)] != 0)
    g = grid[pairs]
    mirror = amplitudes_batch(g.E, g.V0, g.b, g.n, mirrored_spins(g))
    bs = np.logspace(-8, -4, 9)
    family = amplitudes_batch(2.0, 6.0, bs, 1, "up")
    slope = float(np.polyfit(np.log(bs), np.log(np.abs(family.Rp)), 1)[0])
    results = [
        check_unitarity(grid),
        check_oracle(grid),
        check_field_free(grid[grid.b == 0.0]),
        check_lowest_state_noflip(grid[grid.n == 0]),
        CheckResult("flip-amplitude field scaling", abs(slope - 0.5) < 0.01,
                    f"log-log slope = {slope:.6f} (want 0.5 +- 0.01)"),
        check_spin_symmetry(dataclasses.replace(grid, pairs=pairs, mirror=mirror)),
    ]
    return [r.line() for r in results], mirror, family


@pytest.mark.parametrize("grid_seed, points", [
    *((s, p) for s in (1, 2, 3) for p in (1, 9, 10, 11, 1000, 3 * BLOCK_SIZE + 5)),
    (23, 1), (23, 11),  # the first point has n = 0: no pairs
])
def test_one_batch_changes_no_bit(grid_seed, points):
    # run() evaluates the grid, its spin mirror and the flip family in one
    # batch; every line and every mirror and family amplitude is that of
    # the standalone evaluations
    lines, mirror, family = standalone_lines(points, grid_seed)
    assert [r.line() for r in run(points, grid_seed)] == lines
    grid = sample_grid(points, grid_seed)
    assert_same_bits(grid.mirror, mirror)
    assert_same_bits(grid.family.amps, family)
    assert ("over 0 pairs" in lines[-1]) == (grid_seed == 23)
    # the grid's arrays are views of the batch's, not copies
    assert all(x is not None and x is y for x, y in zip(owners(grid), owners(grid.family)))


def test_run_validates_and_solves_once(monkeypatch):
    # one run validates and evaluates the grid, its spin mirror and the flip
    # family as one batch, and solves the 4x4 systems once
    calls = {"_mask_kinematics": 0, "_evaluate": 0, "_boundary_solve": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        wrapper = counted(name, getattr(kleinb.scattering, name))
        monkeypatch.setattr(kleinb.scattering, name, wrapper)
        monkeypatch.setattr(kleinb.selftest, name, wrapper)
    # the sampled spins reach the kinematics as the bool mask, unparsed
    monkeypatch.setattr(kleinb.scattering, "_spin_up", counted("_spin_up", kleinb.scattering._spin_up))
    calls["_spin_up"] = 0
    assert all(r.passed for r in run(1000, 1))
    assert calls == {"_mask_kinematics": 1, "_evaluate": 1, "_boundary_solve": 1, "_spin_up": 0}


class TestSeed:
    @pytest.mark.parametrize("env, want", [("", DEFAULT_SEED), (" 7 ", 7), ("0", 0)])
    def test_accepted_seeds(self, monkeypatch, env, want):
        monkeypatch.setenv(SEED_ENV_VAR, env)
        assert resolve_seed() == want
        assert resolve_seed(np.int64(5)) == 5

    @pytest.mark.parametrize("env", ["abc", "-5", "1.5", " "])
    def test_bad_env_seed_named(self, monkeypatch, capsys, env):
        monkeypatch.setenv(SEED_ENV_VAR, env)
        assert main(["selftest", "--points", "10"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: ValueError: KLEINB_SEED must be a non-negative integer, got {env!r}\n"

    def test_bad_seed_argument_named(self, monkeypatch, capsys):
        monkeypatch.setenv(SEED_ENV_VAR, "abc")  # an explicit seed is used before the environment
        assert main(["selftest", "--points", "10", "--seed", "-3"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: ValueError: seed must be a non-negative integer, got -3\n"

    @pytest.mark.parametrize("seed", [-1, 2.5, True, "7", np.int64(-2)])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match=f"^{re.escape(f'seed must be a non-negative integer, got {seed!r}')}$"):
            resolve_seed(seed)
