"""Seeded invariant suite backing the `kleinb selftest` command.

Draws a reproducible random grid of scattering parameters spanning all
three regimes, both spins, n up to 20 and b up to 1, as arrays, and
checks the core identities over the whole grid at once: current
conservation, agreement of the closed forms with the boundary-condition
solve, the field-free reduction, the no-flip anchors, and the up/down
symmetry of the budgets.  The grid, the spin mirror of its first tenth
and the flip-scaling family are validated and evaluated as one batch,
once per run, and every check reads that batch.  The one-point forms
of the sampler, of the grid's points and of the closed-form/solver
comparison, which only the tests loop over, are in tests/_points.py.
A failing check names its worst point as a `kleinb amps` command line.
The seed comes from the KLEINB_SEED environment variable unless given
explicitly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

import numpy as np

from .scattering import (
    BatchAmplitudes,
    Kinematics,
    _boundary_solve,
    _evaluate,
    _mask_kinematics,
)
from .states import EVANESCENT, Spin

DEFAULT_SEED = 20240913
SEED_ENV_VAR = "KLEINB_SEED"


def resolve_seed(seed: int | None = None) -> int:
    """Explicit seed, else KLEINB_SEED from the environment, else default.

    An empty KLEINB_SEED means the default.  Raises ValueError, naming
    the source and its value, unless the seed is a non-negative integer.
    """
    if seed is not None:
        if isinstance(seed, (int, np.integer)) and not isinstance(seed, bool) and seed >= 0:
            return int(seed)
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    env = os.environ.get(SEED_ENV_VAR)
    if not env:
        return DEFAULT_SEED
    try:
        value = int(env)
    except ValueError:
        value = -1
    if value < 0:
        raise ValueError(f"{SEED_ENV_VAR} must be a non-negative integer, got {env!r}")
    return value


#: Candidate points drawn per block by sample_grid.  Fixed, so that the
#: grid of N points is a prefix of the grid of M > N points.
BLOCK_SIZE = 1024

#: Largest grid sample_grid and run() accept.  The stacked (N, 4, 4)
#: complex oracle solve dominates the memory: the grid, with the spin
#: mirror of its first tenth evaluated in its batch, and the spinor table
#: the solve scales in place, with its right-hand sides, peak at ~0.75 KiB
#: per point (tracemalloc), and run(MAX_SELFTEST_POINTS) peaked at
#: 354 MiB RSS and took 0.9 to 1.2 s on a 2-core x86-64 host.
MAX_SELFTEST_POINTS = 400_000

#: Field ratios are drawn uniformly from [0, B_MAX), except for a b = 0
#: stratum of B_ZERO_FRACTION of the candidates.
B_MAX = 1.0
B_ZERO_FRACTION = 0.15


def _draw_block(rng: np.random.Generator, size: int, n_max: int = 20) -> tuple[np.ndarray, ...]:
    """Draw `size` candidate channels as arrays, stratified uniformly over
    the regimes (V0 target), with a b = 0 stratum of B_ZERO_FRACTION;
    returns (E, V0, b, n, up) of the candidates off the V0 = E + 1 sliver."""
    n = rng.integers(0, n_max + 1, size)
    up = (n != 0) & (rng.random(size) < 0.5)
    b = np.where(rng.random(size) < B_ZERO_FRACTION, 0.0, rng.uniform(0.0, B_MAX, size))
    m = np.sqrt(1.0 + 2.0 * b * n)
    e = m * (1.0 + 10.0 ** rng.uniform(-3.0, 0.7, size))
    # V0 target: 0 inside the step (Klein), 1 above it, 2 evanescent
    target = rng.integers(0, 3, size)
    lo = np.array([0.05, 0.0, 0.001])[target]
    hi = np.array([2.0, 0.95, 0.999])[target]
    x = lo + (hi - lo) * rng.random(size)
    v0 = np.where(target == 0, (e + m) * (1.0 + x),
                  np.where(target == 1, (e - m) * x, e - m + 2.0 * m * x))
    # stay clear of the kinematic singularity: the 4x4 boundary solve is
    # ill conditioned there (cond ~ 1/|eps_bar|), so the closed-form/solver
    # agreement bound cannot hold on the sliver
    keep = np.abs(e + 1.0 - v0) >= 2e-3 * (1.0 + v0)
    return e[keep], v0[keep], b[keep], n[keep], up[keep]


def _suite_points(points: int, seed: int | None) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Columns (E, V0, b, n, up) of the points one run evaluates, and the
    grid indices of the mirrored points: the seeded grid, the spin mirror
    of its first tenth's points with n != 0, and the flip family, in
    that order (see SampledGrid).  Apart from sample_grid so that the
    drawn blocks are freed before the batch is evaluated."""
    rng = np.random.default_rng(resolve_seed(seed))
    blocks, kept = [], 0
    while kept < points:
        blocks.append(_draw_block(rng, BLOCK_SIZE))
        kept += blocks[-1][0].size
    E, V0, b, n, up = (np.concatenate(col) for col in zip(*blocks))
    pairs = np.flatnonzero(n[: max(1, points // 10)])
    grid = (E[:points], V0[:points], b[:points], n[:points], up[:points])
    mirror = (E[pairs], V0[pairs], b[pairs], n[pairs], ~up[pairs])
    family = (2.0, 6.0, np.logspace(-8, -4, 9), 1, True)
    columns = tuple(np.concatenate((g, m, np.full(9, f))) for g, m, f in zip(grid, mirror, family))
    return columns, pairs


def sample_grid(points: int, seed: int | None = None) -> SampledGrid:
    """The seeded grid of `points` random open channels, with their
    validated kinematics and closed-form amplitudes, and the points the
    suite checks beside it (see SampledGrid).

    Candidates are drawn in blocks of BLOCK_SIZE (see _draw_block) and
    the first `points` kept ones form the grid.  The grid and the points
    beside it are validated and evaluated as one batch.  Raises
    ValueError unless 1 <= points <= MAX_SELFTEST_POINTS.
    """
    if not isinstance(points, (int, np.integer)) or isinstance(points, bool):
        raise ValueError(f"selftest points must be an integer, got {points!r}")
    if not 1 <= points <= MAX_SELFTEST_POINTS:
        raise ValueError(f"selftest points must be in [1, {MAX_SELFTEST_POINTS}], got {points}")
    (E, V0, b, n, up), pairs = _suite_points(points, seed)
    k, shape = _mask_kinematics(E, V0, b, n, up)
    batch = GridBatch(E, V0, b, n, np.where(up, Spin.UP, Spin.DOWN), _evaluate(k, shape), k)
    mirrored = points + pairs.size
    return SampledGrid(**vars(batch[:points]), pairs=pairs,
                       mirror=batch[points:mirrored].amps, family=batch[mirrored:])


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}: {self.detail}"


@dataclass(frozen=True)
class GridBatch:
    """A parameter grid as arrays, with its validated kinematics and its
    closed-form amplitudes and budgets, each evaluated once.

    Indexing with a slice or mask gives a sub-grid without re-evaluating.
    Every array, the kinematics and amplitudes included, is read-only.
    """

    E: np.ndarray
    V0: np.ndarray
    b: np.ndarray
    n: np.ndarray
    spin: np.ndarray
    amps: BatchAmplitudes
    kin: Kinematics

    def __post_init__(self):
        # the arrays are the grid's own, so their flags are cleared in place
        for array in (self.E, self.V0, self.b, self.n, self.spin, *self.kin, *vars(self.amps).values()):
            array.flags.writeable = False

    def __len__(self) -> int:
        return self.E.size

    def __getitem__(self, index) -> GridBatch:
        a = self.amps
        amps = BatchAmplitudes(*(getattr(a, f.name)[index] for f in fields(a)))
        return GridBatch(self.E[index], self.V0[index], self.b[index], self.n[index],
                         self.spin[index], amps, Kinematics(*(x[index] for x in self.kin)))

    def reproducer(self, i: int) -> str:
        """A `kleinb amps` command line that recomputes point i bit for bit."""
        return (f"kleinb amps --E {float(self.E[i])!r} --V0 {float(self.V0[i])!r} "
                f"--b {float(self.b[i])!r} --n {int(self.n[i])} --spin {self.spin[i].value}")


@dataclass(frozen=True)
class SampledGrid(GridBatch):
    """The seeded grid of sample_grid, with the points the suite checks
    beside it, evaluated in one batch with the grid.

    The grid's arrays are views of that batch.  pairs holds the grid
    indices of the first tenth's (max(1, points // 10)) points with
    n != 0, and mirror their amplitudes with the spin flipped.  family
    is the flip-scaling family: E = 2, V0 = 6, b = logspace(-8, -4, 9),
    (up, n = 1).  Sub-grids are plain GridBatch.
    """

    pairs: np.ndarray
    mirror: BatchAmplitudes
    family: GridBatch


def _result(name: str, passed: bool, detail: str, grid: GridBatch, at, score) -> CheckResult:
    """Check result; a failure names its worst point, the arg-max of the
    per-point score.  The score covers the grid points indexed by `at`,
    or the whole grid if `at` is None."""
    if not passed and np.size(score):
        i = int(np.argmax(score))
        detail += f"; worst point: {grid.reproducer(i if at is None else int(at[i]))}"
    return CheckResult(name, passed, detail)


def _deviation(closed: np.ndarray, solved: np.ndarray) -> np.ndarray:
    """Scaled max component difference between closed forms and solver,
    both of shape (4, N) holding (R, Rp, T, Tp)."""
    scale = np.maximum(1.0, np.abs(closed).max(axis=0))
    return np.abs(closed - solved).max(axis=0) / scale


def check_unitarity(grid: GridBatch, tol: float = 1e-12) -> CheckResult:
    """Sum of the four current fractions is 1 at every grid point."""
    residual = np.abs(grid.amps.sum - 1.0)
    worst = float(residual.max(initial=0.0))
    return _result(
        "current conservation", worst < tol,
        f"max |sum - 1| = {worst:.3e} over {len(grid)} points (tol {tol:g})", grid, None, residual,
    )


def check_oracle(grid: GridBatch, tol: float = 1e-12) -> CheckResult:
    """Closed forms match the 4x4 boundary solve component-wise."""
    a = grid.amps
    solved, failed = _boundary_solve(grid.kin)
    deviation = np.where(
        failed, np.inf, _deviation(np.stack([a.R, a.Rp, a.T, a.Tp]), np.moveaxis(solved, -1, 0))
    )
    worst = float(deviation.max(initial=0.0))
    return _result(
        "boundary-solve agreement", worst < tol,
        f"max component deviation = {worst:.3e} over {len(grid)} points (tol {tol:g})",
        grid, None, deviation,
    )


def check_field_free(grid: GridBatch, tol: float = 1e-13) -> CheckResult:
    """b = 0: flips vanish exactly, R matches the kappa closed form,
    and the evanescent regime reflects totally."""
    at = np.flatnonzero(grid.b == 0.0)
    a = grid.amps
    R = a.R[at]
    flipped = (a.Rp[at] != 0.0) | (a.Tp[at] != 0.0)
    # independent route for the amplitude algebra: R = (1 - kappa)/(1 + kappa).
    # The momenta are the grid's, landau's at C = 0 (checked against 60-digit
    # references in the test suite); a float re-derivation would cancel near
    # |E - V0| = 1 and be less accurate than the value it checks.
    eps = grid.E[at] + 1.0
    kappa = grid.kin.cq[at] * eps / (grid.kin.cp[at] * (eps - grid.V0[at]))
    err_r = np.abs(R - (1.0 - kappa) / (1.0 + kappa))
    err_total = np.where(a.regime[at] == EVANESCENT, np.abs(np.abs(R) ** 2 - 1.0), 0.0)
    flips_zero = not flipped.any()
    worst_r = float(err_r.max(initial=0.0))
    worst_total = float(err_total.max(initial=0.0))
    ok = flips_zero and worst_r < tol and worst_total < 1e-14
    return _result(
        "field-free reduction", ok,
        f"{at.size} points: flips exactly zero = {flips_zero}, "
        f"max |R - (1-k)/(1+k)| = {worst_r:.3e}, max ||R|^2 - 1| (evanescent) = {worst_total:.3e}",
        grid, at, np.where(flipped, np.inf, np.maximum(err_r / tol, err_total / 1e-14)),
    )


def check_lowest_state_noflip(grid: GridBatch) -> CheckResult:
    """(down, n = 0) never produces flip amplitudes, for any E, V0, b."""
    at = np.flatnonzero(grid.n == 0)
    flip = np.abs(grid.amps.Rp[at]) + np.abs(grid.amps.Tp[at])
    return _result(
        "lowest-state no-flip", not flip.any(),
        f"flip amplitudes exactly zero at all {at.size} n = 0 points", grid, at, flip,
    )


def check_flip_scaling(family: GridBatch) -> CheckResult:
    """|Rp| scales as b^(1/2) as b -> 0 (log-log slope 0.5) on the flip
    family of sample_grid: E = 2, V0 = 6, (up, n = 1), b from 1e-8 to 1e-4."""
    x = np.log(family.b)
    x -= x.mean()
    # least-squares slope of log|Rp| against log b
    slope = float(x @ np.log(np.abs(family.amps.Rp)) / (x @ x))
    return CheckResult(
        "flip-amplitude field scaling", abs(slope - 0.5) < 0.01,
        f"log-log slope = {slope:.6f} (want 0.5 +- 0.01)",
    )


def check_spin_symmetry(grid: SampledGrid, tol: float = 1e-14) -> CheckResult:
    """(up, n) and (down, n) give identical budgets and opposite flip signs:
    the amplitudes of each mirrored grid point against its spin mirror."""
    at, own, mirror = grid.pairs, grid.amps, grid.mirror
    diff = np.max(
        [np.abs(getattr(own, f)[at] - getattr(mirror, f))
         for f in ("refl_same", "refl_flip", "trans_same", "trans_flip")],
        axis=0, initial=0.0,
    )
    exact = ((mirror.Rp == -own.Rp[at]) & (mirror.Tp == -own.Tp[at])
             & (mirror.R == own.R[at]) & (mirror.T == own.T[at]))
    worst = float(diff.max(initial=0.0))
    signs_ok = bool(exact.all())
    return _result(
        "up/down symmetry", worst < tol and signs_ok,
        f"max budget difference = {worst:.3e} over {at.size} pairs, exact sign flip = {signs_ok}",
        grid, at, np.where(exact, diff, np.inf),
    )


def run(points: int = 10000, seed: int | None = None) -> list[CheckResult]:
    """Run the full seeded suite; returns one result per check.

    One sample_grid call validates and evaluates every point the checks
    read.  Raises ValueError unless 1 <= points <= MAX_SELFTEST_POINTS
    (checked by sample_grid before any array is built).
    """
    grid = sample_grid(points, seed)
    return [
        check_unitarity(grid),
        check_oracle(grid),
        check_field_free(grid),
        check_lowest_state_noflip(grid),
        check_flip_scaling(grid.family),
        check_spin_symmetry(grid),
    ]
