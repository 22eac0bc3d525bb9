"""Seeded invariant suite backing the `kleinb selftest` command.

Draws a reproducible random grid of scattering parameters spanning all
three regimes, both spins, n up to 20 and b up to 1, as arrays, and
checks the core identities over the whole grid at once: current
conservation, agreement of the closed forms with the boundary-condition
solve, the field-free reduction, the no-flip anchors, and the up/down
symmetry of the budgets.  A failing check names its worst point as a
`kleinb amps` command line.  The seed comes from the KLEINB_SEED
environment variable unless given explicitly.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from dataclasses import dataclass, fields

import numpy as np

from .landau import longitudinal_momenta
from .scattering import (
    BatchAmplitudes,
    amplitudes,
    amplitudes_batch,
    solve_boundary_batch,
    solve_boundary_system,
)
from .states import EVANESCENT, ChannelParams, Spin, make_channel

DEFAULT_SEED = 20240913
SEED_ENV_VAR = "KLEINB_SEED"


def resolve_seed(seed: int | None = None) -> int:
    """Explicit seed, else KLEINB_SEED from the environment, else default."""
    if seed is not None:
        return int(seed)
    env = os.environ.get(SEED_ENV_VAR)
    return int(env) if env else DEFAULT_SEED


#: Candidate points drawn per block by sample_grid.  Fixed, so that the
#: grid of N points is a prefix of the grid of M > N points.
BLOCK_SIZE = 1024

#: Largest grid sample_grid and run() accept.  The stacked (N, 4, 4)
#: complex oracle solve dominates the memory: its spinor table, scaled
#: matrices and right-hand sides peak at ~1.2 KiB per point (tracemalloc)
#: and run(MAX_SELFTEST_POINTS) peaked at 553 MiB RSS, about what a field
#: grid at wavefield.MAX_GRID_POINTS takes.
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


def sample_params(rng: np.random.Generator, n_max: int = 20) -> ChannelParams:
    """One random open channel, drawn by the rule of sample_grid."""
    while True:
        e, v0, b, n, up = _draw_block(rng, 1, n_max)
        if e.size:
            return make_channel(e[0], v0[0], b[0], Spin.UP if up[0] else Spin.DOWN, int(n[0]))


def sample_grid(points: int, seed: int | None = None) -> GridBatch:
    """The seeded grid of `points` random open channels, with their
    closed-form amplitudes.

    Candidates are drawn in blocks of BLOCK_SIZE (see _draw_block) and
    the first `points` kept ones form the grid.  Raises ValueError
    unless 1 <= points <= MAX_SELFTEST_POINTS.
    """
    if not isinstance(points, (int, np.integer)) or isinstance(points, bool):
        raise ValueError(f"selftest points must be an integer, got {points!r}")
    if not 1 <= points <= MAX_SELFTEST_POINTS:
        raise ValueError(f"selftest points must be in [1, {MAX_SELFTEST_POINTS}], got {points}")
    rng = np.random.default_rng(resolve_seed(seed))
    blocks, kept = [], 0
    while kept < points:
        blocks.append(_draw_block(rng, BLOCK_SIZE))
        kept += blocks[-1][0].size
    E, V0, b, n, up = (np.concatenate(col)[:points] for col in zip(*blocks))
    spin = np.where(up, Spin.UP, Spin.DOWN)
    return GridBatch(E, V0, b, n, spin, amplitudes_batch(E, V0, b, n, spin))


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}: {self.detail}"


@dataclass(frozen=True)
class GridBatch:
    """A parameter grid as arrays, with its closed-form amplitudes and
    budgets evaluated once (one amplitudes_batch call).

    Indexing with a slice or mask gives a sub-grid without re-evaluating;
    iterating yields each point as validated ChannelParams.
    """

    E: np.ndarray
    V0: np.ndarray
    b: np.ndarray
    n: np.ndarray
    spin: np.ndarray
    amps: BatchAmplitudes

    def __len__(self) -> int:
        return self.E.size

    def __getitem__(self, index) -> GridBatch:
        a = self.amps
        amps = BatchAmplitudes(*(getattr(a, f.name)[index] for f in fields(a)))
        return GridBatch(self.E[index], self.V0[index], self.b[index], self.n[index],
                         self.spin[index], amps)

    def __iter__(self) -> Iterator[ChannelParams]:
        for i in range(len(self)):
            yield make_channel(self.E[i], self.V0[i], self.b[i], self.spin[i], int(self.n[i]))

    def reproducer(self, i: int) -> str:
        """A `kleinb amps` command line that recomputes point i bit for bit."""
        return (f"kleinb amps --E {float(self.E[i])!r} --V0 {float(self.V0[i])!r} "
                f"--b {float(self.b[i])!r} --n {int(self.n[i])} --spin {self.spin[i].value}")


def _result(name: str, passed: bool, detail: str, grid: GridBatch, score) -> CheckResult:
    """Check result; a failure names its worst point, the arg-max of the
    per-point score."""
    if not passed and len(grid):
        detail += f"; worst point: {grid.reproducer(int(np.argmax(score)))}"
    return CheckResult(name, passed, detail)


def _deviation(closed: np.ndarray, solved: np.ndarray) -> np.ndarray:
    """Scaled max component difference between closed forms and solver,
    both of shape (4, N) holding (R, Rp, T, Tp)."""
    scale = np.maximum(1.0, np.abs(closed).max(axis=0))
    return np.abs(closed - solved).max(axis=0) / scale


def amplitude_deviation(params: ChannelParams) -> float:
    """Scaled max component difference between closed form and solver."""
    a = amplitudes(params)
    s = solve_boundary_system(params)
    return float(_deviation(np.array([[a.R], [a.Rp], [a.T], [a.Tp]]),
                            np.array([[s.R], [s.Rp], [s.T], [s.Tp]]))[0])


def check_unitarity(grid: GridBatch, tol: float = 1e-12) -> CheckResult:
    """Sum of the four current fractions is 1 at every grid point."""
    residual = np.abs(grid.amps.sum - 1.0)
    worst = float(residual.max(initial=0.0))
    return _result(
        "current conservation", worst < tol,
        f"max |sum - 1| = {worst:.3e} over {len(grid)} points (tol {tol:g})", grid, residual,
    )


def check_oracle(grid: GridBatch, tol: float = 1e-12) -> CheckResult:
    """Closed forms match the 4x4 boundary solve component-wise."""
    a = grid.amps
    solved, failed = solve_boundary_batch(grid.E, grid.V0, grid.b, grid.n, grid.spin)
    deviation = np.where(
        failed, np.inf, _deviation(np.stack([a.R, a.Rp, a.T, a.Tp]), np.moveaxis(solved, -1, 0))
    )
    worst = float(deviation.max(initial=0.0))
    return _result(
        "boundary-solve agreement", worst < tol,
        f"max component deviation = {worst:.3e} over {len(grid)} points (tol {tol:g})",
        grid, deviation,
    )


def check_field_free(grid: GridBatch, tol: float = 1e-13) -> CheckResult:
    """b = 0: flips vanish exactly, R matches the kappa closed form,
    and the evanescent regime reflects totally."""
    g = grid[grid.b == 0.0]
    a = g.amps
    flipped = (a.Rp != 0.0) | (a.Tp != 0.0)
    # independent route for the amplitude algebra: R = (1 - kappa)/(1 + kappa).
    # The momenta are landau's (checked against 60-digit references in the
    # test suite); a float re-derivation would cancel near |E - V0| = 1 and
    # be less accurate than the value it checks.
    cp, cq = longitudinal_momenta(g.E, g.V0, 0.0, a.regime)
    kappa = cq * (g.E + 1.0) / (cp * (g.E + 1.0 - g.V0))
    err_r = np.abs(a.R - (1.0 - kappa) / (1.0 + kappa))
    err_total = np.where(a.regime == EVANESCENT, np.abs(np.abs(a.R) ** 2 - 1.0), 0.0)
    flips_zero = not flipped.any()
    worst_r = float(err_r.max(initial=0.0))
    worst_total = float(err_total.max(initial=0.0))
    ok = flips_zero and worst_r < tol and worst_total < 1e-14
    return _result(
        "field-free reduction", ok,
        f"{len(g)} points: flips exactly zero = {flips_zero}, "
        f"max |R - (1-k)/(1+k)| = {worst_r:.3e}, max ||R|^2 - 1| (evanescent) = {worst_total:.3e}",
        g, np.where(flipped, np.inf, np.maximum(err_r / tol, err_total / 1e-14)),
    )


def check_lowest_state_noflip(grid: GridBatch) -> CheckResult:
    """(down, n = 0) never produces flip amplitudes, for any E, V0, b."""
    g = grid[grid.n == 0]
    flip = np.abs(g.amps.Rp) + np.abs(g.amps.Tp)
    return _result(
        "lowest-state no-flip", not flip.any(),
        f"flip amplitudes exactly zero at all {len(g)} n = 0 points", g, flip,
    )


def check_flip_scaling(
    e: float = 2.0, v0: float = 6.0, n: int = 1, tol: float = 0.01
) -> CheckResult:
    """|Rp| scales as b^(1/2) as b -> 0 (log-log slope 0.5)."""
    bs = np.logspace(-8, -4, 9)
    mags = np.abs(amplitudes_batch(e, v0, bs, n, Spin.UP).Rp)
    slope = float(np.polyfit(np.log(bs), np.log(mags), 1)[0])
    return CheckResult(
        "flip-amplitude field scaling", abs(slope - 0.5) < tol,
        f"log-log slope = {slope:.6f} (want 0.5 +- {tol})",
    )


def check_spin_symmetry(grid: GridBatch, tol: float = 1e-14) -> CheckResult:
    """(up, n) and (down, n) give identical budgets and opposite flip signs."""
    g = grid[grid.n != 0]
    up = amplitudes_batch(g.E, g.V0, g.b, g.n, Spin.UP)
    down = amplitudes_batch(g.E, g.V0, g.b, g.n, Spin.DOWN)
    diff = np.max(
        [np.abs(getattr(up, f) - getattr(down, f))
         for f in ("refl_same", "refl_flip", "trans_same", "trans_flip")],
        axis=0, initial=0.0,
    )
    exact = (down.Rp == -up.Rp) & (down.Tp == -up.Tp) & (down.R == up.R) & (down.T == up.T)
    worst = float(diff.max(initial=0.0))
    signs_ok = bool(exact.all())
    return _result(
        "up/down symmetry", worst < tol and signs_ok,
        f"max budget difference = {worst:.3e} over {len(g)} pairs, exact sign flip = {signs_ok}",
        g, np.where(exact, diff, np.inf),
    )


def run(points: int = 10000, seed: int | None = None) -> list[CheckResult]:
    """Run the full seeded suite; returns one result per check.

    Raises ValueError unless 1 <= points <= MAX_SELFTEST_POINTS (checked
    by sample_grid before any array is built).
    """
    grid = sample_grid(points, seed)
    return [
        check_unitarity(grid),
        check_oracle(grid),
        check_field_free(grid),
        check_lowest_state_noflip(grid),
        check_flip_scaling(),
        check_spin_symmetry(grid[: max(1, points // 10)]),
    ]
