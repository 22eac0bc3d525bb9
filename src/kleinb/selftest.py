"""Seeded invariant suite backing the `kleinb selftest` command.

Draws a reproducible random grid of scattering parameters spanning all
three regimes, both spins, n up to 20 and b up to 1, and checks the
core identities: current conservation, agreement of the closed forms
with the boundary-condition solve, the field-free reduction, the
no-flip anchors, and the up/down symmetry of the budgets.  The seed
comes from the KLEINB_SEED environment variable unless given
explicitly.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields

import numpy as np

from .scattering import (
    BatchAmplitudes,
    amplitudes,
    amplitudes_batch,
    channel_arrays,
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


def sample_params(
    rng: np.random.Generator,
    n_max: int = 20,
    b_max: float = 1.0,
    b_zero_fraction: float = 0.15,
) -> ChannelParams:
    """One random open channel, stratified uniformly over the regimes."""
    while True:
        n = int(rng.integers(0, n_max + 1))
        spin = Spin.DOWN if n == 0 else (Spin.UP if rng.random() < 0.5 else Spin.DOWN)
        b = 0.0 if rng.random() < b_zero_fraction else float(rng.uniform(0.0, b_max))
        m = math.sqrt(1.0 + 2.0 * b * n)
        e = m * (1.0 + 10.0 ** rng.uniform(-3.0, 0.7))
        target = int(rng.integers(0, 3))
        if target == 0:
            v0 = (e + m) * (1.0 + float(rng.uniform(0.05, 2.0)))
        elif target == 1:
            v0 = float((e - m) * rng.uniform(0.0, 0.95))
        else:
            v0 = float(e - m + 2.0 * m * rng.uniform(0.001, 0.999))
        if abs(e + 1.0 - v0) < 2e-3 * (1.0 + v0):
            # stay clear of the kinematic singularity: the 4x4 boundary
            # solve is ill conditioned there (cond ~ 1/|eps_bar|), so the
            # closed-form/solver agreement bound cannot hold on the sliver
            continue
        return make_channel(e, v0, b, spin, n)


def sample_grid(points: int, seed: int | None = None) -> list[ChannelParams]:
    rng = np.random.default_rng(resolve_seed(seed))
    return [sample_params(rng) for _ in range(points)]


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
    budgets evaluated once (one amplitudes_batch call)."""

    E: np.ndarray
    V0: np.ndarray
    b: np.ndarray
    n: np.ndarray
    spin: np.ndarray
    amps: BatchAmplitudes

    @classmethod
    def of(cls, grid: list[ChannelParams]) -> GridBatch:
        arrays = channel_arrays(grid)
        return cls(*arrays, amplitudes_batch(*arrays))

    def __len__(self) -> int:
        return self.E.size

    def __getitem__(self, index) -> GridBatch:
        """Sub-grid (slice or mask), without re-evaluating."""
        a = self.amps
        amps = BatchAmplitudes(*(getattr(a, f.name)[index] for f in fields(a)))
        return GridBatch(self.E[index], self.V0[index], self.b[index], self.n[index],
                         self.spin[index], amps)


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
    worst = float(np.abs(grid.amps.sum - 1.0).max(initial=0.0))
    return CheckResult(
        "current conservation", worst < tol,
        f"max |sum - 1| = {worst:.3e} over {len(grid)} points (tol {tol:g})",
    )


def check_oracle(grid: GridBatch, tol: float = 1e-12) -> CheckResult:
    """Closed forms match the 4x4 boundary solve component-wise."""
    a = grid.amps
    solved, failed = solve_boundary_batch(grid.E, grid.V0, grid.b, grid.n, grid.spin)
    deviation = _deviation(np.stack([a.R, a.Rp, a.T, a.Tp]), np.moveaxis(solved, -1, 0))
    worst = float(np.where(failed, np.inf, deviation).max(initial=0.0))
    return CheckResult(
        "boundary-solve agreement", worst < tol,
        f"max component deviation = {worst:.3e} over {len(grid)} points (tol {tol:g})",
    )


def check_field_free(grid: GridBatch, tol: float = 1e-13) -> CheckResult:
    """b = 0: flips vanish exactly, R matches the kappa closed form,
    and the evanescent regime reflects totally."""
    g = grid[grid.b == 0.0]
    a = g.amps
    flips_zero = bool(np.all(a.Rp == 0.0) and np.all(a.Tp == 0.0))
    # independent route: R = (1 - kappa)/(1 + kappa)
    cp = np.sqrt(g.E * g.E - 1.0)
    ebar = g.E - g.V0
    q2 = ebar * ebar - 1.0
    root = np.sqrt(np.abs(q2))
    cq = np.where(q2 >= 0.0, np.copysign(root, ebar) + 0j, 1j * root)
    kappa = cq * (g.E + 1.0) / (cp * (g.E + 1.0 - g.V0))
    worst_r = float(np.abs(a.R - (1.0 - kappa) / (1.0 + kappa)).max(initial=0.0))
    evanescent = a.regime == EVANESCENT
    worst_total = float(np.abs(np.abs(a.R[evanescent]) ** 2 - 1.0).max(initial=0.0))
    ok = flips_zero and worst_r < tol and worst_total < 1e-14
    return CheckResult(
        "field-free reduction", ok,
        f"{len(g)} points: flips exactly zero = {flips_zero}, "
        f"max |R - (1-k)/(1+k)| = {worst_r:.3e}, max ||R|^2 - 1| (evanescent) = {worst_total:.3e}",
    )


def check_lowest_state_noflip(grid: GridBatch) -> CheckResult:
    """(down, n = 0) never produces flip amplitudes, for any E, V0, b."""
    a = grid[grid.n == 0].amps
    ok = bool(np.all(a.Rp == 0.0) and np.all(a.Tp == 0.0))
    return CheckResult(
        "lowest-state no-flip", ok, f"flip amplitudes exactly zero at all {a.R.size} n = 0 points"
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
    worst = max(
        (float(np.abs(getattr(up, f) - getattr(down, f)).max(initial=0.0))
         for f in ("refl_same", "refl_flip", "trans_same", "trans_flip")),
    )
    signs_ok = bool(
        np.all(down.Rp == -up.Rp) and np.all(down.Tp == -up.Tp)
        and np.all(down.R == up.R) and np.all(down.T == up.T)
    )
    return CheckResult(
        "up/down symmetry", worst < tol and signs_ok,
        f"max budget difference = {worst:.3e} over {len(g)} pairs, exact sign flip = {signs_ok}",
    )


def run(points: int = 10000, seed: int | None = None) -> list[CheckResult]:
    """Run the full seeded suite; returns one result per check."""
    grid = GridBatch.of(sample_grid(points, seed))
    return [
        check_unitarity(grid),
        check_oracle(grid),
        check_field_free(grid),
        check_lowest_state_noflip(grid),
        check_flip_scaling(),
        check_spin_symmetry(grid[: max(1, points // 10)]),
    ]
