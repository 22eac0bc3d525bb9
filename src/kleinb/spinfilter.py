"""Spin-filter kinematics from the anomalous g-factor.

At g = 2 the levels (up, n-1) and (down, n) are exactly degenerate.  The
radiative correction g = 2.002319 makes the spin term slightly larger
than the orbital one, so at fixed total energy the two members of the
pair carry different longitudinal momenta and hence different
velocities: over a flight distance d the slower (spin-up-member) beam
arrives later.  Scattering off a step separates the same-spin and
flipped beams into exactly these two members, which is the proposed
spin filter.

The split uses the minimal linear-in-spin generalization of the level
energies,

    E^2 = cp^2 + 1 + 2 b (n_orb + 1/2) + g b s_z,

which collapses to the degenerate pair at g = 2.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import ClosedChannel, EvanescentBranch, InvalidSpinIndex, NegativeField
from .states import MAX_ENERGY, MAX_LEVEL

#: Electron spin g-factor including radiative corrections.
G_ELECTRON = 2.002319


class Branch(enum.Enum):
    """Which pair of outgoing beams the filter acts on."""

    REFLECTED = "reflected"
    TRANSMITTED = "transmitted"


@dataclass(frozen=True)
class FilterSetup:
    """Parameters of one filter configuration.

    E, b, n label the degenerate pair (1 <= n <= MAX_LEVEL); distance
    is the flight path from the step to the screen in Compton units; V0
    is required for the transmitted branch and ignored otherwise.  E
    is at most MAX_ENERGY and a given V0 lies in [0, MAX_ENERGY], as for
    a channel.
    """

    E: float
    n: int
    b: float
    g: float = G_ELECTRON
    distance: float = 1.0
    branch: Branch = Branch.REFLECTED
    V0: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool) or not 1 <= self.n <= MAX_LEVEL:
            raise InvalidSpinIndex(
                f"the filter needs a degenerate pair, 1 <= n <= MAX_LEVEL = {MAX_LEVEL}, got {self.n!r}")
        if not (math.isfinite(self.b) and self.b >= 0.0):
            raise NegativeField(f"field ratio b must be finite and >= 0, got {self.b}")
        if not math.isfinite(self.g):
            raise ValueError(f"g-factor must be finite, got {self.g}")
        if self.V0 is not None and not (math.isfinite(self.V0) and abs(self.V0) <= MAX_ENERGY):
            raise ValueError(
                f"step height must be finite with |V0| <= MAX_ENERGY = 1e50, got {self.V0}")
        if self.V0 is not None and self.V0 < 0.0:
            raise ValueError(f"step height must be >= 0, got {self.V0}")
        if not (math.isfinite(self.E) and 0.0 < self.E <= MAX_ENERGY):
            raise ValueError(
                f"total energy must be finite, > 0 and <= MAX_ENERGY = 1e50, got {self.E}")
        if not (math.isfinite(self.distance) and self.distance >= 0.0):
            raise ValueError(f"flight distance must be >= 0, got {self.distance}")
        if self.branch is Branch.TRANSMITTED and self.V0 is None:
            raise ValueError("transmitted branch requires V0")


def _pair_momenta_sq(e_kin_sq: float, n: int, b: float, g: float) -> tuple[float, float]:
    # base is the g = 2 momentum; the split is symmetric, +-(g-2) b / 2,
    # so g = 2 restores bit-identical degenerate momenta
    base = e_kin_sq - 1.0 - 2.0 * b * n
    shift = 0.5 * (g - 2.0) * b
    return base - shift, base + shift


def split_momenta(setup: FilterSetup) -> tuple[float, float]:
    """Longitudinal momenta (cp_up, cp_down) of the pair members at energy E.

    cp_s^2 = E^2 - 1 - 2 b (n_orb + 1/2) - g b s_z with
    (n_orb, s_z) = (n-1, +1/2) for the up member and (n, -1/2) for the
    down member.  For g > 2 the up member is the higher level, so
    cp_up < cp_down.  Raises ClosedChannel if either momentum is not
    real and positive.
    """
    up_sq, down_sq = _pair_momenta_sq(setup.E * setup.E, setup.n, setup.b, setup.g)
    if up_sq <= 0.0 or down_sq <= 0.0:
        raise ClosedChannel(
            f"pair not open at E = {setup.E}: cp_up^2 = {up_sq:.6g}, cp_down^2 = {down_sq:.6g}"
        )
    return math.sqrt(up_sq), math.sqrt(down_sq)


def arrival_delay(setup: FilterSetup) -> float:
    """Arrival-time difference of the two beams over the flight distance.

    Delta t = d/v_up - d/v_down, in units hbar/(mc^2), with v = cp/E on
    the reflected side and v = |cq/(E - V0)| on the transmitted side
    (propagating regimes only).  Positive for g > 2: the up member,
    which is the spin-flipped beam for incoming spin-down electrons,
    moves slower and arrives later.  Exactly 0 at g = 2.  Raises
    EvanescentBranch if the transmitted branch is requested where the
    wave decays.

    Evaluated through the exact identity
    1/cp_up - 1/cp_down = b (g - 2) / (cp_up cp_down (cp_up + cp_down)),
    which avoids the catastrophic cancellation of subtracting two
    nearly equal flight times.  Raises ValueError if the delay overflows
    a double (a flight distance near the float range).
    """
    if setup.branch is Branch.REFLECTED:
        cp_up, cp_down = split_momenta(setup)
        e_eff = setup.E
    else:
        ebar = setup.E - setup.V0
        up_sq, down_sq = _pair_momenta_sq(ebar * ebar, setup.n, setup.b, setup.g)
        if up_sq <= 0.0 or down_sq <= 0.0:
            raise EvanescentBranch(
                "transmitted wave is evanescent (or at threshold) for this setup"
            )
        cp_up, cp_down = math.sqrt(up_sq), math.sqrt(down_sq)
        e_eff = abs(ebar)
    momentum_sq_split = setup.b * (setup.g - 2.0)  # cp_down^2 - cp_up^2, exactly
    delay = (
        setup.distance * e_eff * momentum_sq_split
        / (cp_up * cp_down * (cp_up + cp_down))
    )
    if not math.isfinite(delay):
        raise ValueError(f"arrival delay over flight distance {setup.distance} overflows a double")
    return delay


def arrival_delay_first_order(setup: FilterSetup) -> float:
    """First-order (in g - 2) approximation of arrival_delay.

    Delta t ~= d * E * Delta(cp^2) / (2 cp^3) with Delta(cp^2) =
    b (g - 2) and cp the degenerate momentum at g = 2 (E -> |E - V0|
    for the transmitted branch).
    """
    if setup.branch is Branch.REFLECTED:
        e_eff = setup.E
    else:
        e_eff = abs(setup.E - setup.V0)
    base = e_eff * e_eff - 1.0 - 2.0 * setup.b * setup.n
    if base <= 0.0:
        raise (ClosedChannel if setup.branch is Branch.REFLECTED else EvanescentBranch)(
            "pair not open at g = 2 for this setup"
        )
    cp = math.sqrt(base)
    return setup.distance * e_eff * setup.b * (setup.g - 2.0) / (2.0 * cp ** 3)
