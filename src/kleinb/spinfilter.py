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
from dataclasses import dataclass, replace

from .errors import ClosedChannel, EvanescentBranch
from .states import ENERGY_RULES, FIELD_RULES, LEVEL_RULES, check_rules, momentum_sq

#: Electron spin g-factor including radiative corrections.
G_ELECTRON = 2.002319


class Branch(enum.Enum):
    """Which pair of outgoing beams the filter acts on."""

    REFLECTED = "reflected"
    TRANSMITTED = "transmitted"


@dataclass(frozen=True)
class FilterSetup:
    """Parameters of one filter configuration.

    E, b, n label the degenerate pair; distance is the flight path from
    the step to the screen in Compton units; V0 is required for the
    transmitted branch and ignored otherwise.  b, n, E and a given V0
    follow the b, n, E and V0 rules of a channel (states.CHANNEL_RULES)
    and raise their errors, n those of the spin-up member (orbital index
    n - 1), so 1 <= n <= MAX_LEVEL.
    """

    E: float
    n: int
    b: float
    g: float = G_ELECTRON
    distance: float = 1.0
    branch: Branch = Branch.REFLECTED
    V0: float | None = None

    def __post_init__(self) -> None:
        check_rules(FIELD_RULES + LEVEL_RULES + ENERGY_RULES, E=self.E,
                    V0=0.0 if self.V0 is None else self.V0, b=self.b, n=self.n, up=True)
        if not math.isfinite(self.g):
            raise ValueError(f"g-factor must be finite, got {self.g}")
        if not (math.isfinite(self.distance) and self.distance >= 0.0):
            raise ValueError(f"flight distance must be >= 0, got {self.distance}")
        if not isinstance(self.branch, Branch):
            raise ValueError(f"branch must be a Branch member, got {self.branch!r}")
        if self.branch is Branch.TRANSMITTED and self.V0 is None:
            raise ValueError("transmitted branch requires V0")


def _open_pair(setup: FilterSetup) -> tuple[float, float, float]:
    """(cp_up, cp_down, |x|) on the setup's branch, x = E (reflected) or
    E - V0 (transmitted), as split_momenta describes."""
    V0 = setup.V0 if setup.branch is Branch.TRANSMITTED else 0.0
    base = momentum_sq(setup.E, V0, 2.0 * setup.b * setup.n)
    # the split is symmetric, so g = 2 gives bit-identical momenta
    shift = 0.5 * (setup.g - 2.0) * setup.b
    up_sq, down_sq = base - shift, base + shift
    if not (up_sq > 0.0 and down_sq > 0.0):
        if setup.branch is Branch.REFLECTED:
            raise ClosedChannel(
                f"pair not open at E = {setup.E}: cp_up^2 = {up_sq:.6g}, cp_down^2 = {down_sq:.6g}"
            )
        raise EvanescentBranch("transmitted wave is evanescent (or at threshold) for this setup")
    return math.sqrt(up_sq), math.sqrt(down_sq), abs(setup.E - V0)


def _over_distance(per_unit: float, setup: FilterSetup) -> float:
    """A delay per unit distance times the flight distance; ValueError if
    the product overflows a double."""
    delay = per_unit * setup.distance
    if not math.isfinite(delay):
        raise ValueError(f"arrival delay over flight distance {setup.distance} overflows a double")
    return delay


def split_momenta(setup: FilterSetup) -> tuple[float, float]:
    """Longitudinal momenta (cp_up, cp_down) of the pair members on the
    setup's branch.

    cp_s^2 = x^2 - 1 - 2 b (n_orb + 1/2) - g b s_z with x = E (E - V0
    on the transmitted branch) and (n_orb, s_z) = (n-1, +1/2) for the
    up member and (n, -1/2) for the down member: the g = 2 momentum of
    states.momentum_sq shifted by -+(g - 2) b / 2.  For g > 2 the up
    member is the higher level, so cp_up < cp_down.  Raises
    ClosedChannel (EvanescentBranch on the transmitted branch) if either
    momentum is not real and positive.
    """
    cp_up, cp_down, _ = _open_pair(setup)
    return cp_up, cp_down


def arrival_delay(setup: FilterSetup) -> float:
    """Arrival-time difference of the two beams over the flight distance.

    Delta t = d/v_up - d/v_down, in units hbar/(mc^2), with v = cp/E on
    the reflected side and v = |cq/(E - V0)| on the transmitted side
    (propagating regimes only).  Positive for g > 2: the up member,
    which is the spin-flipped beam for incoming spin-down electrons,
    moves slower and arrives later.  Exactly 0 at g = 2.  Raises
    EvanescentBranch if the transmitted branch is requested where the
    wave decays.

    The delay is the flight-time difference alone, with no scattering-
    phase term: the step gives the same-spin and the flipped beam one
    phase, up to sign (R conj(Rp) is real to rounding, and T conj(Tp) is
    exactly real wherever the transmitted wave propagates), so it adds
    no relative delay.

    Evaluated through the exact identity
    1/cp_up - 1/cp_down = b (g - 2) / (cp_up cp_down (cp_up + cp_down)),
    which avoids the catastrophic cancellation of subtracting two
    nearly equal flight times.  The delay per unit distance is formed
    first and multiplied by d last, so ValueError is raised only when
    the delay itself overflows a double.
    """
    cp_up, cp_down, x = _open_pair(setup)
    momentum_sq_split = setup.b * (setup.g - 2.0)  # cp_down^2 - cp_up^2
    return _over_distance(x * momentum_sq_split / (cp_up * cp_down * (cp_up + cp_down)), setup)


def arrival_delay_first_order(setup: FilterSetup) -> float:
    """First-order (in g - 2) approximation of arrival_delay.

    Delta t ~= d * E * Delta(cp^2) / (2 cp^3) with Delta(cp^2) =
    b (g - 2) and cp the degenerate momentum at g = 2 (E -> |E - V0|
    for the transmitted branch).  Raises ValueError as arrival_delay
    does when the delay overflows a double.
    """
    cp, _, x = _open_pair(replace(setup, g=2.0))
    return _over_distance(x * setup.b * (setup.g - 2.0) / (2.0 * cp ** 3), setup)
