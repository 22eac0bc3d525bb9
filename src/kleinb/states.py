"""Channel labels, field strength, and validated scattering parameters.

Everything in this package is dimensionless: energies are measured in
units of the electron rest energy mc^2, momenta in mc, lengths in
Compton units hbar/(mc), times in hbar/(mc^2), and c = hbar = 1.  The
magnetic field enters only through the cyclotron ratio

    b = hbar * omega / (mc^2),    omega = |e| H / (m c),

so the rest-mass term is exactly 1 and the transverse channel energy of
level n is c_n = 2 b n.  A scattering problem is one electron coming
from the left with total energy E onto the step V(z) = 0 (z < 0),
V(z) = V0 (z >= 0), with the field parallel to z.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ClosedChannel, InvalidSpinIndex, KleinStepError, NegativeField

#: Largest E and V0 a channel accepts.  The closed forms square products
#: of up to four energies; sums stay conserved to 1e-12 up to E = 1e76
#: and V0 = 1e153, beyond which those squares overflow.  An open channel
#: has C = 2 b n < E^2, so C is bounded too.
MAX_ENERGY = 1e50

#: Largest level index n a channel accepts: 2**53 - 1.  Every integer up
#: to it is exact as a float, and every larger one converts to a float
#: above it, so the float rule of channel_valid (and a sweep axis value)
#: rejects exactly the n that IncomingState rejects.
MAX_LEVEL = 2 ** 53 - 1


class Spin(enum.Enum):
    """Spin label of the incoming electron."""

    UP = "up"
    DOWN = "down"


class Regime(enum.Enum):
    """Character of the transmitted wave.

    CASE_I   : V0 - M_n > E, propagation inside the step (Klein regime).
    CASE_II  : E > V0 + M_n, propagation above the step.
    CASE_III : evanescent transmitted wave, total reflection.

    M_n = sqrt(1 + 2 b n) is the effective channel mass.  Boundary
    equalities E = V0 +- M_n belong to CASE_III: the transmitted
    momentum vanishes there, continuous with the evanescent side.
    """

    CASE_I = "I"
    CASE_II = "II"
    CASE_III = "III"


#: The regimes in the order of the integer codes returned by regime_codes.
REGIMES = (Regime.CASE_I, Regime.CASE_II, Regime.CASE_III)
#: regime_codes value of the evanescent regime.
EVANESCENT = REGIMES.index(Regime.CASE_III)


@dataclass(frozen=True)
class FieldStrength:
    """Dimensionless magnetic field b = hbar*omega/(mc^2) >= 0."""

    b: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.b):
            raise NegativeField(f"field ratio b must be finite, got {self.b}")
        if self.b < 0.0:
            raise NegativeField(f"field ratio b must be >= 0, got {self.b}")

    @property
    def magnetic_length(self) -> float:
        """Magnetic radius L = b**-1/2 in Compton units (inf at b = 0)."""
        return math.inf if self.b == 0.0 else self.b ** -0.5

    def c_n(self, n: int) -> float:
        """Transverse channel energy 2 b n in units of (mc^2)^2."""
        return 2.0 * self.b * n


@dataclass(frozen=True)
class IncomingState:
    """Spin label plus the shared index n of the degenerate level pair.

    The pair degenerate at energy sqrt(cp^2 + 1 + 2 b n) carries one
    label n: spin-up means the member with orbital index n - 1, spin-down
    the member with orbital index n.  Spin-up therefore requires n >= 1;
    (down, n = 0) is the single non-degenerate lowest state.  spin must
    be a Spin member and n is at most MAX_LEVEL.
    """

    spin: Spin
    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.spin, Spin):
            raise InvalidSpinIndex(f"spin must be a Spin member, got {self.spin!r}")
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise InvalidSpinIndex(f"channel index n must be an integer, got {self.n!r}")
        if self.n < 0:
            raise InvalidSpinIndex(f"channel index n must be >= 0, got {self.n}")
        if self.n > MAX_LEVEL:
            raise InvalidSpinIndex(f"channel index n must be <= MAX_LEVEL = {MAX_LEVEL}, got {self.n}")
        if self.spin is Spin.UP and self.n == 0:
            raise InvalidSpinIndex("spin-up requires n >= 1 (orbital index n - 1 must exist)")


@dataclass(frozen=True)
class ChannelParams:
    """Validated parameters of one scattering problem.

    E  : total energy, mc^2 units, must open the incoming channel,
         i.e. E^2 > 1 + 2 b n.
    V0 : step height, mc^2 units, >= 0.
    Both are at most MAX_ENERGY.
    """

    E: float
    V0: float
    field: FieldStrength
    state: IncomingState

    def __post_init__(self) -> None:
        check_energies(self.E, self.V0)
        if not channel_open(self.E, self.C):
            raise ClosedChannel(
                f"channel closed: E^2 = {self.E * self.E:.6g} <= 1 + 2 b n = {1.0 + self.C:.6g}"
            )

    @property
    def spin(self) -> Spin:
        return self.state.spin

    @property
    def n(self) -> int:
        return self.state.n

    @property
    def C(self) -> float:
        """Channel coupling 2 b n shared by the degenerate pair."""
        return self.field.c_n(self.state.n)


def check_energies(E: float, V0: float) -> None:
    """The E and V0 rules of a channel: both finite, E > 0, V0 >= 0 and
    both at most MAX_ENERGY.  Raises ValueError; channel_valid is the
    same rule over arrays."""
    if not (math.isfinite(E) and math.isfinite(V0)):
        raise ValueError("E and V0 must be finite")
    if E <= 0.0:
        raise ValueError(f"total energy must be > 0, got {E}")
    if V0 < 0.0:
        raise ValueError(f"step height must be >= 0, got {V0}")
    if max(E, V0) > MAX_ENERGY:
        raise ValueError(f"E and V0 must be <= MAX_ENERGY = {MAX_ENERGY:g}")


def parse_spin(spin: Spin | str) -> Spin:
    """Spin from a Spin member or a case-insensitive 'up'/'down' string;
    ValueError for anything else, bools and integers included."""
    if isinstance(spin, Spin):
        return spin
    if isinstance(spin, str) and spin.lower() in ("up", "down"):
        return Spin(spin.lower())
    raise ValueError(f"spin must be 'up' or 'down', got {spin!r}")


def make_channel(E: float, V0: float, b: float, spin: Spin | str, n: int) -> ChannelParams:
    """Build validated ChannelParams.

    Raises NegativeField for b < 0, InvalidSpinIndex for (up, 0),
    n < 0 or n > MAX_LEVEL, ClosedChannel for E^2 <= 1 + 2 b n, ValueError for
    non-finite or out-of-range E, V0 and for a spin parse_spin rejects.  channel_valid is the same rule
    over arrays.
    """
    return ChannelParams(
        E=float(E), V0=float(V0), field=FieldStrength(float(b)),
        state=IncomingState(parse_spin(spin), n),
    )


def momentum_sq(E, V0, C):
    """Squared longitudinal momentum (E - V0)^2 - 1 - C, scalar or array.

    Evaluated as (x - 1)(x + 1) - C, which is free of the cancellation
    in x^2 - 1 near |x| = 1.  x = E - V0 is carried as its rounded value
    plus the exact rounding error, so x -/+ 1 keeps full precision even
    when the rounding of E - V0 is comparable to |x| - 1.  V0 = 0 gives
    cp^2 on the V = 0 side.  Its sign is the one threshold rule, read by
    channel_open, regime_codes and landau.longitudinal_momenta.
    """
    ebar = E - V0
    # Knuth's TwoSum: E - V0 == ebar + err exactly
    v = ebar - E
    err = (E - (ebar - v)) - (V0 + v)
    return ((ebar - 1.0) + err) * ((ebar + 1.0) + err) - C


def channel_open(E, C):
    """Open-channel rule, scalar or array: cp^2 = momentum_sq(E, 0, C) > 0.

    The momentum rule landau uses for cp, so every channel this accepts
    has cp > 0 in floating point too.
    """
    return momentum_sq(E, 0.0, C) > 0.0


def channel_valid(E, V0, b, n, up):
    """make_channel's rules over arrays: True where make_channel accepts
    the point (n as float, up a bool mask for spin-up)."""
    with np.errstate(invalid="ignore", over="ignore"):
        return (
            (E > 0.0) & (E <= MAX_ENERGY) & (V0 >= 0.0) & (V0 <= MAX_ENERGY)
            & np.isfinite(b) & (b >= 0.0) & (n >= 0.0) & (n <= MAX_LEVEL) & (n == np.floor(n))
            & ~(up & (n == 0.0)) & channel_open(E, 2.0 * b * n)
        )


def level_floats(n) -> np.ndarray:
    """n (an int or a sequence of floats) as the float array channel_valid
    takes.  An int too large for a float becomes +-(MAX_LEVEL + 1), which
    the level rule rejects as it rejects n itself."""
    try:
        return np.asarray(n, dtype=float)
    except OverflowError:
        return np.asarray(float(MAX_LEVEL + 1 if n > 0 else -MAX_LEVEL - 1))


def channel_error(E, V0, b, n, up) -> Exception:
    """The exception make_channel raises for one point that channel_valid
    rejects (float n, as in channel_valid)."""
    n = int(n) if math.isfinite(n) and n == math.floor(n) else float(n)
    try:
        make_channel(E, V0, b, Spin.UP if up else Spin.DOWN, n)
    except (ValueError, KleinStepError) as exc:
        return exc
    return ValueError("invalid channel")


def regime_codes(E, V0, C):
    """Regime rule over arrays: per element, the index into REGIMES.

    The sign of the step-side momentum q2 = momentum_sq(E, V0, C):
    CASE_III where q2 <= 0 (the equalities E = V0 +- M_n included),
    else CASE_I where E < V0 and CASE_II otherwise.
    """
    return np.where(momentum_sq(E, V0, C) <= 0.0, EVANESCENT, np.where(E < V0, 0, 1))


def classify(params: ChannelParams) -> Regime:
    """Regime of the transmitted wave for the given parameters."""
    return REGIMES[int(regime_codes(params.E, params.V0, params.C))]
