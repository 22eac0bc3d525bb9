"""Channel labels, field strength, and validated scattering parameters.

The rules a channel obeys (b >= 0, an existing level pair, E and V0 in
range, an open channel) are written once, as the table CHANNEL_RULES.
FieldStrength, IncomingState and ChannelParams raise the error of the
first rule a scalar point breaks; broken_rules applies the same table
to arrays of points, and channel_valid and channel_error read its result.

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
from types import SimpleNamespace

import numpy as np

from .errors import ClosedChannel, InvalidSpinIndex, NegativeField

#: Largest E and V0 a channel accepts.  The closed forms square products
#: of up to four energies; sums stay conserved to 1e-12 up to E = 1e76
#: and V0 = 1e153, beyond which those squares overflow.  An open channel
#: has C = 2 b n < E^2, so C is bounded too.
MAX_ENERGY = 1e50

#: Largest level index n a channel accepts: 2**53 - 1.  Every integer up
#: to it is exact as a float, and every larger one converts to a float
#: above it, so the float rule of broken_rules (and a sweep axis value)
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
        check_rules(FIELD_RULES, b=self.b)

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
    be a Spin member and n keeps the n rules of CHANNEL_RULES; a numpy
    integer n is kept as an int.
    """

    spin: Spin
    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.spin, Spin):
            raise InvalidSpinIndex(f"spin must be a Spin member, got {self.spin!r}")
        check_rules(LEVEL_RULES, n=self.n, up=self.spin is Spin.UP)
        object.__setattr__(self, "n", int(self.n))


@dataclass(frozen=True)
class ChannelParams:
    """Validated parameters of one scattering problem: total energy E
    and step height V0 in mc^2 units, which keep the E, V0 and open-channel
    rules of CHANNEL_RULES."""

    E: float
    V0: float
    field: FieldStrength
    state: IncomingState

    def __post_init__(self) -> None:
        check_rules(CHANNEL_RULES[6:], E=self.E, V0=self.V0, b=self.field.b, n=self.state.n)

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

    Raises ValueError for a spin parse_spin rejects, then the error of
    the first rule of CHANNEL_RULES the point breaks: NegativeField for
    a non-finite or negative b, InvalidSpinIndex for an n that is not an
    int or numpy integer in [0, MAX_LEVEL] and for (up, 0), ValueError
    for non-finite or out-of-range E and V0, and ClosedChannel for
    E^2 <= 1 + 2 b n.
    broken_rules applies the same table over arrays.
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


#: make_channel's rules, in the order it checks them: (where the rule holds, its error, the error's text),
#: functions of the point p (E, V0, b, n, and up: True for spin-up); holds also takes arrays, n as floats.
CHANNEL_RULES = (
    (lambda p: np.isfinite(p.b), NegativeField, lambda p: f"field ratio b must be finite, got {p.b}"),
    (lambda p: p.b >= 0.0, NegativeField, lambda p: f"field ratio b must be >= 0, got {p.b}"),
    (lambda p: (np.isfinite(p.n) & (p.n == np.floor(p.n)) if isinstance(p.n, np.ndarray)
                else isinstance(p.n, (int, np.integer)) and not isinstance(p.n, bool)),
     InvalidSpinIndex, lambda p: f"channel index n must be an integer, got {p.n!r}"),
    (lambda p: p.n >= 0, InvalidSpinIndex, lambda p: f"channel index n must be >= 0, got {int(p.n)}"),
    (lambda p: p.n <= MAX_LEVEL, InvalidSpinIndex,
     lambda p: f"channel index n must be <= MAX_LEVEL = {MAX_LEVEL}, got {int(p.n)}"),
    (lambda p: np.logical_not(p.up & (p.n == 0)), InvalidSpinIndex,
     lambda p: "spin-up requires n >= 1 (orbital index n - 1 must exist)"),
    (lambda p: np.isfinite(p.E) & np.isfinite(p.V0), ValueError, lambda p: "E and V0 must be finite"),
    (lambda p: p.E > 0.0, ValueError, lambda p: f"total energy must be > 0, got {p.E}"),
    (lambda p: p.V0 >= 0.0, ValueError, lambda p: f"step height must be >= 0, got {p.V0}"),
    (lambda p: (p.E <= MAX_ENERGY) & (p.V0 <= MAX_ENERGY), ValueError,
     lambda p: f"E and V0 must be <= MAX_ENERGY = {MAX_ENERGY:g}"),
    (lambda p: channel_open(p.E, 2.0 * p.b * p.n), ClosedChannel,
     lambda p: f"channel closed: E^2 = {p.E * p.E:.6g} <= 1 + 2 b n = {1.0 + 2.0 * p.b * p.n:.6g}"),
)
FIELD_RULES, LEVEL_RULES, ENERGY_RULES = CHANNEL_RULES[:2], CHANNEL_RULES[2:6], CHANNEL_RULES[6:10]


def check_rules(rules, **point) -> None:
    """Raise the exception of the first of the rules the point breaks."""
    p = SimpleNamespace(**point)
    for holds, error, message in rules:
        if not holds(p):
            raise error(message(p))


def broken_rules(E, V0, b, n, up) -> np.ndarray:
    """make_channel's rules over arrays (n as float, up a bool mask for
    spin-up): per point, the index into CHANNEL_RULES of the first rule it
    breaks, the rule whose error make_channel raises, or len(CHANNEL_RULES)
    where it breaks none."""
    p = SimpleNamespace(E=E, V0=V0, b=b, n=np.asarray(n, dtype=float), up=up)
    # per point, whether it keeps each rule, then a False that argmin finds where it keeps all
    held = np.zeros(np.broadcast(E, V0, b, p.n, up).shape + (len(CHANNEL_RULES) + 1,), dtype=bool)
    with np.errstate(invalid="ignore", over="ignore"):
        for i, (holds, _, _) in enumerate(CHANNEL_RULES):
            held[..., i] = holds(p)
    return held.argmin(axis=-1)


def channel_valid(E, V0, b, n, up):
    """True where make_channel accepts the point: broken_rules finds no broken rule."""
    return broken_rules(E, V0, b, n, up) == len(CHANNEL_RULES)


def channel_error(E, V0, b, n, up) -> Exception:
    """The exception make_channel raises for one point channel_valid rejects (n as a float)."""
    p = SimpleNamespace(E=float(E), V0=float(V0), b=float(b), n=float(n), up=bool(up))
    _, error, message = CHANNEL_RULES[broken_rules(**vars(p))]
    return error(message(p))


def level_floats(n) -> np.ndarray:
    """n (an int, a float, or an array or a sequence of them) as the float
    array broken_rules takes.  An int too large for a float becomes
    +-(MAX_LEVEL + 1), which the level rule rejects as it rejects n
    itself.  A bool, str or bytes, alone, in a sequence or in an array,
    raises InvalidSpinIndex, as make_channel does."""
    levels = np.asarray(n)
    if levels.dtype.kind in "bOUS" or levels.dtype.kind in "iu" and not isinstance(n, np.ndarray):
        # numpy takes a bool among Python ints as 0 or 1, a number among texts
        # as a text, and keeps an int beyond 64 bits as an object
        items = np.asarray(n, dtype=object)
        for x in items.flat:
            if isinstance(x, (bool, np.bool_, str, bytes)):
                check_rules(LEVEL_RULES, n=x.item() if isinstance(x, np.generic) else x, up=False)
        if levels.dtype == object:
            levels = np.array([_level_float(x) for x in items.flat]).reshape(levels.shape)
    return levels.astype(float, copy=False)


def _level_float(x) -> float:
    try:
        return float(np.asarray(x, dtype=float))
    except OverflowError:
        return MAX_LEVEL + 1.0 if x > 0 else -MAX_LEVEL - 1.0


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
