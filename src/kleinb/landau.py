"""Transverse oscillator basis and relativistic Landau-level kinematics.

The transverse eigenfunctions in the gauge A = (-Hy, 0, 0) are the
orthonormal harmonic oscillator functions Phi_n(xi) with
xi = (y - y0)/L, guiding center y0 = k_x L^2 and magnetic radius
L = b**-1/2 (Compton units).  Level energies and longitudinal momenta
on both sides of the step follow from the dispersion
E = sqrt(cp^2 + 1 + C) + V with C the transverse channel energy.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidSpinIndex, OscillatorRange
from .states import EVANESCENT, ChannelParams, Spin, regime_codes

#: Largest oscillator index accepted by eval_oscillator.  The normalized
#: three-term recurrence is forward-stable; the cap keeps the classical
#: turning point sqrt(2n+1) well inside the range where the Gaussian
#: tail is representable in float64.
MAX_OSCILLATOR_INDEX = 200

#: |xi| guard: far beyond any physical grid, and xi**2 must not overflow.
MAX_OSCILLATOR_ARG = 1e4


def eval_oscillator(n: int, xi):
    """Normalized oscillator function Phi_n(xi), scalar or array.

    Phi_n(xi) = (2^n n! sqrt(pi))^(-1/2) H_n(xi) exp(-xi^2/2), evaluated
    through the recurrence on the normalized functions

        Phi_0 = pi^(-1/4) exp(-xi^2/2),  Phi_1 = sqrt(2) xi Phi_0,
        Phi_{k+1} = sqrt(2/(k+1)) xi Phi_k - sqrt(k/(k+1)) Phi_{k-1},

    which never materializes the raw Hermite polynomials.  n = -1
    returns 0 (convention for the absent spinor component of the lowest
    spin-down state).
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise InvalidSpinIndex(f"oscillator index must be an integer, got {n!r}")
    if n < -1:
        raise InvalidSpinIndex(f"oscillator index must be >= -1, got {n}")
    if n > MAX_OSCILLATOR_INDEX:
        raise OscillatorRange(
            f"oscillator index {n} beyond documented stable range n <= {MAX_OSCILLATOR_INDEX}"
        )
    arr = np.asarray(xi, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("oscillator argument must be finite")
    if np.any(np.abs(arr) > MAX_OSCILLATOR_ARG):
        raise OscillatorRange(f"|xi| beyond documented range {MAX_OSCILLATOR_ARG:g}")
    scalar = arr.ndim == 0
    x = np.atleast_1d(arr)

    if n == -1:
        out = np.zeros_like(x)
        return float(out[0]) if scalar else out

    prev = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    if n == 0:
        return float(prev[0]) if scalar else prev
    cur = math.sqrt(2.0) * x * prev
    for k in range(1, n):
        prev, cur = cur, math.sqrt(2.0 / (k + 1)) * x * cur - math.sqrt(k / (k + 1.0)) * prev
    return float(cur[0]) if scalar else cur


def level_energy(spin: Spin, n: int, cp: float, b: float, V: float = 0.0) -> float:
    """Energy of the Landau level (spin, n) at longitudinal momentum cp.

    E = sqrt(cp^2 + 1 + C) + V with C = 2 b (n+1) for spin-up and
    C = 2 b n for spin-down, so (up, n-1) and (down, n) are degenerate
    and (down, 0) does not depend on the field.  Here n is the state's
    own orbital index, not the shared channel label.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 0:
        raise InvalidSpinIndex(f"level index must be an integer >= 0, got {n!r}")
    if cp < 0.0:
        raise ValueError(f"cp must be >= 0, got {cp}")
    c = 2.0 * b * (n + 1) if spin is Spin.UP else 2.0 * b * n
    return math.sqrt(cp * cp + 1.0 + c) + V


def _cp(E, C):
    # (E - 1)(E + 1) keeps full precision where E*E - 1 would cancel
    return np.sqrt((E - 1.0) * (E + 1.0) - C)


def longitudinal_momenta(E, V0, C, regime):
    """Longitudinal momenta (cp, cq) over arrays, regime from regime_codes.

    cp^2 = E^2 - 1 - C on the V = 0 side and cq^2 = (E - V0)^2 - 1 - C
    on the step side, C = 2 b n, both evaluated as (x - 1)(x + 1) - C,
    which is free of the cancellation in x^2 - 1 near |x| = 1.  On the
    step side x = E - V0 is carried as its rounded value plus the exact
    rounding error, so x -/+ 1 keeps full precision even when the
    rounding of E - V0 is comparable to |x| - 1.  Branch convention: in
    the propagating regimes cq carries the sign of E - V0, so the
    transmitted group velocity cq/(E - V0) points away from the step; in
    the evanescent regime cq = +i|cq| so the wave decays for z > 0.
    """
    cp = _cp(E, C)
    ebar = E - V0
    # Knuth's TwoSum: E - V0 == ebar + err exactly
    v = ebar - E
    err = (E - (ebar - v)) - (V0 + v)
    q2 = ((ebar - 1.0) + err) * ((ebar + 1.0) + err) - C
    evanescent = regime == EVANESCENT
    mag = np.sqrt(np.maximum(np.where(evanescent, -q2, q2), 0.0))
    cq = np.empty(np.shape(mag), dtype=complex)
    cq.real = np.where(evanescent, 0.0, np.where(ebar > 0.0, mag, -mag))
    cq.imag = np.where(evanescent, mag, 0.0)
    return cp, cq


def momentum_left(params: ChannelParams) -> float:
    """Longitudinal momentum cp on the V = 0 side, cp^2 = E^2 - 1 - 2bn.

    Positive by construction: ChannelParams guarantees an open channel.
    """
    return float(_cp(params.E, params.C))


def momentum_right(params: ChannelParams) -> complex:
    """Longitudinal momentum cq on the step side, cq^2 = (E-V0)^2 - 1 - 2bn.

    Branch rule as in longitudinal_momenta.
    """
    E, V0, C = params.E, params.V0, params.C
    return complex(longitudinal_momenta(E, V0, C, regime_codes(E, V0, C))[1])
