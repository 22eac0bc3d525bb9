"""Transverse oscillator basis and relativistic Landau-level kinematics.

The transverse eigenfunctions in the gauge A = (-Hy, 0, 0) are the
orthonormal harmonic oscillator functions Phi_n(xi) with
xi = (y - y0)/L, guiding center y0 = k_x L^2 and magnetic radius
L = b**-1/2 (Compton units).  The longitudinal momenta on both sides
of the step follow from the dispersion
E = sqrt(cp^2 + 1 + C) + V with C the transverse channel energy.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidSpinIndex, OscillatorRange
from .states import ChannelParams, momentum_sq

#: Largest oscillator index accepted by eval_oscillator.  The normalized
#: three-term recurrence is forward-stable; the cap keeps the classical
#: turning point sqrt(2n+1) well inside the range where the Gaussian
#: tail is representable in float64.
MAX_OSCILLATOR_INDEX = 200

#: |xi| guard: far beyond any physical grid, and xi**2 must not overflow.
MAX_OSCILLATOR_ARG = 1e4


def _oscillator_pair(n: int, xi):
    """(Phi_{n-1}, Phi_n) over atleast_1d(xi), n >= 0: one pass of the
    recurrence of eval_oscillator from (Phi_{-1} = 0, Phi_0)."""
    if n > MAX_OSCILLATOR_INDEX:
        raise OscillatorRange(
            f"oscillator index {n} beyond documented stable range n <= {MAX_OSCILLATOR_INDEX}"
        )
    x = np.atleast_1d(np.asarray(xi, dtype=float))
    if not np.all(np.isfinite(x)):
        raise ValueError("oscillator argument must be finite")
    if np.any(np.abs(x) > MAX_OSCILLATOR_ARG):
        raise OscillatorRange(f"|xi| beyond documented range {MAX_OSCILLATOR_ARG:g}")
    prev, cur = np.zeros_like(x), np.pi ** -0.25 * np.exp(-0.5 * x * x)
    for k in range(n):
        prev, cur = cur, math.sqrt(2.0 / (k + 1)) * x * cur - math.sqrt(k / (k + 1.0)) * prev
    return prev, cur


def eval_oscillator(n: int, xi):
    """Normalized oscillator function Phi_n(xi), scalar or array.

    Phi_n(xi) = (2^n n! sqrt(pi))^(-1/2) H_n(xi) exp(-xi^2/2), evaluated
    through the recurrence on the normalized functions

        Phi_{-1} = 0,  Phi_0 = pi^(-1/4) exp(-xi^2/2),
        Phi_{k+1} = sqrt(2/(k+1)) xi Phi_k - sqrt(k/(k+1)) Phi_{k-1},

    which never materializes the raw Hermite polynomials.  n = -1
    returns 0 (convention for the absent spinor component of the lowest
    spin-down state).
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise InvalidSpinIndex(f"oscillator index must be an integer, got {n!r}")
    if n < -1:
        raise InvalidSpinIndex(f"oscillator index must be >= -1, got {n}")
    lo, hi = _oscillator_pair(max(n, 0), xi)
    out = hi if n >= 0 else lo
    return float(out[0]) if np.ndim(xi) == 0 else out


def longitudinal_momenta(E, V0, C):
    """Longitudinal momenta (cp, cq) over arrays.

    cp^2 = E^2 - 1 - C on the V = 0 side and cq^2 = (E - V0)^2 - 1 - C
    on the step side, C = 2 b n, both from states.momentum_sq.  The
    sign of cq^2 picks the branch, the rule states.regime_codes reads.
    Propagating (cq^2 > 0): cq carries the sign of E - V0, so the
    transmitted group velocity cq/(E - V0) points away from the step.
    Evanescent (cq^2 <= 0): cq = +i|cq|, so the wave decays for z > 0.
    """
    cp = np.sqrt(momentum_sq(E, 0.0, C))
    q2 = momentum_sq(E, V0, C)
    evanescent = q2 <= 0.0
    mag = np.sqrt(np.abs(q2))  # abs, not -q2: cq stays +0j at a threshold
    cq = np.empty(np.shape(mag), dtype=complex)
    cq.real = np.where(evanescent, 0.0, np.where(E - V0 > 0.0, mag, -mag))
    cq.imag = np.where(evanescent, mag, 0.0)
    return cp, cq


def momentum_left(params: ChannelParams) -> float:
    """Longitudinal momentum cp on the V = 0 side, cp^2 = E^2 - 1 - 2bn.

    Positive by construction: ChannelParams guarantees an open channel.
    """
    return math.sqrt(momentum_sq(params.E, 0.0, params.C))


def momentum_right(params: ChannelParams) -> complex:
    """Longitudinal momentum cq on the step side, cq^2 = (E-V0)^2 - 1 - 2bn.

    Branch rule as in longitudinal_momenta.
    """
    return complex(longitudinal_momenta(params.E, params.V0, params.C)[1])
