"""Scattering amplitudes, current budgets, and limits for the step problem.

Closed forms for the four amplitudes (same-spin and spin-flip, reflected
and transmitted), an independent 4x4 boundary-matching solver used as a
numerical oracle, group-velocity-weighted current fractions, the
infinite-step limits of the transmitted probabilities, and the H = 0
reduction.

One array core evaluates the amplitudes, the budgets and the oracle:
amplitudes_batch and solve_boundary_batch take arrays of channels, and
the scalar functions (amplitudes, current_budget, kinematic_factor,
solve_boundary_system) are the same code run on one point, so batch and
scalar results agree bit for bit.

Notation (all mc^2 units): eps = E + 1, eps_bar = E + 1 - V0,
ebar = E - V0, C = 2 b n, cp/cq the longitudinal momenta, and the
kinematic factor kappa = cq*eps/(cp*eps_bar).  The transmitted
amplitudes carry the normalization prefactor
w = sqrt(|eps_bar * ebar| / (eps * E)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ClosedChannel, SingularMatrix, SingularStep
from .landau import longitudinal_momenta, momentum_left
from .states import (
    EVANESCENT,
    REGIMES,
    ChannelParams,
    Spin,
    channel_error,
    channel_valid,
    make_channel,
    parse_spin,
    regime_codes,
)

#: Relative half-width of the excluded slice around V0 = E + 1, where
#: kappa diverges and the transmitted normalization degenerates.
SINGULAR_TOL = 1e-12


@dataclass(frozen=True)
class KinematicFactor:
    """kappa = cq * eps / (cp * eps_bar) together with its ingredients.

    Real and >= 0 in the propagating regimes under the branch rule of
    momentum_right; purely imaginary in the evanescent regime.
    """

    kappa: complex
    cq: complex
    cp: float
    eps: float
    eps_bar: float


@dataclass(frozen=True)
class ScatterAmplitudes:
    """Complex amplitudes of the four outgoing waves.

    R, T are the same-spin reflected/transmitted amplitudes, Rp, Tp the
    spin-flip ones.  T and Tp include the prefactor
    sqrt(|eps_bar*ebar|)/sqrt(eps*E), so |T|^2, |Tp|^2 are the
    transmitted probability densities; the conserved current fractions
    are reported separately by current_budget.
    """

    R: complex
    Rp: complex
    T: complex
    Tp: complex
    regime: Regime


@dataclass(frozen=True)
class CurrentBudget:
    """Current fractions of the four outgoing channels.

    Reflected fractions are |R|^2 and |Rp|^2; transmitted fractions are
    the group-velocity-weighted fluxes kappa*|1+R|^2 and kappa*|Rp|^2 in
    the propagating regimes and exactly 0 in the evanescent one.  The
    four fractions sum to 1 (current conservation).
    """

    refl_same: float
    refl_flip: float
    trans_same: float
    trans_flip: float

    @property
    def sum(self) -> float:
        return self.refl_same + self.refl_flip + self.trans_same + self.trans_flip


class Kinematics(NamedTuple):
    """Per-point kinematic arrays shared by the closed forms, the budget,
    the spinor table and the wavefield (all 1-D, one entry per point)."""

    E: np.ndarray
    V0: np.ndarray
    C: np.ndarray
    up: np.ndarray
    regime: np.ndarray
    eps: np.ndarray
    eps_bar: np.ndarray
    ebar: np.ndarray
    cp: np.ndarray
    cq: np.ndarray
    rc: np.ndarray
    nl: np.ndarray
    w: np.ndarray
    singular: np.ndarray


def _complex(re, im):
    out = np.empty(np.shape(re), dtype=complex)
    out.real = re
    out.imag = im
    return out


def _cdiv(num, den):
    """num / den by CPython's complex division (Smith's method).

    numpy divides by multiplying with a reciprocal, so that x/x can miss
    1 by an ulp; this form evaluates every quotient exactly as Python's
    complex arithmetic does.
    """
    ar, ai = np.real(num), np.imag(num)
    br, bi = den.real, den.imag
    big = np.abs(br) >= np.abs(bi)
    p = np.where(big, br, bi)
    q = np.where(big, bi, br)
    ratio = q / p
    denom = p + q * ratio
    return _complex(
        np.where(big, ar + ai * ratio, ar * ratio + ai) / denom,
        np.where(big, ai - ar * ratio, ai * ratio - ar) / denom,
    )


def _abs2(z):
    h = np.hypot(z.real, z.imag)
    return h * h


def kinematics(E, V0, C, up) -> Kinematics:
    """Kinematics of 1-D arrays of validated points (C = 2 b n, up a bool mask)."""
    regime = regime_codes(E, V0, C)
    cp, cq = longitudinal_momenta(E, V0, C, regime)
    eps = E + 1.0
    eps_bar = eps - V0
    ebar = E - V0
    return Kinematics(
        E=E, V0=V0, C=C, up=up, regime=regime, eps=eps, eps_bar=eps_bar, ebar=ebar,
        cp=cp, cq=cq, rc=np.sqrt(C), nl=1.0 / np.sqrt(2.0 * eps * E),
        w=np.sqrt(np.abs(eps_bar * ebar) / (eps * E)),
        singular=np.abs(eps_bar) < SINGULAR_TOL * (1.0 + V0),
    )


def _kappa(k: Kinematics):
    """Kinematic factor kappa = cq*eps/(cp*eps_bar), divided part by part
    (what _cdiv does for a real divisor)."""
    g = k.cq * k.eps
    den = k.cp * k.eps_bar
    return _complex(g.real / den, g.imag / den)


def point_kinematics(params: ChannelParams) -> Kinematics:
    """Kinematics of one channel, as 1-element arrays."""
    return kinematics(
        np.array([params.E]), np.array([params.V0]), np.array([params.C]),
        np.array([params.spin is Spin.UP]),
    )


def _check_singular(k: Kinematics) -> None:
    if k.singular[0]:
        E, V0 = float(k.E[0]), float(k.V0[0])
        raise SingularStep(
            f"V0 = {V0:.17g} within tolerance of E + 1 = {E + 1.0:.17g}: "
            "kinematic factor diverges"
        )


def kinematic_factor(params: ChannelParams) -> KinematicFactor:
    """Kinematic factor kappa = cq*eps/(cp*eps_bar) of the channel."""
    k = point_kinematics(params)
    _check_singular(k)
    return KinematicFactor(
        kappa=complex(_kappa(k)[0]), cq=complex(k.cq[0]), cp=float(k.cp[0]),
        eps=float(k.eps[0]), eps_bar=float(k.eps_bar[0]),
    )


#: Inside |eps_bar| < NEAR_SINGULAR_FRACTION * (1 + V0) the amplitudes are
#: evaluated with the common factor eps_bar cancelled analytically.
NEAR_SINGULAR_FRACTION = 1e-2


def _closed_forms(k: Kinematics) -> np.ndarray:
    """Closed-form amplitudes over the points of k, shape (4, N): R, Rp, T, Tp.

    Product form of the amplitude formulas, with kappa eliminated
    through cp*eps_bar*kappa = cq*eps: numerator and denominator of each
    amplitude contain eps_bar only in products.  One complex code path
    covers all three regimes; the regime enters only through the branch
    of cq.

    Near V0 = E + 1 the products themselves suffer cancellation (both
    numerator and denominator vanish linearly in eps_bar), so there the
    common factor is removed analytically: with eps_bar = 1 + (E - V0)
    and cq^2 = (E - V0)^2 - 1 - c,

        numerator(R)   = eps_bar * s,  s = cp^2 eps_bar + eps^2 (2 - eps_bar) + c (eps + V0)
        denominator    = eps_bar * k,  k = cp^2 eps_bar + 2 cp cq eps - eps^2 (2 - eps_bar) - c (eps + V0)

    which keeps R and Rp (and the current budget) accurate to rounding
    arbitrarily close to the singular slice.  T and Tp genuinely diverge
    there like |eps_bar|^(-1/2); they stay relatively accurate.  np.where
    picks the form per point.  For incoming spin-down the flip
    amplitudes change sign.

    Products of two complex numbers with both parts nonzero are written
    out in real arithmetic and quotients go through _cdiv, so every
    point's result is what Python's complex arithmetic gives, whatever
    the length of the batch.
    """
    c, V0, cp, cq = k.C, k.V0, k.cp, k.cq
    eps, eps_bar, rc = k.eps, k.eps_bar, k.rc
    a = cp * eps_bar
    g = cq * eps
    x = a + g
    lead = k.w * 2.0 * cp * eps
    cv2 = c * V0 * V0
    d = _complex(x.real * x.real - x.imag * x.imag, x.real * x.imag + x.imag * x.real) + cv2
    num = np.empty((4,) + x.shape, dtype=complex)
    num[0] = a * a - g * g - cv2
    num[1] = 2.0 * a * rc * V0
    num[2] = lead * x
    num[3] = lead * rc * V0
    amps = _cdiv(num, d)
    near = np.abs(eps_bar) < NEAR_SINGULAR_FRACTION * (1.0 + V0)
    if near.any():
        kk = cp * cp * eps_bar + 2.0 * cp * cq * eps - eps * eps * (2.0 - eps_bar) - c * (eps + V0)
        num[0] = cp * cp * eps_bar + eps * eps * (2.0 - eps_bar) + c * (eps + V0)
        num[1] = 2.0 * cp * rc * V0
        amps = np.where(near, _cdiv(num, np.stack([kk, kk, eps_bar * kk, eps_bar * kk])), amps)
    amps[1::2] = np.where(k.up, amps[1::2], -amps[1::2])
    return amps


def _budget(k: Kinematics, R, Rp, T):
    """Current fractions (refl_same, refl_flip, trans_same, trans_flip).

    trans_same = kappa*|1 + R|^2 takes 1 + R from the continuity relation
    1 + R = T*eps_bar/(w*eps): as R -> -1 (large kappa, next to the
    singular slice) 1.0 + R would cancel, T does not.
    """
    refl_same = _abs2(R)
    refl_flip = _abs2(Rp)
    evanescent = k.regime == EVANESCENT
    kappa = _kappa(k).real
    trans_same = np.where(evanescent, 0.0, kappa * _abs2(T * (k.eps_bar / (k.w * k.eps))))
    trans_flip = np.where(evanescent, 0.0, kappa * refl_flip)
    return refl_same, refl_flip, trans_same, trans_flip


@dataclass(frozen=True)
class BatchAmplitudes:
    """Amplitudes and current budgets of many channels, as arrays.

    Every field has the broadcast shape of the inputs of
    amplitudes_batch.  regime holds indices into states.REGIMES.  Points
    flagged in singular lie within SINGULAR_TOL of V0 = E + 1, where the
    scalar functions raise SingularStep; their amplitudes and fractions
    are NaN.
    """

    regime: np.ndarray
    R: np.ndarray
    Rp: np.ndarray
    T: np.ndarray
    Tp: np.ndarray
    refl_same: np.ndarray
    refl_flip: np.ndarray
    trans_same: np.ndarray
    trans_flip: np.ndarray
    singular: np.ndarray

    @property
    def sum(self) -> np.ndarray:
        return self.refl_same + self.refl_flip + self.trans_same + self.trans_flip


def _spin_up(spin) -> np.ndarray:
    arr = np.asarray(spin, dtype=object)
    flat = arr.ravel()
    up = flat == Spin.UP
    other = ~(up | (flat == Spin.DOWN))
    if other.any():
        up[other] = [parse_spin(s) is Spin.UP for s in flat[other]]
    return up.reshape(arr.shape)


def _batch_kinematics(E, V0, b, n, spin) -> tuple[Kinematics, tuple]:
    """Broadcast and validate batch inputs; kinematics of the flattened points."""
    E, V0, b, n, up = np.broadcast_arrays(
        np.asarray(E, dtype=float), np.asarray(V0, dtype=float), np.asarray(b, dtype=float),
        np.asarray(n, dtype=float), _spin_up(spin),
    )
    shape = E.shape
    E, V0, b, n, up = (np.ravel(x) for x in (E, V0, b, n, up))
    valid = channel_valid(E, V0, b, n, up)
    if not valid.all():
        i = int(np.argmin(valid))
        where = tuple(int(j) for j in np.unravel_index(i, shape))
        exc = channel_error(E[i], V0[i], b[i], n[i], up[i])
        raise type(exc)(f"point {where}: {exc}")
    return kinematics(E, V0, 2.0 * b * n, up), shape


def amplitudes_batch(E, V0, b, n, spin) -> BatchAmplitudes:
    """Closed-form amplitudes and current budgets over arrays of channels.

    E, V0, b, n and spin (Spin members or 'up'/'down' strings) are
    broadcast against each other.  Every point is validated by the rules
    of make_channel; the first invalid one raises the error make_channel
    would raise, naming the point.  Points on the singular slice are not
    an error: they are flagged in the singular mask of the result.  The
    scalar amplitudes and current_budget return the same numbers bit for
    bit.
    """
    k, shape = _batch_kinematics(E, V0, b, n, spin)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        amps = _closed_forms(k)
        budget = _budget(k, amps[0], amps[1], amps[2])
    values = (np.where(k.singular, np.nan, x).reshape(shape) for x in (*amps, *budget))
    return BatchAmplitudes(k.regime.reshape(shape), *values, k.singular.reshape(shape))


def amplitudes(params: ChannelParams) -> ScatterAmplitudes:
    """Scattering amplitudes (R, Rp, T, Tp) of the channel.

    For incoming spin-down the flip amplitudes have reversed sign
    relative to spin-up with equal magnitudes; the flip channel vanishes
    identically (exact zeros) when C = 2 b n = 0, i.e. for b = 0 or for
    the lowest state (down, n = 0), where there is no transverse motion
    to activate the spin-orbit coupling.  Raises SingularStep on the
    slice V0 = E + 1.
    """
    k = point_kinematics(params)
    _check_singular(k)
    R, Rp, T, Tp = _closed_forms(k)[:, 0].tolist()
    return ScatterAmplitudes(R=R, Rp=Rp, T=T, Tp=Tp, regime=REGIMES[k.regime[0]])


def spinor_table(k: Kinematics) -> np.ndarray:
    """Spinor coefficients of the five wave pieces, shape (N, 5, 4).

    Pieces in order: incident, reflected same-spin, reflected flip,
    transmitted same-spin, transmitted flip.  Component i multiplies the
    transverse factor Phi_{n-1}, Phi_n, Phi_{n-1}, Phi_n.  Without
    normalization prefactors.
    """
    eps, eps_bar, cp, cq, rc = k.eps, k.eps_bar, k.cp, k.cq, k.rc
    o = np.zeros_like(eps)
    up = [
        [eps, o, cp, rc], [eps, o, -cp, rc], [o, eps, rc, cp],
        [eps_bar, o, cq, rc], [o, eps_bar, rc, -cq],
    ]
    down = [
        [o, eps, rc, -cp], [o, eps, rc, cp], [eps, o, -cp, rc],
        [o, eps_bar, rc, -cq], [eps_bar, o, cq, rc],
    ]
    table = np.where(k.up, np.array(up, dtype=complex), np.array(down, dtype=complex))
    return np.moveaxis(table, -1, 0)


def _boundary_table(k: Kinematics):
    """Normalized spinor table and the mask of degenerate normalizations."""
    norm2 = np.abs(k.eps_bar * k.ebar)
    with np.errstate(divide="ignore"):
        nr = 1.0 / np.sqrt(2.0 * norm2)
    scale = np.stack([k.nl, k.nl, k.nl, nr, nr], axis=-1)
    with np.errstate(invalid="ignore"):
        return spinor_table(k) * scale[:, :, None], norm2 == 0.0


def _boundary_solve(k: Kinematics):
    """Oracle amplitudes (N, 4) = (R, Rp, T, Tp) and the mask of failed points."""
    table, failed = _boundary_table(k)
    a = np.stack([table[:, 1], table[:, 2], -table[:, 3], -table[:, 4]], axis=-1)
    # unit-column scaling keeps the solve well conditioned for tall steps
    colnorm = np.linalg.norm(a, axis=-2)
    failed |= ~np.all(np.isfinite(colnorm), axis=-1) | np.any(colnorm == 0.0, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = a / colnorm[:, None, :]
    rhs = -table[:, 0]
    a[failed] = np.eye(4)
    rhs[failed] = 0.0
    try:
        x = np.linalg.solve(a, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        x = np.full(rhs.shape, np.nan, dtype=complex)
        for i in range(len(x)):
            try:
                x[i] = np.linalg.solve(a[i], rhs[i])
            except np.linalg.LinAlgError:
                failed[i] = True
    with np.errstate(divide="ignore", invalid="ignore"):
        x = x / colnorm
    failed |= ~np.all(np.isfinite(x.view(float)), axis=-1)
    return x, failed


def solve_boundary_batch(E, V0, b, n, spin) -> tuple[np.ndarray, np.ndarray]:
    """Amplitudes from the stacked 4x4 boundary systems, one per point.

    Inputs broadcast and are validated as in amplitudes_batch.  Returns
    (amps, failed): amps has the broadcast shape plus a last axis of
    length 4 holding (R, Rp, T, Tp); failed marks the points where the
    system degenerates (see solve_boundary_system), their amps are not
    meaningful.  solve_boundary_system is this solve at one point.
    """
    k, shape = _batch_kinematics(E, V0, b, n, spin)
    x, failed = _boundary_solve(k)
    return x.reshape(shape + (4,)), failed.reshape(shape)


def solve_boundary_system(params: ChannelParams) -> ScatterAmplitudes:
    """Amplitudes from the 4x4 boundary-condition system, solved directly.

    Equates the four spinor components of the assembled wave across
    z = 0 and solves the resulting linear system in (R, Rp, T, Tp) by
    generic linear algebra.  Entirely independent of the closed forms in
    amplitudes(); used as the numerical oracle.  Raises SingularMatrix
    at the measure-zero parameter boundaries where the system
    degenerates (E = V0 exactly, V0 = E + 1 exactly).
    """
    k = point_kinematics(params)
    x, failed = _boundary_solve(k)
    if failed[0]:
        raise SingularMatrix(
            f"boundary system is singular at E = {params.E:.17g}, V0 = {params.V0:.17g}"
        )
    R, Rp, T, Tp = (complex(v) for v in x[0])
    return ScatterAmplitudes(R=R, Rp=Rp, T=T, Tp=Tp, regime=REGIMES[k.regime[0]])


def current_budget(params: ChannelParams, amps: ScatterAmplitudes | None = None) -> CurrentBudget:
    """Current fractions of the four outgoing channels (they sum to 1).

    Transmitted fractions are the group-velocity-weighted fluxes
    kappa*|1+R|^2 and kappa*|Rp|^2, not |T|^2 and |Tp|^2: only the
    weighted fluxes obey the conservation sum.  1 + R is evaluated as
    T*eps_bar/(w*eps), so a given amps must hold a consistent T.  In the
    evanescent regime the transmitted fractions are exactly 0 and
    |R|^2 + |Rp|^2 = 1.
    """
    k = point_kinematics(params)
    if amps is None:
        _check_singular(k)
        R, Rp, T = _closed_forms(k)[:3]
    else:
        R, Rp, T = np.array([amps.R]), np.array([amps.Rp]), np.array([amps.T])
    with np.errstate(divide="ignore", invalid="ignore"):
        fractions = _budget(k, R, Rp, T)
    return CurrentBudget(*(float(f[0]) for f in fractions))


def klein_limit(spin: Spin | str, n: int, E: float, b: float) -> tuple[float, float]:
    """V0 -> infinity limits of the transmitted probabilities.

    Returns (|T|^2_inf, |Tp|^2_inf):

        |T|^2_inf  = eps * 4 cp^2 (cp + eps)^2 / (E [(cp + eps)^2 + C]^2)
        |Tp|^2_inf = eps * 4 cp^2 C            / (E [(cp + eps)^2 + C]^2)

    with eps = E + 1, C = 2 b n and cp the left momentum.  Both limits
    are independent of V0 and of the incoming spin, and nonzero for any
    open channel: the step transmits even as its height diverges.
    """
    params = make_channel(E, 0.0, b, spin, n)  # validates spin/index/channel
    c = params.C
    cp = momentum_left(params)
    eps = E + 1.0
    s = cp + eps
    den = E * (s * s + c) ** 2
    return eps * 4.0 * cp * cp * s * s / den, eps * 4.0 * cp * cp * c / den


def h0_amplitudes(E: float, V0: float) -> ScatterAmplitudes:
    """Field-free amplitudes, C = 0 path.

    Equivalent to amplitudes() for the lowest spin-down channel at
    b = 0 (bit-for-bit: it is the same code path), where the closed
    forms collapse to R = (1 - kappa)/(1 + kappa) and
    T = w * 2 eps / (eps_bar (1 + kappa)) with real kappa in the
    propagating regimes and imaginary kappa in the evanescent one.  The
    flip amplitudes vanish identically.
    """
    if not (math.isfinite(E) and E > 1.0):
        raise ClosedChannel(f"field-free channel needs E > 1, got {E}")
    return amplitudes(make_channel(E, V0, 0.0, Spin.DOWN, 0))
