"""Scattering amplitudes, current budgets, and limits for the step problem.

Closed forms for the four amplitudes (same-spin and spin-flip, reflected
and transmitted), an independent 4x4 boundary-matching solver used as a
numerical oracle, group-velocity-weighted current fractions and the
infinite-step limits of the transmitted probabilities.

One array core evaluates the amplitudes, the budgets and the oracle:
amplitudes_batch and solve_boundary_batch take arrays of channels, and
the scalar functions (amplitudes, current_budget, solve_boundary_system)
are the same code run on one point, so batch and scalar results agree
bit for bit.  Both batch functions validate their inputs into one
Kinematics; the closed forms (_evaluate) and the oracle (_boundary_solve)
can also take the kinematics a grid already holds, as the selftest grid
does, and give the same bits as the public calls on the grid's arrays.
The oracle reads its 4x4 systems straight off spinor_table, whose
(N, 4, 5) layout is the matching system's: the columns are scaled by
the normalizations, and the transmitted pair negated, in place in the
table's own memory.

Notation (all mc^2 units): eps = E + 1, eps_bar = E + 1 - V0,
ebar = E - V0, C = 2 b n, cp/cq the longitudinal momenta, and the
kinematic factor kappa = cq*eps/(cp*eps_bar).  The transmitted
amplitudes carry the normalization prefactor
w = sqrt(|eps_bar * ebar| / (eps * E)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import SingularMatrix, SingularStep
from .landau import longitudinal_momenta, momentum_left
from .states import (
    EVANESCENT,
    REGIMES,
    ChannelParams,
    Regime,
    Spin,
    channel_error,
    channel_valid,
    level_floats,
    make_channel,
    parse_spin,
)

#: Relative half-width of the excluded slice around V0 = E + 1, where
#: kappa diverges and the transmitted normalization degenerates.
SINGULAR_TOL = 1e-12


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
    cp, cq = longitudinal_momenta(E, V0, C)
    # the regime is the branch longitudinal_momenta took (states.regime_codes)
    regime = np.where(cq.real == 0.0, EVANESCENT, np.where(cq.real < 0.0, 0, 1))
    eps = E + 1.0
    eps_bar = eps - V0
    ebar = E - V0
    return Kinematics(
        E=E, V0=V0, C=C, up=up, regime=regime, eps=eps, eps_bar=eps_bar, ebar=ebar,
        cp=cp, cq=cq, rc=np.sqrt(C), nl=1.0 / np.sqrt(2.0 * eps * E),
        w=np.sqrt(np.abs(eps_bar * ebar) / (eps * E)),
        singular=np.abs(eps_bar) < SINGULAR_TOL * (1.0 + V0),
    )


def point_kinematics(params: ChannelParams) -> Kinematics:
    """Kinematics of one channel, as 1-element arrays."""
    return kinematics(
        np.array([params.E]), np.array([params.V0]), np.array([params.C]),
        np.array([params.spin is Spin.UP]),
    )


#: Inside |eps_bar| < NEAR_SINGULAR_FRACTION * (1 + V0) the closed forms
#: take R's numerator and their denominator in factored form.
NEAR_SINGULAR_FRACTION = 1e-2


def _closed_forms(k: Kinematics) -> np.ndarray:
    """R, Rp, T, Tp and 1 + R over the points of k, shape (5, N), by one division.

    With a = cp eps_bar, g = cq eps and x = a + g (kappa eliminated
    through cp eps_bar kappa = cq eps), the numerators a^2 - g^2 - C V0^2,
    2 a rc V0, 2 w cp eps x, 2 w cp eps rc V0 and 2 a x share the
    denominator x^2 + C V0^2, and one _cdiv gives the five quotients.
    One complex code path covers all three regimes; the regime enters
    only through the branch of cq.  For incoming spin-down the flip
    amplitudes change sign.

    R's numerator and the denominator vanish linearly in eps_bar at
    V0 = E + 1, and as sums they cancel next to it.  With
    Q = V0 (eps + C) and N = cp x, R's numerator is 2 eps_bar Q and
    1 + R's is 2 a x = 2 eps_bar N, so the denominator, their
    difference, is 2 eps_bar (N - Q): R = Q/(N - Q), 1 + R = N/(N - Q).
    Within NEAR_SINGULAR_FRACTION of the slice R's numerator is taken
    as that product and the denominator as that difference, which does
    not cancel there.  That keeps R, Rp and the current budget accurate
    to rounding arbitrarily close to the singular slice; T and Tp
    genuinely diverge there like |eps_bar|^(-1/2) and stay relatively
    accurate.  Elsewhere the sums are kept: they conserve current to
    rounding at the regime thresholds, where cp^2 and cq^2 round.

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
    near = np.abs(eps_bar) < NEAR_SINGULAR_FRACTION * (1.0 + V0)
    d = _complex(x.real * x.real - x.imag * x.imag, x.real * x.imag + x.imag * x.real) + cv2
    num = np.empty((5,) + x.shape, dtype=complex)
    num[0] = np.where(near, 2.0 * eps_bar * V0 * (eps + c), a * a - g * g - cv2)
    num[1] = 2.0 * a * rc * V0
    num[2] = lead * x
    num[3] = lead * rc * V0
    num[4] = 2.0 * a * x
    amps = _cdiv(num, np.where(near, num[4] - num[0], d))
    amps[1::2] = np.where(k.up, amps[1::2], -amps[1::2])
    return amps


def _budget(k: Kinematics, R, Rp, one_plus_R):
    """Current fractions (refl_same, refl_flip, trans_same, trans_flip).

    trans_same = kappa*|1 + R|^2 reads 1 + R from its own quotient in
    _closed_forms: 1.0 + R would cancel as R -> -1 (large kappa, next to
    the singular slice).
    """
    refl_same = _abs2(R)
    refl_flip = _abs2(Rp)
    evanescent = k.regime == EVANESCENT
    kappa = k.cq.real * k.eps / (k.cp * k.eps_bar)
    trans_same = np.where(evanescent, 0.0, kappa * _abs2(one_plus_R))
    trans_flip = np.where(evanescent, 0.0, kappa * refl_flip)
    return refl_same, refl_flip, trans_same, trans_flip


def _read_only(array: np.ndarray) -> np.ndarray:
    """A read-only view of array, whose own flags stay as they are."""
    view = array.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class BatchAmplitudes:
    """Amplitudes and current budgets of many channels, as arrays.

    Every field has the broadcast shape of the inputs of
    amplitudes_batch.  regime holds indices into states.REGIMES.  Points
    flagged in singular lie within SINGULAR_TOL of V0 = E + 1, where the
    scalar functions raise SingularStep; their amplitudes and fractions
    are NaN.  The arrays of amplitudes_batch's result (see _frozen) and
    of a selftest grid (see selftest.GridBatch) are read-only: a write
    into one would leave the fields computed from it stale.
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


def _frozen(batch: BatchAmplitudes) -> BatchAmplitudes:
    """batch with read-only views of its arrays.  Only the public batch
    results are frozen: the scalar functions read _evaluate's batch once
    and pay nothing for it."""
    return BatchAmplitudes(*map(_read_only, vars(batch).values()))


def _spin_up(spin) -> np.ndarray:
    if isinstance(spin, type):  # np.asarray would iterate the Spin class into both members
        raise ValueError(f"spin must be 'up' or 'down', got {spin!r}")
    arr = np.asarray(spin, dtype=object)
    flat = arr.ravel()
    up = flat == Spin.UP
    other = ~(up | (flat == Spin.DOWN))
    if other.any():
        up[other] = [parse_spin(s) is Spin.UP for s in flat[other]]
    return up.reshape(arr.shape)


def _mask_kinematics(E, V0, b, n, up) -> tuple[Kinematics, tuple]:
    """Broadcast and validate batch inputs, the spins given as a bool mask
    (True for up); kinematics of the flattened points."""
    E, V0, b, n, up = np.broadcast_arrays(
        np.asarray(E, dtype=float), np.asarray(V0, dtype=float), np.asarray(b, dtype=float),
        level_floats(n), np.asarray(up, dtype=bool),
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
    return _frozen(_evaluate(*_mask_kinematics(E, V0, b, n, _spin_up(spin))))


def _evaluate(k: Kinematics, shape: tuple) -> BatchAmplitudes:
    """Closed forms and budgets over validated kinematics, reshaped to `shape`."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        amps = _closed_forms(k)
        budget = _budget(k, amps[0], amps[1], amps[4])
    values = (*amps[:4], *budget)
    if k.singular.any():
        values = (np.where(k.singular, np.nan, x) for x in values)
    values = (x.reshape(shape) for x in values)
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
    return _point_results(params)[0]


def spinor_table(k: Kinematics) -> np.ndarray:
    """Spinor coefficients of the five wave pieces, shape (N, 4, 5).

    The matching system's own layout: component i on the middle axis,
    piece j on the last.  The table is the transpose of a C-contiguous
    (5, 4, N) array, so table.T holds each piece's components with the
    points contiguous and _boundary_solve scales and negates its columns
    in place, one contiguous pass each.  Spin-up pieces j = 0..4:
    incident (eps, 0, cp, rc), R (eps, 0, -cp, rc), Rp (0, eps, rc, cp),
    T (eps_bar, 0, cq, rc) and Tp (0, eps_bar, rc, -cq).  Component i multiplies the transverse
    factor Phi_{n-1}, Phi_n, Phi_{n-1}, Phi_n.  Without normalization
    prefactors.
    """
    eps, eps_bar, rc = k.eps, k.eps_bar, k.rc
    cp, cq = np.where(k.up, k.cp, -k.cp), np.where(k.up, k.cq, -k.cq)
    o = np.zeros_like(eps)
    pairs = np.array([
        [eps, o, cp, rc], [eps, o, -cp, rc], [o, eps, rc, cp],
        [eps_bar, o, cq, rc], [o, eps_bar, rc, -cq],
    ], dtype=complex).reshape(5, 2, 2, eps.size)
    # spin-down is spin-up with cp, cq negated and components 1<->2, 3<->4
    # swapped: each pair of a spin-down point is reversed in place
    down = ~k.up
    if down.any():
        pairs[..., down] = pairs[:, :, ::-1, down]
    return pairs.reshape(5, 4, eps.size).T


def _boundary_solve(k: Kinematics):
    """Oracle amplitudes (N, 4) = (R, Rp, T, Tp) and the mask of failed points."""
    # piece j, component i, points contiguous: the columns are scaled in place
    pieces, nl = spinor_table(k).T, k.nl
    with np.errstate(divide="ignore", invalid="ignore"):
        nr = 1.0 / np.sqrt(2.0 * np.abs(k.eps_bar * k.ebar))
        rhs = -(pieces[0] * nl)
        # columns: the normalized pieces R, Rp, T, Tp; the transmitted ones enter negated
        cols = pieces[1:]
        cols *= np.stack((nl, nl, nr, nr))[:, None]
        np.negative(cols[2:], out=cols[2:])
    # not rescaled: partial pivoting ignores column scaling, and nl, nr set each column's scale
    failed = ~np.all(np.isfinite(cols), axis=(0, 1))  # nr degenerates: E = V0 or V0 = E + 1
    a, rhs = cols.T, rhs.T
    if failed.any():
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
    k, shape = _mask_kinematics(E, V0, b, n, _spin_up(spin))
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


def current_budget(params: ChannelParams) -> CurrentBudget:
    """Current fractions of the four outgoing channels (they sum to 1).

    Transmitted fractions are the group-velocity-weighted fluxes
    kappa*|1+R|^2 and kappa*|Rp|^2, not |T|^2 and |Tp|^2: only the
    weighted fluxes obey the conservation sum.  1 + R is not formed as
    1.0 + R: the closed forms divide a numerator of its own, so that it
    stays accurate as R -> -1.  In the evanescent regime the transmitted
    fractions are exactly 0 and |R|^2 + |Rp|^2 = 1.  Raises
    SingularStep on the slice V0 = E + 1.
    """
    return _point_results(params)[1]


def _point_results(params: ChannelParams) -> tuple[ScatterAmplitudes, CurrentBudget]:
    """amplitudes(params) and current_budget(params): _evaluate on one point."""
    k = point_kinematics(params)
    if k.singular[0]:
        raise SingularStep(
            f"V0 = {params.V0:.17g} within tolerance of E + 1 = {params.E + 1.0:.17g}: "
            "kinematic factor diverges"
        )
    a = _evaluate(k, ())
    return (ScatterAmplitudes(R=complex(a.R), Rp=complex(a.Rp), T=complex(a.T), Tp=complex(a.Tp),
                              regime=REGIMES[a.regime]),
            CurrentBudget(float(a.refl_same), float(a.refl_flip), float(a.trans_same), float(a.trans_flip)))


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

