"""Extended-precision references for the tests.  Every function takes
its float inputs as exact and works at DPS digits (the spin-filter delay
at 160), so that its own rounding can neither mask nor fake an error of
the float code it checks.  The closed forms and the solve take C as the
float product 2.0 * b * n, as the package forms it.  The results are
mpmath numbers.
"""

from collections import namedtuple

import mpmath

from kleinb import G_ELECTRON

DPS = 60


def _kinematics(E, V0, b, n):
    """E, V0, C, eps, eps_bar, ebar, cp and cq as mpmath numbers.  The
    branch rule of landau.longitudinal_momenta: cq = sign(E - V0) sqrt(q2)
    where q2 = (E - V0)^2 - 1 - C > 0, else +i sqrt(-q2)."""
    E, V0, C = (mpmath.mpf(float(x)) for x in (E, V0, 2.0 * b * n))
    eps, ebar = E + 1, E - V0
    q2 = ebar * ebar - 1 - C
    cq = mpmath.sign(ebar) * mpmath.sqrt(q2) if q2 > 0 else mpmath.mpc(0, mpmath.sqrt(-q2))
    return E, V0, C, eps, eps - V0, ebar, mpmath.sqrt(E * E - 1 - C), cq


#: The momenta, amplitudes and current fractions of one channel.
ClosedForms = namedtuple("ClosedForms", "cp cq R Rp T Tp one_plus_R refl_same refl_flip trans_same trans_flip")


def closed_forms(E, V0, b=0.0, n=0, up=False) -> ClosedForms:
    """The closed forms of scattering._closed_forms, all in factored form:
    with x = cp eps_bar + cq eps, Q = V0 (eps + C) and N = cp x, the
    denominator x^2 + C V0^2 is 2 eps_bar (N - Q), and N - Q does not
    cancel wherever |R| <= 1.  Field-free, lowest state by default."""
    with mpmath.workdps(DPS):
        E, V0, C, eps, eps_bar, ebar, cp, cq = _kinematics(E, V0, b, n)
        rc, sign = mpmath.sqrt(C), 1 if up else -1
        x = cp * eps_bar + cq * eps
        Q, N = V0 * (eps + C), cp * x
        den = N - Q
        lead = mpmath.sqrt(abs(eps_bar * ebar) / (eps * E)) * cp * eps / (eps_bar * den)
        R, Rp, one_plus_R = Q / den, sign * cp * rc * V0 / den, N / den
        kappa = mpmath.re(cq) * eps / (cp * eps_bar)
        return ClosedForms(cp, cq, R, Rp, lead * x, sign * lead * rc * V0, one_plus_R,
                           abs(R) ** 2, abs(Rp) ** 2, kappa * abs(one_plus_R) ** 2, kappa * abs(Rp) ** 2)


def klein_approach(E, b, n, up, V0=1e20) -> tuple:
    """V0 (|T|^2 / |T|^2_inf - 1) and V0 (|Tp|^2 / |Tp|^2_inf - 1) from the
    closed forms at V0: the coefficients c of |T|^2 = |T|^2_inf (1 + c / V0
    + O(1 / V0^2)).  Each limit is the closed forms at V0^2, off by about
    c / V0^2 relative; the differences cancel log10(V0) digits.  The Tp
    coefficient is None where C = 0 and Tp vanishes."""
    near, far = closed_forms(E, V0, b, n, up), closed_forms(E, V0 * V0, b, n, up)
    with mpmath.workdps(DPS):
        return tuple(V0 * (abs(z) ** 2 / abs(limit) ** 2 - 1) if limit else None
                     for z, limit in ((near.T, far.T), (near.Tp, far.Tp)))


def boundary_solve(E, V0, b, n, up) -> list:
    """(R, Rp, T, Tp) of the normalized 4x4 matching system, solved by LU:
    the piece vectors of the spinor_table docstring (spin-down mirrored),
    times nl and -nr."""
    with mpmath.workdps(DPS):
        E, V0, C, eps, eps_bar, ebar, cp, cq = _kinematics(E, V0, b, n)
        rc, sign = mpmath.sqrt(C), 1 if up else -1
        cp, cq = sign * cp, sign * cq
        pieces = [(eps, 0, cp, rc), (eps, 0, -cp, rc), (0, eps, rc, cp),
                  (eps_bar, 0, cq, rc), (0, eps_bar, rc, -cq)]
        if not up:
            pieces = [(p[1], p[0], p[3], p[2]) for p in pieces]
        nl = 1 / mpmath.sqrt(2 * eps * E)
        nr = 1 / mpmath.sqrt(2 * abs(eps_bar * ebar))
        norms = (nl, nl, -nr, -nr)
        a = mpmath.matrix([[pieces[j + 1][i] * norms[j] for j in range(4)] for i in range(4)])
        return list(mpmath.lu_solve(a, mpmath.matrix([-nl * c for c in pieces[0]])))


def delay(E, n, b, g=G_ELECTRON, distance=1.0, V0=0.0):
    """arrival_delay as the direct difference of the two flight times.
    The difference cancels about log10(E^2 / ((g - 2) b)) digits, 104 at
    E = 1e50, so it runs at 160."""
    with mpmath.workdps(160):
        x = abs(mpmath.mpf(E) - mpmath.mpf(V0))
        base = x * x - 1 - 2 * mpmath.mpf(b) * n
        shift = (mpmath.mpf(g) - 2) * mpmath.mpf(b) / 2
        flight = x * mpmath.mpf(distance)
        return flight / mpmath.sqrt(base - shift) - flight / mpmath.sqrt(base + shift)
