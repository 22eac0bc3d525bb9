"""The extended-precision reference checked against itself.

Its closed forms and its 4x4 boundary solve are independent derivations
of the same amplitudes, so a slip in either fails here, and not as a
float test that passes or fails for the wrong reason.
"""

import mpmath
import numpy as np

import _reference as reference
from _points import STRATA, strata


def test_closed_forms_match_boundary_solve(seed):
    E, V0, b, n, up = strata(np.random.default_rng([seed, 37]), 4, *STRATA)
    for point in zip(E, V0, b, n, up):
        exact = reference.closed_forms(*point)
        amps = (exact.R, exact.Rp, exact.T, exact.Tp)
        scale = max(1, *(abs(z) for z in amps))
        deviation = max(abs(z - s) for z, s in zip(amps, reference.boundary_solve(*point))) / scale
        assert deviation <= 1e-40, (point, deviation)
        # mpmath.fdot sums without rounding the terms to the working precision
        fractions = (exact.refl_same, exact.refl_flip, exact.trans_same, exact.trans_flip)
        assert abs(mpmath.fdot([(x, 1) for x in fractions] + [(1, -1)])) <= 1e-40, point
        assert abs(mpmath.fdot([(exact.one_plus_R, 1), (exact.R, -1), (1, -1)])) <= 1e-40, point


def test_phase_identity_of_boundary_solve(seed):
    # the identity assert_phase_identity checks on the closed forms, on the
    # solve: R conj(Rp) is real, and T conj(Tp) where the transmitted wave
    # propagates (q2 > 0)
    E, V0, b, n, up = strata(np.random.default_rng([seed, 37]), 4, *STRATA)
    for point in zip(E, V0, b, n, up):
        R, Rp, T, Tp = reference.boundary_solve(*point)
        with mpmath.workdps(reference.DPS):
            assert abs(mpmath.im(R * mpmath.conj(Rp))) <= 1e-40 * abs(R) * abs(Rp), point
            if mpmath.im(reference.closed_forms(*point).cq) == 0:
                assert abs(mpmath.im(T * mpmath.conj(Tp))) <= 1e-40 * abs(T) * abs(Tp), point
