"""Points for the tests: the seeded stratified sampler, and the one-point
forms of the selftest grid's sampler, of its points and of its
closed-form/solver comparison, which the tests loop over.
"""

from functools import partial

import numpy as np

from kleinb.scattering import NEAR_SINGULAR_FRACTION, SINGULAR_TOL, amplitudes, solve_boundary_system
from kleinb.selftest import N_MAX, SLIVER_FRACTION, _deviation, _draw_block
from kleinb.states import ChannelParams, Spin, channel_valid, make_channel


def in_sliver(E, V0):
    """The points next to V0 = E + 1 that selftest._draw_block skips."""
    return np.abs(E + 1.0 - V0) < SLIVER_FRACTION * (1.0 + V0)


def _on_grid(v0):
    """The draw of E = M (1 + 10^U(-1, 0.7)) on a 2^-40 grid, so that eps =
    E + 1 and, next to the slice, eps_bar = eps - V0 are exact in float,
    and of V0 = v0(E, U, sign)."""
    def draw(U, sign, m):
        E = np.round(m * (1.0 + 10.0 ** U(-1.0, 0.7)) * 2.0 ** 40) / 2.0 ** 40
        return E, v0(E, U, sign)
    return draw


def _edge(U, sign, m):
    V0 = m * U(0.0, 10.0)
    return (V0 + sign() * m) * (1.0 + sign() * 10.0 ** U(-17.0, -12.0)), V0


def _threshold(U, sign, m):
    E = m * (1.0 + 10.0 ** U(-9.0, -1.0))
    return E, np.where(U(0.0, 1.0) < 0.5, np.abs(E - m * (1.0 + 10.0 ** U(-9.0, -1.0))), 10.0 ** U(-12.0, 1.0))


def _off(E, V0, m):
    """5 % or more off the regime thresholds |E - V0| = M."""
    return np.abs(np.abs(E - V0) - m) > 0.05 * m


def _unit(U):
    return U(0.0, 1.0)


#: One row per stratum: n <= n_max and b(U) at C > 0, (E, V0) = draw(U,
#: sign, M), and the points kept by keep(E, V0, M, C = 0) if given.
STRATA = {  # name: (n_max, b, draw, keep)
    "bulk": (20, _unit, _on_grid(lambda E, U, sign: E * 10.0 ** U(-2.0, 1.0)),
             lambda E, V0, m, flat: _off(E, V0, m) & (np.abs(E + 1.0 - V0) > 0.05 * (1.0 + V0))),
    "tall": (20, _unit, _on_grid(lambda E, U, sign: 10.0 ** U(2.0, 50.0)), None),
    "e_near_v0": (20, _unit, _on_grid(lambda E, U, sign: E * (1.0 + sign() * 10.0 ** U(-15.0, -3.0))), None),
    "band": (20, _unit, _on_grid(lambda E, U, sign: (E + 1.0) * (1.0 + sign() * 10.0 ** U(-11.0, -2.3))),
             lambda E, V0, m, flat: (np.abs(E + 1.0 - V0) < NEAR_SINGULAR_FRACTION * (1.0 + V0))
             & (flat | _off(E, V0, m))),
    "sliver": (20, _unit, _on_grid(lambda E, U, sign: (E + 1.0) * (1.0 + sign() * 10.0 ** U(-12.0, np.log10(SLIVER_FRACTION)))),
               lambda E, V0, m, flat: in_sliver(E, V0)),
    "edge": (20, _unit, _edge, None),
    "low_step": (20, _unit, lambda U, sign, m: (m * 10.0 ** U(np.log10(1.1), 8.0), 10.0 ** U(-12.0, 0.0)), None),
    "threshold": (8, lambda U: 10.0 ** U(-3.0, 0.3), _threshold, None),
}


def strata(rng: np.random.Generator, size: int, *names: str) -> tuple[np.ndarray, ...]:
    """`size` seeded open channels off the SINGULAR_TOL slice per named
    stratum of STRATA, concatenated in the order named: arrays (E, V0, b,
    n, up), n as floats, spin-up for half the points with n > 0.

    The first size - size // 2 points of a stratum have C = 2 b n > 0 (n
    >= 1), the other size // 2 have C = 0: b = 0 for half of them, the
    lowest state n = 0 for the rest.  M = sqrt(1 + C).
    """
    columns = []
    for name in names:
        n_max, b_law, draw, keep = STRATA[name]
        for flat, count in ((False, size - size // 2), (True, size // 2)):
            draws = 4 * count + 64
            U, sign = partial(rng.uniform, size=draws), partial(rng.choice, [-1.0, 1.0], draws)
            b = np.where(flat & (U(0.0, 1.0) < 0.5), 0.0, b_law(U))
            n = np.where(flat & (b > 0.0), 0.0, rng.integers(1, n_max + 1, draws))
            up = (n > 0) & (U(0.0, 1.0) < 0.5)
            m = np.sqrt(1.0 + 2.0 * b * n)
            E, V0 = draw(U, sign, m)
            kept = channel_valid(E, V0, b, n, up) & (np.abs(E + 1.0 - V0) >= SINGULAR_TOL * (1.0 + V0))
            kept &= keep(E, V0, m, flat) if keep else True
            columns.append([x[kept][:count] for x in (E, V0, b, n, up)])
            assert columns[-1][0].size == count, name
    return tuple(np.concatenate(c) for c in zip(*columns))


def sample_params(rng: np.random.Generator, n_max: int = N_MAX) -> ChannelParams:
    """One random open channel, drawn by the rule of sample_grid; draws
    with n > n_max are skipped."""
    while True:
        e, v0, b, n, up = _draw_block(rng, 1)
        if e.size and n[0] <= n_max:
            return make_channel(e[0], v0[0], b[0], Spin.UP if up[0] else Spin.DOWN, n[0])


def channels(grid):
    """The points of a selftest grid as ChannelParams, in order."""
    for i in range(len(grid)):
        yield make_channel(grid.E[i], grid.V0[i], grid.b[i], grid.spin[i], grid.n[i])


def amplitude_deviation(params: ChannelParams) -> float:
    """Scaled max component difference between closed form and solver."""
    a = amplitudes(params)
    s = solve_boundary_system(params)
    return float(_deviation(np.array([[a.R], [a.Rp], [a.T], [a.Tp]]),
                            np.array([[s.R], [s.Rp], [s.T], [s.Tp]]))[0])
