"""Scalar views of the selftest grid for the tests: one random channel
drawn by the grid's rule, and one point's closed-form/solver deviation.

The package checks whole grids at once (selftest.sample_grid and
check_oracle); these are the one-point forms that the tests loop over.
"""

import numpy as np

from kleinb.scattering import amplitudes, solve_boundary_system
from kleinb.selftest import _deviation, _draw_block
from kleinb.states import ChannelParams, Spin, make_channel


def sample_params(rng: np.random.Generator, n_max: int = 20) -> ChannelParams:
    """One random open channel, drawn by the rule of sample_grid."""
    while True:
        e, v0, b, n, up = _draw_block(rng, 1, n_max)
        if e.size:
            return make_channel(e[0], v0[0], b[0], Spin.UP if up[0] else Spin.DOWN, int(n[0]))


def amplitude_deviation(params: ChannelParams) -> float:
    """Scaled max component difference between closed form and solver."""
    a = amplitudes(params)
    s = solve_boundary_system(params)
    return float(_deviation(np.array([[a.R], [a.Rp], [a.T], [a.Tp]]),
                            np.array([[s.R], [s.Rp], [s.T], [s.Tp]]))[0])
