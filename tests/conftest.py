import mpmath
import numpy as np
import pytest

from kleinb import G_ELECTRON
from kleinb.selftest import resolve_seed, sample_grid
from kleinb.states import channel_valid


@pytest.fixture(scope="session")
def seed():
    s = resolve_seed()
    # logged so any failure is reproducible; override with KLEINB_SEED
    print(f"\n[kleinb tests] random grid seed = {s}")
    return s


@pytest.fixture(scope="session")
def rng(seed):
    return np.random.default_rng(seed)


@pytest.fixture(scope="session")
def param_grid(seed):
    """Medium seeded grid spanning regimes, spins, n <= 20, b <= 1."""
    return sample_grid(600, seed)


@pytest.fixture(scope="session")
def threshold_edges(seed):
    """Seeded down-spin channels within 1e-17 to 1e-12 (relative) of a
    regime threshold E = V0 +- M_n, with C = 2 b n > 0 and n <= 20:
    arrays (E, V0, b, n), n as floats."""
    rng = np.random.default_rng([seed, 11])
    size = 6000
    n = rng.integers(1, 21, size).astype(float)
    b = rng.uniform(0.0, 1.0, size)
    m = np.sqrt(1.0 + 2.0 * b * n)
    V0 = m * rng.uniform(0.0, 10.0, size)
    side = rng.choice([-1.0, 1.0], size)
    offset = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-17.0, -12.0, size)
    E = (V0 + side * m) * (1.0 + offset)
    keep = channel_valid(E, V0, b, n, np.zeros(size, dtype=bool)) & (b > 0.0)
    return E[keep], V0[keep], b[keep], n[keep]


def _delay_reference(E, n, b, g=G_ELECTRON, distance=1.0, V0=0.0):
    """arrival_delay as the direct difference of the two flight times,
    taking the float inputs as exact.  The difference cancels about
    log10(E^2 / ((g - 2) b)) digits, 104 at E = 1e50, so it runs at 160."""
    with mpmath.workdps(160):
        x = abs(mpmath.mpf(E) - mpmath.mpf(V0))
        base = x * x - 1 - 2 * mpmath.mpf(b) * n
        shift = (mpmath.mpf(g) - 2) * mpmath.mpf(b) / 2
        flight = x * mpmath.mpf(distance)
        return flight / mpmath.sqrt(base - shift) - flight / mpmath.sqrt(base + shift)


@pytest.fixture(scope="session")
def delay_reference():
    """The extended-precision spin-filter delay, an mpmath number."""
    return _delay_reference
