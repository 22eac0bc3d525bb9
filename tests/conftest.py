import pytest

from kleinb.selftest import resolve_seed, sample_grid


@pytest.fixture(scope="session")
def seed():
    s = resolve_seed()
    # logged so any failure is reproducible; override with KLEINB_SEED
    print(f"\n[kleinb tests] random grid seed = {s}")
    return s


@pytest.fixture(scope="session")
def param_grid(seed):
    """Medium seeded grid spanning regimes, spins, n <= 20, b <= 1."""
    return sample_grid(600, seed)
