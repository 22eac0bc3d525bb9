import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kleinb import (
    ChannelParams,
    ClosedChannel,
    FieldStrength,
    IncomingState,
    InvalidSpinIndex,
    NegativeField,
    Regime,
    Spin,
    classify,
    make_channel,
)
from kleinb.states import MAX_ENERGY, channel_error, channel_valid


def test_valid_channel():
    p = make_channel(2.0, 5.0, 0.1, Spin.DOWN, 1)
    assert p.E == 2.0 and p.V0 == 5.0
    assert p.C == pytest.approx(0.2)
    assert p.spin is Spin.DOWN and p.n == 1


def test_spin_from_string():
    assert make_channel(2.0, 0.0, 0.0, "up", 1).spin is Spin.UP
    assert make_channel(2.0, 0.0, 0.0, "DOWN", 0).spin is Spin.DOWN
    with pytest.raises(ValueError):
        make_channel(2.0, 0.0, 0.0, "sideways", 1)


def test_closed_channel_at_threshold():
    # E^2 equals 1 + C exactly: zero momentum is not an open channel
    with pytest.raises(ClosedChannel):
        make_channel(1.0, 3.0, 0.0, Spin.DOWN, 0)
    with pytest.raises(ClosedChannel):
        make_channel(1.2, 0.0, 0.5, Spin.UP, 2)


def test_spin_up_needs_degenerate_partner():
    with pytest.raises(InvalidSpinIndex):
        make_channel(2.0, 5.0, 0.1, Spin.UP, 0)


def test_negative_field_rejected():
    with pytest.raises(NegativeField):
        make_channel(2.0, 5.0, -0.1, Spin.DOWN, 1)


@pytest.mark.parametrize("bad", [{"E": -2.0}, {"E": 0.0}, {"V0": -1.0}, {"E": math.inf}])
def test_out_of_range_inputs(bad):
    kwargs = {"E": 2.0, "V0": 1.0, "b": 0.1, "spin": Spin.DOWN, "n": 1}
    kwargs.update(bad)
    with pytest.raises((ValueError, ClosedChannel)):
        make_channel(**kwargs)


def test_non_integer_index_rejected():
    with pytest.raises(InvalidSpinIndex):
        IncomingState(Spin.DOWN, 1.5)
    with pytest.raises(InvalidSpinIndex):
        IncomingState(Spin.DOWN, -1)


def test_field_strength_derived_quantities():
    f = FieldStrength(0.25)
    assert f.magnetic_length == 2.0
    assert f.c_n(3) == pytest.approx(1.5)
    assert f.c_n(0) == 0.0
    assert FieldStrength(0.0).magnetic_length == math.inf


def test_channel_coupling_zero_without_field():
    for n in range(6):
        assert FieldStrength(0.0).c_n(n) == 0.0


def test_channel_coupling_monotone_in_n():
    f = FieldStrength(0.37)
    values = [f.c_n(n) for n in range(12)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_channel_mass_at_least_one():
    assert make_channel(2.0, 0.0, 0.0, Spin.DOWN, 5).channel_mass == 1.0
    assert make_channel(2.0, 0.0, 0.3, Spin.DOWN, 0).channel_mass == 1.0
    assert make_channel(3.0, 0.0, 0.3, Spin.DOWN, 2).channel_mass > 1.0


def test_regime_boundaries_are_evanescent():
    # both equalities E = V0 -+ M_n classify as the evanescent case
    upper = make_channel(3.0, 2.0, 0.0, Spin.DOWN, 0)   # E = V0 + M exactly
    assert classify(upper) is Regime.CASE_III
    lower = make_channel(2.0, 3.0, 0.0, Spin.DOWN, 0)   # V0 - M = E exactly
    assert classify(lower) is Regime.CASE_III


def test_regime_examples():
    assert classify(make_channel(2.0, 6.0, 0.2, Spin.UP, 1)) is Regime.CASE_I
    assert classify(make_channel(5.0, 2.0, 0.0, Spin.DOWN, 0)) is Regime.CASE_II
    assert classify(make_channel(2.0, 2.0, 0.0, Spin.DOWN, 0)) is Regime.CASE_III


@settings(max_examples=300, deadline=None)
@given(
    e=st.floats(1.0001, 50.0),
    v0=st.floats(0.0, 100.0),
    b=st.floats(0.0, 1.0),
    n=st.integers(0, 20),
)
def test_exactly_one_regime_holds(e, v0, b, n):
    try:
        p = make_channel(e, v0, b, Spin.DOWN, n)
    except ClosedChannel:
        return
    m = p.channel_mass
    flags = [v0 - m > e, e > v0 + m, v0 - m <= e <= v0 + m]
    assert sum(flags) == 1
    held = [Regime.CASE_I, Regime.CASE_II, Regime.CASE_III][flags.index(True)]
    assert classify(p) is held


def test_params_are_immutable():
    p = make_channel(2.0, 5.0, 0.1, Spin.DOWN, 1)
    with pytest.raises(AttributeError):
        p.E = 3.0
    assert isinstance(p, ChannelParams)


def test_energy_bound():
    # the bound itself is accepted, the next double above it is not
    above = math.nextafter(MAX_ENERGY, math.inf)
    assert make_channel(MAX_ENERGY, MAX_ENERGY, 0.1, Spin.UP, 1).E == MAX_ENERGY
    for e, v0 in [(above, 0.0), (2.0, above), (2.0, 1e300)]:
        with pytest.raises(ValueError, match="MAX_ENERGY"):
            make_channel(e, v0, 0.1, Spin.UP, 1)


def _make_channel_error(e, v0, b, n, up):
    try:
        make_channel(e, v0, b, Spin.UP if up else Spin.DOWN, n)
    except (ValueError, ClosedChannel, InvalidSpinIndex, NegativeField) as exc:
        return type(exc)
    return None


def test_array_rule_matches_make_channel():
    # every rule of make_channel, its edges and non-finite values
    above = math.nextafter(MAX_ENERGY, math.inf)
    es = [-1.0, 0.0, 0.5, 1.0, 1.4955530238762225, 2.0, MAX_ENERGY, above, math.nan, math.inf]
    v0s = [-1.0, 0.0, 3.0, MAX_ENERGY, above, math.nan, -math.inf]
    bs = [-0.1, 0.0, 0.04416710168661831, 0.5, 1e300, math.nan, math.inf]
    ns = [-1, 0, 1, 14, 2.5, math.inf]
    grid = np.array(list(itertools.product(es, v0s, bs, ns, [False, True])))
    e, v0, b, n, up = grid.T
    up = up.astype(bool)
    valid = channel_valid(e, v0, b, n, up)
    kinds = set()
    for i in range(len(grid)):
        n_i = int(n[i]) if math.isfinite(n[i]) and n[i] == math.floor(n[i]) else float(n[i])
        want = _make_channel_error(float(e[i]), float(v0[i]), float(b[i]), n_i, up[i])
        assert valid[i] == (want is None), grid[i]
        if want is not None:
            assert type(channel_error(e[i], v0[i], b[i], n[i], up[i])) is want, grid[i]
        kinds.add(want)
    assert kinds == {None, ValueError, ClosedChannel, InvalidSpinIndex, NegativeField}
