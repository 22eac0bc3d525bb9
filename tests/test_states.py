import inspect
import itertools
import math
import re
import typing
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kleinb
from kleinb import (
    Branch,
    ChannelParams,
    ClosedChannel,
    FieldStrength,
    FilterSetup,
    IncomingState,
    InvalidSpinIndex,
    NegativeField,
    Regime,
    Spin,
    amplitudes,
    amplitudes_batch,
    arrival_delay,
    classify,
    klein_limit,
    make_channel,
    split_momenta,
)
from kleinb.states import (
    CHANNEL_RULES,
    MAX_ENERGY,
    MAX_LEVEL,
    broken_rules,
    channel_error,
    channel_valid,
    level_floats,
)

from _points import strata


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


@pytest.mark.parametrize("spin", [True, False, 1, 0, None, 42, b"up", Spin])
def test_spin_not_coerced(spin):
    message = f"spin must be 'up' or 'down', got {spin!r}"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        make_channel(2.0, 6.0, 0.2, spin, 1)
    with pytest.raises(ValueError, match=re.escape(message)):
        amplitudes_batch(2.0, 6.0, 0.2, 1, spin)
    with pytest.raises(ValueError, match=re.escape(message)):
        klein_limit(spin, 1, 2.0, 0.2)


def test_incoming_state_takes_only_spin_members():
    for spin in ("up", "down", True, None):
        with pytest.raises(InvalidSpinIndex, match="spin must be a Spin member"):
            IncomingState(spin, 1)
    with pytest.raises(InvalidSpinIndex):
        IncomingState("up", 0)  # would otherwise bypass the (up, 0) rule
    assert IncomingState(Spin.UP, 1).spin is Spin.UP


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


def bit_texts(*values):
    return [float(x).hex() for x in values]


@pytest.mark.parametrize("level", [np.int8, np.int64, np.uint8])
def test_numpy_integer_levels_accepted(level):
    # a numpy integer level, as the batch forms take it, gives the results
    # of the int path bit for bit, and the channel keeps it as an int
    p, want = make_channel(2.0, 1.0, 0.1, "up", level(1)), make_channel(2.0, 1.0, 0.1, "up", 1)
    assert p == want and type(p.n) is int and type(p.state.n) is int
    got, ref = ([f(z) for z in (a.R, a.Rp, a.T, a.Tp) for f in (np.real, np.imag)]
                for a in (amplitudes(p), amplitudes(want)))
    assert bit_texts(*got) == bit_texts(*ref)
    assert bit_texts(*klein_limit("up", level(1), 2.0, 0.1)) == bit_texts(*klein_limit("up", 1, 2.0, 0.1))
    for branch in ({}, {"branch": Branch.TRANSMITTED, "V0": 0.5}):
        setup, int_setup = FilterSetup(E=2.0, n=level(1), b=0.1, **branch), FilterSetup(E=2.0, n=1, b=0.1, **branch)
        assert bit_texts(arrival_delay(setup), *split_momenta(setup)) == \
            bit_texts(arrival_delay(int_setup), *split_momenta(int_setup))


@pytest.mark.parametrize("n", [True, np.bool_(True), 1.0, np.float64(1.0)])
def test_bool_and_float_levels_rejected(n):
    message = f"^{re.escape(f'channel index n must be an integer, got {n!r}')}$"
    with pytest.raises(InvalidSpinIndex, match=message):
        make_channel(2.0, 1.0, 0.1, "up", n)
    with pytest.raises(InvalidSpinIndex, match=message):
        klein_limit("up", n, 2.0, 0.1)
    with pytest.raises(InvalidSpinIndex, match=message):
        FilterSetup(E=2.0, n=n, b=0.1)


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


#: Slack of the regime rule against the exact sign.  The float q2 of
#: momentum_sq is a few roundings of (E - V0)^2 off the exact value, so
#: where the exact |q2| is within REGIME_SLACK_ULPS ulp of (E - V0)^2 its
#: sign may go either way (the worst miss measured is 1.4 ulp).
REGIME_SLACK_ULPS = 2


def exact_regime(E, V0, C):
    """The regime from the exact sign of q2 = (E - V0)^2 - 1 - C on the
    float inputs, and |q2| in ulp of (E - V0)^2."""
    x = Fraction(E) - Fraction(V0)
    q2 = x * x - 1 - Fraction(C)
    held = Regime.CASE_III if q2 <= 0 else Regime.CASE_I if x < 0 else Regime.CASE_II
    return held, abs(q2) / Fraction(math.ulp(float(x * x)))


def assert_exact_regime(p):
    held, ulps = exact_regime(p.E, p.V0, p.C)
    assert classify(p) is held or ulps <= REGIME_SLACK_ULPS, (p, held, float(ulps))


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
    assert_exact_regime(p)


def test_regime_follows_exact_sign_at_thresholds(seed):
    for e, v0, b, n, up in zip(*strata(np.random.default_rng([seed, 11]), 24_000, "edge")):
        assert_exact_regime(make_channel(e, v0, b, Spin.UP if up else Spin.DOWN, int(n)))


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


def test_level_bound():
    assert IncomingState(Spin.DOWN, MAX_LEVEL).n == 2 ** 53 - 1
    for n in (MAX_LEVEL + 1, 2 ** 53 + 1, 10 ** 400):
        with pytest.raises(InvalidSpinIndex, match="MAX_LEVEL"):
            IncomingState(Spin.UP, n)


def _make_channel_error(e, v0, b, n, up):
    try:
        make_channel(e, v0, b, Spin.UP if up else Spin.DOWN, n)
    except (ValueError, ClosedChannel, InvalidSpinIndex, NegativeField) as exc:
        return exc
    return None


def test_level_floats_rejected_beyond_float_range():
    # an int too large for a float still reads as out of range, with its sign
    n = level_floats(10 ** 400), level_floats(-(10 ** 400))
    assert n[0] > MAX_LEVEL and n[1] < 0
    assert not channel_valid(1e30, 0.0, 0.0, np.array(n), False).any()
    assert level_floats(MAX_LEVEL) == MAX_LEVEL


def test_array_rule_matches_make_channel():
    # every rule of make_channel, its edges and non-finite values
    above = math.nextafter(MAX_ENERGY, math.inf)
    es = [-1.0, 0.0, 0.5, 1.0, 1.4955530238762225, 2.0, MAX_ENERGY, above, math.nan, math.inf]
    v0s = [-1.0, 0.0, 3.0, MAX_ENERGY, above, math.nan, -math.inf]
    bs = [-0.1, 0.0, 0.04416710168661831, 0.5, 1e300, math.nan, math.inf]
    ns = [-1, 0, 1, 14, 2.5, 2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1, 2 ** 54, math.inf]
    grid = np.array(list(itertools.product(es, v0s, bs, ns, [False, True])))
    e, v0, b, n, up = grid.T
    up = up.astype(bool)
    valid = channel_valid(e, v0, b, n, up)
    # every point: the first rule it breaks, or len(CHANNEL_RULES) for none
    broken = broken_rules(e, v0, b, n, up)
    kinds = set()
    for i in range(len(grid)):
        n_i = int(n[i]) if math.isfinite(n[i]) and n[i] == math.floor(n[i]) else float(n[i])
        exc = _make_channel_error(float(e[i]), float(v0[i]), float(b[i]), n_i, up[i])
        want = None if exc is None else type(exc)
        assert valid[i] == (want is None), grid[i]
        assert (broken[i] == len(CHANNEL_RULES)) == (want is None), grid[i]
        if want is not None:
            assert CHANNEL_RULES[broken[i]][1] is want, grid[i]
            error = channel_error(e[i], v0[i], b[i], n[i], up[i])
            assert type(error) is want and str(error) == str(exc), grid[i]
        kinds.add(want)
    assert kinds == {None, ValueError, ClosedChannel, InvalidSpinIndex, NegativeField}


@pytest.mark.parametrize("name", kleinb.__all__)
def test_type_hints_resolve(name):
    # every annotation of the public classes and functions names a defined type
    obj = getattr(kleinb, name)
    if inspect.isclass(obj) or inspect.isfunction(obj):
        typing.get_type_hints(obj)
