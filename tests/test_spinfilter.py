import math
import re
import sys

import numpy as np
import pytest

from kleinb import (
    Branch,
    ClosedChannel,
    EvanescentBranch,
    FilterSetup,
    G_ELECTRON,
    InvalidSpinIndex,
    KleinStepError,
    NegativeField,
    Spin,
    arrival_delay,
    arrival_delay_first_order,
    make_channel,
    split_momenta,
)

import _reference as reference


def setup(**kwargs):
    base = dict(E=2.0, n=1, b=0.1, distance=1e6)
    base.update(kwargs)
    return FilterSetup(**base)


class TestSplitMomenta:
    def test_degenerate_at_g2(self):
        cp_up, cp_down = split_momenta(setup(g=2.0))
        assert cp_up == cp_down == math.sqrt(2.0 ** 2 - 1.0 - 2 * 0.1 * 1)

    def test_anomalous_g_splits_the_pair(self):
        cp_up, cp_down = split_momenta(setup(g=G_ELECTRON))
        assert cp_up < cp_down
        # split size is set by (g - 2) b
        assert cp_down ** 2 - cp_up ** 2 == pytest.approx(0.1 * (G_ELECTRON - 2.0), rel=1e-12)

    def test_closed_pair(self):
        with pytest.raises(ClosedChannel):
            split_momenta(setup(E=1.05, b=0.5, n=4))

    def test_validation(self):
        with pytest.raises(InvalidSpinIndex):
            setup(n=0)
        with pytest.raises(NegativeField):
            setup(b=-0.1)
        with pytest.raises(ValueError):
            setup(E=-1.0)
        with pytest.raises(ValueError):
            FilterSetup(E=2.0, n=1, b=0.1, branch=Branch.TRANSMITTED)  # V0 missing

    @pytest.mark.parametrize("branch", ["transmitted", None])
    def test_branch_must_be_a_member(self, branch):
        # not computed as the reflected branch
        with pytest.raises(ValueError, match=f"branch must be a Branch member, got {branch!r}"):
            setup(branch=branch, V0=1.0)

    @pytest.mark.parametrize("branch", list(Branch))
    def test_negative_step_rejected(self, branch):
        # the same rule and message as make_channel
        with pytest.raises(ValueError, match=r"^step height must be >= 0, got -3.0$"):
            setup(branch=branch, V0=-3.0)
        assert setup(branch=branch, V0=0.0).V0 == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_inputs_rejected(self, bad):
        with pytest.raises(NegativeField):
            setup(b=bad)
        with pytest.raises(ValueError):
            setup(g=bad)
        with pytest.raises(ValueError):
            setup(branch=Branch.TRANSMITTED, V0=bad)



@pytest.mark.parametrize("bad", [
    dict(E=0.0), dict(E=-1.0), dict(E=math.nan), dict(E=math.inf), dict(E=1e51),
    dict(V0=-3.0), dict(V0=math.nan), dict(V0=1e60),
    dict(b=-0.1), dict(b=math.nan),
    dict(n=2 ** 53), dict(n=2.0), dict(n=True),
])
def test_rules_match_make_channel(bad):
    # the filter's E, V0, b and n rules are the channel's, message included
    point = {"E": 2.0, "V0": 1.0, "b": 0.1, "n": 1, **bad}
    with pytest.raises((ValueError, KleinStepError)) as want:
        make_channel(point["E"], point["V0"], point["b"], Spin.UP, point["n"])
    for branch in Branch:
        with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$") as got:
            FilterSetup(**point, branch=branch)
        assert type(got.value) is want.type


class TestArrivalDelay:
    def test_zero_at_g2(self):
        assert arrival_delay(setup(g=2.0)) == 0.0

    def test_positive_for_anomalous_g(self):
        # the spin-up member is slower: flipped beam of a spin-down
        # incident electron arrives later
        assert arrival_delay(setup(g=G_ELECTRON)) > 0.0

    def test_linear_in_distance(self):
        one = arrival_delay(setup(distance=1.0))
        assert arrival_delay(setup(distance=2.0)) == 2.0 * one
        assert arrival_delay(setup(distance=1e6)) == pytest.approx(1e6 * one, rel=1e-15)

    @pytest.mark.parametrize("kwargs", [
        dict(distance=1e308),
        dict(E=1e50, distance=1e300),
        dict(E=5.0, V0=2.0, branch=Branch.TRANSMITTED, distance=1e308),
        dict(E=1.000000000001, b=1e-13, distance=1e308),  # 48 per unit distance
    ])
    def test_overflowing_delay_rejected(self, kwargs):
        # rejected exactly when the true delay is beyond the double range
        s = setup(**kwargs)
        want = reference.delay(s.E, s.n, s.b, s.g, s.distance, s.V0 or 0.0)
        if want > sys.float_info.max:
            for delay in (arrival_delay, arrival_delay_first_order):
                with pytest.raises(ValueError, match="flight distance"):
                    delay(s)
        else:
            assert abs(arrival_delay(s) / want - 1) < 1e-15
            assert math.isfinite(arrival_delay_first_order(s))

    @pytest.mark.parametrize("kwargs", [
        dict(E=1 + 1e-7),
        dict(E=3.0000001, V0=2.0, branch=Branch.TRANSMITTED),
    ])
    def test_threshold_accuracy(self, kwargs):
        # cp^2 = x^2 - 1 - 2 b n cancels near the pair threshold |x| = 1
        s = setup(b=1e-8, **kwargs)
        want = reference.delay(s.E, s.n, s.b, s.g, s.distance, s.V0 or 0.0)
        assert abs(arrival_delay(s) / want - 1) < 1e-15

    def test_monotone_and_odd_in_g_minus_2(self):
        gs = np.linspace(1.99, 2.01, 21)
        delays = [arrival_delay(setup(g=float(g), distance=1.0)) for g in gs]
        assert all(b > a for a, b in zip(delays, delays[1:]))
        assert delays[0] < 0.0 < delays[-1]

    def test_first_order_expansion_agrees(self):
        for g in np.linspace(1.99, 2.01, 11):
            if g == 2.0:
                continue
            s = setup(g=float(g), distance=1e3)
            exact = arrival_delay(s)
            approx = arrival_delay_first_order(s)
            assert approx == pytest.approx(exact, rel=1e-6)

    def test_first_order_zero_at_g2(self):
        assert arrival_delay_first_order(setup(g=2.0)) == 0.0


class TestTransmittedBranch:
    def test_above_step_delay(self):
        s = setup(E=5.0, V0=2.0, branch=Branch.TRANSMITTED, g=G_ELECTRON)
        assert arrival_delay(s) > 0.0

    def test_klein_regime_delay(self):
        s = setup(E=2.0, V0=8.0, branch=Branch.TRANSMITTED, g=G_ELECTRON)
        assert arrival_delay(s) > 0.0

    def test_first_order_agrees(self):
        s = setup(E=5.0, V0=2.0, branch=Branch.TRANSMITTED, g=G_ELECTRON, distance=1e4)
        assert arrival_delay_first_order(s) == pytest.approx(arrival_delay(s), rel=1e-6)

    def test_evanescent_rejected(self):
        s = setup(E=2.0, V0=2.0, branch=Branch.TRANSMITTED, g=G_ELECTRON)
        with pytest.raises(EvanescentBranch):
            arrival_delay(s)

    def test_zero_at_g2(self):
        assert arrival_delay(setup(E=5.0, V0=2.0, branch=Branch.TRANSMITTED, g=2.0)) == 0.0
