"""Every channel rule's exception class and text, from every entry point
that applies it: make_channel, the dataclass that runs the rule,
amplitudes_batch and solve_boundary_batch, FilterSetup, the stderr of
`kleinb amps`, `filter-delay` and `regime-map`, and the error column of
`kleinb sweep`.  The points that break two rules at once pin down the
order in which the rules are checked."""

import math

import numpy as np
import pytest

from kleinb import (
    Branch,
    ChannelParams,
    ClosedChannel,
    FieldStrength,
    FilterSetup,
    IncomingState,
    InvalidSpinIndex,
    NegativeField,
    Spin,
    amplitudes_batch,
    make_channel,
    solve_boundary_batch,
)
from kleinb.cli import main

NAN, INF = math.nan, math.inf
BASE = {"E": 2.0, "V0": 1.0, "b": 0.1, "n": 1, "spin": "up"}
LEVEL_BOUND = "channel index n must be <= MAX_LEVEL = 9007199254740991, got 9007199254740992"
SPIN_UP = "spin-up requires n >= 1 (orbital index n - 1 must exist)"
ENERGY_BOUND = "E and V0 must be <= MAX_ENERGY = 1e+50"

#: (the point's departures from BASE, the rule group of the first rule it
#: breaks: "b", "n", "E" (E and V0) or "open", the class, the text)
CASES = [
    ({"b": NAN}, "b", NegativeField, "field ratio b must be finite, got nan"),
    ({"b": INF}, "b", NegativeField, "field ratio b must be finite, got inf"),
    ({"b": -INF}, "b", NegativeField, "field ratio b must be finite, got -inf"),
    ({"b": -0.1}, "b", NegativeField, "field ratio b must be >= 0, got -0.1"),
    ({"b": -0.1, "n": -1, "E": NAN}, "b", NegativeField, "field ratio b must be >= 0, got -0.1"),
    ({"n": 1.5}, "n", InvalidSpinIndex, "channel index n must be an integer, got 1.5"),
    ({"n": -1.5}, "n", InvalidSpinIndex, "channel index n must be an integer, got -1.5"),
    ({"n": INF}, "n", InvalidSpinIndex, "channel index n must be an integer, got inf"),
    ({"n": NAN}, "n", InvalidSpinIndex, "channel index n must be an integer, got nan"),
    ({"n": -1}, "n", InvalidSpinIndex, "channel index n must be >= 0, got -1"),
    ({"n": -1, "spin": "down", "E": NAN}, "n", InvalidSpinIndex, "channel index n must be >= 0, got -1"),
    ({"n": 2 ** 53}, "n", InvalidSpinIndex, LEVEL_BOUND),
    ({"n": 2 ** 53, "spin": "down", "E": 0.5}, "n", InvalidSpinIndex, LEVEL_BOUND),
    ({"n": 0}, "n", InvalidSpinIndex, SPIN_UP),
    ({"n": 0, "E": -1.0, "V0": NAN}, "n", InvalidSpinIndex, SPIN_UP),
    ({"E": NAN}, "E", ValueError, "E and V0 must be finite"),
    ({"V0": INF}, "E", ValueError, "E and V0 must be finite"),
    ({"E": -1.0, "V0": -INF}, "E", ValueError, "E and V0 must be finite"),
    ({"E": -1.0}, "E", ValueError, "total energy must be > 0, got -1.0"),
    ({"E": 0.0, "V0": -1.0}, "E", ValueError, "total energy must be > 0, got 0.0"),
    ({"V0": -3.0}, "E", ValueError, "step height must be >= 0, got -3.0"),
    ({"E": 1e60, "V0": -3.0}, "E", ValueError, "step height must be >= 0, got -3.0"),
    ({"E": 1e51}, "E", ValueError, ENERGY_BOUND),
    ({"V0": 1e300}, "E", ValueError, ENERGY_BOUND),
    ({"E": 0.5, "V0": 1e60}, "E", ValueError, ENERGY_BOUND),
    ({"E": 1.2, "b": 0.5, "n": 2}, "open", ClosedChannel,
     "channel closed: E^2 = 1.44 <= 1 + 2 b n = 3"),
    ({"E": 1.0, "V0": 3.0, "b": 0.0, "n": 0, "spin": "down"}, "open", ClosedChannel,
     "channel closed: E^2 = 1 <= 1 + 2 b n = 1"),
    ({"E": 0.5, "b": 0.0, "n": 0, "spin": "down"}, "open", ClosedChannel,
     "channel closed: E^2 = 0.25 <= 1 + 2 b n = 1"),
]

def cases(keep=lambda p, group, message: True):
    """The CASES that keep accepts, as (point, group, class, text)."""
    out = []
    for change, group, error, message in CASES:
        p = {**BASE, **change}
        if keep(p, group, message):
            out.append(pytest.param(p, group, error, message, id=",".join(f"{k}={v}" for k, v in change.items())))
    return out


def flag(name, value):
    return f"--{name}={value!r}" if isinstance(value, float) else f"--{name}={value}"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def on_command_line(p, group, message):
    return isinstance(p["n"], int)  # the command line takes n as an integer


def of_filter(p, group, message):
    # the filter's b, n (spin-up member), E and V0 rules; its own pair
    # rule replaces the open rule
    return p["spin"] == "up" and group != "open"


def of_regime_map(p, group, message):
    # the map checks the b and n rules, for spin down
    return on_command_line(p, group, message) and group in ("b", "n") and message != SPIN_UP


@pytest.mark.parametrize("p, group, error, message", cases())
def test_make_channel(p, group, error, message):
    with pytest.raises(error) as got:
        make_channel(p["E"], p["V0"], p["b"], p["spin"], p["n"])
    assert type(got.value) is error and str(got.value) == message


@pytest.mark.parametrize("p, group, error, message", cases())
def test_dataclass(p, group, error, message):
    # the dataclass that runs the first broken rule, the others valid
    with pytest.raises(error) as got:
        if group == "b":
            FieldStrength(p["b"])
        elif group == "n":
            IncomingState(Spin(p["spin"]), p["n"])
        else:
            ChannelParams(p["E"], p["V0"], FieldStrength(p["b"]), IncomingState(Spin(p["spin"]), p["n"]))
    assert type(got.value) is error and str(got.value) == message


@pytest.mark.parametrize("batch", [amplitudes_batch, solve_boundary_batch])
@pytest.mark.parametrize("p, group, error, message", cases())
def test_batch(p, group, error, message, batch):
    # a valid point first, so that the invalid one is point (1,)
    columns = [np.array([BASE[k], p[k]]) for k in ("E", "V0", "b", "n")]
    with pytest.raises(error) as got:
        batch(*columns, [BASE["spin"], p["spin"]])
    assert type(got.value) is error and str(got.value) == f"point (1,): {message}"


@pytest.mark.parametrize("p, group, error, message", cases(of_filter))
def test_filter_setup(p, group, error, message):
    for branch in Branch:
        with pytest.raises(error) as got:
            FilterSetup(E=p["E"], n=p["n"], b=p["b"], V0=p["V0"], branch=branch)
        assert type(got.value) is error and str(got.value) == message


@pytest.mark.parametrize("p, group, error, message", cases(on_command_line))
def test_amps_stderr(capsys, p, group, error, message):
    code, out, err = run_cli(capsys, "amps", *(flag(k, v) for k, v in p.items()))
    assert (code, out, err) == (2, "", f"error: {error.__name__}: {message}\n")


@pytest.mark.parametrize("p, group, error, message",
                         cases(lambda *case: on_command_line(*case) and of_filter(*case)))
def test_filter_delay_stderr(capsys, p, group, error, message):
    code, out, err = run_cli(capsys, "filter-delay", *(flag(k, p[k]) for k in ("E", "V0", "b", "n")))
    assert (code, out, err) == (2, "", f"error: {error.__name__}: {message}\n")


@pytest.mark.parametrize("p, group, error, message", cases(of_regime_map))
def test_regime_map_stderr(capsys, p, group, error, message):
    code, out, err = run_cli(capsys, "regime-map", "--E-start=1", "--E-stop=2", "--V0-start=0",
                             "--V0-stop=1", flag("b", p["b"]), flag("n", p["n"]))
    assert (code, out, err) == (2, "", f"error: {error.__name__}: {message}\n")


@pytest.mark.parametrize("p, group, error, message", cases(on_command_line))
def test_sweep_error_column(capsys, p, group, error, message):
    fixed = [flag(k, p[k]) for k in ("V0", "b", "n", "spin")]
    code, out, _ = run_cli(capsys, "sweep", "--axis=E", f"--values=2,{p['E']!r}", *fixed)
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert rows[1][-1] == error.__name__
