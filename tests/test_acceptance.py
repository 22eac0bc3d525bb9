"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them on success).

The random grids are seeded (KLEINB_SEED overrides) and span all three
regimes, both spins, n in [0, 20] and b in [0, 1].
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from kleinb import (
    Branch,
    FilterSetup,
    Regime,
    Spin,
    amplitudes,
    arrival_delay,
    arrival_delay_first_order,
    current_budget,
    eval_oscillator,
    klein_limit,
    make_channel,
    momentum_right,
)
from kleinb.cli import fmt, main
from kleinb.selftest import resolve_seed, sample_grid
from kleinb.wavefield import (
    ScatterAmplitudes,
    assemble_field,
    continuity_residual,
    integrated_current,
)

import _reference as reference
from _points import amplitude_deviation, channels, sample_params


def report(num, ok, desc, detail):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {desc}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def big_grid():
    return sample_grid(10000, resolve_seed())


def test_criterion_01_unitarity(big_grid):
    start = time.perf_counter()
    worst = max(abs(current_budget(p).sum - 1.0) for p in channels(big_grid))
    elapsed = time.perf_counter() - start
    report(
        1, worst < 1e-12 and elapsed < 10.0,
        "current conservation on 10^4 random points",
        f"max |sum - 1| = {worst:.3e} (tol 1e-12), runtime {elapsed:.2f}s (< 10s)",
    )


def test_criterion_02_oracle_equivalence(big_grid):
    worst = max(amplitude_deviation(p) for p in channels(big_grid))
    report(
        2, worst < 1e-12,
        "closed forms vs 4x4 boundary solve",
        f"max component deviation = {worst:.3e} (tol 1e-12)",
    )


def test_criterion_03_field_free_reduction(big_grid):
    flips_zero = True
    worst_r = 0.0
    worst_total = 0.0
    count = 0
    for p in channels(big_grid):
        if p.field.b != 0.0:
            continue
        count += 1
        a = amplitudes(p)
        flips_zero &= a.Rp == 0.0 and a.Tp == 0.0
        worst_r = max(worst_r, abs(a.R - complex(reference.closed_forms(p.E, p.V0).R)))
        if a.regime is Regime.CASE_III:
            worst_total = max(worst_total, abs(abs(a.R) ** 2 - 1.0))
    ok = flips_zero and worst_r < 1e-13 and worst_total < 1e-14
    report(
        3, ok,
        f"field-free reduction on {count} b = 0 points",
        f"flips exactly 0: {flips_zero}; max |R - (1-k)/(1+k)| = {worst_r:.3e}; "
        f"max ||R|^2 - 1| evanescent = {worst_total:.3e} (tol 1e-14)",
    )


def test_criterion_04_klein_limits():
    worst = 0.0
    for e, b, n, spin in [
        (2.0, 0.2, 1, Spin.UP), (2.0, 0.2, 1, Spin.DOWN), (1.6, 0.05, 3, Spin.DOWN),
        (4.0, 1.0, 5, Spin.UP), (1.2, 0.02, 2, Spin.DOWN), (3.0, 0.6, 4, Spin.UP),
    ]:
        t2_inf, tp2_inf = klein_limit(spin, n, e, b)
        a = amplitudes(make_channel(e, 1e4, b, spin, n))
        worst = max(worst, abs(abs(a.T) ** 2 - t2_inf) / t2_inf)
        if tp2_inf > 0:
            worst = max(worst, abs(abs(a.Tp) ** 2 - tp2_inf) / tp2_inf)
    anchor = klein_limit(Spin.DOWN, 0, math.sqrt(2.0), 0.0)[0]
    anchor_err = abs(anchor - 2.0 / (2.0 + math.sqrt(2.0)))
    ok = worst < 1e-3 and anchor_err < 1e-12
    report(
        4, ok,
        "infinite-step limits",
        f"max rel deviation at V0 = 1e4: {worst:.3e} (tol 1e-3); "
        f"field-free anchor error = {anchor_err:.3e} (tol 1e-12)",
    )


def test_criterion_05_no_flip_anchors(big_grid):
    lowest_ok = True
    count = 0
    for p in channels(big_grid):
        if p.n != 0:
            continue
        count += 1
        a = amplitudes(p)
        lowest_ok &= a.Rp == 0.0 and a.Tp == 0.0
    bs = np.logspace(-8, -4, 9)
    mags = [abs(amplitudes(make_channel(2.0, 6.0, float(b), Spin.UP, 1)).Rp) for b in bs]
    slope = float(np.polyfit(np.log(bs), np.log(mags), 1)[0])
    ok = lowest_ok and abs(slope - 0.5) < 0.01
    report(
        5, ok,
        "no-flip anchors",
        f"(down, 0) flips exactly 0 at {count} points: {lowest_ok}; "
        f"b -> 0 log-log slope = {slope:.4f} (want 0.5 +- 0.01)",
    )


def test_criterion_06_spin_symmetry(big_grid):
    worst = 0.0
    signs = True
    count = 0
    for p in channels(big_grid[:1000]):
        if p.n == 0:
            continue
        count += 1
        up = make_channel(p.E, p.V0, p.field.b, Spin.UP, p.n)
        down = make_channel(p.E, p.V0, p.field.b, Spin.DOWN, p.n)
        bu, bd = current_budget(up), current_budget(down)
        worst = max(
            worst,
            abs(bu.refl_same - bd.refl_same), abs(bu.refl_flip - bd.refl_flip),
            abs(bu.trans_same - bd.trans_same), abs(bu.trans_flip - bd.trans_flip),
        )
        au, ad = amplitudes(up), amplitudes(down)
        signs &= ad.Rp == -au.Rp and ad.Tp == -au.Tp
    ok = worst < 1e-14 and signs
    report(
        6, ok,
        f"up/down budget symmetry on {count} pairs",
        f"max budget difference = {worst:.3e} (tol 1e-14); opposite flip signs: {signs}",
    )


def test_criterion_07_field_continuity_and_currents():
    rng = np.random.default_rng(resolve_seed())
    worst_res = 0.0
    for _ in range(100):
        p = sample_params(rng)
        f = assemble_field(p, ny=257, nz=2)
        worst_res = max(worst_res, continuity_residual(f))

    worst_cur = 0.0
    checked = 0
    while checked < 12:
        p = sample_params(rng, n_max=10)
        length = p.field.magnetic_length if p.field.b > 0 else 1.0
        half = (6.0 + math.sqrt(2.0 * p.n + 1.0)) * length
        y = np.linspace(-half, half, 2049)
        field = assemble_field(p, y=y, nz=24)
        zero = ScatterAmplitudes(R=0j, Rp=0j, T=0j, Tp=0j, regime=field.amps.regime)
        j_inc = integrated_current(assemble_field(p, amps=zero, y=y, nz=24))[0]
        j = integrated_current(field) / j_inc
        b = current_budget(p)
        worst_cur = max(
            worst_cur,
            np.abs(j[field.z < 0] - (1.0 - b.refl_same - b.refl_flip)).max(),
            np.abs(j[field.z >= 0] - (b.trans_same + b.trans_flip)).max(),
        )
        checked += 1

    worst_decay = 0.0
    decayed = 0
    while decayed < 6:
        p = sample_params(rng, n_max=10)
        if amplitudes(p).regime is not Regime.CASE_III:
            continue
        q_mag = abs(momentum_right(p))
        zmax = min(3.0 / q_mag, 40.0)
        z = np.linspace(-1.0, zmax, 161)
        f = assemble_field(p, z=z, ny=513)
        mask = f.z > 0.15 * zmax
        dens = np.trapezoid(f.density()[:, mask], f.y, axis=0)
        slope = np.polyfit(f.z[mask], np.log(dens), 1)[0]
        worst_decay = max(worst_decay, abs(-slope / 2.0 - q_mag) / q_mag)
        decayed += 1

    ok = worst_res < 1e-10 and worst_cur < 1e-8 and worst_decay < 0.01
    report(
        7, ok,
        "assembled fields",
        f"max continuity residual over 100 points = {worst_res:.3e} (tol 1e-10); "
        f"max current-vs-budget deviation = {worst_cur:.3e} (tol 1e-8); "
        f"max decay-rate error = {worst_decay:.2%} (tol 1%)",
    )


def test_criterion_08_oscillator_orthonormality():
    nodes, weights = np.polynomial.hermite.hermgauss(64)
    table = np.array([eval_oscillator(n, nodes) for n in range(31)])
    overlap = np.einsum("k,mk,nk->mn", weights * np.exp(nodes ** 2), table, table)
    worst = np.abs(overlap - np.eye(31)).max()
    report(
        8, worst < 1e-10,
        "oscillator orthonormality for n <= 30",
        f"max |<m|n> - delta_mn| = {worst:.3e} (tol 1e-10)",
    )


def test_criterion_09_spin_filter():
    base = dict(E=2.0, n=1, b=0.1, distance=1e3)
    zero = arrival_delay(FilterSetup(g=2.0, **base))
    anomalous = arrival_delay(FilterSetup(g=2.002319, **base))
    worst_rel = 0.0
    for g in np.linspace(1.99, 2.01, 21):
        if g == 2.0:
            continue
        s = FilterSetup(g=float(g), **base)
        worst_rel = max(worst_rel, abs(arrival_delay_first_order(s) / arrival_delay(s) - 1.0))
    trans = arrival_delay(FilterSetup(g=2.002319, branch=Branch.TRANSMITTED, V0=2.0,
                                      E=5.0, n=1, b=0.1, distance=1e3))
    ok = zero == 0.0 and anomalous > 0.0 and worst_rel < 1e-6 and trans > 0.0
    report(
        9, ok,
        "spin-filter delay",
        f"delay(g=2) = {zero} (exact 0); delay(g=2.002319) = {anomalous:.6g} > 0; "
        f"max first-order rel error for |g-2| <= 0.01 = {worst_rel:.3e} (tol 1e-6)",
    )


def test_criterion_10_cli(tmp_path, capsys):
    start = time.perf_counter()
    # the child imports the same source tree as the tests, also under a bare `pytest`
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "kleinb", "selftest"],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
    elapsed = time.perf_counter() - start
    selftest_ok = proc.returncode == 0 and proc.stdout.count("PASS") == 6 and elapsed < 30.0

    code = main(["sweep", "--axis", "V0", "--start", "0", "--stop", "8", "--count", "17",
                 "--E", "2", "--b", "0.2", "--n", "1", "--spin", "up"])
    sweep_out = capsys.readouterr().out
    round_trip_ok = code == 0
    header = sweep_out.strip().splitlines()[0].split(",")
    for line in sweep_out.strip().splitlines()[1:]:
        cells = dict(zip(header, line.split(",")))
        if cells["error"]:
            continue
        code = main(["amps", "--E", "2", "--V0", cells["axis_value"], "--b", "0.2",
                     "--n", "1", "--spin", "up"])
        rec = json.loads(capsys.readouterr().out)
        round_trip_ok &= code == 0
        round_trip_ok &= cells["re_R"] == fmt(rec["R"]["re"])
        round_trip_ok &= cells["im_Rp"] == fmt(rec["Rp"]["im"])
        round_trip_ok &= cells["re_T"] == fmt(rec["T"]["re"])
        round_trip_ok &= cells["sum"] == fmt(rec["sum"])
    ok = selftest_ok and round_trip_ok
    with capsys.disabled():
        report(
            10, ok,
            "command-line interface",
            f"selftest exit {proc.returncode} with 6 PASS lines in {elapsed:.1f}s (< 30s); "
            f"sweep/amps round trip bit-exact: {round_trip_ok}",
        )
