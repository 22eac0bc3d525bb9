import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kleinb.cli
import kleinb.scattering
import kleinb.states
import kleinb.wavefield
from kleinb import (
    EvanescentBranch,
    KleinStepError,
    SingularMatrix,
    Spin,
    amplitudes,
    classify,
    current_budget,
    assemble_field,
    load_grid,
    make_channel,
)
from kleinb.cli import MAX_CSV_ROWS, SWEEP_VALUE_COLUMNS, build_parser, fmt, main

import _reference as reference


EMPTY_VALUES = f"sweep has 0 values, not in [1, MAX_CSV_ROWS = {MAX_CSV_ROWS}]"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def amps_record(capsys, e, v0, b, n, spin):
    code, out, err = run_cli(
        capsys, "amps", "--E", repr(e), "--V0", repr(v0), "--b", repr(b),
        "--n", str(n), "--spin", spin,
    )
    assert code == 0, err
    return json.loads(out)


class TestAmps:
    def test_no_step(self, capsys):
        rec = amps_record(capsys, 2.0, 0.0, 0.1, 1, "up")
        assert rec["T"] == {"re": 1, "im": 0}
        assert rec["sum"] == 1
        assert rec["regime"] == "II"

    def test_evanescent_field_free(self, capsys):
        rec = amps_record(capsys, 2.0, 2.0, 0.0, 0, "down")
        assert rec["regime"] == "III"
        assert rec["refl_same"] == pytest.approx(1.0, abs=1e-14)
        assert rec["trans_same"] == 0 and rec["trans_flip"] == 0

    def test_matches_library(self, capsys):
        rec = amps_record(capsys, 2.0, 6.0, 0.2, 1, "up")
        p = make_channel(2.0, 6.0, 0.2, Spin.UP, 1)
        a = amplitudes(p)
        bud = current_budget(p)
        assert rec["R"] == {"re": a.R.real, "im": a.R.imag}
        assert rec["Tp"] == {"re": a.Tp.real, "im": a.Tp.imag}
        assert rec["refl_flip"] == bud.refl_flip
        assert rec["T2"] == abs(a.T) ** 2

    def test_validation_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "amps", "--E", "1.0", "--V0", "3",
                                 "--b", "0", "--n", "0", "--spin", "down")
        assert code == 2
        assert "ClosedChannel" in err

    def test_invalid_spin_index_exit(self, capsys):
        code, _, err = run_cli(capsys, "amps", "--E", "2", "--V0", "3",
                               "--b", "0.1", "--n", "0", "--spin", "up")
        assert code == 2 and "InvalidSpinIndex" in err

    def test_singular_step_named(self, capsys):
        code, _, err = run_cli(capsys, "amps", "--E", "2", "--V0", "3",
                               "--b", "0.1", "--n", "1", "--spin", "up")
        assert code == 2 and "SingularStep" in err

    def test_energy_bound_exit(self, capsys):
        # beyond MAX_ENERGY the closed forms would overflow and print NaN
        code, out, err = run_cli(capsys, "amps", "--E", "2", "--V0", "1e300",
                                 "--b", "0.1", "--n", "1", "--spin", "up")
        assert code == 2 and out == ""
        assert err.startswith("error: ValueError")

    @pytest.mark.parametrize("n", [str(2 ** 53), str(2 ** 53 + 1), "1" + "0" * 400])
    def test_level_bound_exit(self, capsys, n):
        # 10**400 used to end in an OverflowError traceback from C = 2 b n
        code, out, err = run_cli(capsys, "amps", "--E", "2", "--V0", "1",
                                 "--b", "0.1", "--n", n, "--spin", "down")
        assert code == 2 and out == ""
        assert err.startswith("error: InvalidSpinIndex")

    def test_level_bound_accepted(self, capsys):
        rec = amps_record(capsys, 1e9, 1.0, 0.1, 2 ** 53 - 1, "down")
        assert rec["n"] == 2 ** 53 - 1 and rec["regime"] == "II"

    def test_closed_forms_evaluated_once_per_record(self, capsys, monkeypatch):
        closed_forms, calls = kleinb.scattering._closed_forms, []
        monkeypatch.setattr(kleinb.scattering, "_closed_forms",
                            lambda k: calls.append(k) or closed_forms(k))
        for point in [(2.0, 6.0, 0.2, 1, "up"), (2.0, 2.0, 0.0, 0, "down"), (2.0, 2.0, 0.3, 1, "up")]:
            calls.clear()
            amps_record(capsys, *point)
            assert len(calls) == 1
        calls.clear()
        code, _, err = run_cli(capsys, "amps", "--E", "2", "--V0", "3",
                               "--b", "0.1", "--n", "1", "--spin", "up")
        assert code == 2 and "SingularStep" in err and not calls

    @pytest.mark.parametrize("exc, code", [
        (SingularMatrix("no solution"), 3),
        (EvanescentBranch("no solution"), 2),
        (ValueError("no solution"), 2),
    ])
    def test_error_exit_codes(self, capsys, monkeypatch, exc, code):
        def fail(params):
            raise exc
        monkeypatch.setattr(kleinb.cli, "_point_results", fail)
        assert run_cli(capsys, "amps", "--E", "2", "--V0", "6", "--b", "0.2", "--n", "1",
                       "--spin", "up") == (code, "", f"error: {type(exc).__name__}: no solution\n")


class TestSweep:
    def test_regime_transitions_along_v0(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--axis", "V0", "--start", "0", "--stop", "6",
            "--count", "25", "--E", "2", "--b", "0.2", "--n", "1", "--spin", "up",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == ("axis_value,regime,re_R,im_R,re_Rp,im_Rp,re_T,im_T,re_Tp,im_Tp,refl_same,"
                            "refl_flip,trans_same,trans_flip,sum,error")
        regimes = [line.split(",")[1] for line in lines[1:] if line.split(",")[-1] == ""]
        # II below E - M, then the evanescent window, then I above E + M
        seen = [r for i, r in enumerate(regimes) if i == 0 or regimes[i - 1] != r]
        assert seen == ["II", "III", "I"]

    def test_flip_fraction_starts_at_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--axis", "b", "--start", "0", "--stop", "0.5",
            "--count", "6", "--E", "2", "--V0", "6", "--n", "1", "--spin", "up",
        )
        assert code == 0
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        flip = header.index("refl_flip")
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert first[flip] == "0"
        later = lines[-1].split(",")
        assert float(later[flip]) > 0.0

    def test_error_rows_not_dropped(self, capsys):
        # E = 1 closes the channel for every V0: rows carry the error column
        code, out, _ = run_cli(
            capsys, "sweep", "--axis", "V0", "--start", "0", "--stop", "2",
            "--count", "3", "--E", "1.0", "--b", "0", "--n", "0", "--spin", "down",
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert len(rows) == 3
        assert all(r[-1] == "ClosedChannel" for r in rows)

    def test_round_trip_bit_exact(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--axis", "V0", "--start", "0", "--stop", "8",
            "--count", "17", "--E", "2", "--b", "0.2", "--n", "1", "--spin", "up",
        )
        assert code == 0
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        for line in lines[1:]:
            cells = dict(zip(header, line.split(",")))
            if cells["error"]:
                continue
            rec = amps_record(capsys, 2.0, float(cells["axis_value"]), 0.2, 1, "up")
            # identical 17-digit strings, i.e. identical doubles
            assert cells["re_R"] == fmt(rec["R"]["re"])
            assert cells["im_T"] == fmt(rec["T"]["im"])
            assert cells["sum"] == fmt(rec["sum"])

    def test_explicit_values_and_columns(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--axis", "E", "--values", "2.0,2.5,3.0",
            "--V0", "1", "--b", "0.1", "--n", "1", "--spin", "down",
            "--columns", "refl_same,sum",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "axis_value,regime,refl_same,sum,error"
        assert len(lines) == 4

    def test_unknown_column_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--axis", "E", "--values", "2.0",
            "--V0", "1", "--b", "0.1", "--n", "1", "--spin", "down",
            "--columns", "bogus",
        )
        assert code == 2 and "bogus" in err

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "# axis sweep\n"
            "axis = V0\n"
            "start = 0\n"
            "stop = 4\n"
            "count = 5\n"
            "E = 2.0\n"
            "b = 0.2\n"
            "n = 1\n"
            "spin = up\n"
        )
        code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 0
        assert len(out.strip().splitlines()) == 6
        # flag wins over the file
        code, out2, _ = run_cli(capsys, "sweep", "--config", str(cfg), "--count", "3")
        assert code == 0
        assert len(out2.strip().splitlines()) == 4

    def test_flag_range_wins_over_config_values(self, capsys, tmp_path):
        # --start/--stop on the command line replace the file's values
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("axis = E\nvalues = 2,3\nV0 = 0\nb = 0.1\nn = 1\nspin = up\n")
        code, out, err = run_cli(capsys, "sweep", "--config", str(cfg),
                                 "--start", "5", "--stop", "6", "--count", "3")
        assert code == 0, err
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["5", "5.5", "6"]
        code, flags_only, _ = run_cli(capsys, "sweep", "--axis", "E", "--V0", "0", "--b", "0.1", "--n", "1",
                                      "--spin", "up", "--start", "5", "--stop", "6", "--count", "3")
        assert flags_only == out
        # without a range on the command line the file's values still apply
        code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg), "--count", "3")
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["2", "3"]

    def test_one_rule_pass_per_chunk(self, capsys, monkeypatch):
        # broken_rules names every row's error in one call per chunk, and
        # channel_valid does not run
        calls, broken_rules, channel_valid = [], kleinb.cli.broken_rules, kleinb.states.channel_valid
        monkeypatch.setattr(kleinb.cli, "broken_rules", lambda *a: calls.append(a[0].size) or broken_rules(*a))
        for module in (kleinb.states, kleinb.cli):
            monkeypatch.setattr(module, "channel_valid", lambda *a: calls.append("channel_valid") or channel_valid(*a),
                                raising=False)
        count = kleinb.cli.CSV_CHUNK_LINES + 5
        code, out, err = run_cli(capsys, "sweep", "--axis", "V0", "--start=-1", "--stop", "8",
                                 "--count", str(count), "--E", "2", "--b", "0.1", "--n", "1", "--spin", "up")
        assert code == 0, err
        assert calls == [kleinb.cli.CSV_CHUNK_LINES, 5]
        errors = {line.split(",")[-1] for line in out.splitlines()[1:]}
        assert errors == {"", "ValueError"}

    @pytest.mark.parametrize("text, message", [
        ("axis = V0\nstart 0\n", "{path}:2: expected 'key = value', got 'start 0\\n'"),
        ("axis = V0\nspeed = 3\ncolour = red\n", "unknown config key(s): colour, speed"),
        ("axis = V0\nvalues =\nE = 2\nb = 0.1\nn = 1\nspin = up\n", EMPTY_VALUES),
        ("axis = X\nvalues = 1,2\nE = 2\nV0 = 1\nb = 0.1\nn = 1\nspin = up\n",
         "sweep needs --axis (E, V0, b, or n), got 'X'"),
    ])
    def test_bad_config_file_exit(self, capsys, tmp_path, text, message):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(text)
        code, out, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 2 and out == ""
        assert err == f"error: ValueError: {message.format(path=cfg)}\n"

    @pytest.mark.parametrize("flags, message", [
        (["--E", "2", "--b", "0.1", "--n", "1", "--spin", "up", "--start", "0"],
         "sweep needs --values or --start/--stop/--count"),
        (["--E", "2", "--n", "1", "--values", "1"], "missing fixed parameter(s): b, spin"),
        (["--E", "2", "--b", "0.1", "--n", "1", "--spin", "up", "--values", ","], EMPTY_VALUES),
        (["--E", "2", "--b", "0.1", "--n", "1", "--spin", "up", "--values", ""], EMPTY_VALUES),
    ])
    def test_incomplete_sweep_exit(self, capsys, flags, message):
        code, out, err = run_cli(capsys, "sweep", "--axis", "V0", *flags)
        assert code == 2 and out == ""
        assert err == f"error: ValueError: {message}\n"

    def test_count_one_is_the_start(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--axis", "V0", "--start", "6", "--stop", "9",
                               "--count", "1", "--E", "2", "--b", "0.2", "--n", "1", "--spin", "up")
        assert code == 0
        header, row = out.splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["axis_value"] == "6"
        assert float(cells["refl_flip"]) == amps_record(capsys, 2.0, 6.0, 0.2, 1, "up")["refl_flip"]

    def test_range_axis_is_start_plus_i_step(self):
        # the axis array holds the bits of the loop start + i * step: on fixed
        # ranges up to MAX_CSV_ROWS values, then on 200 seeded random ones
        rng = np.random.default_rng(2211)
        ranges = [(1.5, 1e6, MAX_CSV_ROWS), (0.0, 8.0, 17), (6.0, -3.0, 7), (-0.0, 1e-300, 3),
                  (0.1, 0.7, 1000), (1e-3, 1e50, 9), (2.0, 2.0, 5)]
        ranges += [(*(rng.choice([-1.0, 1.0], 2) * 10.0 ** rng.uniform(-8.0, 8.0, 2)).tolist(),
                    int(rng.integers(2, 3000))) for _ in range(200)]
        for start, stop, count in ranges:
            args = build_parser().parse_args([
                "sweep", "--axis", "E", f"--start={start!r}", f"--stop={stop!r}", "--count", str(count)])
            step = (stop - start) / (count - 1)
            want = np.array([start + i * step for i in range(count)])
            got = kleinb.cli._axis_values(args)
            assert got.dtype == np.float64 and np.array_equal(got.view(np.int64), want.view(np.int64))

    @staticmethod
    def n_axis_errors(capsys, values, spin):
        """Sweep n over values; return the axis texts of the error rows.

        Each value is one row that starts with it as %.17g.  An error row
        has no regime and no values, and names InvalidSpinIndex.  Every
        other row has the bytes of a sweep over the valid values alone.
        """
        fixed = ("--E", "2", "--V0", "1", "--b", "0.1", "--spin", spin)
        code, out, err = run_cli(capsys, "sweep", "--axis", "n", f"--values={values}", *fixed)
        assert (code, err) == (0, "")
        rows = out.splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["%.17g" % float(v) for v in values.split(",")]
        errors = [row for row in rows if row.endswith(",InvalidSpinIndex")]
        assert all(row.split(",", 1)[1] == "," * (len(SWEEP_VALUE_COLUMNS) + 1) + "InvalidSpinIndex"
                   for row in errors)
        valid = [row for row in rows if row not in errors]
        if valid:
            texts = ",".join(row.split(",")[0] for row in valid)
            code, want, _ = run_cli(capsys, "sweep", "--axis", "n", f"--values={texts}", *fixed)
            assert code == 0 and valid == want.splitlines()[1:]
        return [row.split(",")[0] for row in errors]

    @pytest.mark.parametrize("values, bad", [
        ("1,inf", "inf"), ("1,nan", "nan"), ("1,-inf", "-inf"), ("2,1.5,inf", "1.5"), ("1e300,0.5", "0.5"),
    ])
    def test_non_finite_n_axis_rejected(self, capsys, values, bad):
        # the integer rule rejects nan and inf, which v == floor(v) alone would pass;
        # each value it rejects is an error row, and the sweep goes on
        errors = self.n_axis_errors(capsys, values, "up")
        assert bad in errors
        assert errors == ["%.17g" % float(v) for v in values.split(",") if v not in ("1", "2")]

    def test_non_integral_n_axis_rejected(self, capsys):
        errors = self.n_axis_errors(capsys, "1,1.4,1.6", "down")
        assert errors == ["1.3999999999999999", "1.6000000000000001"]
        assert self.n_axis_errors(capsys, "1,2.0", "down") == []

    def test_output_file(self, capsys, tmp_path):
        dest = tmp_path / "sweep.csv"
        code, out, _ = run_cli(
            capsys, "sweep", "--axis", "E", "--values", "2.0", "--V0", "1",
            "--b", "0.1", "--n", "1", "--spin", "down", "--output", str(dest),
        )
        assert code == 0 and out == ""
        assert dest.read_text().startswith("axis_value,")

    def test_missing_axis_rejected(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--values", "1,2",
                               "--E", "2", "--V0", "1", "--b", "0", "--n", "0",
                               "--spin", "down")
        assert code == 2 and "axis" in err


def make_channel_error(e, v0, b, n, spin):
    """Error name of one sweep row, from make_channel and amplitudes."""
    try:
        amplitudes(make_channel(e, v0, b, spin, n))
    except (ValueError, KleinStepError) as exc:
        return type(exc).__name__
    return ""


PARITY_SWEEPS = [
    # (axis, values, fixed flags)
    ("V0", "-1,0,nan,inf,1e50,1.0000000000000002e+50,1e300,3,2.5,6",
     {"E": 2.0, "b": 0.1, "n": 1, "spin": "up"}),
    ("E", "-1,0,0.5,1,1.4955530238762225,nan,inf,-inf,1e300,2,3",
     {"V0": 1.0, "b": 0.04416710168661831, "n": 14, "spin": "down"}),
    ("b", "-0.1,nan,inf,-inf,0,0.5,3", {"E": 2.0, "V0": 6.0, "n": 1, "spin": "up"}),
    ("n", "0,1,2,40", {"E": 2.0, "V0": 1.0, "b": 0.1, "spin": "up"}),
    ("V0", "0,1,6", {"E": 2.0, "b": 0.1, "n": -1, "spin": "down"}),
]


class TestSweepRowParity:
    def test_error_column_matches_make_channel(self, capsys):
        kinds = set()
        for axis, values, fixed in PARITY_SWEEPS:
            flags = [x for k, v in fixed.items() for x in (f"--{k}", str(v))]
            code, out, _ = run_cli(capsys, "sweep", "--axis", axis, f"--values={values}", *flags)
            assert code == 0
            lines = out.strip().splitlines()
            header = lines[0].split(",")
            assert len(lines) == 1 + len(values.split(","))
            for line in lines[1:]:
                cells = dict(zip(header, line.split(",")))
                point = dict(fixed, **{axis: float(cells["axis_value"])})
                n = int(point["n"])
                want = make_channel_error(point["E"], point["V0"], point["b"], n, point["spin"])
                assert cells["error"] == want, (axis, cells["axis_value"])
                kinds.add(want)
                if want:
                    assert set(cells.values()) == {"", cells["axis_value"], want}
                    continue
                rec = amps_record(capsys, point["E"], point["V0"], point["b"], n, point["spin"])
                assert cells["regime"] == rec["regime"]
                for name in ("R", "Rp", "T", "Tp"):
                    assert cells[f"re_{name}"] == fmt(rec[name]["re"])
                    assert cells[f"im_{name}"] == fmt(rec[name]["im"])
                for name in ("refl_same", "refl_flip", "trans_same", "trans_flip", "sum"):
                    assert cells[name] == fmt(rec[name])
        assert kinds == {"", "NegativeField", "InvalidSpinIndex", "ValueError",
                         "ClosedChannel", "SingularStep"}

    def test_energy_bound_row(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--axis", "V0", "--values", "1e300,1",
                               "--E", "2", "--b", "0.1", "--n", "1", "--spin", "up")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert rows[0][-1] == "ValueError" and rows[1][-1] == ""

    def test_level_bound_rows(self, capsys):
        # the axis value 2**53 + 1 parses to the float 2**53, still above the bound
        code, out, _ = run_cli(capsys, "sweep", "--axis", "n",
                               "--values", f"1,{2 ** 53 - 1},{2 ** 53},{2 ** 53 + 1},{2 ** 54},1e20",
                               "--E", "1e9", "--V0", "1", "--b", "0.1", "--spin", "down")
        assert code == 0
        errors = [line.split(",")[-1] for line in out.strip().splitlines()[1:]]
        assert errors == ["", ""] + ["InvalidSpinIndex"] * 4

    @pytest.mark.parametrize("n", [str(2 ** 53 + 1), "1" + "0" * 400, "-" + "1" + "0" * 400])
    def test_level_bound_fixed_n(self, capsys, n):
        code, out, _ = run_cli(capsys, "sweep", "--axis", "E", "--values", "2,3",
                               "--V0", "1", "--b", "0.1", f"--n={n}", "--spin", "down")
        assert code == 0
        errors = [line.split(",")[-1] for line in out.strip().splitlines()[1:]]
        assert errors == ["InvalidSpinIndex", "InvalidSpinIndex"]

    def test_make_channel_never_runs(self, capsys, monkeypatch):
        # the invalid rows' errors come from the rule table, with no
        # make_channel call and no exception per row
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return make_channel(*args, **kwargs)

        for module in (kleinb.states, kleinb.scattering, kleinb.cli):
            monkeypatch.setattr(module, "make_channel", counted)
        flags = ["--E", "2", "--b", "0.1", "--n", "1", "--spin", "up"]
        code, _, _ = run_cli(capsys, "sweep", "--axis", "V0", "--values", "0,1,3,5,6", *flags)
        assert code == 0 and calls == []  # V0 = 3 is SingularStep, found without make_channel
        code, out, _ = run_cli(capsys, "sweep", "--axis", "V0", "--values=0,-1,1,nan,6", *flags)
        assert code == 0 and calls == []
        assert [line.split(",")[-1] for line in out.strip().splitlines()[1:]] == [
            "", "ValueError", "", "ValueError", ""]

    def test_config_spin_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("axis = V0\nvalues = 1,2\nE = 2\nb = 0.1\nn = 1\nspin = sideways\n")
        code, out, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 2 and out == ""
        assert err.startswith("error: ValueError")


def reference_sweep_csv(axis, values, fixed, columns=SWEEP_VALUE_COLUMNS):
    """The sweep CSV from the scalar functions, each value printed by its
    own fmt call: the reference for the one-template row writer."""
    lines = [",".join(["axis_value", "regime", *columns, "error"])]
    for text in values.split(","):
        point = dict(fixed, **{axis: float(text)})
        try:
            params = make_channel(point["E"], point["V0"], point["b"], point["spin"], int(point["n"]))
            amps = amplitudes(params)
        except (ValueError, KleinStepError) as exc:
            lines.append(",".join([fmt(float(text)), "", *[""] * len(columns), type(exc).__name__]))
            continue
        budget = current_budget(params)
        cells = {"sum": budget.sum}
        for name in ("R", "Rp", "T", "Tp"):
            z = getattr(amps, name)
            cells[f"re_{name}"], cells[f"im_{name}"] = z.real, z.imag
        for name in ("refl_same", "refl_flip", "trans_same", "trans_flip"):
            cells[name] = getattr(budget, name)
        lines.append(",".join([fmt(float(text)), amps.regime.value,
                               *(fmt(cells[name]) for name in columns), ""]))
    return "\n".join(lines) + "\n"


BYTE_SWEEPS = [
    # (axis, values, fixed flags, --columns or None)
    ("V0", "-1,0,nan,inf,-inf,1e300,3,2.5,6,-0",
     {"E": 2.0, "b": 0.1, "n": 1, "spin": "up"}, None),  # invalid and SingularStep rows
    ("E", "nan,inf,-inf,-0,0.5,1,1.4955530238762225,2,3,1e50",
     {"V0": 1.0, "b": 0.04416710168661831, "n": 14, "spin": "down"}, None),
    ("b", "-0,0,0.25,nan,-0.1", {"E": 2.0, "V0": 6.0, "n": 1, "spin": "up"}, None),
    ("n", "0,1,2,40,-1", {"E": 2.0, "V0": 1.0, "b": 0.1, "spin": "up"}, None),
    ("V0", "0,1,3,6,nan", {"E": 2.0, "b": 0.1, "n": 1, "spin": "up"}, "refl_flip,re_Tp,sum"),
    ("V0", "0,3,6", {"E": 2.0, "b": 0.1, "n": 1, "spin": "up"}, ","),  # no value column
]


class TestCsvBytes:
    """The CSV writers format each row with one template; their bytes are
    those of one fmt call per value."""

    def sweep(self, capsys, axis, values, fixed, columns=None):
        flags = [x for k, v in fixed.items() for x in (f"--{k}", str(v))]
        if columns is not None:
            flags.append(f"--columns={columns}")
        code, out, err = run_cli(capsys, "sweep", "--axis", axis, f"--values={values}", *flags)
        assert code == 0, err
        return out

    @pytest.mark.parametrize("axis, values, fixed, columns", BYTE_SWEEPS)
    def test_sweep(self, capsys, axis, values, fixed, columns):
        out = self.sweep(capsys, axis, values, fixed, columns)
        selected = SWEEP_VALUE_COLUMNS if columns is None else [c for c in columns.split(",") if c]
        assert out == reference_sweep_csv(axis, values, fixed, selected)

    @pytest.mark.parametrize("axis, values, fixed, columns", BYTE_SWEEPS)
    def test_sweep_evaluated_per_chunk(self, capsys, monkeypatch, axis, values, fixed, columns):
        # with 3-line chunks the closed forms run once per chunk on at most
        # 3 points, and the bytes across chunk boundaries are unchanged
        sizes, evaluate = [], kleinb.cli._evaluate

        def counted(k, shape):
            sizes.append(k.E.size)
            return evaluate(k, shape)

        monkeypatch.setattr(kleinb.cli, "CSV_CHUNK_LINES", 3)
        monkeypatch.setattr(kleinb.cli, "_evaluate", counted)
        out = self.sweep(capsys, axis, values, fixed, columns)
        assert len(sizes) == math.ceil(len(values.split(",")) / 3) and max(sizes) <= 3
        selected = SWEEP_VALUE_COLUMNS if columns is None else [c for c in columns.split(",") if c]
        assert out == reference_sweep_csv(axis, values, fixed, selected)

    def test_error_and_singular_rows_present(self, capsys):
        axis, values, fixed, _ = BYTE_SWEEPS[0]
        errors = {line.split(",")[-1] for line in self.sweep(capsys, axis, values, fixed).splitlines()}
        assert errors == {"error", "", "ValueError", "SingularStep"}

    def test_field_free_negative_zeros(self, capsys):
        # at b = 0 the spin-flip amplitudes of a spin-down electron are -0.0
        values = "0,0.5,1,2.5,3.5,6,-0"
        fixed = {"E": 2.0, "b": 0.0, "n": 0, "spin": "down"}
        signs = [math.copysign(1.0, amplitudes(make_channel(2.0, v0, 0.0, "down", 0)).Rp.real)
                 for v0 in (0.0, 0.5, 1.0, 3.5, 6.0)]
        assert signs == [-1.0] * 5
        out = self.sweep(capsys, "V0", values, fixed)
        assert out == reference_sweep_csv("V0", values, fixed)
        cells = [line.split(",") for line in out.splitlines()[1:]]
        assert {row[4] for row in cells} == {row[-3] for row in cells} == {"0"}  # re_Rp, trans_flip
        assert "-0" not in {c for row in cells for c in row}

    def test_regime_map(self, capsys):
        b, n = 0.5, 3
        ends = {"E-start": "-0", "E-stop": "6", "E-count": "13",
                "V0-start": "-0", "V0-stop": "9", "V0-count": "19"}
        code, out, _ = run_cli(capsys, "regime-map", *(f"--{k}={v}" for k, v in ends.items()),
                               f"--b={b}", f"--n={n}")
        assert code == 0
        c = 2.0 * b * n
        lines = ["E,V0,regime,open"]
        for e in np.linspace(-0.0, 6.0, 13).tolist():
            is_open = int(kleinb.states.channel_open(e, c) and e > 0)
            for v0 in np.linspace(-0.0, 9.0, 19).tolist():
                regime = kleinb.states.REGIMES[int(kleinb.states.regime_codes(e, v0, c))].value
                lines.append(f"{fmt(e)},{fmt(v0)},{regime},{is_open}")
        assert out == "\n".join(lines) + "\n"

    def field_slice(self, capsys, tmp_path):
        out_csv = tmp_path / "slice.csv"
        code, _, err = run_cli(
            capsys, "field", "--E", "2", "--V0", "2.5", "--b", "0.3", "--n", "2", "--spin", "up",
            "--ny", "33", "--nz", "41", "--out", str(tmp_path / "f.bin"), "--csv", str(out_csv),
        )
        assert code == 0, err
        field = assemble_field(make_channel(2.0, 2.5, 0.3, "up", 2), ny=33, nz=41)
        dens = field.density()
        row = int(np.argmin(np.abs(field.y - field.y0)))
        want = "z,density\n" + "".join(f"{fmt(z)},{fmt(d)}\n" for z, d in zip(field.z, dens[row]))
        assert out_csv.read_text() == want

    def test_field_slice(self, capsys, tmp_path):
        self.field_slice(capsys, tmp_path)

    def test_field_slice_written_per_chunk(self, capsys, monkeypatch, tmp_path):
        # with 3-line chunks the 41 rows are laid out in blocks of at most 3
        # rows, and the bytes across block boundaries are unchanged
        sizes, write_csv = [], kleinb.cli._write_csv

        def counted(out, header, blocks):
            write_csv(out, header, (sizes.append(len(block)) or block for block in blocks))

        monkeypatch.setattr(kleinb.cli, "CSV_CHUNK_LINES", 3)
        monkeypatch.setattr(kleinb.cli, "_write_csv", counted)
        self.field_slice(capsys, tmp_path)
        assert sizes == [3] * 13 + [2]


def float_texts(x):
    """The texts _float_texts lays out for the numbers x, one per number."""
    cells = kleinb.cli._float_texts(np.asarray(x, dtype=float).ravel())
    cells[:, 0] |= ord("\n")
    chars = cells.view(np.uint8)
    return str(chars[chars != 0].data, "ascii").split("\n")[1:]


def assert_texts_are_fmt(x):
    x = np.asarray(x, dtype=float).ravel()
    got = float_texts(x)
    assert len(got) == x.size
    bad = [(v, g, fmt(v)) for v, g in zip(x.tolist(), got) if g != fmt(v)]
    assert not bad, f"{len(bad)} of {x.size} differ, e.g. (value, got, fmt): {bad[:5]}"


def float_edges():
    """Numbers where a formatter goes wrong first."""
    rng = np.random.default_rng(1907)
    tens = np.array([float(f"1e{e}") for e in range(-323, 309)])
    near = [tens]  # powers of ten and 1 and 2 ulp either side
    up, down = tens, tens
    for _ in range(2):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
        near += [up, down]
    ints = rng.integers(-(2 ** 53), 2 ** 53, 20000).astype(float)
    powers = 2.0 ** np.arange(54)
    whole = np.concatenate((powers, powers - 1, powers + 1, 10.0 ** np.arange(23), 10.0 ** np.arange(23) - 1))
    # exact ties at 18 digits, rounded half to even: ...56.25 -> ...56.2, ...56.75 -> ...56.8
    base = rng.integers(10 ** 15, 10 ** 16 // 4, 2000).astype(float)
    ties = np.concatenate([base + f for f in (0.25, 0.5, 0.75)]
                          + [base / 8 + f for f in (0.125, 0.375, 0.625, 0.875)]
                          + [np.array([1234567890123456.25, 1234567890123456.75, 123456789012345.125])])
    tiny = np.array([5e-324, 1e-323, 2.2250738585072009e-308, 2.2250738585072014e-308, 1e-310])
    edges = np.array([1e-280, 1e280])
    edges = np.concatenate((edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)))
    special = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1.7976931348623157e308, 0.1, 0.5,
                        1e16, 1e17, 99999999999999999.0, 9.9999999999999995e-5, 1e-4, 1e-5,
                        123456789012345678.0])
    values = np.concatenate(near + [ints, whole, ties, tiny, edges, special])
    return np.concatenate((values, -values))


class TestFloatTexts:
    """_float_texts lays out, for every number, exactly the bytes of fmt."""

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(1901).integers(0, 2 ** 64, 10 ** 6, dtype=np.uint64, endpoint=False)
        assert_texts_are_fmt(bits.view(np.float64))

    def test_edges(self):
        assert_texts_are_fmt(float_edges())

    def test_uniform_and_short_decimals(self):
        rng = np.random.default_rng(1902)
        assert_texts_are_fmt(rng.uniform(-10.0, 10.0, 10 ** 5))
        scale = 10.0 ** rng.integers(0, 8, 10 ** 5)
        assert_texts_are_fmt(np.round(rng.uniform(-1e4, 1e4, 10 ** 5) * scale) / scale)
        assert_texts_are_fmt(10.0 ** rng.uniform(-300.0, 300.0, 10 ** 5))

    @given(st.lists(st.floats(), min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_property(self, values):
        assert float_texts(values) == [fmt(v) for v in values]

    def test_shapes_and_batches(self, monkeypatch):
        # two-dimensional input and passes of a few numbers give the same cells
        x = float_edges()[:2 * 3 * 667].reshape(-1, 3)
        whole = kleinb.cli._float_texts(x)
        monkeypatch.setattr(kleinb.cli, "FLOAT_BATCH", 7)
        assert np.array_equal(kleinb.cli._float_texts(x), whole)
        assert np.array_equal(kleinb.cli._float_texts(x.ravel()), whole.reshape(-1, 4))
        assert kleinb.cli._float_texts(np.empty(0)).shape == (0, 4)

    def test_fallback_is_rare(self, monkeypatch):
        # fewer than 0.1 % of uniform values go to fmt; ties and nan always do
        calls = []

        def counted(x):
            calls.append(x)
            return fmt(x)

        monkeypatch.setattr(kleinb.cli, "fmt", counted)
        kleinb.cli._float_texts(np.random.default_rng(1903).uniform(0.0, 1.0, 10 ** 5))
        assert len(calls) < 100
        calls.clear()
        kleinb.cli._float_texts(np.array([1234567890123456.25, np.nan, 1e300, 0.0, 2.5]))
        assert [fmt(x) for x in calls] == ["1234567890123456.2", "nan", "1.0000000000000001e+300"]


class TestCsvPieces:
    """The CSV writers' bytes do not depend on how the rows are split
    into formatting passes and written pieces."""

    @pytest.mark.parametrize("axis, values, fixed, columns", BYTE_SWEEPS)
    def test_sweep(self, capsys, monkeypatch, axis, values, fixed, columns):
        monkeypatch.setattr(kleinb.cli, "FLOAT_BATCH", 5)
        monkeypatch.setattr(kleinb.cli, "WRITE_BYTES", 1)
        out = TestCsvBytes().sweep(capsys, axis, values, fixed, columns)
        selected = SWEEP_VALUE_COLUMNS if columns is None else [c for c in columns.split(",") if c]
        assert out == reference_sweep_csv(axis, values, fixed, selected)

    def test_regime_map(self, capsys, monkeypatch):
        argv = ["regime-map", "--E-start=-0", "--E-stop=6", "--E-count=13",
                "--V0-start=-0", "--V0-stop=9", "--V0-count=19", "--b=0.5", "--n=3"]
        want = run_cli(capsys, *argv)
        monkeypatch.setattr(kleinb.cli, "CSV_CHUNK_LINES", 7)
        monkeypatch.setattr(kleinb.cli, "WRITE_BYTES", 100)
        assert run_cli(capsys, *argv) == want


class TestFileErrors:
    """A file that cannot be read or written ends the command with exit
    code 2 and the error's name and text, not a traceback."""

    def test_missing_config(self, capsys, tmp_path):
        path = tmp_path / "none.cfg"
        code, out, err = run_cli(capsys, "sweep", "--config", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: FileNotFoundError: [Errno 2] No such file or directory: '{path}'\n"

    @pytest.mark.parametrize("target, error", [
        ("missing/x.csv", "FileNotFoundError: [Errno 2] No such file or directory"),
        ("", "IsADirectoryError: [Errno 21] Is a directory"),
    ])
    def test_sweep_output(self, capsys, tmp_path, target, error):
        path = tmp_path / target
        code, out, err = run_cli(capsys, "sweep", "--axis", "E", "--values", "2", "--V0", "1", "--b", "0.1",
                                 "--n", "1", "--spin", "up", "--output", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {error}: '{path}'\n"

    @pytest.mark.parametrize("flag", ["--out", "--csv"])
    def test_field_files(self, capsys, tmp_path, flag):
        files = {"--out": str(tmp_path / "f.bin"), "--csv": str(tmp_path / "s.csv")}
        files[flag] = str(tmp_path / "missing" / "x")
        flags = [x for kv in files.items() for x in kv]
        code, out, err = run_cli(capsys, "field", "--E", "2", "--V0", "2.5", "--b", "0.3", "--n", "2",
                                 "--spin", "up", "--ny", "8", "--nz", "8", *flags)
        assert (code, out) == (2, "")
        assert err == f"error: FileNotFoundError: [Errno 2] No such file or directory: '{files[flag]}'\n"


class TestCsvRowBound:
    """MAX_CSV_ROWS is checked before any row is built."""

    def test_sweep_count(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--axis", "E", "--start", "2", "--stop", "3",
                                 "--count", str(MAX_CSV_ROWS + 1), "--V0", "1", "--b", "0.1",
                                 "--n", "1", "--spin", "down")
        assert code == 2 and out == ""
        assert err.startswith("error: ValueError: count must be in [1, MAX_CSV_ROWS")

    def test_sweep_values(self, capsys):
        values = ",".join(["2"] * (MAX_CSV_ROWS + 1))
        code, out, err = run_cli(capsys, "sweep", "--axis", "E", "--values", values, "--V0", "1",
                                 "--b", "0.1", "--n", "1", "--spin", "down")
        assert code == 2 and out == ""
        assert err.startswith("error: ValueError") and "MAX_CSV_ROWS" in err

    @pytest.mark.parametrize("counts", [
        (MAX_CSV_ROWS + 1, 1), (1, MAX_CSV_ROWS + 1), (633, 633),
        (MAX_CSV_ROWS + 1, 0), (-1, MAX_CSV_ROWS + 1),
    ])
    def test_regime_map_cells(self, capsys, counts):
        assert 633 * 633 > MAX_CSV_ROWS
        code, out, err = run_cli(capsys, "regime-map", "--E-start=1", "--E-stop=2",
                                 f"--E-count={counts[0]}", "--V0-start=0", "--V0-stop=1",
                                 f"--V0-count={counts[1]}")
        assert code == 2 and out == ""
        assert err.startswith("error: ValueError: --E-count and --V0-count")


class TestParser:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_shared_parser_keeps_no_state(self, capsys, tmp_path):
        # a config sweep sets count and columns on its namespace; the
        # flag-only sweep after it must still get the defaults
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("axis = V0\nstart = 0\nstop = 4\ncount = 5\nE = 2.0\n"
                       "b = 0.2\nn = 1\nspin = up\ncolumns = sum\n")
        calls = [
            ["selftest", "--points", "50", "--seed", "3"],
            ["sweep", "--config", str(cfg)],
            ["sweep", "--axis", "E", "--start", "2", "--stop", "3",
             "--V0", "1", "--b", "0.1", "--n", "1", "--spin", "down"],
            ["amps", "--E", "2", "--V0", "6", "--b", "0.2", "--n", "1", "--spin", "up"],
        ]
        shared = [run_cli(capsys, *argv) for argv in calls]
        fresh = []
        for argv in calls:
            args = build_parser.__wrapped__().parse_args(argv)
            code = args.func(args)
            fresh.append((code, *capsys.readouterr()))
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0, 0, 0, 0]
        assert len(shared[2][1].strip().splitlines()) == 52
        assert shared[2][1].startswith("axis_value,regime,re_R,")


class TestRegimeMap:
    def test_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "regime-map", "--E-start", "1.1", "--E-stop", "3", "--E-count", "4",
            "--V0-start", "0", "--V0-stop", "5", "--V0-count", "4", "--b", "0.1", "--n", "1",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "E,V0,regime,open"
        assert len(lines) == 17
        regimes = {line.split(",")[2] for line in lines[1:]}
        assert regimes == {"I", "II", "III"}

    def test_matches_classify_on_threshold_equalities(self, capsys):
        # b n = 1.5 gives M = 2 exactly; the half-integer grids then hold
        # exact points with E = V0 + M and E = V0 - M (both CASE_III)
        b, n, m = 0.5, 3, 2.0
        code, out, _ = run_cli(
            capsys, "regime-map", "--E-start", "1", "--E-stop", "6", "--E-count", "11",
            "--V0-start", "0", "--V0-stop", "9", "--V0-count", "19",
            "--b", repr(b), "--n", str(n),
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1 + 11 * 19
        equalities = 0
        for line in lines[1:]:
            e_text, v0_text, regime, is_open = line.split(",")
            e, v0 = float(e_text), float(v0_text)
            assert is_open == str(int(e * e > 1.0 + 2.0 * b * n))
            if is_open == "1":
                assert regime == classify(make_channel(e, v0, b, "down", n)).value
            equalities += abs(e - v0) == m
        assert equalities >= 10

    def test_open_column_follows_channel_rule(self, capsys):
        # E*E > 1 + C here, but (E - 1)(E + 1) <= C: make_channel calls it closed
        e, b, n = 1.4955530238762225, 0.04416710168661831, 14
        with pytest.raises(kleinb.ClosedChannel):
            make_channel(e, 0.0, b, "down", n)
        code, out, _ = run_cli(
            capsys, "regime-map", "--E-start", repr(e), "--E-stop", repr(e), "--E-count", "1",
            "--V0-start", "0", "--V0-stop", "0", "--V0-count", "1", "--b", repr(b), "--n", str(n),
        )
        assert code == 0
        assert out.strip().splitlines()[1].split(",")[3] == "0"

    def test_invalid_field_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "regime-map", "--E-start", "1", "--E-stop", "2",
            "--V0-start", "0", "--V0-stop", "1", "--b", "-0.1", "--n", "1",
        )
        assert code == 2 and "NegativeField" in err

    MAP = {"E-start": "1", "E-stop": "2", "V0-start": "0", "V0-stop": "1"}

    @pytest.mark.parametrize("flag", sorted(MAP))
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e200", "-1.0000000000000002e50"])
    def test_bad_ends_rejected(self, capsys, flag, bad):
        # nan used to print rows with V0 = nan, 1e200 a numpy overflow RuntimeWarning
        ends = dict(self.MAP, **{flag: bad})
        code, out, err = run_cli(capsys, "regime-map", *(f"--{k}={v}" for k, v in ends.items()))
        assert code == 2 and out == ""
        assert err.startswith(f"error: ValueError: --{flag} must be finite with magnitude")

    def test_ends_at_energy_bound_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "regime-map", "--E-start=-1e50", "--E-stop=1e50",
                               "--E-count=3", "--V0-start=0", "--V0-stop=1e50", "--V0-count=2",
                               "--b=1", "--n=3")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [r[2] for r in rows] == ["I", "I", "III", "I", "II", "III"]
        assert [r[3] for r in rows] == ["0", "0", "0", "0", "1", "1"]


class TestFieldCommand:
    def test_density_map_builds_no_grid(self, capsys, tmp_path, monkeypatch):
        def no_grid(self):
            raise AssertionError("the (4, ny, nz) grid was built")

        monkeypatch.setattr(kleinb.wavefield.SpinorField, "values", property(no_grid))
        code, _, err = run_cli(
            capsys, "field", "--E", "2", "--V0", "6", "--b", "0.2", "--n", "1", "--spin", "up",
            "--what", "density", "--ny", "64", "--nz", "48",
            "--out", str(tmp_path / "d.bin"), "--csv", str(tmp_path / "d.csv"),
        )
        assert code == 0, err

    @pytest.mark.parametrize("what", ["density", "components"])
    def test_density_map_built_once(self, capsys, tmp_path, monkeypatch, what):
        # the CSV slice of a density run is a row of the map save_grid wrote
        calls, density = [], kleinb.wavefield.SpinorField.density

        def counted(self):
            calls.append(what)
            return density(self)

        monkeypatch.setattr(kleinb.wavefield.SpinorField, "density", counted)
        code, _, err = run_cli(
            capsys, "field", "--E", "2", "--V0", "6", "--b", "0.2", "--n", "1", "--spin", "up",
            "--what", what, "--ny", "64", "--nz", "48",
            "--out", str(tmp_path / "d.bin"), "--csv", str(tmp_path / "d.csv"),
        )
        assert code == 0, err
        assert calls == [what]

    def test_writes_grid_and_decaying_slice(self, capsys, tmp_path):
        out_bin = tmp_path / "f.bin"
        out_csv = tmp_path / "f.csv"
        code, out, _ = run_cli(
            capsys, "field", "--E", "2", "--V0", "2.5", "--b", "0.3", "--n", "2",
            "--spin", "up", "--ny", "96", "--nz", "120",
            "--out", str(out_bin), "--csv", str(out_csv),
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["regime"] == "III"
        info, dens = load_grid(out_bin)
        assert dens.shape == (96, 120)
        rows = [line.split(",") for line in out_csv.read_text().strip().splitlines()[1:]]
        z = np.array([float(r[0]) for r in rows])
        d = np.array([float(r[1]) for r in rows])
        tail = d[z > 0]
        assert np.all(np.diff(tail) < 0)

    def test_components_payload(self, capsys, tmp_path):
        out_bin = tmp_path / "c.bin"
        code, out, _ = run_cli(
            capsys, "field", "--E", "2", "--V0", "1", "--b", "0.2", "--n", "1",
            "--spin", "down", "--ny", "32", "--nz", "16", "--what", "components",
            "--out", str(out_bin), "--csv", "",
        )
        assert code == 0
        info, data = load_grid(out_bin)
        assert data.shape == (4, 32, 16)

    @pytest.mark.parametrize("char", ["\t", "\n", "\x01"])
    def test_control_characters_in_paths(self, capsys, tmp_path, char):
        # printed raw they made the record invalid JSON
        out_bin, out_csv = tmp_path / f"a{char}b.bin", tmp_path / f"a{char}b.csv"
        code, out, err = run_cli(
            capsys, "field", "--E", "2", "--V0", "6", "--b", "0.2", "--n", "1", "--spin", "up",
            "--ny", "3", "--nz", "4", "--out", str(out_bin), "--csv", str(out_csv),
        )
        assert code == 0, err
        assert json.loads(out)["files"] == {"grid": str(out_bin), "csv": str(out_csv)}
        assert out_bin.exists() and out_csv.exists()

    def test_path_not_utf8(self, capsys, tmp_path):
        # a byte that is not UTF-8 reaches argv as a lone surrogate, and
        # is printed as its ASCII escape
        out_bin = str(tmp_path / "\udcff.bin")
        code, out, err = run_cli(
            capsys, "field", "--E", "2", "--V0", "6", "--b", "0.2", "--n", "1", "--spin", "up",
            "--ny", "3", "--nz", "4", "--out", out_bin, "--csv", "",
        )
        assert code == 0, err
        assert out.isascii() and "\\udcff.bin" in out
        assert json.loads(out)["files"] == {"grid": out_bin}

    @pytest.mark.parametrize("flags", [("--ny", "0"), ("--nz", "0"), ("--kx", "1e300")])
    def test_unusable_grid_exit(self, capsys, tmp_path, flags):
        out_bin = tmp_path / "g.bin"
        code, _, err = run_cli(
            capsys, "field", "--E", "2", "--V0", "1", "--b", "0.2", "--n", "1",
            "--spin", "down", "--csv", "", "--out", str(out_bin), *flags,
        )
        assert code == 2
        assert err.startswith("error: ValueError")
        assert not out_bin.exists()

    @pytest.mark.parametrize("kx", ["nan", "inf", "-inf"])
    def test_non_finite_kx_exit_without_field(self, capsys, tmp_path, kx):
        # at b = 0 the guiding center is 0 whatever k_x, but k_x is still checked
        out_bin = tmp_path / "g.bin"
        code, out, err = run_cli(
            capsys, "field", "--E", "2", "--V0", "6", "--b", "0", "--n", "0",
            "--spin", "down", "--csv", "", "--out", str(out_bin), f"--kx={kx}",
        )
        assert (code, out) == (2, "")
        assert err == f"error: ValueError: guiding center k_x L^2 must be finite, got k_x = {float(kx)}\n"
        assert not out_bin.exists()


    @pytest.mark.parametrize("b", ["0.2", "0"])
    @pytest.mark.parametrize("flag", ["--z-halfwidth=1e308", "--z-halfwidth=8e307", "--y-halfwidth=1e308"])
    def test_overflowing_span_exit_without_files(self, capsys, tmp_path, b, flag):
        # nan and inf cells were written with exit 0; RuntimeWarnings are errors here
        out_bin, out_csv = tmp_path / "g.bin", tmp_path / "g.csv"
        code, out, err = run_cli(
            capsys, "field", "--E", "2", "--V0", "6", "--b", b, "--n", "1", "--spin", "up",
            "--ny", "3", "--nz", "4", flag, "--out", str(out_bin), "--csv", str(out_csv),
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ValueError: ") and err.count("\n") == 1
        assert not out_bin.exists() and not out_csv.exists()


class TestNegativeValues:
    """An option's value may be a negative number in any form float() reads."""

    def test_negative_step_height(self, capsys):
        code, out, err = run_cli(capsys, "amps", "--E", "2", "--V0", "-1e3", "--b", "0.1",
                                 "--n", "1", "--spin", "up")
        assert (code, out, err) == (2, "", "error: ValueError: step height must be >= 0, got -1000.0\n")

    def test_negative_kx(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "field", "--E", "2", "--V0", "6", "--b", "0.2", "--n", "1",
                               "--spin", "up", "--ny", "3", "--nz", "4", "--kx", "-1e-3",
                               "--out", str(tmp_path / "g.bin"), "--csv", "")
        assert code == 0
        field = assemble_field(make_channel(2.0, 6.0, 0.2, Spin.UP, 1), ny=3, nz=4, k_x=-1e-3)
        assert json.loads(out)["y0"] == field.y0 < 0.0

    def test_negative_infinite_kx(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "field", "--E", "2", "--V0", "6", "--b", "0.2", "--n", "1",
                                 "--spin", "up", "--kx", "-inf", "--out", str(tmp_path / "g.bin"),
                                 "--csv", "")
        assert (code, out) == (2, "")
        assert err == "error: ValueError: guiding center k_x L^2 must be finite, got k_x = -inf\n"
        assert not (tmp_path / "g.bin").exists()

    def test_negative_sweep_values(self, capsys):
        fixed = ("--E", "2", "--b", "0.1", "--n", "1", "--spin", "up", "--columns", "sum")
        code, out, _ = run_cli(capsys, "sweep", "--axis", "V0", "--values", "-1,2", *fixed)
        assert code == 0
        assert out.splitlines()[1] == "-1,,,ValueError"
        assert run_cli(capsys, "sweep", "--axis", "V0", "--values=-1,2", *fixed) == (0, out, "")

    @pytest.mark.parametrize("word", ["-1e3", "-.5", "-0", "-7", "-inf", "-Infinity", "-NaN", "-1,2"])
    def test_attached_as_option_value(self, word):
        argv = ["sweep", "--axis", "V0", "--values", word, "--V0", word]
        assert kleinb.cli._attach_negative_values(argv) == [
            "sweep", "--axis", "V0", f"--values={word}", f"--V0={word}"]

    def test_other_words_kept(self):
        argv = ["amps", "--E=-1", "-2", "-h", "--V0", "-x", "--", "-3", "--b", "--n", "-"]
        assert kleinb.cli._attach_negative_values(argv) == argv


class TestKleinLimitCommand:
    def test_field_free_anchor(self, capsys):
        code, out, _ = run_cli(capsys, "klein-limit", "--b", "0",
                               "--E", "1.41421356237309515", "--n", "0")
        assert code == 0
        rec = json.loads(out)
        assert rec["T2_inf"] == pytest.approx(2.0 / (2.0 + math.sqrt(2.0)), rel=1e-9)
        assert rec["Tp2_inf"] == 0


class TestFilterDelayCommand:
    def test_zero_at_g2(self, capsys):
        code, out, _ = run_cli(capsys, "filter-delay", "--E", "2", "--n", "1",
                               "--b", "0.1", "--g", "2")
        assert code == 0
        assert json.loads(out)["delay"] == 0

    def test_si_conversion(self, capsys):
        code, out, _ = run_cli(capsys, "filter-delay", "--E", "2", "--n", "1",
                               "--b", "0.1", "--distance", "1e6", "--si")
        assert code == 0
        rec = json.loads(out)
        # Compton time is 1.288e-21 s
        assert rec["delay_si_seconds"] == pytest.approx(rec["delay"] * 1.2880886e-21, rel=1e-6)

    def test_si_conversion_without_scipy(self):
        # the Compton time is a pinned constant, so --si needs only numpy
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        script = ("import sys; sys.modules['scipy'] = None\n"
                  "from kleinb.cli import main\n"
                  "sys.exit(main(sys.argv[1:]))")
        proc = subprocess.run(
            [sys.executable, "-c", script, "filter-delay", "--E", "2", "--n", "1", "--b", "0.1",
             "--distance", "1e6", "--si"],
            capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        rec = json.loads(proc.stdout)
        assert rec["delay_si_seconds"] == rec["delay"] * 1.2880886664441626e-21

    def test_evanescent_exit(self, capsys):
        code, _, err = run_cli(capsys, "filter-delay", "--E", "2", "--n", "1", "--b", "0.1",
                               "--branch", "transmitted", "--V0", "2")
        assert code == 2 and "EvanescentBranch" in err

    @pytest.mark.parametrize("flags", [
        ["--E", "1e200"],  # used to print "delay": 0, "cp_up": inf
        ["--E", "2", "--branch", "transmitted", "--V0", "1e60"],
    ])
    def test_energy_bound_exit(self, capsys, flags):
        code, out, err = run_cli(capsys, "filter-delay", "--n", "1", "--b", "0.1", *flags)
        assert code == 2 and out == ""
        assert err.startswith("error: ValueError")

    @pytest.mark.parametrize("si", [[], ["--si"]])
    @pytest.mark.parametrize("flags", [
        ["--E", "2", "--b", "0.1", "--distance", "1e308"],
        ["--E", "1e50", "--b", "0.1", "--distance", "1e300"],
        ["--E", "1.000000000001", "--b", "1e-13", "--distance", "1e308"],
    ])
    def test_overflowing_delay_exit(self, capsys, flags, si):
        # exit 2 exactly when the true delay is beyond the double range
        code, out, err = run_cli(capsys, "filter-delay", "--n", "1", *flags, *si)
        args = {k: float(v) for k, v in zip(flags[::2], flags[1::2])}
        want = reference.delay(args["--E"], 1, args["--b"], distance=args["--distance"])
        if want > sys.float_info.max:
            assert code == 2 and out == ""
            assert err.startswith("error: ValueError: arrival delay over flight distance 1e+308")
        else:
            assert code == 0, err
            assert abs(json.loads(out)["delay"] / want - 1) < 1e-15

    @pytest.mark.parametrize("branch", ["reflected", "transmitted"])
    def test_negative_step_exit(self, capsys, branch):
        code, out, err = run_cli(capsys, "filter-delay", "--E", "2", "--n", "1", "--b", "0.1",
                                 "--branch", branch, "--V0=-3")
        assert code == 2 and out == ""
        assert err == "error: ValueError: step height must be >= 0, got -3.0\n"

    def test_negative_distance_exit(self, capsys):
        code, out, err = run_cli(capsys, "filter-delay", "--E", "2", "--n", "1", "--b", "0.1",
                                 "--distance=-1")
        assert code == 2 and out == ""
        assert err == "error: ValueError: flight distance must be >= 0, got -1.0\n"

    def test_level_bound_exit(self, capsys):
        code, out, err = run_cli(capsys, "filter-delay", "--E", "2", "--b", "0.1",
                                 "--n", "1" + "0" * 400)
        assert code == 2 and out == ""
        assert err.startswith("error: InvalidSpinIndex")


class TestSelftestCommand:
    def test_small_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--points", "300", "--seed", "7")
        assert code == 0
        lines = out.strip().splitlines()
        assert sum(1 for line in lines if line.startswith("PASS")) == 6
        assert "seed 7" in lines[-1]

    def test_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("KLEINB_SEED", "99")
        code, out, _ = run_cli(capsys, "selftest", "--points", "200")
        assert code == 0 and "seed 99" in out
