import json
import math

import numpy as np
import pytest

import kleinb.cli
import kleinb.scattering
import kleinb.states
from kleinb import (
    KleinStepError,
    Spin,
    amplitudes,
    classify,
    current_budget,
    load_grid,
    make_channel,
)
from kleinb.cli import build_parser, fmt, main


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
        bud = current_budget(p, a)
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

    def test_non_integral_n_axis_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--axis", "n", "--values", "1,1.4,1.6",
            "--E", "2", "--V0", "1", "--b", "0.1", "--spin", "down",
        )
        assert code == 2 and out == ""
        assert "1.4" in err
        code, out, _ = run_cli(
            capsys, "sweep", "--axis", "n", "--values", "1,2.0",
            "--E", "2", "--V0", "1", "--b", "0.1", "--spin", "down",
        )
        assert code == 0 and len(out.strip().splitlines()) == 3

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

    def test_make_channel_runs_only_on_invalid_rows(self, capsys, monkeypatch):
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
        assert code == 0 and len(calls) == 2
        assert [line.split(",")[-1] for line in out.strip().splitlines()[1:]] == [
            "", "ValueError", "", "ValueError", ""]

    def test_config_spin_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("axis = V0\nvalues = 1,2\nE = 2\nb = 0.1\nn = 1\nspin = sideways\n")
        code, out, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 2 and out == ""
        assert err.startswith("error: ValueError")


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


class TestFieldCommand:
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

    def test_evanescent_exit(self, capsys):
        code, _, err = run_cli(capsys, "filter-delay", "--E", "2", "--n", "1", "--b", "0.1",
                               "--branch", "transmitted", "--V0", "2")
        assert code == 2 and "EvanescentBranch" in err


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
