"""Command-line interface.

Subcommands: amps (single-point JSON record), sweep (CSV along one
parameter axis), regime-map (CSV over an E x V0 grid), field (binary
grid plus CSV density slice), klein-limit, filter-delay, and selftest
(the seeded invariant suite).  All floating-point output is printed
with 17 significant digits, so every value round-trips exactly through
text.  Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import sys

import numpy as np

from . import selftest as selftest_mod
from .errors import KleinStepError, SingularMatrix, SingularStep
from .scattering import _point_results, amplitudes_batch, klein_limit
from .spinfilter import G_ELECTRON, Branch, FilterSetup, arrival_delay, split_momenta
from .states import (
    MAX_ENERGY,
    REGIMES,
    ChannelParams,
    FieldStrength,
    IncomingState,
    Spin,
    channel_error,
    channel_open,
    channel_valid,
    level_floats,
    make_channel,
    parse_spin,
    regime_codes,
)
from .wavefield import assemble_field, save_grid

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

#: hbar / (m_e c^2) in seconds (CODATA 2022): the unit of time of the
#: natural units, by which filter-delay --si converts the delay.
COMPTON_TIME_S = 1.2880886664441626e-21

#: Most rows a sweep or a regime-map writes; checked before any row is
#: built.  The rows are evaluated, formatted and written CSV_CHUNK_LINES
#: at a time, so a full-column sweep of MAX_CSV_ROWS rows peaked at
#: 59 MiB RSS (30 MiB for one row; the rest is mostly the axis values)
#: and a regime-map of as many cells at 35 MiB.
MAX_CSV_ROWS = 400_000

#: Rows evaluated, formatted and written at a time by the sweep, and
#: lines written at a time by the sweep and regime-map writers.
CSV_CHUNK_LINES = 4096

#: Regime labels, indexed by regime code.
REGIME_LABELS = tuple(r.value for r in REGIMES)

SWEEP_VALUE_COLUMNS = (
    "re_R", "im_R", "re_Rp", "im_Rp", "re_T", "im_T", "re_Tp", "im_Tp",
    "refl_same", "refl_flip", "trans_same", "trans_flip", "sum",
)


def fmt(x: float) -> str:
    """Float to text with 17 significant digits (exact round trip).

    Negative zero is normalized to "0" so that values survive a pass
    through JSON (where -0 parses as the integer 0) unchanged.
    """
    return "%.17g" % (float(x) + 0.0)


def _text_floats(x) -> list:
    """x as (nested lists of) Python floats ready for "%.17g": the bytes
    fmt prints, -0.0 included (x + 0.0 turns it into +0.0)."""
    return (np.asarray(x, dtype=float) + 0.0).tolist()


def _json_value(v) -> str:
    if isinstance(v, str):
        return '"%s"' % v.replace("\\", "\\\\").replace('"', '\\"')
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return fmt(v)
    if isinstance(v, complex):
        return '{"re": %s, "im": %s}' % (fmt(v.real), fmt(v.imag))
    if isinstance(v, dict):
        return "{%s}" % ", ".join('"%s": %s' % (k, _json_value(u)) for k, u in v.items())
    raise TypeError(f"cannot serialize {type(v)}")


def emit_json(record: dict) -> None:
    print(_json_value(record))


def _add_channel_args(parser: argparse.ArgumentParser, required: bool = True) -> None:
    parser.add_argument("--E", type=float, required=required, help="total energy (mc^2 units)")
    parser.add_argument("--V0", type=float, required=required, help="step height (mc^2 units)")
    parser.add_argument("--b", type=float, required=required, help="field ratio hbar*omega/mc^2")
    parser.add_argument("--n", type=int, required=required, help="shared channel index")
    parser.add_argument("--spin", type=parse_spin, required=required, help="incoming spin: up or down")


def _point_record(params: ChannelParams) -> dict:
    amps, budget = _point_results(params)
    return {
        "E": params.E,
        "V0": params.V0,
        "b": params.field.b,
        "n": params.n,
        "spin": params.spin.value,
        "regime": amps.regime.value,
        "R": amps.R,
        "Rp": amps.Rp,
        "T": amps.T,
        "Tp": amps.Tp,
        "refl_same": budget.refl_same,
        "refl_flip": budget.refl_flip,
        "trans_same": budget.trans_same,
        "trans_flip": budget.trans_flip,
        "sum": budget.sum,
        "T2": abs(amps.T) ** 2,
        "Tp2": abs(amps.Tp) ** 2,
    }


def cmd_amps(args) -> int:
    params = make_channel(args.E, args.V0, args.b, args.spin, args.n)
    emit_json(_point_record(params))
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep

def _read_config(path: str) -> dict:
    """Flat key = value text; '#' starts a comment, quotes are optional."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip().strip("\"'")
    return out


def _axis_values(args) -> list[float]:
    if args.values is not None:
        values = [float(v) for v in args.values.split(",") if v.strip()]
        if not 1 <= len(values) <= MAX_CSV_ROWS:
            raise ValueError(f"sweep has {len(values)} values, not in [1, MAX_CSV_ROWS = {MAX_CSV_ROWS}]")
    elif args.start is None or args.stop is None:
        raise ValueError("sweep needs --values or --start/--stop/--count")
    elif not 1 <= args.count <= MAX_CSV_ROWS:
        raise ValueError(f"count must be in [1, MAX_CSV_ROWS = {MAX_CSV_ROWS}], got {args.count}")
    elif args.count == 1:
        values = [args.start]
    else:
        step = (args.stop - args.start) / (args.count - 1)
        values = [args.start + i * step for i in range(args.count)]
    if args.axis == "n":
        for v in values:
            if not v.is_integer():
                raise ValueError(f"n axis values must be integers, got {v!r}")
    return values


def _write_csv(out, header: str, lines) -> None:
    """Write the header and the lines, each ended by a newline, a chunk
    of lines per write, so the whole text is never held as one string."""
    out.write(header + "\n")
    lines = iter(lines)
    while chunk := list(itertools.islice(lines, CSV_CHUNK_LINES)):
        out.write("\n".join(chunk) + "\n")


def _value_column(batch, name: str) -> np.ndarray:
    """One value column of a batch: a fraction, or the real or imaginary
    part of an amplitude (re_R, im_Tp, ...)."""
    if name[:3] in ("re_", "im_"):
        z = getattr(batch, name[3:])
        return z.real if name[:3] == "re_" else z.imag
    return getattr(batch, name)


def _sweep_lines(axis: str, values: list[float], fixed: dict, header: list[str]):
    """CSV lines of the header's columns, one per axis value, evaluated
    and formatted CSV_CHUNK_LINES rows at a time as they are read.

    Per chunk, make_channel's rules run over all rows at once
    (channel_valid); make_channel runs only on the invalid rows, to name
    their error, and the valid rows are evaluated in one amplitudes_batch
    call.  Each row is formatted by one %-template over its stacked
    values.
    """
    E, V0, b, n = np.broadcast_arrays(
        *(np.asarray(values if key == axis else fixed[key], dtype=float) for key in ("E", "V0", "b")),
        level_floats(values if axis == "n" else fixed["n"]),
    )
    up = fixed["spin"] is Spin.UP
    inner = header[2:-1]
    blank = "%.17g" + "," * (len(inner) + 2) + "%s"
    row = "%.17g,%s" + ",%.17g" * len(inner) + ","
    for lo in range(0, len(values), CSV_CHUNK_LINES):
        e, v0, bb, nn = (x[lo:lo + CSV_CHUNK_LINES] for x in (E, V0, b, n))
        valid = channel_valid(e, v0, bb, nn, up)
        batch = amplitudes_batch(e[valid], v0[valid], bb[valid], nn[valid], fixed["spin"])
        errors = [""] * len(e)
        for i in np.flatnonzero(~valid).tolist():
            errors[i] = type(channel_error(e[i], v0[i], bb[i], nn[i], up)).__name__
        for i in np.flatnonzero(valid)[batch.singular].tolist():
            errors[i] = SingularStep.__name__
        ok = ~batch.singular
        table = np.empty((int(ok.sum()), len(inner)))
        for j, name in enumerate(inner):
            table[:, j] = _value_column(batch, name)[ok]
        # the rows without an error are the shown ones, in table order
        labels = iter([REGIME_LABELS[r] for r in batch.regime[ok].tolist()])
        cells = iter(_text_floats(table))
        for x, err in zip(_text_floats(values[lo:lo + CSV_CHUNK_LINES]), errors):
            yield blank % (x, err) if err else row % (x, next(labels), *next(cells))


_SWEEP_KEYS = {
    "axis": str, "start": float, "stop": float, "count": int, "values": str,
    "E": float, "V0": float, "b": float, "n": int, "spin": parse_spin,
    "columns": str, "output": str,
}


def cmd_sweep(args) -> int:
    if args.config:
        cfg = _read_config(args.config)
        unknown = sorted(set(cfg) - set(_SWEEP_KEYS))
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
        # flags given on the command line win; config fills the rest
        for key, raw in cfg.items():
            if getattr(args, key) is None:
                setattr(args, key, _SWEEP_KEYS[key](raw))
    if args.count is None:
        args.count = 51
    axis = args.axis
    if axis not in ("E", "V0", "b", "n"):  # the --axis choices; a config file may give any
        raise ValueError(f"sweep needs --axis (E, V0, b, or n), got {axis!r}")
    fixed = {"E": args.E, "V0": args.V0, "b": args.b, "n": args.n, "spin": args.spin}
    missing = [k for k, v in fixed.items() if v is None and k != axis]
    if missing:
        raise ValueError(f"missing fixed parameter(s): {', '.join(missing)}")
    values = _axis_values(args)

    if args.columns:
        selected = [c.strip() for c in args.columns.split(",") if c.strip()]
        unknown = [c for c in selected if c not in SWEEP_VALUE_COLUMNS]
        if unknown:
            raise ValueError(f"unknown column(s): {', '.join(unknown)}")
    else:
        selected = list(SWEEP_VALUE_COLUMNS)
    header = ["axis_value", "regime", *selected, "error"]

    lines = _sweep_lines(axis, values, fixed, header)
    out = open(args.output, "w", encoding="utf-8") if args.output else sys.stdout
    try:
        _write_csv(out, ",".join(header), lines)
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK


def cmd_regime_map(args) -> int:
    FieldStrength(args.b)  # validates b
    IncomingState(Spin.DOWN, args.n)  # validates n
    for flag in ("E_start", "E_stop", "V0_start", "V0_stop"):
        x = getattr(args, flag)
        if not (math.isfinite(x) and abs(x) <= MAX_ENERGY):
            raise ValueError(f"--{flag.replace('_', '-')} must be finite with magnitude "
                             f"<= MAX_ENERGY = {MAX_ENERGY:g}, got {x}")
    counts = (args.E_count, args.V0_count)
    if min(counts) < 0 or max(*counts, args.E_count * args.V0_count) > MAX_CSV_ROWS:
        raise ValueError(f"--E-count and --V0-count must be >= 0 with E-count x V0-count <= "
                         f"MAX_CSV_ROWS = {MAX_CSV_ROWS}, got {args.E_count} x {args.V0_count}")
    es = np.linspace(args.E_start, args.E_stop, args.E_count)
    v0s = np.linspace(args.V0_start, args.V0_stop, args.V0_count)
    c = 2.0 * args.b * args.n
    labels = [REGIME_LABELS[r] for r in regime_codes(es[:, None], v0s[None, :], c).ravel().tolist()]
    is_open = (channel_open(es, c) & (es > 0)).tolist()
    # each E and V0 is formatted once, for all the rows it appears in
    e_text = ["%.17g" % e for e in _text_floats(es)]
    v0_text = ["%.17g" % v0 for v0 in _text_floats(v0s)]
    points = itertools.product(zip(e_text, is_open), v0_text)
    rows = ("%s,%s,%s,%d" % (e, v0, label, o) for ((e, o), v0), label in zip(points, labels))
    _write_csv(sys.stdout, "E,V0,regime,open", rows)
    return EXIT_OK


def cmd_field(args) -> int:
    params = make_channel(args.E, args.V0, args.b, args.spin, args.n)
    field = assemble_field(
        params, ny=args.ny, nz=args.nz, k_x=args.kx,
        y_halfwidth=args.y_halfwidth, z_halfwidth=args.z_halfwidth,
    )
    save_grid(args.out, field, what=args.what)
    written = {"grid": args.out}
    if args.csv:
        dens = field.density()
        row = int(np.argmin(np.abs(field.y - field.y0)))
        slice_rows = _text_floats(np.stack((field.z, dens[row]), axis=1))
        with open(args.csv, "w", encoding="utf-8") as fh:
            _write_csv(fh, "z,density", ("%.17g,%.17g" % (z, d) for z, d in slice_rows))
        written["csv"] = args.csv
    emit_json({
        "regime": field.amps.regime.value,
        "ny": int(field.y.size), "nz": int(field.z.size),
        "y0": field.y0,
        "files": written,
    })
    return EXIT_OK


def cmd_klein_limit(args) -> int:
    t2, tp2 = klein_limit(args.spin, args.n, args.E, args.b)
    emit_json({
        "E": args.E, "b": args.b, "n": args.n, "spin": args.spin.value,
        "T2_inf": t2, "Tp2_inf": tp2,
    })
    return EXIT_OK


def cmd_filter_delay(args) -> int:
    setup = FilterSetup(
        E=args.E, n=args.n, b=args.b, g=args.g, distance=args.distance,
        branch=Branch(args.branch), V0=args.V0,
    )
    delay = arrival_delay(setup)
    record = {
        "E": args.E, "n": args.n, "b": args.b, "g": args.g,
        "distance": args.distance, "branch": args.branch,
        "delay": delay,
    }
    if setup.branch is Branch.REFLECTED:
        cp_up, cp_down = split_momenta(setup)
        record["cp_up"], record["cp_down"] = cp_up, cp_down
    if args.si:
        record["delay_si_seconds"] = delay * COMPTON_TIME_S
    emit_json(record)
    return EXIT_OK


def cmd_selftest(args) -> int:
    results = selftest_mod.run(points=args.points, seed=args.seed)
    for res in results:
        print(res.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed "
          f"(seed {selftest_mod.resolve_seed(args.seed)}, {args.points} points)")
    return EXIT_OK if not failed else EXIT_NUMERICAL


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parse_args does not
    modify it)."""
    parser = argparse.ArgumentParser(
        prog="kleinb",
        description="Relativistic step scattering in a parallel magnetic field "
                    "(natural units: mc^2 = c = hbar = 1).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("amps", help="amplitudes and current budget at one point (JSON)")
    _add_channel_args(p)
    p.set_defaults(func=cmd_amps)

    p = sub.add_parser("sweep", help="CSV sweep along one parameter axis")
    p.add_argument("--axis", choices=("E", "V0", "b", "n"), help="swept parameter")
    p.add_argument("--start", type=float, help="axis start")
    p.add_argument("--stop", type=float, help="axis stop")
    p.add_argument("--count", type=int, default=None, help="number of points (default 51)")
    p.add_argument("--values", help="explicit comma-separated axis values")
    _add_channel_args(p, required=False)
    p.add_argument("--columns", help="comma-separated subset of output columns")
    p.add_argument("--config", help="flat key = value config file; flags override")
    p.add_argument("--output", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("regime-map", help="CSV regime classification over an E x V0 grid")
    p.add_argument("--E-start", type=float, required=True)
    p.add_argument("--E-stop", type=float, required=True)
    p.add_argument("--E-count", type=int, default=51)
    p.add_argument("--V0-start", type=float, required=True)
    p.add_argument("--V0-stop", type=float, required=True)
    p.add_argument("--V0-count", type=int, default=51)
    p.add_argument("--b", type=float, default=0.0)
    p.add_argument("--n", type=int, default=0)
    p.set_defaults(func=cmd_regime_map)

    p = sub.add_parser("field", help="write the wave on a (y,z) grid plus a density slice")
    _add_channel_args(p)
    p.add_argument("--out", default="field.bin", help="binary grid output path")
    p.add_argument("--csv", default="field_slice.csv", help="CSV density slice path ('' to skip)")
    p.add_argument("--what", choices=("density", "components"), default="density")
    p.add_argument("--ny", type=int, default=512)
    p.add_argument("--nz", type=int, default=512)
    p.add_argument("--kx", type=float, default=0.0, help="transverse momentum (guiding center)")
    p.add_argument("--y-halfwidth", type=float, default=None)
    p.add_argument("--z-halfwidth", type=float, default=None)
    p.set_defaults(func=cmd_field)

    p = sub.add_parser("klein-limit", help="infinite-step transmitted probabilities")
    p.add_argument("--E", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--spin", type=parse_spin, default=Spin.DOWN)
    p.set_defaults(func=cmd_klein_limit)

    p = sub.add_parser("filter-delay", help="arrival-time split of the beam pair")
    p.add_argument("--E", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--g", type=float, default=G_ELECTRON, help="electron g-factor")
    p.add_argument("--distance", type=float, default=1.0, help="flight path (Compton units)")
    p.add_argument("--branch", choices=("reflected", "transmitted"), default="reflected")
    p.add_argument("--V0", type=float, default=None, help="step height (transmitted branch)")
    p.add_argument("--si", action="store_true", help="also print the delay in seconds")
    p.set_defaults(func=cmd_filter_delay)

    p = sub.add_parser("selftest", help="run the seeded invariant suite")
    p.add_argument("--points", type=int, default=10000, help="random grid size")
    p.add_argument("--seed", type=int, default=None,
                   help=f"grid seed (default: ${selftest_mod.SEED_ENV_VAR} or "
                        f"{selftest_mod.DEFAULT_SEED})")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (KleinStepError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL if isinstance(exc, SingularMatrix) else EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
