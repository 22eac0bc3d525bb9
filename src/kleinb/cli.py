"""Command-line interface.

Subcommands: amps (single-point JSON record), sweep (CSV along one
parameter axis), regime-map (CSV over an E x V0 grid), field (binary
grid plus CSV density slice), klein-limit, filter-delay, and selftest
(the seeded invariant suite).  All floating-point output is printed
with 17 significant digits, so every value round-trips exactly through
text.  Exit codes: 0 success, 2 validation error or a file that cannot
be read or written, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

import numpy as np

from . import selftest as selftest_mod
from .errors import KleinStepError, SingularMatrix, SingularStep
from .scattering import _evaluate, _point_results, kinematics, klein_limit
from .spinfilter import G_ELECTRON, Branch, FilterSetup, arrival_delay, split_momenta
from .states import (
    CHANNEL_RULES,
    FIELD_RULES,
    LEVEL_RULES,
    MAX_ENERGY,
    REGIMES,
    ChannelParams,
    Spin,
    broken_rules,
    channel_open,
    check_rules,
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
#: built.  The rows are evaluated and formatted CSV_CHUNK_LINES at a
#: time, so a full-column sweep of MAX_CSV_ROWS rows peaked at 41 MiB RSS
#: and took 0.8 s on a 2-core x86-64 host (31 MiB for one row), and a
#: regime-map of as many cells peaked at 47 MiB.
MAX_CSV_ROWS = 400_000

#: Rows evaluated and formatted at a time by the sweep, and rows laid
#: out at a time by the sweep, regime-map and field slice writers.
CSV_CHUNK_LINES = 4096

#: Bytes of a row block (see _write_csv) written at a time, its NULs dropped.
WRITE_BYTES = 1 << 17

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


# ---------------------------------------------------------------------------
# CSV numbers as arrays
#
# The CSV writers lay out a chunk of rows as one block of 8-byte words
# whose bytes, the NULs dropped, are the rows' text.  A number fills a
# cell of CELL_WORDS words: a separator byte (set by the writer) and the
# sign and "0.000" prefix, right-aligned, in the first word; the 17
# digits with the point inserted from byte 8; the exponent ("e-308"),
# right-aligned, in the last five bytes.

_WORD = np.dtype("<u8")
CELL_WORDS = 4
#: Numbers _float_texts formats per pass, so that its temporaries stay
#: small whatever the size of a chunk.
FLOAT_BATCH = 4096
#: |x| range of the double-double path; beyond it 10^p or its low part
#: would leave the normal doubles, and fmt formats the value.
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
#: Scale exponents p = 16 - floor(log10|x|) of the 10^p table, and the
#: offset of the decimal exponent X in the per-exponent tables.
_P_MIN, _P_MAX = -270, 300
_X_OFF = 330
#: A rounding fraction this close to 1/2 may be an exact tie (rounded
#: half to even) or misjudged by the ~1e-14 error of the scaled value;
#: fmt formats it.
_TIE_BAND = 2.0 ** -30


def _le(text: bytes) -> int:
    """The word whose little-endian bytes are text, NUL-padded to 8."""
    return int.from_bytes(text.ljust(8, b"\0"), "little")


@functools.cache
def _float_tables() -> tuple:
    """The tables of _float_texts, built from ints on first use.

    pow10: rows (H, H_hi, H_lo, L) for p in [_P_MIN, _P_MAX], where
    H + L = 10^p to ~2^-106 (H and L each correctly rounded) and
    H_hi + H_lo is H split into 26-bit halves.  four: the ASCII of
    "%04d" % i in the low half of a word; tz4: its trailing zeros.  By
    decimal exponent X: the prefix word per sign, the exponent word (0
    in fixed notation) and, per count of significant digits, the row of
    masks.  The mask row of point position p and digits shown d keeps,
    over three words, the digits before the point, the point, and the
    digits after it moved one byte up.
    """
    hi, lo = [], []
    for p in range(_P_MIN, _P_MAX + 1):
        if p >= 0:
            h = float(10 ** p)
            hi.append(h)
            lo.append(float(10 ** p - int(h)))
        else:
            q = 10 ** -p
            h = 1 / q
            num, den = h.as_integer_ratio()
            hi.append(h)
            lo.append((den - num * q) / (q * den))
    H = np.array(hi)
    c = H * 134217729.0
    H_hi = c - (c - H)
    pow10 = np.stack((H, H_hi, H - H_hi, np.array(lo)), axis=1)
    # i = 1000 a + 100 b + 10 c + d on a (10, 10, 10, 10) grid of digits
    digit = np.arange(ord("0"), ord("0") + 10, dtype=np.uint32)
    zero = (np.arange(10) == 0).astype(np.int8)
    four = (digit[:, None, None, None] | digit[:, None, None] << 8
            | digit[:, None] << 16 | digit << 24).ravel().astype(np.uint64)
    tz4 = (zero * (1 + zero[:, None] * (1 + zero[:, None, None] * (1 + zero[:, None, None, None])))).ravel()
    x = np.arange(-_X_OFF, _X_OFF + 1, dtype=np.int16)
    fixed = (-4 <= x) & (x < 17)
    leads = {e: "0." + "0" * (-e - 1) for e in range(-4, 0)}
    prefix = [_le((sign + leads.get(e, "")).encode().rjust(8, b"\0"))
              for e in x.tolist() for sign in ("", "-")]
    exponent = [0 if f else _le((b"e%+03d" % e).rjust(8, b"\0")) for e, f in zip(x.tolist(), fixed.tolist())]
    point = np.where(fixed, np.where(x >= 0, x + 1, 17), 1)
    shown = np.where(fixed & (x >= 0), x + 1, 0)  # integer digits, shown even if zeros
    rows = 18 * point[:, None] + np.maximum(np.arange(18, dtype=np.int16), shown[:, None])
    masks = np.zeros((18 * 18, 9), np.uint64)
    for p in range(18):
        for d in range(18):
            before, after, dot = bytearray(24), bytearray(24), bytearray(24)
            before[:min(p, d)] = b"\xff" * min(p, d)
            if d > p:
                dot[p] = ord(".")
                after[p + 1:d + 1] = b"\xff" * (d - p)
            masks[18 * p + d] = [int.from_bytes(m[j:j + 8], "little")
                                 for m in (before, after, dot) for j in (0, 8, 16)]
    return (pow10, four, tz4, np.array(prefix, np.uint64), np.array(exponent, np.uint64),
            rows.ravel(), masks)


def _scaled(v, k, pow10):
    """v * 10^(16 - k) as a normalized double-double (s, t): Dekker's
    product with Veltkamp splits (numpy has no fma), error ~1e-14."""
    H, H_hi, H_lo, L = np.take(pow10, 16 - _P_MIN - k, axis=0).T
    c = v * 134217729.0
    v_hi = c - (c - v)
    v_lo = v - v_hi
    ph = v * H
    pl = (((v_hi * H_hi - ph) + v_hi * H_lo + v_lo * H_hi) + v_lo * H_lo) + v * L
    s = ph + pl
    return s, pl - (s - ph)


def _digits17(v: np.ndarray, pow10: np.ndarray, four: np.ndarray, tz4: np.ndarray) -> tuple:
    """The 17-digit rounding of each v in [1e-280, 1e280]: its decimal
    exponent k, the digits as ASCII in three words (_ascii_digits) and
    the mask of possible ties, where the rounding fraction lies within
    _TIE_BAND of 1/2."""
    k = np.floor(np.log10(v)).astype(np.int64)
    s, t = _scaled(v, k, pow10)
    # log10 may round across a power of ten: bring s + t into [1e16, 1e17)
    low = (s < 1e16) | ((s == 1e16) & (t < 0))
    off = np.flatnonzero(low | (s > 1e17) | ((s == 1e17) & (t >= 0)))
    if off.size:
        k[off] += np.where(low[off], -1, 1)
        s[off], t[off] = _scaled(v[off], k[off], pow10)
    # s is an integer (> 2^53); N rounds s + t to nearest
    floor = np.floor(t)
    frac = t - floor
    N = s.astype(np.int64) + floor.astype(np.int64) + (frac > 0.5)
    carry = np.flatnonzero(N == 10 ** 17)
    N[carry] = 10 ** 16
    k[carry] += 1
    return k, _ascii_digits(N, four, tz4), np.abs(frac - 0.5) < _TIE_BAND


def _ascii_digits(N: np.ndarray, four: np.ndarray, tz4: np.ndarray) -> tuple:
    """The 17 digits of each N in [1e16, 1e17) as ASCII in three words
    (digits 0-7, 8-15 and 16), and the count of significant digits."""
    q = N // 10
    last = N - 10 * q
    hi8 = q // 10 ** 8
    lo8 = q - 10 ** 8 * hi8
    g0 = hi8 // 10 ** 4
    g1 = hi8 - 10 ** 4 * g0
    g2 = lo8 // 10 ** 4
    g3 = lo8 - 10 ** 4 * g2
    half = np.uint64(32)
    words = (
        np.take(four, g0) | (np.take(four, g1) << half),
        np.take(four, g2) | (np.take(four, g3) << half),
        (last + ord("0")).astype(np.uint64),
    )
    nd = np.full(N.size, 17)
    z = np.flatnonzero(last == 0)
    if z.size:  # trailing zeros
        d0, d1, d2, d3 = g0[z], g1[z], g2[z], g3[z]
        nd[z] = 16 - tz4[d3] - (d3 == 0) * (tz4[d2] + (d2 == 0) * (tz4[d1] + (d1 == 0) * tz4[d0]))
    return words, nd


def _float_cells(numbers: np.ndarray, out: np.ndarray) -> None:
    """Fill out, of numbers.shape + (CELL_WORDS,), with the cells of the
    numbers; the first byte, the separator, is left NUL."""
    pow10, four, tz4, prefix, exponent, rows, masks = _float_tables()
    # a pass works on a power of two of numbers (the rest 1.0), so that
    # its temporaries come in few sizes: varied sizes fragmented the heap,
    # and a sweep's peak RSS crept up over a long run
    shape, size = numbers.shape, numbers.size
    x = np.ones(1 << max(6, (size - 1).bit_length()))
    x[:size] = numbers.ravel()
    a = np.abs(x)
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    # a zero takes the path of 1.0, and its "1" becomes "0"
    k, ((w0, w1, w2), nd), tie = _digits17(np.where(fast, a, 1.0), pow10, four, tz4)
    x_index = k + _X_OFF
    m = np.take(masks, np.take(rows, 18 * x_index + nd), axis=0).T
    # the digits before the point, the point, and the digits after it,
    # moved one byte up
    byte, top = np.uint64(8), np.uint64(56)
    words = (
        np.take(prefix, 2 * x_index + (x < 0)),
        ((w0 & m[0]) | ((w0 << byte) & m[3]) | m[6]) - (a == 0),
        (w1 & m[1]) | (((w1 << byte) | (w0 >> top)) & m[4]) | m[7],
        (w2 & m[2]) | (((w2 << byte) | (w1 >> top)) & m[5]) | m[8] | np.take(exponent, x_index),
    )
    for j, word in enumerate(words):
        out[..., j] = word[:size].reshape(shape)
    for i in np.flatnonzero(~fast & (a != 0) | tie).tolist():
        text = fmt(x[i]).encode().ljust(8 * CELL_WORDS - 8, b"\0")
        out[np.unravel_index(i, shape)] = np.frombuffer(bytes(8) + text, _WORD)


def _float_texts(x, out=None) -> np.ndarray:
    """Cells of the numbers x (1-D or 2-D): words of x.shape +
    (CELL_WORDS,), into out if given, whose bytes, the NULs dropped, are
    fmt of each number.

    Finite numbers with 1e-280 <= |x| <= 1e280 are scaled to 17 digits
    in double-double arithmetic and laid out by the rules of "%.17g"
    ('g' at precision 17, trailing zeros and a bare point dropped);
    zeros print as "0".  The rest, nan, inf, far exponents and possible
    rounding ties, go to fmt itself.  At most FLOAT_BATCH numbers are
    formatted per pass.
    """
    x = np.asarray(x, dtype=float)
    if out is None:
        out = np.empty(x.shape + (CELL_WORDS,), _WORD)
    step = max(1, FLOAT_BATCH // max(1, x[:1].size))
    for lo in range(0, len(x), step):
        _float_cells(x[lo:lo + step], out[lo:lo + step])
    return out


def _json_value(v) -> str:
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return fmt(v)
    if isinstance(v, complex):
        return '{"re": %s, "im": %s}' % (fmt(v.real), fmt(v.imag))
    if isinstance(v, dict):
        return "{%s}" % ", ".join("%s: %s" % (_json_value(k), _json_value(u)) for k, u in v.items())
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


def _axis_values(args) -> np.ndarray:
    """The sweep's axis values as one float array: --values as given, or
    start + i * step for i < count (the start alone for count 1)."""
    if args.values is not None:
        values = np.array([float(v) for v in args.values.split(",") if v.strip()])
        if not 1 <= len(values) <= MAX_CSV_ROWS:
            raise ValueError(f"sweep has {len(values)} values, not in [1, MAX_CSV_ROWS = {MAX_CSV_ROWS}]")
    elif args.start is None or args.stop is None:
        raise ValueError("sweep needs --values or --start/--stop/--count")
    elif not 1 <= args.count <= MAX_CSV_ROWS:
        raise ValueError(f"count must be in [1, MAX_CSV_ROWS = {MAX_CSV_ROWS}], got {args.count}")
    elif args.count == 1:
        values = np.array([args.start])
    else:
        step = (args.stop - args.start) / (args.count - 1)
        values = args.start + np.arange(args.count) * step
    return values


def _text_words(texts: list[str]) -> np.ndarray:
    """Short texts as rows of words, each NUL-padded to the longest."""
    chars = np.array([t.encode() for t in texts])
    width = -(-chars.itemsize // 8) * 8
    return chars.astype(f"S{width}").view(_WORD).reshape(len(texts), width // 8)


def _write_csv(out, header: str, blocks) -> None:
    """Write the header line, then each block of rows: words whose
    bytes, the NULs dropped, are the rows' text, newlines included.  A
    block is written WRITE_BYTES of words at a time, so that neither the
    whole text nor a block's text is held as one string."""
    out.write(header + "\n")
    for block in blocks:
        chars = block.view(np.uint8)
        step = max(1, WRITE_BYTES // max(1, chars.shape[1]))
        for lo in range(0, len(chars), step):
            part = chars[lo:lo + step]
            out.write(str(part[part != 0].data, "ascii"))


def _value_column(batch, name: str) -> np.ndarray:
    """One value column of a batch: a fraction, or the real or imaginary
    part of an amplitude (re_R, im_Tp, ...)."""
    if name[:3] in ("re_", "im_"):
        z = getattr(batch, name[3:])
        return z.real if name[:3] == "re_" else z.imag
    return getattr(batch, name)


def _sweep_blocks(axis: str, values: np.ndarray, fixed: dict, header: list[str]):
    """Row blocks (see _write_csv) of the header's columns, one row per
    axis value, evaluated and formatted CSV_CHUNK_LINES rows at a time as
    they are read.

    Per chunk, one broken_rules call checks every row against
    make_channel's rules, and the valid rows are evaluated in one pass of
    the closed forms.  _float_texts writes the axis values and the value
    table into the chunk's block as arrays.  A row with an error keeps its
    axis value, its value cells are empty, and its error cell is gathered
    by its first broken rule (or as SingularStep) from one table.
    """
    E, V0, b, n = np.broadcast_arrays(
        *(np.asarray(values if key == axis else fixed[key], dtype=float) for key in ("E", "V0", "b")),
        level_floats(values if axis == "n" else fixed["n"]),
    )
    up = fixed["spin"] is Spin.UP
    inner = header[2:-1]
    labels = _text_words([f",{label}" for label in REGIME_LABELS] + [","])
    # error cells by broken rule, then of a valid row and of a singular one
    valid = len(CHANNEL_RULES)
    ends = _text_words([f",{error.__name__}\n" for _, error, _ in CHANNEL_RULES]
                       + [",\n", f",{SingularStep.__name__}\n"])
    for lo in range(0, len(values), CSV_CHUNK_LINES):
        e, v0, bb, nn = (x[lo:lo + CSV_CHUNK_LINES] for x in (E, V0, b, n))
        broken = broken_rules(e, v0, bb, nn, up)
        rows = np.flatnonzero(broken == valid)
        k = kinematics(e[rows], v0[rows], 2.0 * bb[rows] * nn[rows], np.full(rows.size, up))
        batch = _evaluate(k, (rows.size,))
        broken[rows[batch.singular]] = valid + 1
        ok = ~batch.singular
        shown = rows[ok]
        table = np.zeros((len(e), len(inner)))
        for j, name in enumerate(inner):
            table[shown, j] = _value_column(batch, name)[ok]
        codes = np.full(len(e), len(REGIME_LABELS))
        codes[shown] = batch.regime[ok]
        block = np.zeros((len(e), CELL_WORDS * (1 + len(inner)) + 1 + ends.shape[1]), _WORD)
        _float_texts(values[lo:lo + CSV_CHUNK_LINES], block[:, :CELL_WORDS])
        block[:, CELL_WORDS] = labels[codes, 0]
        cells = block[:, CELL_WORDS + 1:-ends.shape[1]].reshape(len(e), len(inner), CELL_WORDS)
        _float_texts(table, cells)
        cells[broken != valid] = 0
        cells[..., 0] |= ord(",")
        block[:, -ends.shape[1]:] = ends[broken]
        yield block


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
        # flags given on the command line win, and an axis given as
        # --start/--stop wins over the file's values; config fills the rest
        ranged = args.start is not None or args.stop is not None
        for key, raw in cfg.items():
            if getattr(args, key) is None and not (key == "values" and ranged):
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

    blocks = _sweep_blocks(axis, values, fixed, header)
    out = open(args.output, "w", encoding="utf-8") if args.output else sys.stdout
    try:
        _write_csv(out, ",".join(header), blocks)
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK


def cmd_regime_map(args) -> int:
    check_rules(FIELD_RULES + LEVEL_RULES, b=args.b, n=args.n, up=False)
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
    # each E and V0 is formatted once, for all the rows it appears in
    e_cells = _float_texts(es)
    v0_cells = _float_texts(v0s)
    v0_cells[:, 0] |= ord(",")
    ends = _text_words([f",{label},{o}\n" for label in REGIME_LABELS for o in (0, 1)])
    codes = 2 * regime_codes(es[:, None], v0s[None, :], c).ravel()
    # the E > 0 and open-channel rules of make_channel, on the E column
    is_open = (es > 0.0) & channel_open(es, c)

    def blocks():
        for lo in range(0, codes.size, CSV_CHUNK_LINES):
            e, v0 = np.divmod(np.arange(lo, min(lo + CSV_CHUNK_LINES, codes.size)), v0s.size)
            tail = ends[codes[lo:lo + CSV_CHUNK_LINES] + is_open[e]]
            yield np.concatenate((e_cells[e], v0_cells[v0], tail), axis=1)

    _write_csv(sys.stdout, "E,V0,regime,open", blocks())
    return EXIT_OK


def cmd_field(args) -> int:
    params = make_channel(args.E, args.V0, args.b, args.spin, args.n)
    field = assemble_field(
        params, ny=args.ny, nz=args.nz, k_x=args.kx,
        y_halfwidth=args.y_halfwidth, z_halfwidth=args.z_halfwidth,
    )
    payload = save_grid(args.out, field, what=args.what)
    written = {"grid": args.out}
    if args.csv:
        # a density map just written is the map the slice is a row of
        density = payload[0] if args.what == "density" else field.density()
        row = int(np.argmin(np.abs(field.y - field.y0)))
        columns = np.stack((field.z, density[row]), axis=1)

        def blocks():
            for lo in range(0, len(columns), CSV_CHUNK_LINES):
                cells = _float_texts(columns[lo:lo + CSV_CHUNK_LINES])
                cells[:, 1, 0] |= ord(",")
                newline = np.full((len(cells), 1), ord("\n"), _WORD)
                yield np.concatenate((cells.reshape(len(cells), -1), newline), axis=1)

        with open(args.csv, "w", encoding="utf-8") as fh:
            _write_csv(fh, "z,density", blocks())
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


#: A word that starts with "-" and then a digit, ".", "inf" or "nan": a
#: negative number, or a --values list that starts with one, which
#: argparse would take for an option.
_NEGATIVE_NUMBER = re.compile(r"-(\d|\.|inf|nan)", re.IGNORECASE)


def _attach_negative_values(argv: list[str]) -> list[str]:
    """argv with each "--opt WORD", WORD a negative number, written as
    "--opt=WORD", the form in which argparse reads WORD as the value."""
    out = []
    for word in argv:
        last = out[-1] if out else ""
        if _NEGATIVE_NUMBER.match(word) and last.startswith("--") and "=" not in last and last != "--":
            out[-1] = f"{last}={word}"
        else:
            out.append(word)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.func(args)
    except (KleinStepError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL if isinstance(exc, SingularMatrix) else EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
