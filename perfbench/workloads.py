"""Seeded workloads of the kleinb benchmark and their correctness gate.

Each workload hands out its operations one cycle at a time.  A cycle has
a fixed composition (which command, which grid shape, which payload
kind), and the seed draws the physical inputs inside it, so the mix of
expensive and cheap operations, and with it the latency quantiles, does
not depend on the seed.  Inputs are drawn here, independently of
``kleinb.selftest.sample_grid``; the program receives only the generated
command lines and parameters.

The gate mirrors the package's rules (regime, error labels, singular
tolerance) in the benchmark's own arithmetic, so an output is checked
against an expectation the program did not produce.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass, field

import numpy as np

#: kleinb.scattering.SINGULAR_TOL: |E + 1 - V0| < SINGULAR_TOL (1 + V0) raises SingularStep.
SINGULAR_TOL = 1e-12
#: Current conservation tolerance for every gated row.
SUM_TOL = 1e-12
#: Rows this close (relative) to the singular sliver V0 = E + 1, to a
#: regime threshold E = V0 +- M_n or to the channel threshold E = M_n are
#: "near edge": their conservation residual is reported, not gated at
#: SUM_TOL (the closed forms lose digits there; ROADMAP item 3).
EDGE_TOL = 1e-6
#: Loose gate for near-edge rows: catches NaN or a wrong branch.
EDGE_SUM_TOL = 1e-6
#: Rows that are not deliberately near an edge keep at least this
#: relative distance from the thresholds and from E = M_n ...
CLEARANCE = 1e-4
#: ... and at least this distance from the sliver (the near-singular
#: s/k band starts at 1e-2 and is gated at SUM_TOL).
SLIVER_CLEARANCE = 1e-5

SWEEP_ROWS = 2000
SWEEP_AXES = ("E", "V0", "b", "n")
#: Per sweep call: rows deliberately invalid, near an edge, in the s/k band.
SWEEP_QUOTAS = (("invalid", 40), ("edge", 40), ("band", 40))
REGIME_MAP_SHAPE = (50, 60)
SELFTEST_POINTS = 1000
SELFTEST_CHECKS = 6
CONTINUITY_TOL = 1e-10
CURRENT_TOL = 1e-8
N_MAX_SWEEP = 20
N_MAX_FIELD = 60

VALUE_COLUMNS = (
    "re_R", "im_R", "re_Rp", "im_Rp", "re_T", "im_T", "re_Tp", "im_Tp",
    "refl_same", "refl_flip", "trans_same", "trans_flip", "sum",
)
SWEEP_HEADER = ["axis_value", "regime", *VALUE_COLUMNS, "error"]


class GateFailure(Exception):
    """An operation's output failed the correctness gate."""


# ---------------------------------------------------------------------------
# the package's physics rules, restated independently


def channel_mass(b: float, n: int) -> float:
    return math.sqrt(1.0 + 2.0 * b * n)


def expected_error(E: float, V0: float, b: float, n: int, spin: str) -> str:
    """Name of the typed error the point must raise, or '' if it is valid."""
    if spin == "up" and n == 0:
        return "InvalidSpinIndex"
    if E * E <= 1.0 + 2.0 * b * n:
        return "ClosedChannel"
    if abs(E + 1.0 - V0) < SINGULAR_TOL * (1.0 + V0):
        return "SingularStep"
    return ""


def regime(E: float, V0: float, m: float) -> str:
    if V0 - m > E:
        return "I"
    if E > V0 + m:
        return "II"
    return "III"


def edge_distances(E: float, V0: float, m: float) -> tuple[float, float, float]:
    """Relative distances to a regime threshold, to the sliver and to E = M_n."""
    threshold = min(abs(E - V0 - m), abs(E - V0 + m)) / m
    sliver = abs(E + 1.0 - V0) / (1.0 + V0)
    return threshold, sliver, (E - m) / m


def near_edge(E: float, V0: float, m: float) -> bool:
    return min(edge_distances(E, V0, m)) <= EDGE_TOL


def clear_of_edges(E: float, V0: float, m: float) -> bool:
    threshold, sliver, cp = edge_distances(E, V0, m)
    return threshold >= CLEARANCE and cp >= CLEARANCE and sliver >= SLIVER_CLEARANCE


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))


def _sign(rng) -> float:
    return 1.0 if rng.random() < 0.5 else -1.0


def _channel_label(rng, n_lo: int = 0, n_hi: int = N_MAX_SWEEP, b_zero: float = 0.15):
    n = int(rng.integers(n_lo, n_hi + 1))
    spin = "down" if n == 0 else ("up" if rng.random() < 0.5 else "down")
    b = 0.0 if rng.random() < b_zero else float(rng.uniform(0.01, 1.0))
    return n, spin, b


# ---------------------------------------------------------------------------
# operations


@dataclass
class Op:
    kind: str
    units: int            # output rows, grid cells or sampled points
    points: int           # channel points handed to the program
    argv: list = field(default_factory=list)
    expect: object = None  # what the gate compares the output with
    channel: tuple = ()   # field: (E, V0, b, spin, n)
    shape: tuple = ()     # field: (ny, nz)
    what: str = ""        # field: payload kind


@dataclass
class SweepRow:
    value: float
    error: str
    regime: str
    edge: bool


class _Workload:
    name = ""
    unit = ""
    #: Host-speed probe work (see run.SpeedProbe): scalar loop length,
    #: complex formatting loop length, 4x4 solves, and the reference probe
    #: time in seconds, about its time on a quiet 2-core x86-64 host under
    #: CPython 3.11.  The parts follow the workload's own mix: on a host
    #: slowed by outside load, the probe slows about as much as the work.
    probe_work = (15_000, 1_000, 100, 0.004)

    def __init__(self, kb, seed: int, tmpdir: str):
        self.kb = kb
        self.rng = np.random.default_rng(seed)
        self.probe_rng = np.random.default_rng([seed, 1])
        self.edge_residual_max = 0.0

    def _main(self, argv) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = self.kb.cli.main(argv)
        return rc, out.getvalue()

    def cleanup(self, op: Op) -> None:
        pass


# ---------------------------------------------------------------------------
# sweep


def _draw(make, accept, tries: int = 200):
    for _ in range(tries):
        value = make()
        if value is not None and accept(value):
            return value
    raise RuntimeError("benchmark generator could not place a point")


class SweepWorkload(_Workload):
    """`kleinb sweep --values ...` per axis, plus one `regime-map` per cycle."""

    name = "sweep"
    unit = "rows"

    def __init__(self, kb, seed, tmpdir):
        super().__init__(kb, seed, tmpdir)
        self.path = os.path.join(tmpdir, "sweep.csv")

    def cycle(self, first: bool = False) -> list[Op]:
        return [self._sweep(self.rng, axis) for axis in SWEEP_AXES] + [self._regime_map(self.rng)]

    def probe(self) -> Op:
        return self._sweep(self.probe_rng, "V0")

    # -- generation ----------------------------------------------------------

    def _sweep(self, rng, axis: str) -> Op:
        fixed, samplers = getattr(self, f"_axis_{axis}")(rng)
        point = (lambda v: dict(fixed, **{axis: v}))
        if axis == "n":
            values = [float(v) for v in rng.integers(0, N_MAX_SWEEP + 1, SWEEP_ROWS)]
        else:
            values = []
            for kind, quota in SWEEP_QUOTAS:
                makers = samplers.get(kind, ())
                for i in range(quota if makers else 0):
                    values.append(_draw(makers[i % len(makers)],
                                        lambda v, k=kind: self._kind_of(point(v)) == k))
            normal = [samplers[r] for r in ("I", "II", "III") if r in samplers]
            while len(values) < SWEEP_ROWS:
                values.append(_draw(normal[len(values) % len(normal)],
                                    lambda v: self._kind_of(point(v)) in ("normal", "band")))
            rng.shuffle(values)
        rows = [self._expect(point(v), v) for v in values]
        text = ",".join(("%d" % v) if axis == "n" else repr(v) for v in values)
        argv = ["sweep", "--axis", axis, "--values", text, "--output", self.path]
        for key in ("E", "V0", "b", "n", "spin"):
            if key != axis:
                argv += [f"--{key}", str(fixed[key]) if key in ("n", "spin") else repr(fixed[key])]
        return Op("sweep", units=len(values), points=len(values), argv=argv, expect=rows)

    @staticmethod
    def _kind_of(p) -> str:
        n = int(p["n"])
        if expected_error(p["E"], p["V0"], p["b"], n, p["spin"]):
            return "invalid"
        m = channel_mass(p["b"], n)
        if near_edge(p["E"], p["V0"], m):
            return "edge"
        if not clear_of_edges(p["E"], p["V0"], m):
            return "gray"
        return "band" if abs(p["E"] + 1.0 - p["V0"]) < 1e-2 * (1.0 + p["V0"]) else "normal"

    @staticmethod
    def _expect(p, value) -> SweepRow:
        n = int(p["n"])
        error = expected_error(p["E"], p["V0"], p["b"], n, p["spin"])
        m = channel_mass(p["b"], n)
        return SweepRow(value, error, "" if error else regime(p["E"], p["V0"], m),
                        not error and near_edge(p["E"], p["V0"], m))

    def _axis_E(self, rng):
        n, spin, b = _channel_label(rng)
        m = channel_mass(b, n)
        V0 = m * float(rng.uniform(2.5, 8.0))
        u = lambda lo, hi: float(rng.uniform(lo, hi))  # noqa: E731
        d = lambda: _log_uniform(rng, 1e-10, EDGE_TOL)  # noqa: E731
        return {"V0": V0, "b": b, "n": n, "spin": spin}, {
            "I": lambda: m + (V0 - 2.0 * m) * u(1e-3, 0.999),
            "II": lambda: (V0 + m) * (1.0 + u(1e-3, 2.0)),
            "III": lambda: V0 - m + 2.0 * m * u(1e-3, 0.999),
            "band": [lambda: V0 - 1.0 + _sign(rng) * _log_uniform(rng, 1e-5, 5e-3) * (1.0 + V0)],
            "edge": [
                lambda: V0 - 1.0 + _sign(rng) * d() * (1.0 + V0),
                lambda: V0 + m * (1.0 + _sign(rng) * d()),
                lambda: V0 - m * (1.0 + _sign(rng) * d()),
                lambda: m * (1.0 + d()),
            ],
            "invalid": [
                lambda: m * u(0.3, 0.99),
                lambda: V0 - 1.0 + _sign(rng) * u(0.0, 0.2) * SINGULAR_TOL * (1.0 + V0),
            ],
        }

    def _axis_V0(self, rng):
        n, spin, b = _channel_label(rng)
        m = channel_mass(b, n)
        E = m * (1.0 + _log_uniform(rng, 1e-2, 5.0))
        u = lambda lo, hi: float(rng.uniform(lo, hi))  # noqa: E731
        d = lambda: _log_uniform(rng, 1e-10, EDGE_TOL)  # noqa: E731
        return {"E": E, "b": b, "n": n, "spin": spin}, {
            "I": lambda: (E + m) * (1.0 + u(1e-3, 2.0)),
            "II": lambda: (E - m) * u(0.0, 0.999),
            "III": lambda: E - m + 2.0 * m * u(1e-3, 0.999),
            "band": [lambda: E + 1.0 + _sign(rng) * _log_uniform(rng, 1e-5, 5e-3) * (E + 2.0)],
            "edge": [
                lambda: E + 1.0 + _sign(rng) * d() * (E + 2.0),
                lambda: E + m * (1.0 + _sign(rng) * d()),
                lambda: E - m * (1.0 + _sign(rng) * d()),
            ],
            "invalid": [lambda: E + 1.0 + _sign(rng) * u(0.0, 0.2) * SINGULAR_TOL * (E + 2.0)],
        }

    def _axis_b(self, rng):
        n, spin, _ = _channel_label(rng, n_lo=1)
        E = float(rng.uniform(1.5, 6.0))
        t = float(rng.uniform(1.05, 0.9 * E))   # |E - V0|: M_n(b) crosses it
        V0 = E + t if rng.random() < 0.5 else E - t
        b_open = (E * E - 1.0) / (2.0 * n)
        b_t = (t * t - 1.0) / (2.0 * n)
        u = lambda lo, hi: float(rng.uniform(lo, hi))  # noqa: E731
        d = lambda: _log_uniform(rng, 1e-10, EDGE_TOL)  # noqa: E731
        b_of = lambda mass: (mass * mass - 1.0) / (2.0 * n)  # noqa: E731
        below = "I" if V0 > E else "II"
        return {"E": E, "V0": V0, "n": n, "spin": spin}, {
            below: lambda: 0.0 if rng.random() < 0.05 else b_t * u(0.0, 0.999),
            "III": lambda: b_t + (b_open - b_t) * u(1e-3, 0.999),
            "edge": [
                lambda: b_of(t * (1.0 + _sign(rng) * d())),
                lambda: b_of(E / (1.0 + d())),
            ],
            "invalid": [lambda: b_open * u(1.01, 1.5)],
        }

    def _axis_n(self, rng):
        while True:
            _, spin, b = _channel_label(rng, n_lo=1)
            top = N_MAX_SWEEP if rng.random() < 0.8 else int(rng.integers(15, N_MAX_SWEEP))
            E = channel_mass(b, top) * (1.0 + float(rng.uniform(0.01, 1.0)))
            V0 = E * float(rng.uniform(0.0, 2.5))
            fixed = {"E": E, "V0": V0, "b": b, "spin": spin}
            kinds = {self._kind_of(dict(fixed, n=k)) for k in range(N_MAX_SWEEP + 1)}
            if kinds <= {"invalid", "normal", "band"}:
                return fixed, {}

    def _regime_map(self, rng) -> Op:
        n, _, b = _channel_label(rng)
        m = channel_mass(b, n)
        e0 = m * float(rng.uniform(0.5, 1.5))
        e1 = e0 + m * float(rng.uniform(2.0, 6.0))
        v0 = float(rng.uniform(0.0, 1.0))
        v1 = v0 + m * float(rng.uniform(3.0, 10.0))
        ne, nv = REGIME_MAP_SHAPE
        argv = ["regime-map", "--E-start", repr(e0), "--E-stop", repr(e1), "--E-count", str(ne),
                "--V0-start", repr(v0), "--V0-stop", repr(v1), "--V0-count", str(nv),
                "--b", repr(b), "--n", str(n)]
        expect = (np.linspace(e0, e1, ne), np.linspace(v0, v1, nv), b, n)
        return Op("regime-map", units=ne * nv, points=0, argv=argv, expect=expect)

    # -- execution and gate ----------------------------------------------------

    def execute(self, op: Op):
        return self._main(op.argv)

    def check(self, op: Op, result) -> None:
        rc, text = result
        if rc != 0:
            raise GateFailure(f"{op.kind} exit code {rc}")
        if op.kind == "sweep":
            with open(self.path, encoding="utf-8") as fh:
                text = fh.read()
            self._check_sweep(op, text)
        else:
            self._check_regime_map(op, text)

    def _check_sweep(self, op: Op, text: str) -> None:
        lines = text.splitlines()
        if not lines or lines[0].split(",") != SWEEP_HEADER:
            raise GateFailure("sweep header differs")
        if len(lines) - 1 != len(op.expect):
            raise GateFailure(f"sweep row count {len(lines) - 1} != {len(op.expect)} inputs")
        i_reg, i_sum, i_err = 1, SWEEP_HEADER.index("sum"), SWEEP_HEADER.index("error")
        for line, row in zip(lines[1:], op.expect):
            cells = line.split(",")
            if len(cells) != len(SWEEP_HEADER) or float(cells[0]) != row.value:
                raise GateFailure(f"sweep row for {row.value!r} malformed")
            if cells[i_err] != row.error:
                raise GateFailure(f"sweep error {cells[i_err]!r} != {row.error!r} at {row.value!r}")
            if row.error:
                continue
            if cells[i_reg] != row.regime:
                raise GateFailure(f"regime {cells[i_reg]} != {row.regime} at {row.value!r}")
            residual = abs(float(cells[i_sum]) - 1.0)
            if row.edge:
                self.edge_residual_max = max(self.edge_residual_max, residual)
            if not residual <= (EDGE_SUM_TOL if row.edge else SUM_TOL):
                raise GateFailure(f"|sum - 1| = {residual:.3e} at {row.value!r}")

    def _check_regime_map(self, op: Op, text: str) -> None:
        es, vs, b, n = op.expect
        msq = 1.0 + 2.0 * b * n
        m = math.sqrt(msq)
        lines = text.splitlines()
        if not lines or lines[0] != "E,V0,regime,open":
            raise GateFailure("regime-map header differs")
        if len(lines) - 1 != es.size * vs.size:
            raise GateFailure(f"regime-map row count {len(lines) - 1} != {es.size * vs.size}")
        for k, line in enumerate(lines[1:]):
            e_s, v_s, reg, is_open = line.split(",")
            e, v = float(e_s), float(v_s)
            if abs(e - es[k // vs.size]) > 1e-12 * abs(e) or abs(v - vs[k % vs.size]) > 1e-12 * max(abs(v), 1.0):
                raise GateFailure(f"regime-map grid point {k} moved")
            if reg != regime(e, v, m) or is_open != str(int(e * e > msq and e > 0)):
                raise GateFailure(f"regime-map row {line!r} disagrees with the rule")

    def corrupt(self, op: Op, result):
        with open(self.path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        i_sum = SWEEP_HEADER.index("sum")
        for k, row in enumerate(op.expect, start=1):
            if not row.error and not row.edge:
                cells = lines[k].split(",")
                cells[i_sum] = repr(float(cells[i_sum]) + 1e-9)
                lines[k] = ",".join(cells)
                break
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return result


# ---------------------------------------------------------------------------
# field

#: One cycle of maps: (ny, nz, payload or None for a seeded choice, needs
#: a transverse coupling 2bn > 0, count).  The cycle's cost structure is
#: fixed so that its latency quantiles do not depend on the seed: over a
#: run of three or more cycles the four 1000x1000 components maps hold
#: the tail percentile, so that large components save/load sets it, and
#: the six coupled tall maps hold the median.  b = 0 and seeded payloads
#: go to the small maps.
FIELD_CYCLE = (
    (1000, 1000, "components", True, 4),
    (2000, 64, "components", True, 2),
    (2000, 64, "density", True, 2),
    (8000, 16, "components", True, 1),
    (8000, 16, "density", True, 1),
    (256, 256, None, False, 2),
    (128, 128, None, False, 2),
    (64, 64, None, False, 1),
)
#: Added to the first cycle of a run only; it sets the peak memory.
#: Coupled, so that all four components are written (np.zeros pages
#: never written stay out of the resident set).
FIELD_ONCE = (2000, 2000, "components", True, 1)


class FieldWorkload(_Workload):
    """One channel per map: make_channel, assemble_field, continuity_residual,
    integrated_current, save_grid and load_grid."""

    name = "field"
    unit = "cells"
    #: numpy work slows less than interpreted Python under outside load
    probe_work = (20_000, 0, 0, 0.0022)

    def __init__(self, kb, seed, tmpdir):
        super().__init__(kb, seed, tmpdir)
        self.path = os.path.join(tmpdir, "map.bin")

    def cycle(self, first: bool = False) -> list[Op]:
        slots = FIELD_CYCLE + ((FIELD_ONCE,) if first else ())
        ops = [self._map(self.rng, ny, nz, what, coupled)
               for ny, nz, what, coupled, count in slots for _ in range(count)]
        order = self.rng.permutation(len(ops))
        return [ops[i] for i in order]

    def probe(self) -> Op:
        return self._map(self.probe_rng, 64, 64, "density", True)

    def _map(self, rng, ny, nz, what, coupled) -> Op:
        # trapezoid accuracy of the y integral limits the level index per row count
        n_cap = min(N_MAX_FIELD, ny // 4 - 2)
        while True:
            n, spin, b = _channel_label(rng, n_lo=1 if coupled else 0, n_hi=n_cap,
                                        b_zero=0.0 if coupled else 0.15)
            m = channel_mass(b, n)
            E = m * (1.0 + _log_uniform(rng, 1e-2, 5.0))
            target = int(rng.integers(0, 3))
            if target == 0:
                V0 = (E + m) * (1.0 + float(rng.uniform(0.05, 2.0)))
            elif target == 1:
                V0 = (E - m) * float(rng.uniform(0.0, 0.95))
            else:
                V0 = E - m + 2.0 * m * float(rng.uniform(0.01, 0.99))
            # the 4x4 conditioning degrades near the sliver; keep maps clear of it
            if abs(E + 1.0 - V0) >= 2e-3 * (1.0 + V0) and clear_of_edges(E, V0, m):
                break
        if what is None:
            what = "components" if rng.random() < 0.5 else "density"
        return Op("map", units=ny * nz, points=1, channel=(E, V0, b, spin, n),
                  shape=(ny, nz), what=what)

    def execute(self, op: Op):
        kb = self.kb
        E, V0, b, spin, n = op.channel
        ny, nz = op.shape
        length = b ** -0.5 if b > 0.0 else 1.0
        params = kb.make_channel(E, V0, b, spin, n)
        fld = kb.assemble_field(params, ny=ny, nz=nz,
                                y_halfwidth=(6.0 + math.sqrt(2.0 * n + 1.0)) * length)
        residual = kb.continuity_residual(fld)
        current = kb.integrated_current(fld)
        kb.save_grid(self.path, fld, what=op.what)
        info, data = kb.load_grid(self.path)
        return params, fld, residual, current, info, data

    def check(self, op: Op, result) -> None:
        kb = self.kb
        params, fld, residual, current, info, data = result
        if not residual <= CONTINUITY_TOL:
            raise GateFailure(f"continuity residual {residual:.3e}")
        # incident current from the incident wave alone, integrated here rather
        # than by integrated_current, so that a fault there cannot cancel out
        zero = kb.ScatterAmplitudes(R=0j, Rp=0j, T=0j, Tp=0j, regime=fld.amps.regime)
        v = kb.assemble_field(params, amps=zero, y=fld.y, z=np.array([-1.0])).values[:, :, 0]
        jz = 2.0 * np.real(np.conj(v[0]) * v[2]) - 2.0 * np.real(np.conj(v[1]) * v[3])
        j = current / np.trapezoid(jz, fld.y)
        bud = kb.current_budget(params)
        left = fld.z < 0.0
        dev = max(np.abs(j[left] - (1.0 - bud.refl_same - bud.refl_flip)).max(initial=0.0),
                  np.abs(j[~left] - (bud.trans_same + bud.trans_flip)).max(initial=0.0))
        if not dev <= CURRENT_TOL:
            raise GateFailure(f"integrated current off the budget by {dev:.3e}")
        saved = fld.values if op.what == "components" else fld.density()
        if (info["ny"], info["nz"]) != op.shape or data.dtype != saved.dtype \
                or data.shape != saved.shape \
                or not np.array_equal(data.view(np.int64), saved.view(np.int64)):
            raise GateFailure("load_grid did not return the saved array bit for bit")

    def corrupt(self, op: Op, result):
        data = result[5].copy()
        data.flat[0] += 1.0
        return result[:5] + (data,)

    def cleanup(self, op: Op) -> None:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(self.path)


# ---------------------------------------------------------------------------
# selftest


class SelftestWorkload(_Workload):
    """`kleinb selftest --points P --seed s_i` with s_i drawn from the workload seed."""

    name = "selftest"
    unit = "points"

    def cycle(self, first: bool = False) -> list[Op]:
        return [self._op(self.rng)]

    def probe(self) -> Op:
        return self._op(self.probe_rng)

    def _op(self, rng) -> Op:
        s = int(rng.integers(1, 2 ** 31 - 1))
        argv = ["selftest", "--points", str(SELFTEST_POINTS), "--seed", str(s)]
        return Op("selftest", units=SELFTEST_POINTS, points=SELFTEST_POINTS, argv=argv)

    def execute(self, op: Op):
        return self._main(op.argv)

    def check(self, op: Op, result) -> None:
        rc, text = result
        lines = text.splitlines()
        passed = sum(line.startswith("PASS") for line in lines)
        if rc != 0 or passed != SELFTEST_CHECKS or any(line.startswith("FAIL") for line in lines):
            raise GateFailure(f"selftest exit {rc}, {passed}/{SELFTEST_CHECKS} PASS lines")

    def corrupt(self, op: Op, result):
        rc, text = result
        return rc, text.replace("PASS", "FAIL", 1)


WORKLOADS = {w.name: w for w in (SweepWorkload, FieldWorkload, SelftestWorkload)}
