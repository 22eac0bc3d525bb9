"""kleinb benchmark: one workload run, closed loop, one client, one process.

Run from the root of a kleinb source tree (the package is imported from
``./src``, nothing needs installing):

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each exists):

    sweep     ``kleinb sweep --values ... --output <tmp>`` along E, V0, b, n,
              plus one ``kleinb regime-map`` in every five operations;
              unit = output rows
    field     one channel per map through make_channel, assemble_field,
              continuity_residual, integrated_current, save_grid and
              load_grid; unit = grid cells
    selftest  ``kleinb selftest --points 1000 --seed s_i``; unit = points

Each operation is timed alone; the correctness gate runs after it,
untimed, and an operation that raises an unexpected exception or fails
the gate counts as failed.  Before timing, one small operation is run,
deliberately corrupted and re-checked: the gate must fire on it, or the
run is reported incorrect.

``--trace 0`` prints the end-to-end metrics: setup_s (median wall time
of fresh interpreters running ``import kleinb``), throughput (units per
second of operation time), op_p50_ms (median latency) and op_tail_ms
(the highest percentile with at least 10 operations beyond it), the last
three over every passed operation of the run, all four scaled to a
reference host speed as described in ``summarize``; then peak_rss_mb
(getrusage of this process) and pass_ratio (1 - failed/attempted).  The
time figures as measured are in the ``# meta`` line.

``--trace 1`` runs the first half of the time untraced and the second
half with every public kleinb function wrapped in a span, and prints the
per-layer metrics: ``<module>.<function>.<quantity>`` totals over the
traced half, where self_s is span time minus child spans and
calls_per_point divides calls by the channel points handed to the
program (sweep rows, selftest points, one per field map).  The spans are
written to ``.perfbench/trace-<workload>.npz``.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it, starting
with ``#``, give the run metadata and the metrics in readable form.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import namedtuple
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: Fresh interpreters started per run for setup_s (import.kleinb_s when
#: traced); the median is reported.
SETUP_STARTS = 11
TRACE_SETUP_STARTS = 3
SETUP_CODE = "import time; t = time.perf_counter(); import kleinb; print(time.perf_counter() - t)"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Operations that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10
#: Bytes the host-speed probe copies, twice (past L2).
PROBE_BYTES = 4 * 1024 ** 2


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cache_bytes(level: int) -> int:
    """Per-core cache size of the given level, from sysfs (0 if unknown)."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            if int((index / "level").read_text()) != level:
                continue
            if (index / "type").read_text().strip() == "Instruction":
                continue
            text = (index / "size").read_text().strip()
        except OSError:
            continue
        scale = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}.get(text[-1:], 1)
        return int(text.rstrip("KMG")) * scale
    return 0


def git_sha(root: Path) -> str:
    """HEAD of the tree under test, with "+dirty" when tracked files differ from it."""
    # git must not find a repository above the tree when the tree is not one
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.resolve().parent))
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True,
                              text=True, timeout=30, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=root,
                               env=env, capture_output=True, text=True, timeout=30,
                               check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"
    return head + ("+dirty" if dirty else "")


class SetupSampler:
    """Fresh interpreters running ``import kleinb``, started between cycles.

    Spreading the starts over the run lets them see the same host load as
    the operations; the first start only warms the file cache.  Like the
    operations' latencies, each time is divided by the host's slowdown
    around it (``slowdown()``, see Runner.slowdown).
    """

    def __init__(self, starts: int, seconds: float, slowdown):
        self.starts = starts
        self.interval = seconds / starts
        self.slowdown = slowdown
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.walls: list[float] = []
        self.imports: list[float] = []
        self.measured: list[float] = []
        self._start()

    def _start(self) -> tuple[float, float]:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=self.env,
                              capture_output=True, text=True, timeout=120, check=True)
        return time.perf_counter() - t0, float(proc.stdout)

    def sample(self) -> None:
        before = self.slowdown()
        wall, inner = self._start()
        slowdown = (before + self.slowdown()) / 2.0
        self.walls.append(wall / slowdown)
        self.imports.append(inner / slowdown)
        self.measured.append(wall)

    def between_cycles(self, elapsed: float) -> None:
        if len(self.walls) < self.starts and elapsed >= len(self.walls) * self.interval:
            self.sample()

    def medians(self) -> tuple[float, float, float]:
        """Median wall and import times, scaled, and the median wall time as measured."""
        while len(self.walls) < self.starts:
            self.sample()
        return (statistics.median(self.walls), statistics.median(self.imports),
                statistics.median(self.measured))


class SpeedProbe:
    """A fixed piece of work, timed between operations.

    It calls nothing of kleinb, so its time tells how fast the host runs at
    that moment and not how fast the program is.  Its parts, set per
    workload by ``probe_work`` (see workloads.py), resemble the workload:
    a scalar loop, complex arithmetic with number formatting, 4x4 complex
    solves, and array copies larger than L2.
    """

    def __init__(self, loop: int, complex_loop: int, solves: int):
        import numpy as np

        self.loop, self.complex_loop, self.solves = loop, complex_loop, solves

        self.np = np
        self.src = np.ones(PROBE_BYTES // 8)
        self.dst = np.empty_like(self.src)
        self.matrix = np.eye(4, dtype=complex) + 0.1
        self.rhs = np.ones(4, dtype=complex)

    def __call__(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        acc = 0
        for i in range(self.loop):
            acc += i * i
        text = {}
        for i in range(self.complex_loop):
            z = cmath.sqrt(complex(i, 1.0)) * cmath.exp(1j * i)
            text[i & 255] = "%.17g,%.17g" % (z.real, z.imag)
        for _ in range(self.solves):
            np.linalg.solve(self.matrix, self.rhs)
        np.copyto(self.dst, self.src)
        np.copyto(self.src, self.dst)
        return time.perf_counter() - t0


class NoResult(Exception):
    """The run has nothing to measure."""


#: What is kept of a passed operation: its latency, its size and the host's
#: slowdown around it (mean probe time before and after, over the
#: workload's reference probe time), not its inputs.
Done = namedtuple("Done", "latency units points shape what slowdown")


class Runner:
    """Closed loop over whole cycles of a workload's operations."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}
        self.op_id = 0
        *work, self.probe_ref_s = workload.probe_work
        self.probe = SpeedProbe(*work)

    def run(self, seconds: float, traced: bool = False, between=None) -> list[Done]:
        """Run whole cycles until ``seconds`` have passed; returns the passed operations.

        ``between(elapsed_s)`` is called after each cycle, outside the timed operations.
        """
        done = []
        start = time.perf_counter()
        first = True
        before = self.slowdown()
        while True:
            for op in self.workload.cycle(first=first):
                latency = self._one(op, traced)
                after = self.slowdown()
                if latency is not None:
                    done.append(Done(latency, op.units, op.points, op.shape, op.what,
                                     (before + after) / 2.0))
                before = after
            first = False
            elapsed = time.perf_counter() - start
            if elapsed >= seconds:
                return done
            if between is not None:
                between(elapsed)

    def slowdown(self) -> float:
        """The host's current slowdown: probe time over the reference probe time."""
        return self.probe() / self.probe_ref_s

    def _one(self, op, traced: bool):
        """Time one operation, then gate it; returns its latency or None if it failed."""
        self.attempted += 1
        self.op_id += 1
        try:
            with self.tracer.recording(self.op_id) if traced else contextlib.nullcontext():
                t0 = time.perf_counter()
                result = self.workload.execute(op)
                latency = time.perf_counter() - t0
            self.workload.check(op, result)
            return latency
        except Exception as exc:  # any failure counts against the run
            self.failed += 1
            key = f"{type(exc).__name__}: {exc}"[:160]
            self.failures[key] = self.failures.get(key, 0) + 1
            return None
        finally:
            self.workload.cleanup(op)

    def gate_fires(self) -> bool:
        """Run one probe operation, corrupt its output and confirm the gate rejects it."""
        from workloads import GateFailure

        op = self.workload.probe()
        try:
            result = self.workload.execute(op)
            self.workload.check(op, result)          # the clean output passes ...
            try:
                self.workload.check(op, self.workload.corrupt(op, result))
            except GateFailure:
                return True                           # ... and the corrupted one does not
            return False
        except Exception:
            return False
        finally:
            self.workload.cleanup(op)


def summarize(done: list[Done]) -> dict:
    """Throughput and latency quantiles over every passed operation of a run.

    The host's speed drifts by up to 1.8x within seconds and from run to
    run, with load from outside this process.  Each latency is therefore
    divided by the host's slowdown measured by the probe around it, which
    gives the latency at the reference speed; throughput, op_p50_ms and
    op_tail_ms are taken over these.  The figures as measured are returned
    under "measured_" names.
    """
    if not done:
        raise NoResult("no operation passed the gate")
    units = sum(d.units for d in done)
    beyond = min(TAIL_BEYOND, len(done) - 1)
    figures = {
        "ops": len(done),
        "units": units,
        "tail_percentile": 100.0 * (len(done) - beyond) / len(done),
        "slowdown_median": statistics.median(d.slowdown for d in done),
    }
    for prefix, lat in (("", [d.latency / d.slowdown for d in done]),
                        ("measured_", [d.latency for d in done])):
        lat.sort()
        figures.update({
            prefix + "throughput": units / sum(lat),
            prefix + "op_p50_ms": statistics.median(lat) * 1e3,
            prefix + "op_tail_ms": lat[-1 - beyond] * 1e3,
        })
    return figures


def layer_lookup(tracer, runner, traced_ops, import_s, overhead):
    """Value of a per-layer metric by name, from the traced half's spans."""
    totals = tracer.layer_totals()
    points = sum(d.points for d in traced_ops) or 1
    values = {
        "import.kleinb_s": import_s,
        "scattering.sum_residual_near_edge_max": runner.workload.edge_residual_max,
        "bench.trace_overhead_ratio": overhead,
    }

    def lookup(name: str) -> float:
        if name in values:
            return values[name]
        span, _, quantity = name.rpartition(".")
        entry = totals.get(span, {})
        if quantity == "calls_per_point":
            return entry.get("calls", 0) / points
        return entry.get(quantity, 0)

    return lookup


def metadata_record(args, blas_threads: int, done) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    l2, l3 = cache_bytes(2), cache_bytes(3)
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "loop": "closed, 1 client, no think time, 1 process",
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_cap": blas_threads,
        "nproc": nproc(),
        "l2_bytes_per_core": l2,
        "l3_bytes": l3,
    }
    if args.workload == "field":
        # bytes of the (4, ny, nz) complex128 array each map computes, from its size
        meta["field_ops"] = [
            [*d.shape, d.what, 64 * d.units, round(64 * d.units / l2, 4) if l2 else None]
            for d in done
        ]
    return meta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "field", "selftest"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not (SRC / "kleinb" / "__init__.py").is_file():
        print(f"error: no kleinb source tree under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())

    # BLAS threads are capped at the core count before numpy loads
    blas_threads = nproc()
    for key in BLAS_ENV:
        os.environ[key] = str(blas_threads)
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import kleinb
    import kleinb.cli
    from tracing import Tracer
    from workloads import WORKLOADS

    if Path(kleinb.__file__).resolve().parent != (SRC / "kleinb").resolve():
        print(f"error: kleinb imported from {kleinb.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    tmpdir = OUT / f"tmp-{os.getpid()}"
    tmpdir.mkdir()
    try:
        workload = WORKLOADS[args.workload](kleinb, args.seed, str(tmpdir))
        tracer = Tracer() if args.trace else None
        runner = Runner(workload, tracer)
        gate_ok = runner.gate_fires()   # also warms up lazy imports and caches
        starts = SETUP_STARTS if not args.trace else TRACE_SETUP_STARTS
        setup = SetupSampler(starts, args.seconds if not args.trace else args.seconds / 2,
                             runner.slowdown)
        if not args.trace:
            done = runner.run(args.seconds, between=setup.between_cycles)
            setup_s, _, measured_setup_s = setup.medians()
            stats = dict(summarize(done), measured_setup_s=measured_setup_s)
            values = dict(stats, setup_s=setup_s,
                          peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                          pass_ratio=(runner.attempted - runner.failed) / runner.attempted)
            lookup = values.__getitem__
            names = spec["end_to_end"]
        else:
            done = runner.run(args.seconds / 2, between=setup.between_cycles)
            _, import_s, _ = setup.medians()
            tracer.install()
            try:
                traced = runner.run(args.seconds / 2, traced=True)
            finally:
                tracer.uninstall()
            stats = summarize(done)
            overhead = summarize(traced)["throughput"] / stats["throughput"]
            tracer.write(OUT / f"trace-{args.workload}.npz")
            lookup = layer_lookup(tracer, runner, traced, import_s, overhead)
            names = spec["per_layer"]
        metrics = {m["name"]: {"value": float(lookup(m["name"])), "unit": m["unit"]} for m in names}
        values_printed = set(metrics)
        meta = metadata_record(args, blas_threads, done)
        meta.update({k: v for k, v in stats.items() if k not in values_printed})
        meta.update(gate_fires=gate_ok, unit=workload.unit, setup_starts=starts,
                    fail_ratio=f"{runner.failed}/{runner.attempted}", failures=runner.failures,
                    near_edge_sum_residual_max=workload.edge_residual_max)
    except NoResult as exc:
        print(f"error: {exc}; failures: {runner.failures}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    print("# meta " + json.dumps(meta, sort_keys=True))
    for name, m in metrics.items():
        print(f"# {name:48s} {m['value']:.6g} {m['unit']}")
    print(f"# fail_ratio {runner.failed}/{runner.attempted} = {runner.failed / runner.attempted:.6g}; "
          f"op_tail_ms = p{stats['tail_percentile']:.1f} of {stats['ops']} operations; "
          f"gate probe: 1 deliberately corrupted output, fail_ratio {int(gate_ok)}/1")
    print(json.dumps({
        "correct": runner.failed == 0 and gate_ok,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
