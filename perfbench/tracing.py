"""Span tracer for the traced benchmark run.

Wraps public kleinb functions in every module namespace they are bound
in, so calls between modules are recorded as well as the benchmark's own
calls.  Each call becomes one span (name, start, end, parent, operation
id, error flag) kept in compact in-memory arrays and written out once at
the end.  Per-layer counts and self times are derived from the spans.
No file of the package is modified: wrapping happens on the imported
module objects and is undone by ``uninstall``.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from array import array

import numpy as np

#: (module, attribute) pairs of the traced layers.  A dotted attribute
#: names a method.  Names missing from the package are skipped, so the
#: tracer keeps working when a later version removes or folds a function;
#: its metrics then read 0.
TRACED = (
    ("states", "make_channel"),
    ("states", "classify"),
    ("landau", "momentum_left"),
    ("landau", "momentum_right"),
    ("landau", "eval_oscillator"),
    ("scattering", "amplitudes"),
    ("scattering", "current_budget"),
    ("scattering", "kinematic_factor"),
    ("scattering", "solve_boundary_system"),
    ("scattering", "boundary_spinors"),
    ("wavefield", "assemble_field"),
    ("wavefield", "SpinorField.density"),
    ("wavefield", "boundary_values"),
    ("wavefield", "continuity_residual"),
    ("wavefield", "integrated_current"),
    ("wavefield", "save_grid"),
    ("wavefield", "load_grid"),
    ("cli", "main"),
    ("cli", "fmt"),
    ("selftest", "sample_grid"),
    ("selftest", "check_unitarity"),
    ("selftest", "check_oracle"),
    ("selftest", "check_field_free"),
    ("selftest", "check_lowest_state_noflip"),
    ("selftest", "check_flip_scaling"),
    ("selftest", "check_spin_symmetry"),
)

PACKAGE = "kleinb"
#: Root span of one benchmark operation; not a layer.
OP_SPAN = "bench.op"


def _oscillator_samples(args, kwargs, result):
    n = args[0] if args else kwargs["n"]
    xi = args[1] if len(args) > 1 else kwargs["xi"]
    return {"samples": int(np.size(xi)) * max(int(n), 0)}


def _field_cells(args, kwargs, result):
    # computed from the array size, not measured traffic
    return {"cells": int(result.values[0].size), "bytes_computed": int(result.values.nbytes)}


def _saved_bytes(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _loaded_bytes(args, kwargs, result):
    return {"bytes": int(result[1].nbytes)}


#: Extra per-layer quantities, accumulated from each call's arguments and result.
EXTRAS = {
    "landau.eval_oscillator": _oscillator_samples,
    "wavefield.assemble_field": _field_cells,
    "wavefield.save_grid": _saved_bytes,
    "wavefield.load_grid": _loaded_bytes,
}


class Tracer:
    """In-memory span recorder; ``active`` gates recording."""

    def __init__(self):
        self.names: list[str] = [OP_SPAN]
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.error = array("b")
        self.extras: dict[str, dict[str, int]] = {}
        self.stack = [-1]
        self.op_id = -1
        self.active = False
        self._patches: list[tuple[object, str, object]] = []
        self._error_types: tuple[type, ...] = (ValueError,)

    # -- recording ---------------------------------------------------------

    def _open(self, name_id: int) -> int:
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.error.append(0)
        self.end.append(0)
        self.start.append(time.perf_counter_ns())
        self.stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self.stack.pop()

    @contextlib.contextmanager
    def recording(self, op_id: int):
        """Record spans, under a root span for operation ``op_id``, while the block runs."""
        self.op_id = op_id
        self.active = True
        i = self._open(0)
        try:
            yield
        finally:
            self._close(i)
            self.active = False
            self.op_id = -1

    def _wrap(self, qualname: str, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        extra = EXTRAS.get(qualname)
        errors = self._error_types
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            i = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except errors:
                tracer.error[i] = 1
                raise
            finally:
                tracer._close(i)
            if extra is not None:
                acc = tracer.extras.setdefault(qualname, {})
                for key, value in extra(args, kwargs, result).items():
                    acc[key] = acc.get(key, 0) + value
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Replace each traced function wherever the package binds it."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        self._error_types = (getattr(sys.modules[PACKAGE], "KleinStepError", ValueError), ValueError)
        for mod_name, attr in TRACED:
            module = sys.modules.get(f"{PACKAGE}.{mod_name}")
            if module is None:
                continue
            owner_name, _, meth = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                fn = getattr(owner, "__dict__", {}).get(meth)
                if fn is None:
                    continue
                self._patch(owner, meth, fn, self._wrap(f"{mod_name}.{attr}", fn))
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            wrapper = self._wrap(f"{mod_name}.{attr}", fn)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._patch(m, key, fn, wrapper)

    def _patch(self, owner, key: str, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "error": np.frombuffer(self.error, dtype=np.int8).copy(),
        }

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_s (duration minus direct children) and errors."""
        s = self.spans()
        dur = (s["end_ns"] - s["start_ns"]).astype(np.float64)
        child = np.zeros_like(dur)
        has_parent = s["parent"] >= 0
        np.add.at(child, s["parent"][has_parent], dur[has_parent])
        self_ns = dur - child
        count = len(self.names)
        calls = np.bincount(s["name"], minlength=count)
        self_sum = np.bincount(s["name"], weights=self_ns, minlength=count)
        errors = np.bincount(s["name"], weights=s["error"], minlength=count)
        out = {}
        for i, name in enumerate(self.names):
            out[name] = {"calls": int(calls[i]), "self_s": float(self_sum[i]) * 1e-9,
                         "errors": int(errors[i])}
            out[name].update(self.extras.get(name, {}))
        return out

    def write(self, path) -> None:
        """Write all spans and the name table to one .npz file."""
        np.savez(path, names=np.array(self.names), **self.spans())
