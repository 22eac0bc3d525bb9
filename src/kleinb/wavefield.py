"""Assembled spinor fields on a (y, z) grid and boundary diagnostics.

The full wave is incident + two reflected pieces for z < 0 and two
transmitted pieces for z >= 0.  Component i of every piece carries the
transverse factor Phi_{n-1}, Phi_n, Phi_{n-1}, Phi_n for i = 1..4, with
the convention Phi_{-1} = 0, so the boundary conditions at z = 0 reduce
to component-wise matching of the coefficient 4-vectors.  Every piece
is thus a transverse factor of y times a plane wave in z, and a field
is kept as the (4, ny) transverse factors and a (4, nz) longitudinal
profile that sums each side's plane waves; the (4, ny, nz) grid, their
outer product, is built only when it is read.  Grid files store the
components as these factors too, and load_grid rebuilds the grid by
the same product.

The transmitted pieces are accumulated through the scaled amplitudes
tau = T/w (w the transmitted normalization prefactor), which keeps the
field finite and continuous also at E = V0, where T itself vanishes
while its normalization diverges.
"""

from __future__ import annotations

import functools
import math
import os
import struct
import threading
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import GridTooLarge
from .landau import _oscillator_pair, momentum_left
from .scattering import ScatterAmplitudes, _read_only, amplitudes, point_kinematics, spinor_table
from .states import ChannelParams

#: Resource guard: ny * nz may not exceed this.
MAX_GRID_POINTS = 4_000_000

_MAGIC = b"KLBFIELD"
GRID_VERSION = 1
_HEADER = struct.Struct("<8sII II ddddd")  # magic, version, kind, ny, nz, dy, dz, y0, ystart, zstart
GRID_KIND_DENSITY = 0
#: Components as the (4, ny, nz) grid; written before GRID_KIND_FACTORS, still read.
GRID_KIND_COMPONENTS = 1
GRID_KIND_FACTORS = 2


#: Output, in bytes, of one block of _outer, and the least output per
#: thread.  On a 2-CPU host the 128 x 128 components (1 MiB) took 110 us
#: in two pooled blocks against 86 us inline, and the 181 x 181 (2 MiB)
#: 119 us against 187 us.
_BLOCK_BYTES = 1 << 20

_pool = None
_pool_lock = threading.Lock()


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _executor():
    """The thread pool of _outer, created on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(max_workers=os.cpu_count() or 1,
                                       thread_name_prefix="kleinb-outer")
        return _pool


def _drop_pool() -> None:
    # a forked child inherits the pool but none of its threads: work
    # queued there would never run, so the child starts a pool of its own
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # no fork, and no such call, on Windows
    os.register_at_fork(after_in_child=_drop_pool)


def _outer(trans: np.ndarray, profile: np.ndarray) -> np.ndarray:
    """The (4, ny, nz) components trans x profile, with the bits of
    trans[:, :, None] * profile[:, None, :]: SpinorField.values and a
    loaded factors payload are this one product.

    The output is filled in row blocks of its (4 * ny, nz) view, about
    _BLOCK_BYTES each, by one multiply per component a block spans.
    numpy releases the GIL for them, so up to one thread per CPU fills
    blocks, each thread with at least _BLOCK_BYTES of output; a product
    under 2 MiB (181 x 181), or on one CPU, runs inline.  Otherwise the
    caller and the workers of a pool, created on first use, each take
    blocks off the front of a stretch of their own, then off the back
    of the longest stretch left.  When no block is left, the caller
    cancels the workers not yet started and waits only for workers
    already running.  An exception stops further claims; the caller's
    own is raised first, else the first worker's.
    """
    ny, nz = trans.shape[1], profile.shape[1]
    out = np.empty((4, ny, nz), dtype=np.result_type(trans, profile))
    rows = 4 * ny

    def fill(lo: int, hi: int) -> None:
        for c in range(4):
            a, b = max(lo - c * ny, 0), min(hi - c * ny, ny)
            if a < b:
                np.multiply(trans[c, a:b, None], profile[c], out=out[c, a:b])

    threads = min(_cpu_count(), out.nbytes // _BLOCK_BYTES)
    if threads < 2:
        fill(0, rows)
        return out
    step = max(1, _BLOCK_BYTES // (nz * out.itemsize))  # rows per block
    count = -(-rows // step)
    threads = min(threads, count)
    # threads share pages only where two stretches meet; a deque pop is
    # atomic, so each block is claimed once
    stretches = [deque(range(count * t // threads, count * (t + 1) // threads)) for t in range(threads)]

    def work(own: deque) -> None:
        try:
            while any(stretches):
                try:
                    i = own.popleft() if own else max(stretches, key=len).pop()
                except IndexError:  # emptied by another thread since looked at
                    continue
                fill(i * step, min(rows, (i + 1) * step))
        except BaseException:
            for s in stretches:  # no block is claimed after a failure
                s.clear()
            raise

    pool = _executor()
    workers = [pool.submit(work, own) for own in stretches[1:]]
    try:
        work(stretches[0])
    finally:
        errors = [w.exception() for w in workers if not w.cancel()]
    for error in filter(None, errors):
        raise error
    return out


@dataclass(frozen=True)
class SpinorField:
    """Four complex components on a rectangular (y, z) grid, kept as factors.

    y, z are the sample coordinates in Compton units; y0 is the guiding
    center of the transverse functions.  Every wave piece is a
    transverse function of y times a plane wave in z, so the field is
    stored as the real (4, ny) transverse factors ``trans`` =
    (Phi_{n-1}, Phi_n, Phi_{n-1}, Phi_n) and the complex (4, nz)
    longitudinal profile ``profile``; ``ends`` holds, per component, the
    profile's one-sided limits at z -> 0- and z -> 0+ (shape (4, 2)).
    The (4, ny, nz) grid ``values`` = trans x profile is built the first
    time it is read and then kept.  The field is immutable: it holds
    read-only views of the arrays it is given, and the kept grid is
    read-only, so the kept grid always matches the factors.  density,
    integrated_current, boundary_values and save_grid work on the
    factors and never build it; load_grid rebuilds it from saved factors
    by the same product.
    """

    y: np.ndarray
    z: np.ndarray
    trans: np.ndarray
    profile: np.ndarray
    ends: np.ndarray
    y0: float
    params: ChannelParams
    amps: ScatterAmplitudes

    def __post_init__(self):
        for name in ("y", "z", "trans", "profile", "ends"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))

    @functools.cached_property
    def values(self) -> np.ndarray:
        """The complex components, shape (4, ny, nz), built on first read
        by _outer: in row blocks across the CPUs, with the bits of the
        single-threaded product."""
        values = _outer(self.trans, self.profile)
        values.flags.writeable = False
        return values

    def density(self) -> np.ndarray:
        """Probability density sum_i |psi_i|^2, shape (ny, nz).

        Components 0, 2 share Phi_{n-1} and 1, 3 share Phi_n, so the
        density is Phi_{n-1}^2 x (|p_0|^2 + |p_2|^2) + Phi_n^2 x
        (|p_1|^2 + |p_3|^2): one (ny, 2) @ (2, nz) product, which
        allocates the output and no complex grid or (ny, nz) temporary.
        """
        p2 = self.profile.real ** 2 + self.profile.imag ** 2
        lo, hi = self.trans[0], self.trans[1]
        return np.stack((lo * lo, hi * hi), axis=1) @ np.stack((p2[0] + p2[2], p2[1] + p2[3]))


def _pieces(params: ChannelParams, amps: ScatterAmplitudes):
    """Wave pieces as (coefficient 4-vector, k_z, side) with side -1/+1.

    Coefficient vectors are the columns of scattering.spinor_table times
    the left normalization 1/sqrt(2*eps*E); the transmitted ones are
    rescaled by tau = T/w so both sides share the left normalization.
    """
    k = point_kinematics(params)
    table = spinor_table(k)[0].T
    cp, cq = float(k.cp[0]), complex(k.cq[0])
    nl, w = float(k.nl[0]), float(k.w[0])
    if w > 0.0:
        tau, tau_p = amps.T / w, amps.Tp / w
    else:
        # degenerate normalization at E = V0: continue the transmitted
        # coefficients through the first two boundary conditions
        ratio = float(k.eps[0]) / float(k.eps_bar[0])
        tau, tau_p = ratio * (1.0 + amps.R), ratio * amps.Rp
    return [
        (nl * table[0], complex(cp), -1),
        (amps.R * nl * table[1], complex(-cp), -1),
        (amps.Rp * nl * table[2], complex(-cp), -1),
        (tau * nl * table[3], cq, +1),
        (tau_p * nl * table[4], cq, +1),
    ]


def _transverse(params: ChannelParams, y: np.ndarray, y0: float) -> np.ndarray:
    """Transverse factors (Phi_{n-1}, Phi_n, Phi_{n-1}, Phi_n) over y, shape (4, ny).

    Constant 1 at b = 0 (0 for Phi_{-1}).
    """
    n = params.n
    if params.field.b == 0.0:
        ones = np.ones_like(y)
        lo, hi = (np.zeros_like(y) if n - 1 < 0 else ones), ones
    else:
        xi = (y - y0) / params.field.magnetic_length
        lo, hi = _oscillator_pair(n, xi)
    return np.stack((lo, hi, lo, hi))


def _profile(params: ChannelParams, amps: ScatterAmplitudes,
             z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Longitudinal profile, shape (4, z.size), and its one-sided limits
    at z = 0, shape (4, 2).

    Per component, the sum over the pieces of coeff * exp(i k_z z), with
    the left pieces for z < 0 and the transmitted pieces for z >= 0; the
    limits are the sums of the left and of the transmitted coefficients.
    """
    left = z < 0.0
    profile = np.zeros((4, z.size), dtype=complex)
    ends = np.zeros((4, 2), dtype=complex)
    for coeff, kz, side in _pieces(params, amps):
        mask = left if side < 0 else ~left
        profile[:, mask] += coeff[:, None] * np.exp(1j * kz * z[mask])
        ends[:, int(side > 0)] += coeff
    return profile, ends


def _count(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def _axis(name: str, values) -> np.ndarray:
    axis = np.array(values, dtype=float)  # a copy: the field's is read-only, the caller's not
    if axis.ndim != 1 or axis.size == 0 or not np.all(np.isfinite(axis)):
        raise ValueError(f"{name} must be a finite non-empty 1-D array")
    return axis


def _span(name: str, count: int, center: float, half: float) -> np.ndarray:
    """count points over center +- half, checked as an explicit axis."""
    if not (math.isfinite(half) and half > 0.0):
        raise ValueError(f"{name} halfwidth must be finite and > 0, got {half}")
    with np.errstate(over="ignore", invalid="ignore"):
        return _axis(name, np.linspace(center - half, center + half, count))


def assemble_field(
    params: ChannelParams,
    amps: ScatterAmplitudes | None = None,
    y: np.ndarray | None = None,
    z: np.ndarray | None = None,
    ny: int = 512,
    nz: int = 512,
    k_x: float = 0.0,
    y_halfwidth: float | None = None,
    z_halfwidth: float | None = None,
) -> SpinorField:
    """Evaluate the full four-component wave on a (y, z) grid.

    Defaults: y spans y0 +- (sqrt(2n + 1) + 6) L, six magnetic lengths
    past the classical turning point sqrt(2n + 1) L of the level pair
    (L = 1 Compton length at b = 0), so that the transverse integrals of
    integrated_current are not truncated; z spans +- 10 de Broglie
    wavelengths of the incident wave; 512 x 512 points.
    Explicit y, z arrays override the spans and the counts; the field
    keeps copies of them.  The guiding center is y0 = k_x L^2 (0 at
    b = 0).  Only the (4, ny) transverse factors and the (4, nz)
    longitudinal profile are computed; the field's values, their outer
    product, are built when first read.
    Raises ValueError for a y or z that is not a
    finite non-empty 1-D array, given or spanned from a halfwidth, for a
    halfwidth that is not finite and > 0, for a z grid on which the
    plane waves exp(i k_z z) leave the float range, for an ny or nz that
    is not an integer >= 1 and for a non-finite k_x L^2 (at every b),
    and GridTooLarge beyond the MAX_GRID_POINTS guard.
    """
    if amps is None:
        amps = amplitudes(params)
    b = params.field.b
    length = params.field.magnetic_length if b > 0.0 else 1.0
    if not math.isfinite(k_x * length * length):
        raise ValueError(f"guiding center k_x L^2 must be finite, got k_x = {k_x}")
    y0 = k_x * length * length if b > 0.0 else 0.0
    ny, nz = _count("ny", ny), _count("nz", nz)
    if y is not None:
        y = _axis("y", y)
        ny = y.size
    if z is not None:
        z = _axis("z", z)
        nz = z.size
    if ny * nz > MAX_GRID_POINTS:
        raise GridTooLarge(f"grid of {ny} x {nz} points exceeds guard of {MAX_GRID_POINTS}")
    if y is None:
        y = _span("y", ny, y0, y_halfwidth if y_halfwidth is not None else (
            math.sqrt(2.0 * params.n + 1.0) + 6.0) * length)
    if z is None:
        z = _span("z", nz, 0.0, z_halfwidth if z_halfwidth is not None else (
            10.0 * (2.0 * math.pi / momentum_left(params))))
    with np.errstate(over="ignore", invalid="ignore"):
        profile, ends = _profile(params, amps, z)
    if not np.all(np.isfinite(profile)):
        raise ValueError(f"longitudinal profile is not finite on the z grid: k_z z leaves "
                         f"the float range (|z| up to {np.abs(z).max():.17g})")
    return SpinorField(y=y, z=z, trans=_transverse(params, y, y0), profile=profile,
                       ends=ends, y0=y0, params=params, amps=amps)


def boundary_values(field: SpinorField) -> tuple[np.ndarray, np.ndarray]:
    """One-sided limits psi(z -> 0-) and psi(z -> 0+) over the y grid.

    The profile's left and right limits at z = 0 times the transverse
    factors, shape (4, ny) each.
    """
    return field.trans * field.ends[:, :1], field.trans * field.ends[:, 1:]


def continuity_residual(field: SpinorField) -> float:
    """Mismatch of the wave across z = 0, relative to the field scale.

    max over the y grid and the four components of
    |psi(0-) - psi(0+)|, divided by the largest boundary amplitude.
    Amplitudes that solve the boundary conditions give residuals at the
    rounding level; a perturbation of 1e-3 in any amplitude lifts the
    residual above 1e-4.
    """
    lo, hi = boundary_values(field)
    scale = max(np.abs(lo).max(), np.abs(hi).max())
    if scale == 0.0:
        return 0.0
    return float(np.abs(lo - hi).max() / scale)


def integrated_current(field: SpinorField) -> np.ndarray:
    """Longitudinal current integrated over y, one value per z sample.

    j_z(y, z) = 2 Re(psi_1* psi_3) - 2 Re(psi_2* psi_4) integrated by
    the trapezoid rule over the y grid.  With psi_i = Phi_i(y) p_i(z)
    that is 2 Re(p_1* p_3) int Phi_{n-1}^2 dy - 2 Re(p_2* p_4) int
    Phi_n^2 dy: O(ny + nz) work.  Conserved: z-independent on each side
    of the step, equal to the incident current times (1 - refl_same -
    refl_flip) on the left and (trans_same + trans_flip) on the right.
    """
    p, lo, hi = field.profile, field.trans[0], field.trans[1]
    return (2.0 * np.real(np.conj(p[0]) * p[2]) * np.trapezoid(lo * lo, field.y)
            - 2.0 * np.real(np.conj(p[1]) * p[3]) * np.trapezoid(hi * hi, field.y))


#: Largest deviation of a grid step from the mean step, relative to it,
#: that save_grid accepts as uniform: np.linspace grids deviate by a few
#: ulps of max|axis|.
UNIFORM_SPACING_RTOL = 1e-6


def _spacing(name: str, axis: np.ndarray) -> float:
    """Uniform step of a grid axis (0 for a single point); ValueError otherwise."""
    if axis.size == 1:
        return 0.0
    step = float(axis[-1] - axis[0]) / (axis.size - 1)
    if step == 0.0 or np.abs(np.diff(axis) - step).max() > UNIFORM_SPACING_RTOL * abs(step):
        raise ValueError(f"{name} grid is not uniformly spaced: the header cannot describe it")
    return step


def save_grid(path, field: SpinorField, what: str = "density") -> tuple[np.ndarray, ...]:
    """Write the field's density or components in the binary grid format,
    and return the payload arrays written, in file order.

    Layout: a 64-byte little-endian header (magic "KLBFIELD", format
    version, payload kind, ny, nz, dy, dz, y0, y_start, z_start)
    followed by the payload in C order: ny*nz float64 densities
    (GRID_KIND_DENSITY), or the components as their factors
    (GRID_KIND_FACTORS), the (4, ny) float64 trans and then the (4, nz)
    complex128 profile: 32*ny + 64*nz bytes, no complex grid built.
    Requires a uniformly spaced grid with a nonzero step (ValueError
    otherwise, before the file is opened); dy and dz are the mean steps.
    """
    if what == "density":
        kind, payload = GRID_KIND_DENSITY, (field.density(),)
    elif what == "components":
        kind, payload = GRID_KIND_FACTORS, (field.trans, field.profile)
    else:
        raise ValueError(f"unknown grid payload {what!r}")
    dy, dz = _spacing("y", field.y), _spacing("z", field.z)
    header = _HEADER.pack(
        _MAGIC, GRID_VERSION, kind, field.y.size, field.z.size,
        dy, dz, field.y0, float(field.y[0]), float(field.z[0]),
    )
    assert len(header) == 64
    with open(path, "wb") as fh:
        fh.write(header)
        for array in payload:
            array.tofile(fh)
    return payload


#: Per payload kind: the arrays stored, as (dtype, shape) for an ny x nz
#: grid in file order, and the function that builds load_grid's array from them.
_PAYLOADS = {
    GRID_KIND_DENSITY: (lambda ny, nz: [(np.float64, (ny, nz))], lambda d: d),
    GRID_KIND_COMPONENTS: (lambda ny, nz: [(np.complex128, (4, ny, nz))], lambda c: c),
    GRID_KIND_FACTORS: (lambda ny, nz: [(np.float64, (4, ny)), (np.complex128, (4, nz))], _outer),
}


def load_grid(path):
    """Read a file written by save_grid.

    Returns (info, array) where info is a dict of the header fields and
    array has shape (ny, nz) for a density payload or (4, ny, nz)
    complex128 for a components payload: a factors payload is rebuilt
    by _outer, the product behind SpinorField.values, bit for bit equal
    to it, and a (4, ny, nz) grid payload (GRID_KIND_COMPONENTS) is read
    as stored.  Raises ValueError for a bad magic, a format version
    other than GRID_VERSION, an unknown payload kind, or a payload
    whose length does not match the header (checked against the file
    size before the payload is read), and GridTooLarge for a factors
    payload whose ny * nz exceeds MAX_GRID_POINTS.
    """
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError(f"not a kleinb grid file: {len(header)}-byte header")
        magic, version, kind, ny, nz, dy, dz, y0, ystart, zstart = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise ValueError(f"not a kleinb grid file: bad magic {magic!r}")
        if version != GRID_VERSION:
            raise ValueError(f"unsupported grid format version {version} (expected {GRID_VERSION})")
        if kind not in _PAYLOADS:
            raise ValueError(f"unknown payload kind {kind}")
        parts, build = _PAYLOADS[kind]
        parts = parts(ny, nz)
        need = sum(np.dtype(dtype).itemsize * math.prod(shape) for dtype, shape in parts)
        length = os.fstat(fh.fileno()).st_size - _HEADER.size
        if length != need:
            raise ValueError(f"grid payload has {length} bytes, header {ny} x {nz} needs {need}")
        # a factors payload is small whatever the grid it describes
        if kind == GRID_KIND_FACTORS and ny * nz > MAX_GRID_POINTS:
            raise GridTooLarge(f"grid of {ny} x {nz} points exceeds guard of {MAX_GRID_POINTS}")
        arrays = []
        for dtype, shape in parts:
            data = np.fromfile(fh, dtype=dtype, count=math.prod(shape))
            if data.size != math.prod(shape):
                raise ValueError(f"grid payload ended after {data.size} of {math.prod(shape)} values")
            arrays.append(data.reshape(shape))
    info = {
        "version": version, "kind": kind, "ny": ny, "nz": nz,
        "dy": dy, "dz": dz, "y0": y0, "y_start": ystart, "z_start": zstart,
    }
    return info, build(*arrays)
