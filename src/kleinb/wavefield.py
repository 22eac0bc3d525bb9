"""Assembled spinor fields on a (y, z) grid and boundary diagnostics.

The full wave is incident + two reflected pieces for z < 0 and two
transmitted pieces for z >= 0.  Component i of every piece carries the
transverse factor Phi_{n-1}, Phi_n, Phi_{n-1}, Phi_n for i = 1..4, with
the convention Phi_{-1} = 0, so the boundary conditions at z = 0 reduce
to component-wise matching of the coefficient 4-vectors.  Every piece
is thus a transverse factor of y times a plane wave in z, and the grid
is assembled as the outer product of the (4, ny) transverse factors and
a (4, nz) longitudinal profile that sums each side's plane waves.

The transmitted pieces are accumulated through the scaled amplitudes
tau = T/w (w the transmitted normalization prefactor), which keeps the
field finite and continuous also at E = V0, where T itself vanishes
while its normalization diverges.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import GridTooLarge
from .landau import eval_oscillator, momentum_left
from .scattering import ScatterAmplitudes, amplitudes, point_kinematics, spinor_table
from .states import ChannelParams

#: Resource guard: ny * nz may not exceed this.
MAX_GRID_POINTS = 4_000_000

_MAGIC = b"KLBFIELD"
GRID_VERSION = 1
_HEADER = struct.Struct("<8sII II ddddd")  # magic, version, kind, ny, nz, dy, dz, y0, ystart, zstart
GRID_KIND_DENSITY = 0
GRID_KIND_COMPONENTS = 1


@dataclass
class SpinorField:
    """Four complex components sampled on a rectangular (y, z) grid.

    values has shape (4, ny, nz); y, z are the sample coordinates in
    Compton units; y0 is the guiding center of the transverse functions.
    """

    y: np.ndarray
    z: np.ndarray
    values: np.ndarray
    y0: float
    params: ChannelParams
    amps: ScatterAmplitudes

    def density(self) -> np.ndarray:
        """Probability density sum_i |psi_i|^2, shape (ny, nz).

        Sums re^2 and then im^2 over the components straight into (ny, nz)
        arrays, so the only temporary is the second sum.
        """
        re, im = self.values.real, self.values.imag
        out = np.einsum("cyz,cyz->yz", re, re)
        out += np.einsum("cyz,cyz->yz", im, im)
        return out


def _pieces(params: ChannelParams, amps: ScatterAmplitudes):
    """Wave pieces as (coefficient 4-vector, k_z, side) with side -1/+1.

    Coefficient vectors are the rows of scattering.spinor_table times
    the left normalization 1/sqrt(2*eps*E); the transmitted ones are
    rescaled by tau = T/w so both sides share the left normalization.
    """
    k = point_kinematics(params)
    table = spinor_table(k)[0]
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
        lo, hi = eval_oscillator(n - 1, xi), eval_oscillator(n, xi)
    return np.stack((lo, hi, lo, hi))


def _profile(params: ChannelParams, amps: ScatterAmplitudes,
             z: np.ndarray, left: np.ndarray) -> np.ndarray:
    """Longitudinal profile, shape (4, z.size).

    Per component, the sum over the pieces of coeff * exp(i k_z z), where
    a sample takes the left pieces if ``left`` is set for it and the
    transmitted pieces otherwise.
    """
    profile = np.zeros((4, z.size), dtype=complex)
    for coeff, kz, side in _pieces(params, amps):
        mask = left if side < 0 else ~left
        profile[:, mask] += coeff[:, None] * np.exp(1j * kz * z[mask])
    return profile


def _count(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def _axis(name: str, values) -> np.ndarray:
    axis = np.asarray(values, dtype=float)
    if axis.ndim != 1 or axis.size == 0 or not np.all(np.isfinite(axis)):
        raise ValueError(f"{name} must be a finite non-empty 1-D array")
    return axis


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

    Defaults: y spans y0 +- 6 L (6 Compton lengths at b = 0), z spans
    +- 10 de Broglie wavelengths of the incident wave, 512 x 512 points.
    Explicit y, z arrays override the spans and the counts.  The guiding
    center is y0 = k_x L^2 (0 at b = 0).  The values are the outer
    product of the (4, ny) transverse factors and the (4, nz)
    longitudinal profile.  Raises ValueError for a y or z that is not a
    finite non-empty 1-D array, for an ny or nz that is not an integer
    >= 1 and for a non-finite guiding center, and GridTooLarge beyond
    the MAX_GRID_POINTS guard.
    """
    if amps is None:
        amps = amplitudes(params)
    b = params.field.b
    length = params.field.magnetic_length if b > 0.0 else 1.0
    y0 = k_x * length * length if b > 0.0 else 0.0
    if not math.isfinite(y0):
        raise ValueError(f"guiding center k_x L^2 must be finite, got k_x = {k_x}")
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
        half = y_halfwidth if y_halfwidth is not None else 6.0 * length
        if not (math.isfinite(half) and half > 0.0):
            raise ValueError(f"y halfwidth must be finite and > 0, got {half}")
        y = _axis("y", np.linspace(y0 - half, y0 + half, ny))
    if z is None:
        lam = 2.0 * math.pi / momentum_left(params)
        half = z_halfwidth if z_halfwidth is not None else 10.0 * lam
        if not (math.isfinite(half) and half > 0.0):
            raise ValueError(f"z halfwidth must be finite and > 0, got {half}")
        z = np.linspace(-half, half, nz)

    profile = _profile(params, amps, z, z < 0.0)
    values = _transverse(params, y, y0)[:, :, None] * profile[:, None, :]
    return SpinorField(y=y, z=z, values=values, y0=y0, params=params, amps=amps)


def boundary_values(field: SpinorField) -> tuple[np.ndarray, np.ndarray]:
    """One-sided limits psi(z -> 0-) and psi(z -> 0+) over the y grid.

    Recomputed from the stored parameters and amplitudes: the profile's
    left and right sums at z = 0 times the transverse factors, shape
    (4, ny) each.
    """
    ends = _profile(field.params, field.amps, np.zeros(2), np.array([True, False]))
    trans = _transverse(field.params, field.y, field.y0)
    return trans * ends[:, :1], trans * ends[:, 1:]


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
    the trapezoid rule over the y grid.  Conserved: z-independent on
    each side of the step, equal to the incident current times
    (1 - refl_same - refl_flip) on the left and (trans_same +
    trans_flip) on the right.
    """
    v = field.values
    jz = 2.0 * np.real(np.conj(v[0]) * v[2]) - 2.0 * np.real(np.conj(v[1]) * v[3])
    return np.trapezoid(jz, field.y, axis=0)


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


def save_grid(path, field: SpinorField, what: str = "density") -> None:
    """Write the field's density or components in the binary grid format.

    Layout: a 64-byte little-endian header (magic "KLBFIELD", format
    version, payload kind, ny, nz, dy, dz, y0, y_start, z_start)
    followed by the payload in C order: ny*nz float64 densities, or
    4*ny*nz complex128 components (component index slowest).  Requires a
    uniformly spaced grid with a nonzero step (ValueError otherwise,
    before the file is opened); dy and dz are the mean steps.
    """
    if what == "density":
        kind, payload = GRID_KIND_DENSITY, np.asarray(field.density(), dtype=np.float64)
    elif what == "components":
        kind, payload = GRID_KIND_COMPONENTS, np.asarray(field.values, dtype=np.complex128)
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
        payload.tofile(fh)


def load_grid(path):
    """Read a file written by save_grid.

    Returns (info, array) where info is a dict of the header fields and
    array has shape (ny, nz) for a density payload or (4, ny, nz) for a
    components payload.  Raises ValueError for a bad magic, a format
    version other than GRID_VERSION, an unknown payload kind, or a
    payload whose length does not match the header (checked against
    the file size before the payload is read).
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
        if kind == GRID_KIND_DENSITY:
            dtype, shape = np.dtype(np.float64), (ny, nz)
        elif kind == GRID_KIND_COMPONENTS:
            dtype, shape = np.dtype(np.complex128), (4, ny, nz)
        else:
            raise ValueError(f"unknown payload kind {kind}")
        count = math.prod(shape)
        length = os.fstat(fh.fileno()).st_size - _HEADER.size
        if length != count * dtype.itemsize:
            raise ValueError(
                f"grid payload has {length} bytes, header {ny} x {nz} needs {count * dtype.itemsize}"
            )
        data = np.fromfile(fh, dtype=dtype, count=count)
    if data.size != count:
        raise ValueError(f"grid payload ended after {data.size} of {count} values")
    info = {
        "version": version, "kind": kind, "ny": ny, "nz": nz,
        "dy": dy, "dz": dz, "y0": y0, "y_start": ystart, "z_start": zstart,
    }
    return info, data.reshape(shape)
