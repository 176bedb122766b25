"""Grids, frame stacks, file formats and the shared FFT/window conventions.

Coordinates are millimetres in the image plane (x lateral, z axial) and
seconds in time. A frame stack is a movie of 2D frames sampled on a regular
grid; its 3D discrete Fourier transform uses the forward kernel
e^{-i(k.r + Omega*t)}, unnormalized, with the inverse carrying the 1/N
factor. Angular frequency lattices are 2*pi*fftfreq(n, step), i.e.
k_x in 2*pi*{-nx/2..nx/2-1}/(nx*dx) in DFT order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

LAYOUT = "t-major,z-row-major,x-fastest"


@dataclass(frozen=True)
class Grid2D:
    """Regular image-plane sampling grid.

    x = x0 + ix*dx (ix = 0..nx-1, lateral), z = z0 + iz*dz (axial), all mm.
    """

    nx: int
    nz: int
    dx: float
    dz: float
    x0: float
    z0: float

    def __post_init__(self) -> None:
        if self.nx < 1 or self.nz < 1:
            raise ValueError("grid must have nx >= 1 and nz >= 1")
        if self.dx <= 0 or self.dz <= 0:
            raise ValueError("grid spacings must be positive")

    def x_coords(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.nx)

    def z_coords(self) -> np.ndarray:
        return self.z0 + self.dz * np.arange(self.nz)

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        """(X, Z) arrays of shape (nz, nx)."""
        return np.meshgrid(self.x_coords(), self.z_coords())

    @property
    def extent_mm(self) -> tuple[float, float]:
        return (self.nx * self.dx, self.nz * self.dz)


def make_grid(nx: int, nz: int, dx: float, dz: float,
              center_origin: bool = True) -> Grid2D:
    """Build a grid, optionally centred so the origin is mid-extent.

    With center_origin the first sample sits at -dx*(nx-1)/2 so that for odd
    n the origin is an exact sample and for even n it falls halfway between
    the two central samples.
    """
    if center_origin:
        x0 = -dx * (nx - 1) / 2.0
        z0 = -dz * (nz - 1) / 2.0
    else:
        x0 = 0.0
        z0 = 0.0
    return Grid2D(nx=nx, nz=nz, dx=dx, dz=dz, x0=x0, z0=z0)


@dataclass
class FrameStack:
    """Movie of frames on a Grid2D; data has shape (nt, nz, nx), t-major."""

    grid: Grid2D
    nt: int
    dt: float
    data: np.ndarray

    def __post_init__(self) -> None:
        if self.nt < 1:
            raise ValueError("frame stack needs nt >= 1")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        expected = (self.nt, self.grid.nz, self.grid.nx)
        if self.data.shape != expected:
            raise ValueError(
                f"data shape {self.data.shape} != (nt, nz, nx) = {expected}")

    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.nt)

    def copy(self) -> "FrameStack":
        return FrameStack(self.grid, self.nt, self.dt, self.data.copy())


def kx_lattice(grid: Grid2D, centered: bool = False) -> np.ndarray:
    """Lateral angular frequencies, rad/mm, DFT order unless centered."""
    k = 2.0 * np.pi * np.fft.fftfreq(grid.nx, d=grid.dx)
    return np.fft.fftshift(k) if centered else k


def kz_lattice(grid: Grid2D, centered: bool = False) -> np.ndarray:
    """Axial angular frequencies, rad/mm."""
    k = 2.0 * np.pi * np.fft.fftfreq(grid.nz, d=grid.dz)
    return np.fft.fftshift(k) if centered else k


def omega_lattice(nt: int, dt: float, centered: bool = False) -> np.ndarray:
    """Temporal angular frequencies, rad/s."""
    w = 2.0 * np.pi * np.fft.fftfreq(nt, d=dt)
    return np.fft.fftshift(w) if centered else w


@dataclass(frozen=True)
class SampledWindow:
    """Symmetric temporal window sampled on the frame clock.

    weights[half_width + n] is the weight at lag n*dt, n in [-half_width,
    half_width]; sum(weights)*dt == 1 after construction.
    """

    sigma_t: float
    dt: float
    half_width: int
    weights: np.ndarray = field(repr=False)

    @property
    def lags(self) -> np.ndarray:
        return self.dt * np.arange(-self.half_width, self.half_width + 1)

    def __len__(self) -> int:
        return 2 * self.half_width + 1


def gaussian_window(sigma_t: float, dt: float,
                    trunc_sigmas: float = 4.0) -> SampledWindow:
    """Sampled unit-mass Gaussian window, truncated at +-trunc_sigmas.

    Renormalized so sum(w)*dt = 1 exactly; the clipped tail mass at the
    default 4 sigma is below 1e-4, so renormalization is a sub-1e-4 tweak.
    """
    if sigma_t <= 0 or dt <= 0:
        raise ValueError("sigma_t and dt must be positive")
    if trunc_sigmas < 3.0:
        raise ValueError("window truncation must keep at least 3 sigma")
    half_width = math.ceil(trunc_sigmas * sigma_t / dt)
    lags = dt * np.arange(-half_width, half_width + 1)
    w = np.exp(-0.5 * (lags / sigma_t) ** 2) / (math.sqrt(2 * math.pi) * sigma_t)
    w /= w.sum() * dt
    return SampledWindow(sigma_t=sigma_t, dt=dt, half_width=half_width,
                         weights=w)


# ---------------------------------------------------------------------------
# File formats: <name>.json header + <name>.f32 raw little-endian float32,
# and 8-bit binary PGM previews.

def save_frame_stack(stack: FrameStack, base: str | Path) -> tuple[Path, Path]:
    """Write <base>.json + <base>.f32; returns the two paths."""
    base = Path(base)
    header = {
        "version": 1,
        "nx": stack.grid.nx,
        "nz": stack.grid.nz,
        "nt": stack.nt,
        "dx_mm": stack.grid.dx,
        "dz_mm": stack.grid.dz,
        "dt_s": stack.dt,
        "x0_mm": stack.grid.x0,
        "z0_mm": stack.grid.z0,
        "layout": LAYOUT,
        "dtype": "f32",
        "endian": "little",
    }
    json_path = base.with_suffix(".json")
    raw_path = base.with_suffix(".f32")
    json_path.write_text(json.dumps(header, indent=2) + "\n")
    np.ascontiguousarray(stack.data, dtype="<f4").tofile(raw_path)
    return json_path, raw_path


def load_frame_stack(base: str | Path) -> FrameStack:
    """Read a stack written by save_frame_stack; validates header, size and
    that every sample is finite."""
    base = Path(base)
    json_path = base.with_suffix(".json")
    raw_path = base.with_suffix(".f32")
    header = json.loads(json_path.read_text())
    if header.get("version") != 1:
        raise ValueError(f"unsupported frame stack version {header.get('version')!r}")
    if header.get("layout") != LAYOUT:
        raise ValueError(f"unsupported layout {header.get('layout')!r}")
    if header.get("dtype") != "f32" or header.get("endian") != "little":
        raise ValueError("unsupported sample format")
    nx, nz, nt = header["nx"], header["nz"], header["nt"]
    grid = Grid2D(nx=nx, nz=nz, dx=header["dx_mm"], dz=header["dz_mm"],
                  x0=header["x0_mm"], z0=header["z0_mm"])
    raw = np.fromfile(raw_path, dtype="<f4")
    if raw.size != nx * nz * nt:
        raise ValueError(
            f"raw payload has {raw.size} samples, header implies {nx * nz * nt}")
    data = raw.astype(np.float64).reshape(nt, nz, nx)
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        t, z, x = (int(i) for i in bad[0])
        raise ValueError(f"non-finite sample at (t, z, x) = ({t}, {z}, {x})")
    return FrameStack(grid=grid, nt=nt, dt=header["dt_s"], data=data)


def write_pgm(image: np.ndarray, path: str | Path) -> Path:
    """8-bit binary PGM (P5) preview, linear scale with the max at 255."""
    path = Path(path)
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError("PGM preview expects a 2D image")
    lo = float(img.min())
    hi = float(img.max())
    if hi > lo:
        scaled = (img - lo) * (255.0 / (hi - lo))
    else:
        scaled = np.zeros_like(img)
    payload = np.round(scaled).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii"))
        fh.write(payload.tobytes())
    return path
