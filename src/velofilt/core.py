"""Grids, frame stacks, file formats and the shared FFT conventions.

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
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import _pocketfft

LAYOUT = "t-major,z-row-major,x-fastest"

# Hard cap on the elements of the largest arrays a config asks for: the
# bank's padded stack, which a 3D FFT runs on, and the accumulation's fine
# grid. It rejects sizes that would exhaust memory or overflow the int32
# indexing of some FFT backends.
MAX_ELEMENTS = 2**28

# point pairs a pairwise computation takes at once (the LE's Gaussian sum,
# the suppression's distance test): each temporary of a block holds at most
# this many float64s (128 KiB), which bounds memory on dense frames and
# keeps a block in cache
PAIR_BLOCK = 1 << 14

# samples of a block of frames a FrameStream that load_frame_stack or the
# filter bank makes hands over at once (512 KiB of float32)
STREAM_BLOCK = 1 << 17

# rows save_table_csv formats at once: a block stays under glibc's 128 KiB
# mmap threshold, which freeing a larger buffer raises for good
CSV_ROWS = 1024


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

    def contains(self, x, z):
        """Whether (x, z) lies within the sampled span, edge samples included."""
        x_end = self.x0 + self.dx * (self.nx - 1)
        z_end = self.z0 + self.dz * (self.nz - 1)
        return (x >= self.x0) & (x <= x_end) & (z >= self.z0) & (z <= z_end)

    @property
    def extent_mm(self) -> tuple[float, float]:
        return (self.nx * self.dx, self.nz * self.dz)


def make_grid(nx: int, nz: int, dx: float, dz: float) -> Grid2D:
    """Build a grid centred so the origin is mid-extent.

    The first sample sits at -dx*(nx-1)/2 so that for odd n the origin is an
    exact sample and for even n it falls halfway between the two central
    samples.
    """
    return Grid2D(nx=nx, nz=nz, dx=dx, dz=dz, x0=-dx * (nx - 1) / 2.0,
                  z0=-dz * (nz - 1) / 2.0)


def make_fine_grid(grid: Grid2D, factor: int = 4) -> Grid2D:
    """Subdivide each pixel factor x factor, covering the same extent."""
    if factor < 1:
        raise ValueError("factor must be >= 1")
    dxf = grid.dx / factor
    dzf = grid.dz / factor
    return Grid2D(nx=grid.nx * factor, nz=grid.nz * factor, dx=dxf, dz=dzf,
                  x0=grid.x0 - grid.dx / 2.0 + dxf / 2.0,
                  z0=grid.z0 - grid.dz / 2.0 + dzf / 2.0)


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

    def fill(self, append: Callable[[np.ndarray], None]) -> None:
        """append(data): the whole stack as one block, as a FrameStream
        hands over its blocks."""
        append(self.data)


def kx_lattice(grid: Grid2D) -> np.ndarray:
    """Lateral angular frequencies, rad/mm, in DFT order."""
    return 2.0 * np.pi * np.fft.fftfreq(grid.nx, d=grid.dx)


def kz_lattice(grid: Grid2D) -> np.ndarray:
    """Axial angular frequencies, rad/mm, in DFT order."""
    return 2.0 * np.pi * np.fft.fftfreq(grid.nz, d=grid.dz)


def omega_lattice(nt: int, dt: float) -> np.ndarray:
    """Temporal angular frequencies, rad/s, in DFT order."""
    return 2.0 * np.pi * np.fft.fftfreq(nt, d=dt)


def inverse_scale(dtype: np.dtype, n: int):
    """dtype's 1 / n, rounded once from long double: the factor pocketfft
    applies in the last pass of an unnormalized inverse of n samples."""
    return dtype.type(np.longdouble(1) / n)


def trimmed_irfftn(spec: np.ndarray, s: tuple[int, ...],
                   axes: tuple[int, ...], keep: tuple[slice, ...],
                   workers: int = 1) -> np.ndarray:
    """scipy.fft.irfftn(spec, s, axes)[keep along axes], byte for byte,
    without the whole inverse: one axis at a time (complex ifft passes, the
    real irfft last, through _pocketfft), each output axis cut to its keep
    slice right after its own pass, so later passes and the output only
    span what is kept.

    The complex passes run in place, so spec is overwritten. Every pass is
    unscaled (norm="forward") and the kept output is then multiplied once
    by inverse_scale of prod(s). The result may be a view of a larger
    array.
    """
    out = spec
    for ax, n, k in zip(axes[:-1], s, keep):
        out = _pocketfft.ifft(out, n, axis=ax, norm="forward",
                              workers=workers, overwrite_x=True)
        out = out[(slice(None),) * (ax % out.ndim) + (k,)]
    out = _pocketfft.irfft(out, s[-1], axis=axes[-1], norm="forward",
                           workers=workers)
    out = out[(slice(None),) * (axes[-1] % out.ndim) + (keep[-1],)]
    out *= inverse_scale(out.dtype, math.prod(s))
    return out


# ---------------------------------------------------------------------------
# File formats: <name>.json header + <name>.f32 raw little-endian float32,
# point tables as CSV, and 8-bit binary PGM previews.

class FrameStream:
    """The header of a frame stack handed over block by block, so that the
    whole stack never exists: fill(append) calls append(block) with each
    (n, nz, nx) block of its nt frames, in frame order. The synth stage
    makes its frames this way, load_frame_stack reads them, and the filter
    bank hands over its outputs. A block is append's only until append
    returns: a stream may reuse its buffer. A plain class: a dataclass
    would add 0.4 ms to every command's import."""

    def __init__(self, grid: Grid2D, nt: int, dt: float,
                 fill: Callable[[Callable[[np.ndarray], None]], object]
                 ) -> None:
        self.grid, self.nt, self.dt, self.fill = grid, nt, dt, fill


def gather_frames(stack: FrameStack | FrameStream) -> FrameStack:
    """The frames a stream fills, copied into one FrameStack."""
    blocks: list[np.ndarray] = []
    stack.fill(lambda block: blocks.append(block.copy()))
    return FrameStack(stack.grid, stack.nt, stack.dt, np.concatenate(blocks))


def save_frame_stack(stack: FrameStack | FrameStream,
                     base: str | Path) -> tuple[Path, Path]:
    """Write <base>.f32 + <base>.json; returns the two paths.

    The samples go through to_float32, a FrameStream's one block at a
    time. A cast that makes a sample non-finite raises ValueError before
    the header is written, and the partial payload is removed, so a stack
    that fails leaves no file; so does a stream of other than nt frames.
    """
    base = Path(base)
    grid = stack.grid
    header = {
        "version": 1,
        "nx": grid.nx,
        "nz": grid.nz,
        "nt": stack.nt,
        "dx_mm": grid.dx,
        "dz_mm": grid.dz,
        "dt_s": stack.dt,
        "x0_mm": grid.x0,
        "z0_mm": grid.z0,
        "layout": LAYOUT,
        "dtype": "f32",
        "endian": "little",
    }
    json_path = base.with_suffix(".json")
    raw_path = base.with_suffix(".f32")
    written = 0

    def append(block: np.ndarray) -> None:
        nonlocal written
        to_float32(block, t0=written).tofile(fh)
        written += block.shape[0]

    try:
        with open(raw_path, "wb") as fh:
            stack.fill(append)
        if written != stack.nt:
            raise ValueError(f"stream gave {written} frames, not nt = "
                             f"{stack.nt}")
    except BaseException:
        raw_path.unlink(missing_ok=True)
        raise
    json_path.write_text(json.dumps(header, indent=2) + "\n")
    return json_path, raw_path


def to_float32(data: np.ndarray, t0: int = 0) -> np.ndarray:
    """data as the contiguous little-endian float32 a .f32 file stores.
    Data of another dtype is cast, and a sample the cast makes non-finite
    (a NaN, or a float64 beyond float32's range) raises ValueError naming
    its (t, z, x), with data's first frame counted as frame t0. Float32
    data is returned as it is, unchecked, so writing the bank's float32
    outputs costs no extra pass."""
    if data.dtype == np.dtype("<f4"):
        return np.ascontiguousarray(data)
    with np.errstate(over="ignore"):
        out = np.ascontiguousarray(data, dtype="<f4")
    try:
        check_finite(out, t0)
    except ValueError as exc:
        raise ValueError(f"float32 cast: {exc}") from None
    return out


def check_finite(data: np.ndarray, t0: int = 0) -> None:
    """Raise ValueError naming the first non-finite (t, z, x) of a stack
    whose first frame is frame t0. The whole-stack test is one reduction;
    only a stack that fails it is searched for the index."""
    if np.isfinite(data).all():
        return
    t, z, x = (int(i) for i in np.argwhere(~np.isfinite(data))[0])
    raise ValueError(f"non-finite sample at (t, z, x) = ({t0 + t}, {z}, {x})")


def load_frame_stack(base: str | Path) -> FrameStream:
    """The stack save_frame_stack wrote, as a FrameStream that reads it.

    The header and the payload's size are checked here, before any sample
    is read; a damaged one raises ValueError. fill then reads the .f32 in
    blocks of at most STREAM_BLOCK samples, and a payload that has changed
    size since raises ValueError naming the frame. The data stay the
    float32 that was stored, unchecked: the filter bank checks each block
    it reads (see vfilter.run_filter_bank)."""
    base = Path(base)
    json_path = base.with_suffix(".json")
    raw_path = base.with_suffix(".f32")
    header = json.loads(json_path.read_text())
    if not isinstance(header, dict):
        raise ValueError("header is not a JSON object")
    # json gives exact types, and a bool is neither a size nor a number
    for key in ("nx", "nz", "nt", "dx_mm", "dz_mm", "x0_mm", "z0_mm", "dt_s"):
        value = header.get(key)
        if key in ("nx", "nz", "nt"):
            ok, want = type(value) is int and value >= 1, "an integer >= 1"
        else:
            ok, want = (type(value) in (int, float)
                        and math.isfinite(value)), "a finite number"
        if not ok:
            raise ValueError(f"header {key} is {value!r}, not {want}"
                             if key in header else f"header lacks {key}")
    if header.get("version") != 1:
        raise ValueError(f"unsupported frame stack version {header.get('version')!r}")
    if header.get("layout") != LAYOUT:
        raise ValueError(f"unsupported layout {header.get('layout')!r}")
    if header.get("dtype") != "f32" or header.get("endian") != "little":
        raise ValueError("unsupported sample format")
    nx, nz, nt = header["nx"], header["nz"], header["nt"]
    grid = Grid2D(nx=nx, nz=nz, dx=header["dx_mm"], dz=header["dz_mm"],
                  x0=header["x0_mm"], z0=header["z0_mm"])
    size = raw_path.stat().st_size
    if size != 4 * nx * nz * nt:
        raise ValueError(f"raw payload has {size} bytes, header implies "
                         f"{4 * nx * nz * nt}")
    step = max(1, STREAM_BLOCK // (nz * nx))

    def fill(append: Callable[[np.ndarray], None]) -> None:
        with open(raw_path, "rb") as fh:
            for t0 in range(0, nt, step):
                n = min(step, nt - t0)
                block = np.fromfile(fh, dtype="<f4", count=n * nz * nx)
                if block.size != n * nz * nx:
                    raise ValueError(f"raw payload ends in frame {t0}")
                append(block.reshape(n, nz, nx))

    return FrameStream(grid, nt, header["dt_s"], fill)


def save_table_csv(table: np.ndarray, path: str | Path, header: str,
                   row: str) -> Path:
    """Write a table as CSV: the header line, then each row's fields in
    dtype order through the format row, CRLF line ends. Field 0 is the
    frame index; a NaN field after it is written empty."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n")
        for lo in range(0, len(table), CSV_ROWS):
            values = np.column_stack([table[name][lo:lo + CSV_ROWS]
                                      for name in table.dtype.names])
            fh.write((((row + "\r\n") * len(values))
                      % tuple(values.ravel().tolist())).replace(",nan", ","))
    return Path(path)


def load_table_csv(path: str | Path, dtype: np.dtype,
                   blank: tuple[str, ...] = ()) -> np.ndarray:
    """The table of dtype that save_table_csv wrote, a column per field.
    Field 0 is a frame index and must be a non-negative integer; an empty
    field of a blank column reads as NaN, and every other field must be
    finite. A row that breaks either rule, does not parse or has another
    field count raises a ValueError that names the file and the line."""
    blank_cols = [dtype.names.index(name) for name in blank]
    converters = dict.fromkeys(blank_cols, lambda f: float(f or "nan")) or None

    def parse(text) -> np.ndarray:
        rows = np.loadtxt(text, delimiter=",", ndmin=2, comments=None,
                          converters=converters)
        if rows.shape[1] != len(dtype.names):
            raise ValueError(f"{rows.shape[1]} fields, not {len(dtype.names)}")
        t = rows[:, 0]
        if not np.all((t >= 0) & (t == np.floor(t))):
            raise ValueError("t_index is not a non-negative integer")
        if not np.isfinite(np.delete(rows, blank_cols, axis=1)).all():
            raise ValueError("non-finite field")
        return rows

    with open(path) as fh:
        fh.readline()                   # header
        body = fh.tell()
        if not fh.readline():
            return np.empty(0, dtype)
        # parsed from the open file: a list of its lines took about four
        # times the file's size
        fh.seek(body)
        try:
            rows = parse(fh)
        except ValueError:
            # find the first bad line; the bulk parse gives no usable line
            # number
            fh.seek(body)
            for n, line in enumerate(fh, start=2):
                try:
                    if line.strip():
                        parse([line])
                except ValueError as exc:
                    raise ValueError(f"{path} line {n}: {exc}") from None
            raise
    table = np.empty(len(rows), dtype)
    for i, name in enumerate(dtype.names):
        table[name] = rows[:, i]
    return table


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
