"""Velocity-selective filtering of frame stacks.

The filter is a pure gain in 3D Fourier space,
    H(k, Omega) = exp(-sigma_t^2 (Omega + k . v_f)^2 / 2),
i.e. a Gaussian temporal low-pass re-centered on the plane Omega = -k . v_f
traced out by anything translating at v_f. It is applied through the 3D
FFT; the equivalent shift-and-sum form (a temporal average along the
selected trajectory) is a test oracle.

The FFT path works on real FFTs. A bank's filters share one window width,
so one temporal pad, and the TO prefilter, a gain on k_x alone, enters a
routed filter's own gain: the bank takes one half spectrum of its padded
input and shares it between its filters. Since H is pointwise, each
(kz, kx) column's inverse along time is independent, so a filter walks the
shared spectrum in slabs of kz rows of at most _SLAB_ELEMENTS elements:
per slab it builds that slab's gain, multiplies it into a slab buffer, runs
the ifft along t and keeps the first nt frames; the (z, x) passes then run
on those kept frames alone. The shared spectrum holds, per slab, only the
omega rows that some filter reaches there (below), and the forward that
makes it runs in blocks of kx columns. Neither a padded spectrum or
inverse nor a full-lattice gain or product is ever formed, and the output
is byte for byte the trimmed whole irfftn. The bank streams at both ends:
it reads its input in blocks of frames (the rfft along x, the first pass,
is per frame) and hands each output over as a core.FrameStream whose
blocks run the last pass, the irfft along x, so no whole input or output
stack is held. apply_filter_fft is the one-filter case of the same code,
its output gathered. On an even axis the Nyquist bin is its own mirror,
and there H is not even, so the gain on the Nyquist planes is the mean of
H at the bin and at its mirrored bin: the Hermitian part of H, which is
exactly what taking the real part of a complex inverse FFT would keep.

Time is zero-extended: the stack is padded by 4 sigma_t worth of frames
before the FFT and trimmed after, so trajectories do not wrap. The
spatial axes stay periodic: keep moving targets clear of the lateral edges
by v_f * 4 sigma_t or accept wrap-around (a FilterBankSpec's boundary
"periodic" skips the temporal pad too, for stationary-statistics
measurements).

The input's dtype sets the precision: a float32 stack (every production
run's) gives complex64 spectra and float32 outputs, a float64 stack (a
library and test path) complex128 and float64. The gains are computed in
float64, one slab at a time, and cast to the spectrum's precision in the
multiply. No gain entry is subnormal in that precision, whose slow path the
product and the ifft would run on: the gain is 0 past |Omega + k . v_f| =
sqrt(-2 floor) / sigma_t (26.4 rad/s at sigma_t = 0.5 s in float32, floor
from _exp_floor). That is about half of a padded lattice in float64 and
four fifths in float32, and it lies in whole omega rows: bounding k . v_f
over a slab's kz rows and every kx column bounds the omega rows the ridge
can reach (_row_bound, from the 1-D lattices alone). So a slab's gain and
product are built on those rows alone and the other rows are zero-filled,
which is what the whole-lattice gain puts there; inside them an entry below
the floor is set to 0 without calling exp, whose underflow path is slow.
The shared spectrum keeps, per slab, the union of every filter's rows: 30 %
of the padded spectrum on axial-pre's bank, which has one heading.

The transforms are scipy's pocketfft, called through _pocketfft, which
loads its extension on the first transform and never imports scipy.fft.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from . import _pocketfft
from .core import (MAX_ELEMENTS, STREAM_BLOCK, FrameStack, FrameStream,
                   Grid2D, check_finite, gather_frames, inverse_scale,
                   kx_lattice, kz_lattice, omega_lattice, save_frame_stack)
from .psf import ToParams, to_transfer

# Lattice elements a filter's slab of kz rows spans at most (one row if a
# row alone is larger): the size of its float64 gain and of its product.
_SLAB_ELEMENTS = 2**17

# Filters a bank may hold: each one is a whole pass and an output file.
MAX_FILTERS = 4096


@dataclass(frozen=True)
class VelocityFilterSpec:
    """One velocity filter: selected velocity (mm/s) and window width (s)."""

    v_f: tuple[float, float]
    sigma_t: float

    def __post_init__(self) -> None:
        if self.sigma_t <= 0:
            raise ValueError("sigma_t must be positive")

    @property
    def speed(self) -> float:
        return math.hypot(self.v_f[0], self.v_f[1])

    @property
    def angle_from_lateral_deg(self) -> float:
        """Unsigned angle between v_f and the lateral axis, 0 for v_f = 0."""
        if self.speed == 0.0:
            return 0.0
        return math.degrees(math.atan2(abs(self.v_f[1]), abs(self.v_f[0])))


@dataclass(frozen=True)
class FilterBankSpec:
    """Velocity filters run over one input stack, all with one window
    width sigma_t. boundary "pad" zero-extends time by ceil(4 sigma_t / dt)
    frames per side, then trims; "periodic" filters circularly on every
    axis. With to, filters of nonzero speed within lateral_to_angle_deg of
    x see the TO prefilter."""

    filters: tuple[VelocityFilterSpec, ...]
    lateral_to_angle_deg: float = 10.0
    boundary: str = "pad"
    to: ToParams | None = None

    def __post_init__(self) -> None:
        if len(self.filters) == 0:
            raise ValueError("filter bank must be nonempty")
        if self.boundary not in ("pad", "periodic"):
            raise ValueError(f"unknown boundary {self.boundary!r}")
        widths = {f.sigma_t for f in self.filters}
        if len(widths) > 1:
            raise ValueError("a bank's filters share one window width, not "
                             f"sigma_t {sorted(widths)}")

    def __len__(self) -> int:
        return len(self.filters)


def make_bank(speeds: Sequence[float], angles_rad: Sequence[float],
              sigma_t: float) -> FilterBankSpec:
    """Speed x direction grid of filters sharing one window width. More
    than MAX_FILTERS filters raise ValueError before any is built."""
    n = len(speeds) * len(angles_rad)
    if n > MAX_FILTERS:
        raise ValueError(f"{len(speeds)} speeds x {len(angles_rad)} angles "
                         f"make {n} filters, more than the limit of "
                         f"{MAX_FILTERS}")
    filters = tuple(
        VelocityFilterSpec(v_f=(s * math.cos(a), s * math.sin(a)),
                           sigma_t=sigma_t)
        for s in speeds for a in angles_rad)
    return FilterBankSpec(filters=filters)


def tile_speeds(v_max: float, delta_v: float) -> np.ndarray:
    """Filter speeds whose half-max passbands tile [0, v_max] gaplessly.

    Centers at (2i+1) delta_v; the count is the least that covers v_max.
    A count above MAX_FILTERS raises ValueError before anything is allocated.
    """
    if delta_v <= 0:
        raise ValueError("delta_v must be positive")
    if v_max <= 0:
        return np.empty(0)
    n = max(1, math.ceil(v_max / (2.0 * delta_v)))
    if n > MAX_FILTERS:
        raise ValueError(f"tiling [0, {v_max:g}] mm/s takes {n:.3g} filter "
                         f"speeds, more than the limit of {MAX_FILTERS}")
    return (2.0 * np.arange(n) + 1.0) * delta_v


def _exp_floor(dtype) -> float:
    """The log of the smallest normal number of dtype, -87.3 for float32
    and -708.4 for float64: a gain whose exponent is below it is 0, and exp
    of an exponent at or above it is a normal number."""
    return math.log(np.finfo(dtype).tiny)


def _gain(om: np.ndarray, kz: np.ndarray, kx: np.ndarray,
          spec: VelocityFilterSpec, floor: float,
          out: np.ndarray | None = None) -> np.ndarray:
    """exp(-(sigma_t * doppler)^2 / 2), evaluated in place in one float64
    buffer of shape (om, kz, kx), out or a new one; below floor the entry is
    set to 0 without calling exp."""
    vfx, vfz = spec.v_f
    if out is None:
        out = np.empty((om.size, kz.size, kx.size))
    gain = np.add(om[:, None, None] + kx[None, None, :] * vfx,
                  kz[None, :, None] * vfz, out=out)
    gain *= spec.sigma_t
    np.square(gain, out=gain)
    gain *= -0.5
    dead = gain < floor
    np.copyto(gain, 0.0, where=dead)
    return np.exp(gain, out=gain, where=np.logical_not(dead, out=dead))


def _lattices(grid: Grid2D, nt: int, dt: float
              ) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """(axes, mirror): the omega, kz and kx axes of the rfftn half lattice
    of an (nt, nz, nx) stack, and the same axes with the Nyquist frequency
    of each even axis negated."""
    sizes = (nt, grid.nz, grid.nx)
    axes = (omega_lattice(nt, dt), kz_lattice(grid),
            kx_lattice(grid)[:grid.nx // 2 + 1])
    mirror = tuple(a.copy() for a in axes)
    for m, n in zip(mirror, sizes):
        if n % 2 == 0:
            m[n // 2] = -m[n // 2]
    return axes, mirror


def _runs(live: np.ndarray) -> list[tuple[int, int]]:
    """(start, stop) of each run of True in the 1-D mask live, in order."""
    edges = np.zeros(live.size + 2, dtype=bool)
    edges[1:-1] = live
    starts = np.flatnonzero(edges[1:] != edges[:-1]).tolist()
    return list(zip(starts[::2], starts[1::2]))


def _slabs(nt: int, nz: int, nxh: int) -> list[tuple[int, int]]:
    """(z0, z1) of each slab of kz rows of an (nt, nz, nxh) half lattice:
    as many rows as fit in _SLAB_ELEMENTS elements, or one row if a row
    alone is larger. The forward, the row bound and every filter share
    it."""
    step = max(1, _SLAB_ELEMENTS // (nt * nxh))
    return [(z0, min(z0 + step, nz)) for z0 in range(0, nz, step)]


def _row_bound(grid: Grid2D, nt: int, dt: float, spec: VelocityFilterSpec,
               dtype, slabs: list[tuple[int, int]]) -> np.ndarray:
    """(len(slabs), nt) mask: row s marks the omega rows the passband of
    spec reaches on kz rows slabs[s] = (z0, z1) of the rfftn half lattice
    of an (nt, nz, nx) stack, with slabs consecutive from row 0 to nz, as
    _slabs gives them. On every other row of the slab the gain
    (_gain_rows) is exactly 0.

    H is 0 once sigma_t |Omega + d| > sqrt(-2 floor), with
    d = kx v_fx + kz v_fz. d is bounded over the slab's kz rows and every
    kx column, the negated Nyquist frequency of each even axis included,
    since a Nyquist plane's mean also takes H there. An omega row is live
    if its frequency, or on an even nt axis the Nyquist row's negation,
    lies in [-d_max - reach, -d_min + reach], where reach is
    sqrt(-2 floor) / sigma_t widened by 1e-9 of the largest magnitude
    in the sum, far above its float64 rounding. A row outside is one where
    every entry, and the mean on every Nyquist plane, is set to 0 by the
    floor (_exp_floor of dtype). The bound reads the 1-D lattices alone,
    so it is cheap to ask for every filter of a bank up front."""
    floor = _exp_floor(dtype)
    axes, mirror = _lattices(grid, nt, dt)
    # d's kx and kz terms, each with the negated Nyquist bins
    tx = np.concatenate((axes[2], mirror[2])) * spec.v_f[0]
    tz = np.stack((axes[1], mirror[1])) * spec.v_f[1]
    reach = math.sqrt(-2.0 * floor) / spec.sigma_t
    reach += 1e-9 * (reach + np.abs(axes[0]).max() + np.abs(tx).max()
                     + np.abs(tz).max())
    starts = [z0 for z0, _ in slabs]
    lo = -(tx.max() + np.maximum.reduceat(tz.max(axis=0), starts)) - reach
    hi = -(tx.min() + np.minimum.reduceat(tz.min(axis=0), starts)) + reach
    lo, hi = lo[:, None], hi[:, None]
    return (((axes[0] >= lo) & (axes[0] <= hi))
            | ((mirror[0] >= lo) & (mirror[0] <= hi)))


def _gain_rows(grid: Grid2D, nt: int, dt: float, spec: VelocityFilterSpec,
               dtype, to: ToParams | None = None
               ) -> Callable[[int, int, np.ndarray],
                             list[tuple[slice, np.ndarray]]]:
    """rows(z0, z1, live): the float64 gain on kz rows z0:z1 of the rfftn
    half lattice of an (nt, nz, nx) stack, as (omega slice, gain on those
    rows) pairs in DFT order, one per run of the omega rows the mask live
    marks. With live the slab's _row_bound, every other omega row of the
    slab is exactly 0, and the runs are one or two slices (none if the
    passband reaches no row). The gain is H, with the Hermitian mean on
    the Nyquist planes, times psf.to_transfer(to, kx) with to, a filter
    routed through the TO prefilter (even in kx, so the same at a Nyquist
    bin and its mirror). An entry below e^floor (_exp_floor), the smallest
    normal number of dtype, is 0: H through its exponent, without exp, and
    a Nyquist-plane mean or a TO product once it is formed.

    Each entry depends on its own frequencies alone, so a row's gain is
    byte for byte that row of the whole-lattice gain; the lattices, their
    mirrors, the Nyquist-plane means and the TO factor are computed once
    here, for one filter."""
    floor = _exp_floor(dtype)
    least = math.exp(floor)
    sizes = (nt, grid.nz, grid.nx)
    axes, mirror = _lattices(grid, nt, dt)
    planes = []
    for ax, n in enumerate(sizes):
        if n % 2 == 0:
            plane = [slice(None)] * 3
            plane[ax] = slice(n // 2, n // 2 + 1)
            mean = 0.5 * (
                _gain(*(a[p] for a, p in zip(axes, plane)), spec, floor)
                + _gain(*(m[p] for m, p in zip(mirror, plane)), spec, floor))
            mean[mean < least] = 0.0
            planes.append((ax, n // 2, mean))
    if to is not None:
        lateral = to_transfer(to, axes[2])

    def rows(z0: int, z1: int,
             live: np.ndarray) -> list[tuple[slice, np.ndarray]]:
        # the gains are views of one buffer of the whole slab's shape, so
        # each slab allocates one size, as the whole-lattice gain did; gains
        # sized to their rows left heap fragments that raised a localize
        # stage's peak RSS by about 1 MB
        work = np.empty((nt, z1 - z0, len(axes[2])))
        out = []
        for t0, t1 in _runs(live):
            gain = _gain(axes[0][t0:t1], axes[1][z0:z1], axes[2], spec,
                         floor, work[t0:t1])
            for ax, i, mean in planes:
                if ax == 0 and t0 <= i < t1:
                    gain[i - t0] = mean[0, z0:z1]
                elif ax == 1 and z0 <= i < z1:
                    gain[:, i - z0] = mean[t0:t1, 0]
                elif ax == 2:
                    gain[:, :, i] = mean[t0:t1, z0:z1, 0]
            if to is not None:
                gain *= lateral
                np.copyto(gain, 0.0, where=gain < least)
            out.append((slice(t0, t1), gain))
        return out

    return rows


def bank_pads(bank: FilterBankSpec, nt: int, dt: float,
              grid: Grid2D) -> int:
    """The zero frames the bank's stack is padded with per side:
    ceil(4 sigma_t / dt) for bank.boundary "pad", 0 for "periodic". Raises
    ValueError, so the bank and resolve refuse it before any allocation,
    on a padded stack of more than core.MAX_ELEMENTS samples or on a gain
    argument sigma_t |Omega + k . v_f| <= sigma_t (pi/dt + pi/dx |v_x| +
    pi/dz |v_z|) whose square is not finite."""
    pad = (int(math.ceil(4.0 * bank.filters[0].sigma_t / dt))
           if bank.boundary == "pad" else 0)
    padded = (nt + 2 * pad, grid.nz, grid.nx)
    if math.prod(padded) > MAX_ELEMENTS:
        raise ValueError(f"padded stack {padded} exceeds the in-memory FFT "
                         f"limit of {MAX_ELEMENTS} samples")
    for i, f in enumerate(bank.filters):
        # in Python floats, which overflow to inf without a warning
        vx, vz = (abs(float(v)) for v in f.v_f)
        arg = float(f.sigma_t) * (math.pi / float(dt) + math.pi / grid.dx * vx
                                  + math.pi / grid.dz * vz)
        if not math.isfinite(arg * arg):
            raise ValueError(f"filter {i}'s gain argument reaches {arg:.3g} "
                             "on the lattice, whose square is not finite")
    return pad


def apply_filter_fft(frames: FrameStack, spec: VelocityFilterSpec,
                     boundary: str = "pad") -> FrameStack:
    """Filter a stack through the 3D FFT path: run_filter_bank with a
    one-filter bank of that boundary (see FilterBankSpec; "periodic" suits
    only statistically stationary content), its output gathered."""
    _, _, out, _ = next(run_filter_bank(
        frames, FilterBankSpec(filters=(spec,), boundary=boundary)))
    return gather_frames(out)


def apply_to_filter(frames: FrameStack, t: ToParams) -> FrameStack:
    """Impose transverse oscillations by lateral k-space filtering: each
    frame's rows through real FFTs times psf.to_transfer, which is even in
    k_x, on a periodic lateral axis (PSFs decay well inside the grid). A
    bank folds the same gain into its routed filters' gains instead."""
    nx = frames.grid.nx
    gain = to_transfer(t, kx_lattice(frames.grid)[:nx // 2 + 1])
    row_hat = _pocketfft.rfft(frames.data, axis=2)
    out = _pocketfft.irfft(
        row_hat * gain.astype(row_hat.real.dtype, copy=False), n=nx, axis=2)
    return FrameStack(grid=frames.grid, nt=frames.nt, dt=frames.dt, data=out)


def _compact_spectrum(xspec: np.ndarray, lives: np.ndarray,
                      slabs: list[tuple[int, int]],
                      workers: int) -> list[np.ndarray]:
    """The omega rows lives[s] of kz slab s = slabs[s] (_slabs) of
    scipy.fft.rfftn(data, s=(nt_pad, nz, nx)) of an (nt, nz, nx) stack,
    with nt_pad = lives.shape[1], byte for byte, one (rows, slab rows,
    nx // 2 + 1) array per slab, from xspec, the stack's rfft along x.

    The rest of the pass order pocketfft's rfftn uses runs on blocks of kx
    columns of at most _SLAB_ELEMENTS padded elements (or one column), in
    one work buffer: the fft along t of the block zero-padded to nt_pad,
    then the fft along z on the omega rows some slab keeps, then each
    slab's kept rows are copied, one run of rows at a time, into its
    array. The padded spectrum and the zero-padded real copy of data that
    rfftn makes are never formed, and xspec is left as it was. The slabs'
    arrays are views of one buffer: many small arrays step the heap."""
    nt, nz, nxh = xspec.shape
    nt_pad = lives.shape[1]
    sizes = [int(np.count_nonzero(live)) * (z1 - z0) * nxh
             for live, (z0, z1) in zip(lives, slabs)]
    buf = np.empty(sum(sizes), dtype=xspec.dtype)
    out = [part.reshape(-1, z1 - z0, nxh) for part, (z0, z1) in zip(
        np.split(buf, np.cumsum(sizes)[:-1]), slabs)]
    runs = [_runs(live) for live in lives]
    union = _runs(lives.any(axis=0))
    step = max(1, _SLAB_ELEMENTS // (nt_pad * nz))
    work = np.empty((nt_pad, nz, min(step, nxh)), dtype=xspec.dtype)
    for c0 in range(0, nxh, step):
        c1 = min(c0 + step, nxh)
        block = work[:, :, :c1 - c0]
        block[:nt] = xspec[:, :, c0:c1]
        block[nt:] = 0
        _pocketfft.fft(block, axis=0, workers=workers, overwrite_x=True)
        for t0, t1 in union:
            _pocketfft.fft(block[t0:t1], axis=1, workers=workers,
                           overwrite_x=True)
        for (z0, z1), slab_runs, rows in zip(slabs, runs, out):
            at = 0
            for t0, t1 in slab_runs:
                rows[at:at + t1 - t0, :, c0:c1] = block[t0:t1, z0:z1]
                at += t1 - t0
    return out


def _multiply_rows(rows: np.ndarray, live: np.ndarray,
                   gain: list[tuple[slice, np.ndarray]],
                   out: np.ndarray) -> None:
    """out = spectrum * the gain given as (omega rows, gain on them) pairs
    in row order, 0 on every other row, with rows the spectrum's rows where
    live is True, which hold every row the gain gives. The float64 gain is
    cast to out's precision inside the multiply."""
    done = 0
    for span, part in gain:
        out[done:span.start] = 0
        at = int(np.count_nonzero(live[:span.start]))
        np.multiply(rows[at:at + span.stop - span.start], part,
                    out=out[span], dtype=out.dtype)
        done = span.stop
    out[done:] = 0


def _filtered_inverse(spectrum: list[np.ndarray],
                      slabs: list[tuple[int, int]], lives: np.ndarray,
                      reached: np.ndarray,
                      gain_rows: Callable[[int, int, np.ndarray],
                                          list[tuple[slice, np.ndarray]]],
                      kept: np.ndarray, workers: int) -> None:
    """kept = the first kept.shape[0] frames of irfftn(spectrum * gain)
    before its last pass, the irfft along x, and its scale, byte for byte
    as core.trimmed_irfftn makes them. spectrum is _compact_spectrum's: per
    slab s of kz rows slabs[s] (_slabs), the omega rows lives[s].
    reached[s], the filter's _row_bound, marks the rows its gain reaches
    there, all of them in lives[s]; gain_rows is the filter's _gain_rows.

    The gain, the product and the ifft along t run one slab at a time in a
    buffer of the slab's padded size, at most _SLAB_ELEMENTS (or one row).
    The omega rows the filter reaches are multiplied from the slab's
    spectrum rows; the others, where the whole-lattice gain is exactly 0,
    are zero-filled. Each slab's first nt frames go to kept, where the z
    pass then runs in place.
    """
    nt, nz, nxh = kept.shape
    nt_pad = lives.shape[1]
    buf = np.empty(nt_pad * (slabs[0][1] - slabs[0][0]) * nxh,
                   dtype=kept.dtype)
    for (z0, z1), live, own, rows in zip(slabs, lives, reached, spectrum):
        slab = buf[:nt_pad * (z1 - z0) * nxh].reshape(nt_pad, z1 - z0, nxh)
        # no name holds the slab's gain, so it is freed before the ifft
        _multiply_rows(rows, live, gain_rows(z0, z1, own), slab)
        slab = _pocketfft.ifft(slab, axis=0, norm="forward",
                               workers=workers, overwrite_x=True)
        kept[:, z0:z1] = slab[:nt]
    _pocketfft.ifft(kept, axis=1, norm="forward", workers=workers,
                    overwrite_x=True)


def _x_pass(kept: np.ndarray, nt_pad: int, nx: int, workers: int,
            live: list[bool]) -> Callable[[Callable[[np.ndarray], None]],
                                          None]:
    """fill of a bank output: the irfft along x of the kept frames, unscaled,
    then one multiply by core.inverse_scale of nt_pad nz nx, as
    trimmed_irfftn does, in blocks of at most STREAM_BLOCK samples. Once
    live[0] is False the bank has moved on and refilled kept, so fill
    raises instead of handing over another filter's frames."""
    nz = kept.shape[1]
    step = max(1, STREAM_BLOCK // (nz * nx))
    scale = inverse_scale(kept.real.dtype, nt_pad * nz * nx)

    def fill(append: Callable[[np.ndarray], None]) -> None:
        for t0 in range(0, kept.shape[0], step):
            if not live[0]:
                raise RuntimeError("a bank output was used after the bank "
                                   "moved on to the next filter")
            out = _pocketfft.irfft(kept[t0:t0 + step], nx, axis=2,
                                   norm="forward", workers=workers)
            out *= scale
            append(out)

    return fill


def run_filter_bank(frames: FrameStack | FrameStream, bank: FilterBankSpec,
                    workers: int = 1
                    ) -> Iterator[tuple[int, VelocityFilterSpec, FrameStream,
                                        bool]]:
    """Run every filter in the bank over the same input, one at a time.

    Yields (i, spec, out, used_to) in bank order, each output as soon as it
    is ready, as a FrameStream: out.fill hands over its frames in blocks.
    out is valid until the caller asks the bank for the next output; used
    after that it raises, since the bank has refilled the buffer it reads.
    used_to tells whether out passed the TO prefilter (see FilterBankSpec);
    each filter's route is decided once, here, and carried by its gain
    (_gain_rows).

    The input is read once, block by block (frames.fill; a FrameStack is
    one block), into one x-spectrum (rfft along x). A block with a
    non-finite sample raises ValueError naming its (t, z, x) before any
    output is made: through the transforms a NaN would spread over every
    output. From the x-spectrum the bank takes one spectrum
    (_compact_spectrum) that keeps per slab of kz rows (_slabs) the union
    of every filter's _row_bound rows. The x-spectrum
    then becomes the kept frames that every filter refills
    (_filtered_inverse), and each output's fill runs the irfft along x
    (_x_pass). So besides the spectrum a pass holds one slab's gain and
    product, the kept frames and a few blocks; each output is byte for byte
    the trimmed whole irfftn of the whole spectrum times the whole-lattice
    gain. The pad, and the checks made before anything is allocated, are
    bank_pads'. The 2 * pad zero frames go after the stack, which on the
    circular time lattice is the symmetric pad shifted by pad frames, so
    the kept frames are the first nt.
    """
    grid, nt, dt = frames.grid, frames.nt, frames.dt
    nt_pad = nt + 2 * bank_pads(bank, nt, dt, grid)
    routes = [bank.to is not None and f.speed > 0.0
              and f.angle_from_lateral_deg <= bank.lateral_to_angle_deg
              for f in bank.filters]
    kept = None
    done = 0

    def read(block: np.ndarray) -> None:
        nonlocal kept, done
        check_finite(block, done)
        part = _pocketfft.rfft(block, axis=2, workers=workers)
        if kept is None:
            kept = np.empty((nt,) + part.shape[1:], part.dtype)
        kept[done:done + len(block)] = part
        done += len(block)

    frames.fill(read)
    if done != nt:
        raise ValueError(f"stream gave {done} frames, not nt = {nt}")
    dtype = kept.real.dtype
    slabs = _slabs(nt_pad, grid.nz, grid.nx // 2 + 1)
    # every filter's row bound, read from 1-D lattices; the gains, which
    # hold Nyquist-plane means, are built one filter at a time below
    reached = [_row_bound(grid, nt_pad, dt, f, dtype, slabs)
               for f in bank.filters]
    lives = np.logical_or.reduce(reached)
    spectrum = _compact_spectrum(kept, lives, slabs, workers)
    for i, (fspec, used_to) in enumerate(zip(bank.filters, routes)):
        _filtered_inverse(spectrum, slabs, lives, reached[i], _gain_rows(
            grid, nt_pad, dt, fspec, dtype, bank.to if used_to else None),
            kept, workers)
        live = [True]
        yield i, fspec, FrameStream(grid, nt, dt, _x_pass(
            kept, nt_pad, grid.nx, workers, live)), used_to
        live[0] = False


def save_bank_outputs(frames: FrameStack | FrameStream, bank: FilterBankSpec,
                      out_dir: str | Path, workers: int = 1) -> list[Path]:
    """Write each bank output as filtered_<i> plus bank_manifest.json.

    Each output streams from the bank, which carries its boundary and TO
    prefilter, to its file block by block (see run_filter_bank). out_dir
    is made once the input has been read, so an input that fails to read,
    or holds a non-finite sample, leaves nothing behind. Returns every
    path written, the manifest last.
    """
    out_dir = Path(out_dir)
    paths: list[Path] = []
    entries: list[dict] = []
    for i, fspec, out, used_to in run_filter_bank(frames, bank, workers):
        out_dir.mkdir(parents=True, exist_ok=True)
        try:
            header, data = save_frame_stack(out, out_dir / f"filtered_{i:03d}")
        except OSError as exc:
            raise OSError(f"writing filter {i} output failed: {exc}") from exc
        paths += [header, data]
        entries.append({
            "index": i,
            "v_f_mm_s": [fspec.v_f[0], fspec.v_f[1]],
            "sigma_t_s": fspec.sigma_t,
            "window": "gaussian",
            "to_prefilter": used_to,
            "frames": header.name,
        })
    to = None if bank.to is None else {"lambda_x_mm": bank.to.lambda_x,
                                       "sigma_x_mm": bank.to.sigma_x}
    manifest = out_dir / "bank_manifest.json"
    with open(manifest, "w") as fh:
        json.dump({"version": 1, "n_filters": len(bank),
                   "lateral_to_angle_deg": bank.lateral_to_angle_deg,
                   "boundary": bank.boundary, "to": to,
                   "outputs": entries}, fh, indent=2)
        fh.write("\n")
    paths.append(manifest)
    return paths
