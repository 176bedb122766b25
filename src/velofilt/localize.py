"""Matched-filter localization and super-resolved accumulation.

Detection correlates each (velocity-filtered) frame against the clean PSF
template, thresholds at a fraction of the template autocorrelation peak,
keeps the pixels above threshold that no 3x3 neighbour exceeds, and refines
them to sub-pixel positions with a 3x3 quadratic fit. Because a
velocity filter attenuates mismatched bubbles below the threshold, each
detection inherits the selecting filter velocity as its velocity estimate;
no tracking pass is involved.

Three detection chains, each decided once per run in _chain (template,
autocorrelation peak, envelope step, suppression radius): mode "pre"
correlates the signed frames against the carrier-bearing template (phase
distortion of a mismatched bubble lowers its peak further, which helps
rejection); mode "post" strips the axial carrier first (magnitude of the
analytic signal along z) and correlates against the envelope template,
trading some velocity rejection for artifact-free positions when the
response is distorted (e.g. accelerating flow); a filter the bank routes
through the transverse-oscillation (TO) prefilter is correlated against the
TO template, with no envelope step, whatever the mode.

The 3x3 local maximum and the disk closing of the support mask are done in
numpy. The transforms are pocketfft's, called through _pocketfft, which
loads the extension on the first transform and never imports scipy.fft.
The correlation is circular, on the smallest real-FFT-friendly lattice
whose kept frame-sized window has no wrap-around: along an axis of n frame
and m template samples, at least n + m - 1 - (m - 1) // 2 samples (80 for
a 64-sample axis and a 25-sample template, where the full linear length
88 would pad to 90). It matches the linear correlation to rounding, about
1e-15 of its largest magnitude in float64, not byte for byte.
A stack is detected in blocks of a few frames (at most _CORR_BLOCK samples
of the padded correlation): a block costs one forward real FFT over its
frames, an inverse whose x pass spans only the frame's nz rows (it keeps
them right after its z pass), one local-max pass, one candidate sort, one
suppression pass and one sub-pixel fit over all its peaks, and the
template's spectrum is cached across blocks. A block's output is byte for
byte that of its frames detected one at a time. The filter bank hands
each output over as a stream of frame blocks (core.FrameStream), valid
only until the bank moves on to the next filter; run_pipeline detects it
as it arrives, carrying frames over until a detection block is full, so
it never holds a whole input or output stack. The envelope and the
correlation run in the stack's own precision (float32 on the CLI path,
whose stacks come from .f32 files); the template is cast to the frame's
dtype, and its cached spectrum is keyed by that dtype. Scores and
positions are float64 in every case.

Localizations are rows of one table, a structured array of LOC_DTYPE: frame
t, position x, z (mm), score, and the selecting filter velocity vx, vz
(mm/s; NaN when untagged, as from localize_frames). Every step after
detect works on whole tables, the truth (phantom.TRUTH_DTYPE) too; a rule
that needs frames (the cross-filter merge, the LE) groups a table by t.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import _pocketfft
from .core import (PAIR_BLOCK, FrameStack, FrameStream, Grid2D,
                   check_finite, load_table_csv, make_grid, save_table_csv,
                   trimmed_irfftn)
from .psf import PsfParams, ToParams, render_psf
from .vfilter import FilterBankSpec, run_filter_bank

LOC_DTYPE = np.dtype([("t", np.int64), ("x", np.float64), ("z", np.float64),
                      ("score", np.float64), ("vx", np.float64),
                      ("vz", np.float64)])

# samples of the padded correlation _detect_stack hands to one
# matched_filter_map and detect call: a few 64x64 frames, whose transforms
# stay in cache (a block of 64 such frames runs no faster than one frame)
_CORR_BLOCK = 1 << 16


@dataclass(frozen=True)
class DetectorConfig:
    """threshold_fraction is relative to the template autocorrelation peak;
    subpixel toggles the quadratic refinement; mode ("pre" or "post") picks
    the chain of the filters not routed through TO (see the module
    docstring).

    Each chain works out its own non-max suppression radius (_chain): 1.05
    times the larger of the wavelength and the distance of the farthest
    local maximum of the chain's template autocorrelation above the
    threshold. A bubble's correlation repeats those replicas around its
    peak, so the radius must exceed their reach. The pre template has
    replicas at +- wavelength axially (relative height
    exp(-lambda^2/(4 sigma_r^2)), 0.78 for sigma_r = lambda) and at +- 2
    wavelengths (exp(-1) = 0.37); the post template has none; the TO
    template has off-axis ones (0.71 mm away at threshold 0.35 for
    lambda_x 0.6, sigma_x 0.3 mm and 0.05 mm pixels).
    """

    threshold_fraction: float = 0.5
    subpixel: bool = True
    mode: str = "pre"

    def __post_init__(self) -> None:
        if self.mode not in ("pre", "post"):
            raise ValueError(f"unsupported detection mode {self.mode!r}")
        if not 0.0 < self.threshold_fraction < 1.0:
            raise ValueError("threshold_fraction must be in (0, 1)")


def _template_grid(grid: Grid2D, p: PsfParams, mode: str,
                   to: ToParams | None) -> Grid2D:
    sig_lat = p.sigma_r
    if mode == "to":
        if to is None:
            raise ValueError("mode 'to' needs ToParams")
        sig_lat = math.hypot(p.sigma_r, to.sigma_x)
    # 4 sigma support, clamped so the template never exceeds the frame
    hx = min(int(math.ceil(4.0 * sig_lat / grid.dx)), (grid.nx - 1) // 2)
    hz = min(int(math.ceil(4.0 * p.sigma_r / grid.dz)), (grid.nz - 1) // 2)
    return make_grid(2 * hx + 1, 2 * hz + 1, grid.dx, grid.dz)


def psf_template(grid: Grid2D, p: PsfParams, mode: str = "pre",
                 to: ToParams | None = None) -> np.ndarray:
    """Render the matching template at the frame grid spacing, centered."""
    return render_psf(p, _template_grid(grid, p, mode, to), mode=mode, to=to)


def template_autocorr_peak(template: np.ndarray, grid: Grid2D) -> float:
    """Discrete autocorrelation peak, Riemann-scaled to the integral."""
    return float(np.sum(template**2) * grid.dx * grid.dz)


@functools.lru_cache(maxsize=8)
def _template_spectrum(data: bytes, dtype: str, shape: tuple[int, int],
                       fshape: tuple[int, int]) -> np.ndarray:
    """Read-only half spectrum of the flipped template, zero-padded to
    fshape; keyed by the template's bytes so each frame reuses it."""
    template = np.frombuffer(data, dtype=dtype).reshape(shape)
    spec = _pocketfft.rfftn(template[::-1, ::-1], fshape)
    spec.flags.writeable = False
    return spec


def _padded_shape(frame_shape: tuple[int, int],
                  template_shape: tuple[int, int]
                  ) -> tuple[tuple[int, int], tuple[int, int]]:
    """Start of the kept window on each axis, and the real-FFT-friendly
    circular shape the correlation of a (nz, nx) frame and a template is
    computed on.

    Along an axis of n frame and m template samples the linear correlation
    spans n + m - 1 samples, and the frame-sized window the matched filter
    keeps starts at s = (m - 1) // 2 (as in fftconvolve mode="same"). On a
    circular length L the samples past L fold onto 0 .. n + m - 2 - L, so
    the window is free of wrap-around once L >= n + m - 1 - s: the shape
    is next_fast_len of that bound, not of the full n + m - 1.
    """
    start = tuple((m - 1) // 2 for m in template_shape)
    return start, tuple(_pocketfft.next_fast_len(n + m - 1 - s, real=True)
                        for n, m, s in zip(frame_shape, template_shape,
                                           start))


def matched_filter_map(frame: np.ndarray, grid: Grid2D,
                       template: np.ndarray) -> np.ndarray:
    """Cross-correlate a (..., nz, nx) frame or block of frames with a
    template over the last two axes (zero-padded edges).

    Scaled by the pixel area so values approximate the continuous
    correlation integral and compare directly against the closed-form
    autocorrelation peak. The correlation is circular on the smallest
    shape whose kept window is free of wrap-around (see _padded_shape), so
    it agrees with fftconvolve(mode="same") to rounding, not byte for
    byte: about 1e-15 of the largest magnitude in float64. The template's
    spectrum is cached across calls (see _template_spectrum), so a call
    costs one rfftn over every frame it is given and an inverse run one
    axis at a time (core.trimmed_irfftn): the ifft along z, the cut to the
    kept nz rows, then the irfft along x, cut to the kept nx columns. Each
    frame's bytes are those of the call on that frame alone.
    """
    shape = frame.shape[-2:]
    if template.shape[0] > shape[0] or template.shape[1] > shape[1]:
        raise ValueError("template larger than frame")
    (z0, x0), fshape = _padded_shape(shape, template.shape)
    # the template in the frame's precision: float32 for a float32 frame
    template = template.astype(np.result_type(frame, np.float32), copy=False)
    # the product in place: one block-sized complex array fewer at the peak
    spec = _pocketfft.rfftn(frame, fshape, axes=(-2, -1))
    spec *= _template_spectrum(template.tobytes(), template.dtype.str,
                               template.shape, fshape)
    corr = trimmed_irfftn(spec, fshape, (-2, -1),
                          (slice(z0, z0 + shape[0]), slice(x0, x0 + shape[1])))
    return corr * (grid.dx * grid.dz)


# Least-squares fit of c + bx u + bz w + cxx u^2 + czz w^2 + cxz u w to a
# 3x3 patch (u = column - 1, w = row - 1, row-major): the coefficients are
# the raveled patch times this pseudo-inverse of the fixed 9x6 design, whose
# entries are exact multiples of 1/36.
_QUAD_FIT = np.array([
    [-4, 8, -4, 8, 20, 8, -4, 8, -4],
    [-6, 0, 6, -6, 0, 6, -6, 0, 6],
    [-6, -6, -6, 0, 0, 0, 6, 6, 6],
    [6, -12, 6, 6, -12, 6, 6, -12, 6],
    [6, 6, 6, -12, -12, -12, 6, 6, 6],
    [9, 0, -9, 0, 0, 0, -9, 0, 9]]) / 36.0


def _quadratic_offsets(patches: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Stationary points (dx, dz), in pixels, of the LS quadratics through
    k raveled 3x3 patches (k, 9), each clipped to +-0.5; (0, 0) where the
    quadratic has no maximum.

    Each row's coefficients are a sum over its own nine products, so a
    row's result does not depend on the other rows (a matrix product
    would hand the batch to BLAS, whose summation order depends on k)."""
    _, bx, bz, cxx, czz, cxz = (patches[:, None, :] * _QUAD_FIT).sum(axis=2).T
    # solve [[2 cxx, cxz], [cxz, 2 czz]] (dx, dz) = -(bx, bz) in closed form
    det = 4.0 * cxx * czz - cxz * cxz
    peaked = det > 0
    det = np.where(peaked, det, 1.0)
    dx = (cxz * bz - 2.0 * czz * bx) / det
    dz = (cxz * bx - 2.0 * cxx * bz) / det
    return (np.where(peaked, np.clip(dx, -0.5, 0.5), 0.0),
            np.where(peaked, np.clip(dz, -0.5, 0.5), 0.0))


def _max_3x3(a: np.ndarray) -> np.ndarray:
    """Maximum over each pixel's 3x3 neighbourhood in the last two axes,
    the neighbourhood clamped at the edges: a running max of three along x,
    then along z. A pixel equal to it is a local maximum (every pixel of a
    plateau is)."""
    rows = a.copy()
    np.maximum(rows[..., 1:], a[..., :-1], out=rows[..., 1:])
    np.maximum(rows[..., :-1], a[..., 1:], out=rows[..., :-1])
    out = rows.copy()
    np.maximum(out[..., 1:, :], rows[..., :-1, :], out=out[..., 1:, :])
    np.maximum(out[..., :-1, :], rows[..., 1:, :], out=out[..., :-1, :])
    return out


# relative margin around radius**2 within which _suppress decides a pair in
# Python floats: there a square is pow(d, 2), which can round one ulp away
# from numpy's d * d, so the two sums may differ by a few ulp
_TIE_RTOL = 1e-12


def _suppress(x: np.ndarray, z: np.ndarray, radius: float,
              group: np.ndarray | None = None) -> np.ndarray:
    """Greedy suppression in the given priority order: a point is kept
    unless a kept point of its group lies strictly within radius, i.e.
    (x_i - x_j)**2 + (z_i - z_j)**2 < radius**2 in Python floats. Mask of
    kept points. group (one group by default) must be sorted.

    The close pairs of earlier points are found as arrays, in row blocks
    of at most PAIR_BLOCK pairs whose columns start at the first point of
    the block's first group; the greedy pass visits only those pairs."""
    n = len(x)
    group = np.zeros(n, dtype=np.intp) if group is None else group
    first = np.searchsorted(group, group)
    largest = int((np.searchsorted(group, group, "right") - first).max(
        initial=1))
    # a block spans rows * (rows + largest - 1) < PAIR_BLOCK pairs
    rows = max(1, min(math.isqrt(PAIR_BLOCK) // 2,
                      PAIR_BLOCK // (2 * largest)))
    r2 = radius**2
    lo_r2, hi_r2 = r2 * (1.0 - _TIE_RTOL), r2 * (1.0 + _TIE_RTOL)
    keep = [True] * n
    for lo in range(1, n, rows):
        hi, c0 = min(lo + rows, n), first[lo]
        d2 = np.square(x[lo:hi, None] - x[c0:hi])
        d2 += np.square(z[lo:hi, None] - z[c0:hi])
        near = ((d2 < hi_r2) & (group[lo:hi, None] == group[c0:hi])
                & np.tri(hi - lo, hi - c0, lo - c0 - 1, dtype=bool))
        i, j = np.nonzero(near)
        # pairs by row, then column: keep[b] is final when (a, b) comes up
        for a, b, d in zip((i + lo).tolist(), (j + c0).tolist(),
                           d2[i, j].tolist()):
            if keep[a] and keep[b] and (
                    d < lo_r2 or (x[a].item() - x[b].item()) ** 2
                    + (z[a].item() - z[b].item()) ** 2 < r2):
                keep[a] = False
    return np.array(keep, dtype=bool)


def detect(corr: np.ndarray, grid: Grid2D, cfg: DetectorConfig,
           autocorr_peak: float, radius: float, t_index: int = 0,
           v_tag: tuple[float, float] | None = None) -> np.ndarray:
    """Threshold, local-max, greedy NMS within radius (mm), then quadratic
    refinement.

    corr is one (nz, nx) correlation map or a block (nb, nz, nx) of them,
    for frames t_index, t_index + 1, ... The table holds each frame's rows
    in turn, in NMS priority order: higher score, then row, then column.
    Suppression acts within a frame, so a block gives the rows of its
    frames detected one at a time.
    """
    if autocorr_peak <= 0:
        raise ValueError("autocorr_peak must be positive")
    thresh = cfg.threshold_fraction * autocorr_peak
    corr = corr.reshape(-1, *corr.shape[-2:])
    is_max = corr == _max_3x3(corr)
    # flat indices, in row-major order: np.argwhere on the 3-D mask takes
    # about ten times as long
    cand = np.flatnonzero(is_max & (corr > thresh))
    scores = corr.ravel()[cand]
    # by frame, then NMS priority: higher score, then row, then column (a
    # stable sort keeps the row-major order of equal scores)
    order = np.lexsort((-scores, cand // corr[0].size))
    ft, iz, ix = np.unravel_index(cand[order], corr.shape)
    scores = scores[order]
    x = grid.x0 + ix * grid.dx
    z = grid.z0 + iz * grid.dz
    keep = _suppress(x, z, radius, group=ft)
    ft, iz, ix, x, z = ft[keep], iz[keep], ix[keep], x[keep], z[keep]
    if cfg.subpixel:
        inner = (0 < ix) & (ix < grid.nx - 1) & (0 < iz) & (iz < grid.nz - 1)
        step = np.arange(-1, 2)
        patches = corr[ft[inner, None, None],
                       iz[inner, None, None] + step[:, None],
                       ix[inner, None, None] + step]
        ox, oz = _quadratic_offsets(patches.reshape(-1, 9))
        x[inner] += ox * grid.dx
        z[inner] += oz * grid.dz
    out = np.empty(len(x), LOC_DTYPE)
    out["t"], out["x"], out["z"] = t_index + ft, x, z
    out["score"] = scores[keep]
    out["vx"], out["vz"] = (math.nan, math.nan) if v_tag is None else v_tag
    return out


# ---------------------------------------------------------------------------
# Accumulation onto a finer grid.

@dataclass(frozen=True, eq=False)
class AccumulatedMap:
    grid: Grid2D
    counts: np.ndarray
    total: int

    def __post_init__(self) -> None:
        if np.any(self.counts < 0) or int(self.counts.sum()) != self.total:
            raise ValueError("inconsistent accumulated counts")


@dataclass(frozen=True, eq=False)
class VelocityMap:
    """Per-pixel speed and velocity components; zero where nothing landed."""

    grid: Grid2D
    speed: np.ndarray
    vx: np.ndarray
    vz: np.ndarray


def _pixel_index(locs: np.ndarray, grid: Grid2D) -> np.ndarray:
    """Flat index of the pixel each row lands in, -1 outside the grid;
    np.rint rounds half to even, as round() does."""
    ix = np.rint((locs["x"] - grid.x0) / grid.dx)
    iz = np.rint((locs["z"] - grid.z0) / grid.dz)
    inside = (0 <= ix) & (ix < grid.nx) & (0 <= iz) & (iz < grid.nz)
    return np.where(inside, iz * grid.nx + ix, -1).astype(np.int64)


def accumulate(locs: np.ndarray, fine_grid: Grid2D) -> AccumulatedMap:
    """Bin localizations into fine-grid pixels; order independent."""
    flat = _pixel_index(locs, fine_grid)
    counts = np.bincount(flat[flat >= 0],
                         minlength=fine_grid.nz * fine_grid.nx)
    counts = counts.reshape(fine_grid.nz, fine_grid.nx)
    return AccumulatedMap(grid=fine_grid, counts=counts,
                          total=int(counts.sum()))


def velocity_map_from_locs(locs: np.ndarray, fine_grid: Grid2D
                           ) -> VelocityMap:
    """Max-speed assignment: each pixel keeps its fastest tagged detection,
    the first in table order among equally fast ones."""
    flat = _pixel_index(locs, fine_grid)
    # math.hypot, not np.hypot: the two can differ in the last bit, and that
    # bit can decide between equally fast headings
    speed = np.array(list(map(math.hypot, locs["vx"].tolist(),
                              locs["vz"].tolist())), dtype=np.float64)
    # rows that land and move (untagged rows have NaN speed), by pixel and
    # fastest first; lexsort is stable, so table order breaks ties
    rows = np.flatnonzero((flat >= 0) & (speed > 0))
    rows = rows[np.lexsort((-speed[rows], flat[rows]))]
    first = rows[np.diff(flat[rows], prepend=-1) != 0]
    maps = np.zeros((3, fine_grid.nz * fine_grid.nx))
    maps[:, flat[first]] = speed[first], locs["vx"][first], locs["vz"][first]
    speed, vx, vz = maps.reshape(3, fine_grid.nz, fine_grid.nx)
    return VelocityMap(grid=fine_grid, speed=speed, vx=vx, vz=vz)


def segment_support(acc: AccumulatedMap) -> np.ndarray:
    """Occupied-pixel mask smoothed by morphological closing with a disk
    of radius 2 pixels."""
    mask = acc.counts > 0
    if not mask.any():
        return mask
    r = 2
    yy, xx = np.mgrid[-r:r + 1, -r:r + 1]
    offsets = np.argwhere((xx**2 + yy**2) <= r**2)
    nz, nx = mask.shape
    padded = np.zeros((nz + 2 * r, nx + 2 * r), dtype=bool)

    def sweep(src: np.ndarray, combine, start: bool) -> np.ndarray:
        # combine src over every disk offset, reading False outside the mask
        padded[r:r + nz, r:r + nx] = src
        acc = np.full(src.shape, start)
        for dz, dx in offsets:
            combine(acc, padded[dz:dz + nz, dx:dx + nx], out=acc)
        return acc

    # closing = dilation, then erosion; the disk is symmetric
    return sweep(sweep(mask, np.logical_or, False), np.logical_and, True)


# ---------------------------------------------------------------------------
# Full pipeline: filter bank -> detect -> merge.

@dataclass(frozen=True, eq=False)
class PipelineResult:
    """One localization table per frame."""

    per_frame: list[np.ndarray]


def merge_candidates(cands: np.ndarray, radius: float) -> np.ndarray:
    """Cross-filter duplicate removal, one suppression pass grouped by
    frame: keep the higher score within radius. A stable sort by frame,
    score (descending), x, z lets table (bank) order break exact ties."""
    order = np.lexsort((cands["z"], cands["x"], -cands["score"], cands["t"]))
    x, z, t = (cands[name][order] for name in ("x", "z", "t"))
    return cands[order[_suppress(x, z, radius, group=t)]]


def _envelope_z(data: np.ndarray) -> np.ndarray:
    """Magnitude of the analytic signal along axis 1 (z): keep the DC bin
    (and the Nyquist bin for even nz), double the positive frequencies and
    zero the negative ones. The forward transform is real: pocketfft's
    rfft gives the first n // 2 + 1 bins of its complex fft bit for bit."""
    n = data.shape[1]
    half = _pocketfft.rfft(data, axis=1)
    spec = np.zeros(data.shape, dtype=half.dtype)
    spec[:, :n // 2 + 1] = half
    spec[:, 1:(n + 1) // 2] *= 2.0
    return np.abs(_pocketfft.ifft(spec, axis=1, overwrite_x=True))


class _Chain(NamedTuple):
    template: np.ndarray
    peak: float
    envelope: bool
    radius: float


# relative margin within which a replica's reach counts as one wavelength:
# a replica whole pixels away reads e.g. 6 * 0.05 = 0.30000000000000004
_REACH_RTOL = 1e-9


def _replica_reach(template: np.ndarray, grid: Grid2D, level: float
                   ) -> float:
    """Distance (mm) from lag 0 of the farthest local maximum (3x3, as in
    detect) above level of the template's full linear autocorrelation,
    Riemann-scaled as template_autocorr_peak is."""
    full = tuple(2 * m - 1 for m in template.shape)
    fshape = tuple(_pocketfft.next_fast_len(n, real=True) for n in full)
    spec = _pocketfft.rfftn(template, fshape)
    spec *= _pocketfft.rfftn(template[::-1, ::-1], fshape)
    ac = trimmed_irfftn(spec, fshape, (0, 1), tuple(map(slice, full)))
    ac *= grid.dx * grid.dz
    lag = np.argwhere((ac == _max_3x3(ac)) & (ac > level)) - [
        m - 1 for m in template.shape]
    return float(np.hypot(lag[:, 0] * grid.dz, lag[:, 1] * grid.dx).max(
        initial=0.0))


def _chain(grid: Grid2D, p: PsfParams, cfg: DetectorConfig,
           to: ToParams | None = None) -> _Chain:
    """The detection chain cfg.mode selects, or the TO chain when to is
    given: its template, the template's autocorrelation peak, whether each
    block's axial carrier is stripped first (post only), and the
    suppression radius (mm).

    The radius is 1.05 times the wavelength or the reach of the template's
    farthest autocorrelation replica above the threshold, whichever is
    larger, so that no replica of a bubble's own correlation survives
    suppression.
    """
    mode = cfg.mode if to is None else "to"
    template = psf_template(grid, p, mode=mode, to=to)
    peak = template_autocorr_peak(template, grid)
    reach = _replica_reach(template, grid, cfg.threshold_fraction * peak)
    radius = 1.05 * (reach if reach > p.wavelength * (1 + _REACH_RTOL)
                     else p.wavelength)
    return _Chain(template, peak, mode == "post", radius)


def _detect_stack(frames: FrameStack | FrameStream, grid: Grid2D,
                  cfg: DetectorConfig, chain: _Chain,
                  v_tag: tuple[float, float] | None = None) -> np.ndarray:
    """Matched filter and detect on every frame of a stack, or of a stream
    as its blocks arrive, through one chain, in blocks of frames of at
    most _CORR_BLOCK padded samples: frames 0 to step - 1, step to
    2 step - 1, ... whatever the blocks the stream hands over, whose
    frames are carried to the next block until a detection block is
    full. One table, rows by frame."""
    _, fshape = _padded_shape((grid.nz, grid.nx), chain.template.shape)
    step = max(1, _CORR_BLOCK // math.prod(fshape))
    tables = []
    t = 0  # the first frame of the next detection block
    rest = None  # frames handed over that fill no detection block yet

    def detect_block(block: np.ndarray) -> None:
        nonlocal t
        corr = matched_filter_map(_envelope_z(block) if chain.envelope
                                  else block, grid, chain.template)
        tables.append(detect(corr, grid, cfg, chain.peak, chain.radius,
                             t_index=t, v_tag=v_tag))
        t += len(block)

    def take(block: np.ndarray) -> None:
        nonlocal rest
        if rest is not None:
            head = step - len(rest)
            rest, block = np.concatenate((rest, block[:head])), block[head:]
            if len(rest) < step:
                return
            detect_block(rest)
        full = len(block) - len(block) % step
        for t0 in range(0, full, step):
            detect_block(block[t0:t0 + step])
        # a copy: the stream may reuse its block's buffer
        rest = block[full:].copy() if full < len(block) else None

    frames.fill(take)
    if rest is not None:
        detect_block(rest)
    return np.concatenate(tables)


def localize_frames(frames: FrameStack, p: PsfParams,
                    cfg: DetectorConfig | None = None) -> np.ndarray:
    """Detect on the frames as-is (no velocity filtering, no velocity tags);
    one table, rows by frame.

    The baseline the filter bank is compared against: same chain applied
    to the raw stack.
    """
    check_finite(frames.data)
    cfg = cfg or DetectorConfig()
    return _detect_stack(frames, frames.grid, cfg,
                         _chain(frames.grid, p, cfg))


def run_pipeline(frames: FrameStack | FrameStream, bank: FilterBankSpec,
                 p: PsfParams, cfg: DetectorConfig | None = None,
                 workers: int = 1) -> PipelineResult:
    """Velocity-filter bank -> matched filter -> detect -> merge.

    Each bank member's detections carry its v_f as the velocity estimate.
    Members the bank routes through its TO prefilter (bank.to) are
    detected through the TO chain. Duplicates across members (same frame,
    within lambda/4) keep the higher score (merge_candidates). The bank
    rejects an input block with a non-finite sample before any filtering.
    Each output is detected block by block as the bank hands it over, so
    besides the detection tables the pass holds no whole output (see
    run_filter_bank).
    """
    cfg = cfg or DetectorConfig()
    grid = frames.grid
    chains = {False: _chain(grid, p, cfg)}
    if bank.to is not None:
        chains[True] = _chain(grid, p, cfg, bank.to)
    tables = [_detect_stack(out, grid, cfg, chains[used_to], v_tag=fspec.v_f)
              for _, fspec, out, used_to in run_filter_bank(frames, bank,
                                                            workers)]
    # the candidates in bank order, as the merge's tie order
    locs = merge_candidates(np.concatenate(tables), p.wavelength / 4.0)
    return PipelineResult(per_frame=np.split(
        locs, np.cumsum(np.bincount(locs["t"], minlength=frames.nt))[:-1]))


# ---------------------------------------------------------------------------
# CSV round-trip.

def save_localizations_csv(locs: np.ndarray, path: str | Path) -> Path:
    """Write a localization table as CSV (core.save_table_csv): "%.9g"
    fields, and empty velocity fields for untagged rows."""
    return save_table_csv(locs, path,
                          "t_index,x_mm,z_mm,score,vf_x_mm_s,vf_z_mm_s",
                          "%d,%.9g,%.9g,%.9g,%.9g,%.9g")


def load_localizations_csv(path: str | Path) -> np.ndarray:
    """The localization table save_localizations_csv wrote; empty velocity
    fields read as NaN. A malformed row, a negative t_index or a non-finite
    x, z or score raises a ValueError naming the line (see
    core.load_table_csv)."""
    return load_table_csv(path, LOC_DTYPE, blank=("vx", "vz"))
