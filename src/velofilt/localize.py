"""Matched-filter localization and super-resolved accumulation.

Detection correlates each (velocity-filtered) frame against the clean PSF
template, thresholds at a fraction of the template autocorrelation peak, and
refines maxima to sub-pixel positions with a 3x3 quadratic fit. Because a
velocity filter attenuates mismatched bubbles below the threshold, each
detection inherits the selecting filter velocity as its velocity estimate;
no tracking pass is involved.

Two detection chains: mode "pre" correlates the signed frames against the
carrier-bearing template (phase distortion of a mismatched bubble lowers its
peak further, which helps rejection); mode "post" strips the axial carrier
first (magnitude of the analytic signal along z) and correlates against the
envelope template, trading some velocity rejection for artifact-free
positions when the response is distorted (e.g. accelerating flow).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
import scipy.ndimage
import scipy.signal

from .core import FrameStack, Grid2D, make_grid
from .psf import PsfParams, ToParams, render_psf
from .vfilter import FilterBankSpec, VelocityFilterSpec, run_filter_bank


@dataclass(frozen=True)
class Localization:
    """One detected bubble: frame index, sub-pixel position, score, v tag."""

    t_index: int
    pos: tuple[float, float]
    score: float
    v_tag: tuple[float, float] | None = None


@dataclass(frozen=True)
class DetectorConfig:
    """threshold_fraction is relative to the template autocorrelation peak;
    min_separation (mm) is the non-max suppression radius; subpixel toggles
    the quadratic refinement.

    min_separation=None resolves to 1.05 * wavelength at detection time:
    the signed correlation of a carrier-bearing PSF has replica maxima at
    +- wavelength axially (relative height exp(-lambda^2/(4 sigma_r^2)),
    0.78 for sigma_r = lambda, above the 0.5 threshold), so the radius must
    exceed their spacing; the 2 lambda replica is already sub-threshold.
    """

    threshold_fraction: float = 0.5
    min_separation: float | None = None
    subpixel: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold_fraction < 1.0:
            raise ValueError("threshold_fraction must be in (0, 1)")
        if self.min_separation is not None and self.min_separation <= 0:
            raise ValueError("min_separation must be positive")


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


def matched_filter_map(frame: np.ndarray, grid: Grid2D, p: PsfParams,
                       mode: str = "pre", to: ToParams | None = None,
                       template: np.ndarray | None = None) -> np.ndarray:
    """Cross-correlate one frame with the PSF template (zero-padded edges).

    Scaled by the pixel area so values approximate the continuous
    correlation integral and compare directly against the closed-form
    autocorrelation peak.
    """
    if template is None:
        template = psf_template(grid, p, mode=mode, to=to)
    if template.shape[0] > frame.shape[0] or template.shape[1] > frame.shape[1]:
        raise ValueError("template larger than frame")
    corr = scipy.signal.fftconvolve(frame, template[::-1, ::-1], mode="same")
    return corr * (grid.dx * grid.dz)


def _quadratic_offset(patch: np.ndarray) -> tuple[float, float]:
    """Stationary point of the LS quadratic through a 3x3 patch, in pixels."""
    u = np.array([-1.0, 0.0, 1.0])
    ux = np.tile(u, 3)
    uz = np.repeat(u, 3)
    a = np.column_stack([np.ones(9), ux, uz, ux**2, uz**2, ux * uz])
    coef, *_ = np.linalg.lstsq(a, patch.ravel(), rcond=None)
    _, bx, bz, cxx, czz, cxz = coef
    hess = np.array([[2.0 * cxx, cxz], [cxz, 2.0 * czz]])
    det = np.linalg.det(hess)
    if det <= 0:
        return 0.0, 0.0
    dx, dz = np.linalg.solve(hess, [-bx, -bz])
    return float(np.clip(dx, -0.5, 0.5)), float(np.clip(dz, -0.5, 0.5))


def detect(corr: np.ndarray, grid: Grid2D, cfg: DetectorConfig,
           autocorr_peak: float, t_index: int = 0,
           v_tag: tuple[float, float] | None = None,
           wavelength: float | None = None) -> list[Localization]:
    """Threshold, local-max, greedy NMS, then quadratic refinement."""
    if autocorr_peak <= 0:
        raise ValueError("autocorr_peak must be positive")
    min_sep = cfg.min_separation
    if min_sep is None:
        if wavelength is None:
            raise ValueError("min_separation unset: pass wavelength")
        min_sep = 1.05 * wavelength
    thresh = cfg.threshold_fraction * autocorr_peak
    is_max = corr == scipy.ndimage.maximum_filter(corr, size=3, mode="nearest")
    cand = np.argwhere(is_max & (corr > thresh))
    if cand.size == 0:
        return []
    scores = corr[cand[:, 0], cand[:, 1]]
    order = np.lexsort((cand[:, 1], cand[:, 0], -scores))
    kept_xy: list[tuple[float, float]] = []
    out: list[Localization] = []
    for idx in order:
        iz, ix = cand[idx]
        x = grid.x0 + ix * grid.dx
        z = grid.z0 + iz * grid.dz
        if any((x - kx) ** 2 + (z - kz) ** 2 < min_sep**2
               for kx, kz in kept_xy):
            continue
        kept_xy.append((x, z))
        if (cfg.subpixel and 0 < ix < grid.nx - 1 and 0 < iz < grid.nz - 1):
            ox, oz = _quadratic_offset(corr[iz - 1:iz + 2, ix - 1:ix + 2])
            x += ox * grid.dx
            z += oz * grid.dz
        out.append(Localization(t_index=t_index, pos=(x, z),
                                score=float(scores[idx]), v_tag=v_tag))
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


def make_fine_grid(grid: Grid2D, factor: int = 4) -> Grid2D:
    """Subdivide each pixel factor x factor, covering the same extent."""
    if factor < 1:
        raise ValueError("factor must be >= 1")
    dxf = grid.dx / factor
    dzf = grid.dz / factor
    return Grid2D(nx=grid.nx * factor, nz=grid.nz * factor, dx=dxf, dz=dzf,
                  x0=grid.x0 - grid.dx / 2.0 + dxf / 2.0,
                  z0=grid.z0 - grid.dz / 2.0 + dzf / 2.0)


def _flatten(locs: Iterable) -> list[Localization]:
    flat: list[Localization] = []
    for item in locs:
        if isinstance(item, Localization):
            flat.append(item)
        else:
            flat.extend(item)
    return flat


def _bin_index(loc: Localization, grid: Grid2D) -> tuple[int, int] | None:
    ix = int(round((loc.pos[0] - grid.x0) / grid.dx))
    iz = int(round((loc.pos[1] - grid.z0) / grid.dz))
    if 0 <= ix < grid.nx and 0 <= iz < grid.nz:
        return iz, ix
    return None


def accumulate(locs: Iterable, fine_grid: Grid2D) -> AccumulatedMap:
    """Bin localizations into fine-grid pixels; order independent."""
    counts = np.zeros((fine_grid.nz, fine_grid.nx), dtype=np.int64)
    for loc in _flatten(locs):
        hit = _bin_index(loc, fine_grid)
        if hit is not None:
            counts[hit] += 1
    return AccumulatedMap(grid=fine_grid, counts=counts,
                          total=int(counts.sum()))


def velocity_map_from_locs(locs: Iterable, fine_grid: Grid2D) -> VelocityMap:
    """Max-speed assignment: each pixel keeps its fastest tagged detection."""
    speed = np.zeros((fine_grid.nz, fine_grid.nx))
    vx = np.zeros_like(speed)
    vz = np.zeros_like(speed)
    for loc in _flatten(locs):
        if loc.v_tag is None:
            continue
        hit = _bin_index(loc, fine_grid)
        if hit is None:
            continue
        s = math.hypot(loc.v_tag[0], loc.v_tag[1])
        if s > speed[hit]:
            speed[hit] = s
            vx[hit] = loc.v_tag[0]
            vz[hit] = loc.v_tag[1]
    return VelocityMap(grid=fine_grid, speed=speed, vx=vx, vz=vz)


def segment_support(acc: AccumulatedMap, closing_radius_px: int = 2
                    ) -> np.ndarray:
    """Occupied-pixel mask smoothed by morphological closing (disk)."""
    mask = acc.counts > 0
    if not mask.any() or closing_radius_px < 1:
        return mask
    r = closing_radius_px
    yy, xx = np.mgrid[-r:r + 1, -r:r + 1]
    disk = (xx**2 + yy**2) <= r**2
    return scipy.ndimage.binary_closing(mask, structure=disk)


# ---------------------------------------------------------------------------
# Full pipeline: filter bank -> detect -> merge -> accumulate.

@dataclass(frozen=True, eq=False)
class PipelineResult:
    per_frame: list[list[Localization]]
    acc: AccumulatedMap
    vmap: VelocityMap


def _merge_frame(cands: Sequence[Localization], radius: float
                 ) -> list[Localization]:
    """Cross-filter duplicate removal: keep the higher score within radius."""
    order = sorted(cands, key=lambda L: (-L.score, L.pos))
    kept: list[Localization] = []
    for loc in order:
        if any((loc.pos[0] - k.pos[0]) ** 2 + (loc.pos[1] - k.pos[1]) ** 2
               < radius**2 for k in kept):
            continue
        kept.append(loc)
    return kept


def _detect_stack(data: np.ndarray, grid: Grid2D, p: PsfParams,
                  cfg: DetectorConfig, template: np.ndarray, peak: float,
                  envelope: bool,
                  v_tag: tuple[float, float] | None = None
                  ) -> list[list[Localization]]:
    """Matched filter and detect on every frame of a (nt, nz, nx) stack.

    envelope strips the axial carrier first (magnitude of the analytic
    signal along z), as the post-mode chain does.
    """
    if envelope:
        data = np.abs(scipy.signal.hilbert(data, axis=1))
    out: list[list[Localization]] = []
    for t in range(data.shape[0]):
        corr = matched_filter_map(data[t], grid, p, template=template)
        out.append(detect(corr, grid, cfg, peak, t_index=t, v_tag=v_tag,
                          wavelength=p.wavelength))
    return out


def _check_mode(mode: str) -> None:
    if mode not in ("pre", "post"):
        raise ValueError(f"unsupported detection mode {mode!r}")


def localize_frames(frames: FrameStack, p: PsfParams,
                    cfg: DetectorConfig | None = None, mode: str = "pre"
                    ) -> list[list[Localization]]:
    """Detect on the frames as-is (no velocity filtering, no velocity tags).

    The baseline the filter bank is compared against: same template,
    threshold, and refinement, applied to the raw stack.
    """
    _check_mode(mode)
    template = psf_template(frames.grid, p, mode=mode)
    peak = template_autocorr_peak(template, frames.grid)
    return _detect_stack(frames.data, frames.grid, p, cfg or DetectorConfig(),
                         template, peak, envelope=mode == "post")


def run_pipeline(frames: FrameStack, bank: FilterBankSpec, p: PsfParams,
                 cfg: DetectorConfig | None = None, mode: str = "pre",
                 to_params: ToParams | None = None, fine_factor: int = 4,
                 boundary: str = "pad", workers: int = 1) -> PipelineResult:
    """Velocity-filter bank -> matched filter -> detect -> merge -> maps.

    Each bank member's detections carry its v_f as the velocity estimate.
    Members the bank routes through the TO prefilter are matched against
    the TO template with no envelope step. Duplicates across members (same
    frame, within lambda/4) keep the higher score. Accumulation and the
    max-speed velocity map live on a grid fine_factor times finer than the
    frame grid.
    """
    _check_mode(mode)
    cfg = cfg or DetectorConfig()
    grid = frames.grid
    # (template, autocorrelation peak, envelope step) keyed by used_to
    template = psf_template(grid, p, mode=mode)
    chains = {False: (template, template_autocorr_peak(template, grid),
                      mode == "post")}
    if to_params is not None:
        template = psf_template(grid, p, mode="to", to=to_params)
        chains[True] = (template, template_autocorr_peak(template, grid),
                        False)
    frame_locs: list[list[Localization]] = [[] for _ in range(frames.nt)]

    def sink(i: int, fspec: VelocityFilterSpec, out: FrameStack,
             used_to: bool) -> None:
        per_frame = _detect_stack(out.data, grid, p, cfg, *chains[used_to],
                                  v_tag=fspec.v_f)
        for cands, locs in zip(frame_locs, per_frame):
            cands.extend(locs)

    run_filter_bank(frames, bank, to_params=to_params, sink=sink,
                    boundary=boundary, workers=workers)
    merged = [_merge_frame(cands, p.wavelength / 4.0) for cands in frame_locs]
    fine = make_fine_grid(grid, fine_factor)
    acc = accumulate(merged, fine)
    vmap = velocity_map_from_locs(merged, fine)
    return PipelineResult(per_frame=merged, acc=acc, vmap=vmap)


# ---------------------------------------------------------------------------
# CSV round-trip.

def save_localizations_csv(locs: Iterable, path: str | Path) -> Path:
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_index", "x_mm", "z_mm", "score",
                         "vf_x_mm_s", "vf_z_mm_s"])
        for loc in _flatten(locs):
            vfx = "" if loc.v_tag is None else f"{loc.v_tag[0]:.9g}"
            vfz = "" if loc.v_tag is None else f"{loc.v_tag[1]:.9g}"
            writer.writerow([loc.t_index, f"{loc.pos[0]:.9g}",
                             f"{loc.pos[1]:.9g}", f"{loc.score:.9g}",
                             vfx, vfz])
    return path


def load_localizations_csv(path: str | Path) -> list[Localization]:
    out: list[Localization] = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            tag = None
            if row["vf_x_mm_s"] != "" and row["vf_z_mm_s"] != "":
                tag = (float(row["vf_x_mm_s"]), float(row["vf_z_mm_s"]))
            out.append(Localization(t_index=int(row["t_index"]),
                                    pos=(float(row["x_mm"]), float(row["z_mm"])),
                                    score=float(row["score"]), v_tag=tag))
    return out
