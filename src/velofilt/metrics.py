"""Evaluation metrics for localization and velocity mapping.

The localization error (LE) compares truth and estimated point sets without
any pairing step: both sets are rasterized as impulses, the difference is
blurred with an anisotropic Gaussian aligned to the flow direction, and the
squared L2 norm is scaled so a single bubble displaced by a small d scores
||A d||^2 with A = Sigma^{-1/2} R(theta). Perpendicular-to-flow errors are
weighted more heavily than parallel ones via sigma_perp < sigma_par.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.signal

from .core import FrameStack, Grid2D


@dataclass(frozen=True)
class LeParams:
    """Blur widths along/across the flow (mm), flow angle, and the
    normalizing bubble count T."""

    sigma_par: float
    sigma_perp: float
    theta: float = 0.0
    n_bubbles_t: int = 1

    def __post_init__(self) -> None:
        if not self.sigma_par >= self.sigma_perp > 0:
            raise ValueError("need sigma_par >= sigma_perp > 0")

    @property
    def a_matrix(self) -> np.ndarray:
        """A = Sigma^{-1/2} R(theta); rows map (x, z) to (par, perp) axes."""
        c, s = math.cos(self.theta), math.sin(self.theta)
        rot = np.array([[c, s], [-s, c]])
        return np.diag([1.0 / self.sigma_par, 1.0 / self.sigma_perp]) @ rot

    @property
    def m_matrix(self) -> np.ndarray:
        a = self.a_matrix
        return a.T @ a


def default_le_params(wavelength: float, theta: float = 0.0,
                      n_bubbles_t: int = 1) -> LeParams:
    return LeParams(sigma_par=0.3 * wavelength, sigma_perp=0.15 * wavelength,
                    theta=theta, n_bubbles_t=n_bubbles_t)


def _splat_bilinear(points: np.ndarray, grid: Grid2D) -> np.ndarray:
    """Deposit unit impulses with bilinear sub-pixel weights."""
    img = np.zeros((grid.nz, grid.nx))
    if points.size == 0:
        return img
    fx = (points[:, 0] - grid.x0) / grid.dx
    fz = (points[:, 1] - grid.z0) / grid.dz
    ix = np.floor(fx).astype(int)
    iz = np.floor(fz).astype(int)
    wx = fx - ix
    wz = fz - iz
    for dz_, dx_ in ((0, 0), (0, 1), (1, 0), (1, 1)):
        w = (wz if dz_ else 1.0 - wz) * (wx if dx_ else 1.0 - wx)
        zz = iz + dz_
        xx = ix + dx_
        ok = (zz >= 0) & (zz < grid.nz) & (xx >= 0) & (xx < grid.nx)
        np.add.at(img, (zz[ok], xx[ok]), w[ok])
    return img


def _le_kernel(le: LeParams, grid: Grid2D) -> np.ndarray:
    """exp(-r^T M r / 2) sampled out to 4 sigma_par in both axes."""
    hx = int(math.ceil(4.0 * le.sigma_par / grid.dx))
    hz = int(math.ceil(4.0 * le.sigma_par / grid.dz))
    x = np.arange(-hx, hx + 1) * grid.dx
    z = np.arange(-hz, hz + 1) * grid.dz
    X, Z = np.meshgrid(x, z)
    m = le.m_matrix
    quad = m[0, 0] * X**2 + 2.0 * m[0, 1] * X * Z + m[1, 1] * Z**2
    return np.exp(-0.5 * quad)


def localization_error(truth_points, est_points, le: LeParams,
                       grid: Grid2D) -> float:
    """Pairing-free localization error of an estimated point set.

    Zero iff the rasterized sets coincide; a lone bubble displaced by d
    scores (4/T)(1 - exp(-d^T M d / 4)) ~= ||A d||^2 / T, so small errors
    are read in units of the blur widths. Mismatched counts are penalized
    automatically (an unmatched point contributes 2/T).
    """
    if le.n_bubbles_t <= 0:
        raise ValueError("n_bubbles_t must be positive")
    if grid.dx > le.sigma_perp / 4.0 or grid.dz > le.sigma_perp / 4.0:
        raise ValueError("evaluation grid too coarse: need dx <= sigma_perp/4")
    truth_points = np.asarray(truth_points, dtype=np.float64).reshape(-1, 2)
    est_points = np.asarray(est_points, dtype=np.float64).reshape(-1, 2)
    diff = _splat_bilinear(est_points, grid) - _splat_bilinear(truth_points, grid)
    blurred = scipy.signal.fftconvolve(diff, _le_kernel(le, grid), mode="full")
    norm_sq = float(np.sum(blurred**2)) * grid.dx * grid.dz
    return 2.0 / (le.sigma_par * le.sigma_perp * math.pi
                  * le.n_bubbles_t) * norm_sq


def localization_error_frames(truth_frames, est_frames, le: LeParams,
                              grid: Grid2D, frame_step: int = 1) -> float:
    """Mean per-frame LE; frames with no truth points are skipped.

    Pooling frames onto one raster would let kernels from different times
    stack quadratically; the metric is only meaningful frame by frame.
    le.n_bubbles_t is overridden with each frame's truth count.
    """
    vals = []
    for t in range(0, min(len(truth_frames), len(est_frames)), frame_step):
        truth = np.asarray(truth_frames[t], dtype=np.float64).reshape(-1, 2)
        if truth.shape[0] == 0:
            continue
        le_t = replace(le, n_bubbles_t=truth.shape[0])
        vals.append(localization_error(truth, est_frames[t], le_t, grid))
    if not vals:
        raise ValueError("no frames with truth points")
    return float(np.mean(vals))


def iou(mask_a: np.ndarray, mask_b: np.ndarray) -> float:
    """Intersection over union of two masks; both empty counts as 1."""
    if mask_a.shape != mask_b.shape:
        raise ValueError("mask shapes differ")
    a = mask_a.astype(bool)
    b = mask_b.astype(bool)
    union = int(np.count_nonzero(a | b))
    if union == 0:
        return 1.0
    return int(np.count_nonzero(a & b)) / union


def fve(truth_vx: np.ndarray, truth_vz: np.ndarray, est_vx: np.ndarray,
        est_vz: np.ndarray, fastest_q: float | None = None,
        speed_only: bool = False) -> float:
    """Average velocity error per truth pixel (mm/s).

    Per-pixel error is |dvx| + |dvz| (component-wise 1-norm), or the
    absolute speed difference with speed_only. The normalizer is the count
    of nonzero-speed truth pixels. fastest_q restricts the average to the
    truth pixels whose speed reaches the top q fraction (per-pixel speed
    quantile over the truth support).
    """
    if truth_vx.shape != est_vx.shape or truth_vz.shape != est_vz.shape:
        raise ValueError("map shapes differ")
    truth_speed = np.hypot(truth_vx, truth_vz)
    support = truth_speed > 0.0
    if not support.any():
        raise ValueError("truth velocity map is empty")
    if fastest_q is not None:
        if not 0.0 < fastest_q <= 1.0:
            raise ValueError("fastest_q must be in (0, 1]")
        cut = np.quantile(truth_speed[support], 1.0 - fastest_q)
        support = support & (truth_speed >= cut)
    if speed_only:
        err = np.abs(truth_speed - np.hypot(est_vx, est_vz))
    else:
        err = np.abs(truth_vx - est_vx) + np.abs(truth_vz - est_vz)
    return float(err[support].sum() / np.count_nonzero(support))


def measure_attenuation(before: FrameStack, after: FrameStack, pos,
                        window_radius: float,
                        frame_range: tuple[int, int] | None = None) -> float:
    """Empirical peak-magnitude ratio around a (possibly moving) bubble.

    pos is (x, z) or an (nt, 2) per-frame track; the ratio of windowed peak
    magnitudes is averaged over the frames in frame_range (default: all).
    Returns inf when the filtered peak vanishes within a frame.
    """
    if before.data.shape != after.data.shape:
        raise ValueError("stacks differ in shape")
    if window_radius <= 0:
        raise ValueError("window_radius must be positive")
    grid = before.grid
    pos = np.asarray(pos, dtype=np.float64)
    if pos.ndim == 1:
        pos = np.tile(pos, (before.nt, 1))
    if pos.shape != (before.nt, 2):
        raise ValueError("pos must be (2,) or (nt, 2)")
    lo, hi = frame_range if frame_range is not None else (0, before.nt)
    if not 0 <= lo < hi <= before.nt:
        raise ValueError("bad frame_range")
    X, Z = grid.meshgrid()
    ratios = []
    for t in range(lo, hi):
        px, pz = pos[t]
        x_end = grid.x0 + grid.dx * (grid.nx - 1)
        z_end = grid.z0 + grid.dz * (grid.nz - 1)
        if not (grid.x0 <= px <= x_end and grid.z0 <= pz <= z_end):
            raise ValueError(f"bubble position outside grid at frame {t}")
        win = (X - px) ** 2 + (Z - pz) ** 2 <= window_radius**2
        num = float(np.max(np.abs(before.data[t][win])))
        den = float(np.max(np.abs(after.data[t][win])))
        if den == 0.0:
            return math.inf
        ratios.append(num / den)
    return float(np.mean(ratios))

