"""Evaluation metrics for localization and velocity mapping.

The localization error (LE) compares truth and estimated point sets without
any pairing step: both sets are rasterized as impulses, the difference is
blurred with an anisotropic Gaussian aligned to the flow direction, and the
squared L2 norm is scaled so a single bubble displaced by a small d scores
||A d||^2 with A = Sigma^{-1/2} R(theta). Perpendicular-to-flow errors are
weighted more heavily than parallel ones via sigma_perp < sigma_par.

The blur is never formed in space: by Parseval, the norm of the full linear
convolution on the zero-padded raster is a weighted sum over the product of
the two spectra, and the kernel's weighted power spectrum is cached per
(blur widths, flow angle, grid), so each frame costs one real FFT.
scipy.fft is imported by the functions that transform, not with the module.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import FrameStack, Grid2D, make_fine_grid


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


def le_grid(grid: Grid2D, le: LeParams) -> Grid2D:
    """grid subdivided by ceil(max(dx, dz) / (sigma_perp/4)), so both
    spacings are sigma_perp/4 or finer, as localization_error requires."""
    coarse = max(grid.dx, grid.dz)
    factor = max(1, math.ceil(coarse / (le.sigma_perp / 4.0)))
    if coarse / factor > le.sigma_perp / 4.0:   # the ceil rounded down
        factor += 1
    return make_fine_grid(grid, factor)


def _splat_difference(est: np.ndarray, truth: np.ndarray, grid: Grid2D,
                      shape: tuple[int, int]) -> np.ndarray:
    """Unit impulses of est minus those of truth, deposited on grid with
    bilinear sub-pixel weights and zero-padded to shape >= (nz, nx)."""
    points = np.concatenate([est, truth])
    sign = np.repeat([1.0, -1.0], [len(est), len(truth)])
    fx = (points[:, 0] - grid.x0) / grid.dx
    fz = (points[:, 1] - grid.z0) / grid.dz
    ix = np.floor(fx).astype(int)
    iz = np.floor(fz).astype(int)
    wx = fx - ix
    wz = fz - iz
    index, weight = [], []
    for dz_, dx_ in ((0, 0), (0, 1), (1, 0), (1, 1)):
        w = sign * (wz if dz_ else 1.0 - wz) * (wx if dx_ else 1.0 - wx)
        zz = iz + dz_
        xx = ix + dx_
        ok = (zz >= 0) & (zz < grid.nz) & (xx >= 0) & (xx < grid.nx)
        index.append(zz[ok] * shape[1] + xx[ok])
        weight.append(w[ok])
    flat = np.bincount(np.concatenate(index), np.concatenate(weight),
                       minlength=shape[0] * shape[1])
    return flat.reshape(shape)


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


@functools.lru_cache(maxsize=8)
def _le_kernel_power(sigma_par: float, sigma_perp: float, theta: float,
                     grid: Grid2D) -> tuple[tuple[int, int], np.ndarray]:
    """FFT shape and read-only weighted kernel power w_k |K_k|^2 dx dz / N.

    The shape holds the full linear convolution of a grid-sized raster with
    the kernel. On the real half-spectrum, w_k is 2 for the columns that
    stand for a conjugate pair and 1 for column 0 and an even-length
    Nyquist column, so sum_k w_k |D_k|^2 |K_k|^2 / N = ||K * d||^2.
    """
    import scipy.fft
    kernel = _le_kernel(LeParams(sigma_par, sigma_perp, theta), grid)
    full = (grid.nz + kernel.shape[0] - 1, grid.nx + kernel.shape[1] - 1)
    fshape = tuple(scipy.fft.next_fast_len(n, real=True) for n in full)
    spec = scipy.fft.rfftn(kernel, fshape)
    power = spec.real**2 + spec.imag**2
    power[:, 1:(fshape[1] + 1) // 2] *= 2.0
    power *= grid.dx * grid.dz / (fshape[0] * fshape[1])
    power.flags.writeable = False
    return fshape, power


def localization_error(truth_points, est_points, le: LeParams,
                       grid: Grid2D) -> float:
    """Pairing-free localization error of an estimated point set.

    Zero iff the rasterized sets coincide; a lone bubble displaced by d
    scores (4/T)(1 - exp(-d^T M d / 4)) ~= ||A d||^2 / T, so small errors
    are read in units of the blur widths. Mismatched counts are penalized
    automatically (an unmatched point contributes 2/T).

    Both sets are deposited bilinearly on grid; the squared norm of the
    blurred difference is taken by Parseval on the zero-padded raster, with
    the kernel spectrum cached across calls (see _le_kernel_power), so a
    call costs one real FFT of the padded raster.
    """
    import scipy.fft
    if le.n_bubbles_t <= 0:
        raise ValueError("n_bubbles_t must be positive")
    if grid.dx > le.sigma_perp / 4.0 or grid.dz > le.sigma_perp / 4.0:
        raise ValueError("evaluation grid too coarse: dx or dz > sigma_perp/4")
    truth_points = np.asarray(truth_points, dtype=np.float64).reshape(-1, 2)
    est_points = np.asarray(est_points, dtype=np.float64).reshape(-1, 2)
    fshape, power = _le_kernel_power(le.sigma_par, le.sigma_perp, le.theta,
                                     grid)
    spec = scipy.fft.rfftn(_splat_difference(est_points, truth_points, grid,
                                             fshape))
    # sum_k power_k |D_k|^2 without full-size temporaries
    norm_sq = float(np.einsum("ij,ij,ij->", spec.real, spec.real, power)
                    + np.einsum("ij,ij,ij->", spec.imag, spec.imag, power))
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
        if not grid.contains(px, pz):
            raise ValueError(f"bubble position outside grid at frame {t}")
        win = (X - px) ** 2 + (Z - pz) ** 2 <= window_radius**2
        num = float(np.max(np.abs(before.data[t][win])))
        den = float(np.max(np.abs(after.data[t][win])))
        if den == 0.0:
            return math.inf
        ratios.append(num / den)
    return float(np.mean(ratios))

