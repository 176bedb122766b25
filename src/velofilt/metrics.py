"""Evaluation metrics for localization and velocity mapping.

The localization error (LE) compares truth and estimated point sets without
any pairing step, frame by frame: the truth and localization tables
(phantom.TRUTH_DTYPE, localize.LOC_DTYPE) are grouped by their frame t
once. Both sets are taken as point impulses, the difference is
blurred with an anisotropic Gaussian aligned to the flow direction, and the
squared L2 norm is scaled so a single bubble displaced by a small d scores
||A d||^2 with A = Sigma^{-1/2} R(theta). Perpendicular-to-flow errors are
weighted more heavily than parallel ones via sigma_perp < sigma_par.

For point impulses that norm has a closed form, a sum over point pairs of a
Gaussian in the whitened distance, so no raster or transform is formed. On
dense frames the sum skips the pairs the Gaussian cannot reach: those more
than sqrt(4 * 37) ~= 12.2 whitened units apart along the flow, whose terms
are below e^-37 of a diagonal term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import PAIR_BLOCK, FrameStack, Grid2D


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
        par, perp = 1.0 / self.sigma_par, 1.0 / self.sigma_perp
        return np.array([[par * c, par * s], [-perp * s, perp * c]])


def default_le_params(wavelength: float, theta: float = 0.0,
                      n_bubbles_t: int = 1) -> LeParams:
    return LeParams(sigma_par=0.3 * wavelength, sigma_perp=0.15 * wavelength,
                    theta=theta, n_bubbles_t=n_bubbles_t)


# A pair further apart than _REACH in the first whitened coordinate has a
# Gaussian term below e^-37 ~= 8.5e-17 of a diagonal term; it is not summed.
_REACH = math.sqrt(4.0 * 37.0)
# exp's arguments are floored here: a term below e^-100 ~= 4e-44 counts as
# e^-100, far below the rounding of a pair sum whose diagonal terms are 1.
# Results near underflow take exp's slow path (numpy 2.4, x86-64 AVX-512:
# 18 ns an element, not 1 ns).
_EXP_FLOOR = -100.0


def _gauss_sum(u: np.ndarray, v: np.ndarray) -> float:
    """sum_ij exp(-|u_i - v_j|^2 / 4), where a pair further than _REACH
    apart in the first coordinate may be left out.

    Works through row blocks of u that hold at most PAIR_BLOCK pairs of the
    full sum. When u takes more than one block, u and v must be sorted by
    their first coordinate: each block then meets only the contiguous
    columns of v whose first coordinate lies within _REACH of its rows."""
    rows = max(1, PAIR_BLOCK // max(len(v), 1))
    vx = v[:, 0]
    total = 0.0
    for lo in range(0, len(u), rows):
        block, win = u[lo:lo + rows], v
        if rows < len(u):
            win = v[vx.searchsorted(block[0, 0] - _REACH, "left"):
                    vx.searchsorted(block[-1, 0] + _REACH, "right")]
        q = np.square(block[:, 0, None] - win[:, 0])
        q += np.square(block[:, 1, None] - win[:, 1])
        q *= -0.25
        np.maximum(q, _EXP_FLOOR, out=q)
        total += float(np.exp(q, out=q).sum())
    return total


def localization_error(truth_points, est_points, le: LeParams,
                       grid: Grid2D) -> float:
    """Pairing-free localization error of an estimated point set.

    Zero iff the sets coincide; a lone bubble displaced by d scores
    (4/T)(1 - exp(-d^T M d / 4)) ~= ||A d||^2 / T, so small errors are read
    in units of the blur widths. Mismatched counts are penalized
    automatically (an unmatched point contributes 2/T). Points outside grid
    are not scored.

    With K(r) = exp(-r^T M r / 2), the squared norm of K * (est impulses
    - truth impulses) is pi sigma_par sigma_perp [S(t, t) + S(e, e)
    - 2 S(t, e)], where S(a, b) sums exp(-D^T M D / 4) over the pairs of
    points of a and b with difference D. As D^T M D = |A D|^2, S is
    _gauss_sum of the whitened points A p.

    Pairs further apart than _REACH in the first whitened coordinate may
    be left out of each S, each term below e^-37. So for n truth and m
    estimated points the result is within (2/T) (n + m)^2 e^-37 of the
    full sum. Identical sets run the same arithmetic in all three sums and
    score exactly 0.
    """
    if le.n_bubbles_t <= 0:
        raise ValueError("n_bubbles_t must be positive")
    a_t = le.a_matrix.T

    def whitened(points) -> np.ndarray:
        p = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        return p[grid.contains(p[:, 0], p[:, 1])] @ a_t

    u, v = whitened(truth_points), whitened(est_points)
    if max(len(u), len(v)) ** 2 > PAIR_BLOCK:
        # some sum takes more than one row block, which _gauss_sum windows
        # on sets sorted by their first coordinate (ties in input order); a
        # frame whose sums are one block each is left unsorted
        u, v = (w[np.argsort(w[:, 0], kind="stable")] for w in (u, v))
    pair_sum = _gauss_sum(u, u) + _gauss_sum(v, v) - 2.0 * _gauss_sum(u, v)
    return 2.0 / le.n_bubbles_t * pair_sum


def localization_error_frames(truth: np.ndarray, est: np.ndarray,
                              le: LeParams, grid: Grid2D) -> float:
    """Mean per-frame LE of two tables' (x, z) positions, grouped by t with
    rows in table order, over the frames that hold a truth point.

    Pooling frames into one point set would let kernels from different
    times stack quadratically; the metric is only meaningful frame by frame.
    le.n_bubbles_t is overridden with each frame's truth count."""
    # a table in frame order, as every writer makes it, is not copied
    truth, est = (a if np.all(a["t"][1:] >= a["t"][:-1])
                  else a[np.argsort(a["t"], kind="stable")]
                  for a in (truth, est))
    if not len(truth):
        raise ValueError("no frames with truth points")
    t = truth["t"]
    cuts = np.append(np.flatnonzero(np.diff(t, prepend=t[0] - 1)), len(t))
    lo, hi = (est["t"].searchsorted(t[cuts[:-1]], side)
              for side in ("left", "right"))
    return float(np.mean([localization_error(
        np.column_stack([truth["x"][a:b], truth["z"][a:b]]),
        np.column_stack([est["x"][c:d], est["z"][c:d]]),
        replace(le, n_bubbles_t=int(b - a)), grid)
        for a, b, c, d in zip(cuts[:-1], cuts[1:], lo, hi)]))


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
        est_vz: np.ndarray, fastest_q: float | None = None) -> float:
    """Average velocity error per truth pixel (mm/s).

    Per-pixel error is |dvx| + |dvz| (component-wise 1-norm). The
    normalizer is the count of nonzero-speed truth pixels. fastest_q
    restricts the average to the truth pixels whose speed reaches the top q
    fraction (per-pixel speed quantile over the truth support).
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

