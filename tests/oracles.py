"""Independent slow-path references for the closed forms and the filter
path under test.

Everything here is built from first principles (quadrature over the window,
plain DFT sums, geometric projection integrals, the shift-and-sum form of
the velocity filter) without touching the package's closed-form
implementations, so agreement is evidence rather than tautology.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.fft
import scipy.integrate
import scipy.ndimage
import scipy.signal

from closed_forms import m_matrix
from velofilt.core import (PAIR_BLOCK, FrameStack, FrameStream,
                           gather_frames, kx_lattice, kz_lattice)
from velofilt.phantom import synthesize_frames
from velofilt.psf import (eval_post_envelope, eval_pre_envelope, eval_to_psf)


def window_weight(s, sigma_t):
    return math.exp(-0.5 * (s / sigma_t) ** 2) / (math.sqrt(2.0 * math.pi)
                                                  * sigma_t)


def filtered_response_quad(x, z, dv, p, sigma_t, mode="pre", to=None,
                           span=8.0):
    """Filtered single-bubble response by direct window quadrature.

    dv is (filter velocity - bubble velocity). The filter drags the PSF
    along -dv with Gaussian weights in time:
        q(r) = integral w(s) g(r - s dv) ds
    """
    if mode == "pre":
        g = lambda xx, zz: eval_pre_envelope(p, xx, zz)
    elif mode == "post":
        g = lambda xx, zz: eval_post_envelope(p, xx, zz)
    elif mode == "to":
        g = lambda xx, zz: eval_to_psf(p, to, xx, zz)
    else:
        raise ValueError(mode)
    dvx, dvz = dv

    def integrand(s):
        return window_weight(s, sigma_t) * float(g(x - s * dvx, z - s * dvz))

    val, err = scipy.integrate.quad(integrand, -span * sigma_t,
                                    span * sigma_t, limit=200)
    return val


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


def apply_filter_direct(frames, spec, trunc_sigmas=4.0):
    """Shift-and-sum oracle: average along the selected trajectory.

    phi(r, t) = sum_j w(j dt) dt * b(r - v_f * (j dt), t - j), with the sum
    over window lags and b zero outside the recorded frames. Spatial
    sub-pixel shifts are Fourier phase ramps (band-limited interpolation),
    so this equals the FFT path up to the temporal boundary treatment and
    window truncation, provided the frame rate resolves the Doppler band:
    the time-sampled window aliases the gain with period 2 pi / dt along
    Omega, so agreement needs sigma_t * (pi/dt - max|k . v_f|) >> 1.
    """
    win = gaussian_window(spec.sigma_t, frames.dt, trunc_sigmas=trunc_sigmas)
    if len(win) > 4 * frames.nt:
        raise ValueError("window truncation far exceeds the stack length")
    kx = kx_lattice(frames.grid)
    kz = kz_lattice(frames.grid)
    frames_hat = scipy.fft.fft2(frames.data, axes=(1, 2))
    out_hat = np.zeros_like(frames_hat)
    vfx, vfz = spec.v_f
    lags = np.arange(-win.half_width, win.half_width + 1)
    for j, w_j in zip(lags, win.weights):
        j = int(j)
        tau = j * frames.dt
        ramp = np.exp(-1j * (kx[None, :] * (vfx * tau)
                             + kz[:, None] * (vfz * tau)))
        lo_out = max(0, j)
        hi_out = min(frames.nt, frames.nt + j)
        if lo_out >= hi_out:
            continue
        src = frames_hat[lo_out - j:hi_out - j]
        out_hat[lo_out:hi_out] += (w_j * frames.dt) * src * ramp[None, :, :]
    out = scipy.fft.ifft2(out_hat, axes=(1, 2)).real
    return FrameStack(grid=frames.grid, nt=frames.nt, dt=frames.dt,
                      data=np.ascontiguousarray(out))


def dft_filter_reference(data, grid, dt, v_f, sigma_t):
    """O(N^2) application of the separable gain on the plain DFT lattice.

    Matches the FFT path with periodic boundary handling; kept loop-free in
    space but explicit in the gain construction.
    """
    nt, nz, nx = data.shape
    kx = 2.0 * math.pi * np.fft.fftfreq(nx, d=grid.dx)
    kz = 2.0 * math.pi * np.fft.fftfreq(nz, d=grid.dz)
    om = 2.0 * math.pi * np.fft.fftfreq(nt, d=dt)
    spec = np.fft.fftn(data)
    shift = (om[:, None, None] + kx[None, None, :] * v_f[0]
             + kz[None, :, None] * v_f[1])
    gain = np.exp(-0.5 * (sigma_t * shift) ** 2)
    return np.fft.ifftn(spec * gain).real


def quadratic_offset_lstsq(patch):
    """Stationary point of the LS quadratic through a 3x3 patch, in pixels,
    by a general least-squares solve and a general 2x2 solve; (0, 0) when
    the Hessian is not definite, clipped to half a pixel."""
    u = np.array([-1.0, 0.0, 1.0])
    ux, uz = np.tile(u, 3), np.repeat(u, 3)
    a = np.column_stack([np.ones(9), ux, uz, ux**2, uz**2, ux * uz])
    coef, *_ = np.linalg.lstsq(a, np.ravel(patch), rcond=None)
    _, bx, bz, cxx, czz, cxz = coef
    hess = np.array([[2.0 * cxx, cxz], [cxz, 2.0 * czz]])
    if np.linalg.det(hess) <= 0:
        return 0.0, 0.0
    dx, dz = np.linalg.solve(hess, [-bx, -bz])
    return float(np.clip(dx, -0.5, 0.5)), float(np.clip(dz, -0.5, 0.5))


def projected_density_ref(rho, vessel):
    """Chord length through the cylinder cross-section times concentration."""
    rho = np.asarray(rho, dtype=np.float64)
    inside = np.abs(rho) < vessel.radius_r
    out = np.zeros_like(rho)
    out[inside] = 2.0 * vessel.c_mb * np.sqrt(vessel.radius_r**2
                                              - rho[inside] ** 2)
    return out


def band_density_quad(rho, v_lo, v_hi, vessel):
    """Density of bubbles with speed in [v_lo, v_hi] at in-plane offset rho.

    Substituting u = sqrt(1 - v/v0) removes the inverse-sqrt singularity at
    the local speed maximum, so plain quadrature converges.
    """
    r, v0, c = vessel.radius_r, vessel.v0, vessel.c_mb
    if abs(rho) >= r:
        return 0.0
    vmax = v0 * (1.0 - (rho / r) ** 2)
    lo = max(v_lo, 0.0)
    hi = min(v_hi, vmax)
    if hi <= lo:
        return 0.0
    # v = v0 (1 - u^2), depth y = sqrt(r^2 u^2 - rho^2)
    u_hi = math.sqrt(1.0 - lo / v0)
    u_lo = math.sqrt(1.0 - hi / v0)

    def integrand(u):
        # integrable 1/sqrt singularity sits at the lower endpoint
        # (u = |rho|/r) when the band reaches the local speed maximum;
        # guard against nodes landing there through rounding
        arg = r**2 * u**2 - rho**2
        if arg <= 0.0:
            return 0.0
        return 2.0 * c * r**2 * u / math.sqrt(arg)

    val, err = scipy.integrate.quad(integrand, u_lo, u_hi, limit=200)
    return val


def correlation_peak_ref(field, template, dx, dz):
    """Largest raw cross-correlation value between two sampled images."""
    corr = scipy.signal.fftconvolve(field, template[::-1, ::-1], mode="same")
    return float(corr.max()) * dx * dz


def local_max_candidates(corr, thresh):
    """(row, col) pixels above thresh that equal their 3x3 maximum, with
    the neighbourhood clamped at the edges."""
    peak = scipy.ndimage.maximum_filter(corr, size=3, mode="nearest")
    return {tuple(ij) for ij in np.argwhere((corr == peak) & (corr > thresh))}


def replica_reach_ref(template, dx, dz, level):
    """Distance from lag 0 of the farthest 3x3 local maximum above level of
    the template's full linear autocorrelation, scaled by the pixel area,
    summed directly."""
    ac = scipy.signal.correlate(template, template, mode="full",
                                method="direct") * (dx * dz)
    mz, mx = template.shape
    return max(math.hypot((i - mz + 1) * dz, (j - mx + 1) * dx)
               for i, j in local_max_candidates(ac, level))


def disk_closing(mask, radius):
    """Morphological closing of a boolean mask by a disk of the radius."""
    yy, xx = np.mgrid[-radius:radius + 1, -radius:radius + 1]
    return scipy.ndimage.binary_closing(
        mask, structure=(xx**2 + yy**2) <= radius**2)


def localization_error_raster(truth_points, est_points, le, grid):
    """LE by blurring the bilinear difference raster in space.

    A discretized form of metrics.localization_error's closed-form norm:
    deposit both sets with bilinear weights, convolve the difference with
    the sampled kernel exp(-r^T M r / 2) (4 sigma_par support, "full"
    output) and sum the squares of the blurred raster. The deposit smooths
    each point, so this reads low by a fraction that shrinks with the grid
    spacing.
    """
    diff = np.zeros((grid.nz, grid.nx))
    for sign, pts in ((1.0, est_points), (-1.0, truth_points)):
        for x, z in np.asarray(pts, dtype=np.float64).reshape(-1, 2):
            fx = (x - grid.x0) / grid.dx
            fz = (z - grid.z0) / grid.dz
            ix, iz = math.floor(fx), math.floor(fz)
            wx, wz = fx - ix, fz - iz
            for jz, wzj in ((iz, 1.0 - wz), (iz + 1, wz)):
                for jx, wxj in ((ix, 1.0 - wx), (ix + 1, wx)):
                    if 0 <= jz < grid.nz and 0 <= jx < grid.nx:
                        diff[jz, jx] += sign * wzj * wxj
    hx = math.ceil(4.0 * le.sigma_par / grid.dx)
    hz = math.ceil(4.0 * le.sigma_par / grid.dz)
    X, Z = np.meshgrid(np.arange(-hx, hx + 1) * grid.dx,
                       np.arange(-hz, hz + 1) * grid.dz)
    r = np.stack([X, Z], axis=-1)
    kernel = np.exp(-0.5 * np.einsum("...i,ij,...j->...", r, m_matrix(le), r))
    blurred = scipy.signal.fftconvolve(diff, kernel, mode="full")
    norm_sq = float(np.sum(blurred**2)) * grid.dx * grid.dz
    n_truth = len(np.asarray(truth_points).reshape(-1, 2))
    return 2.0 / (le.sigma_par * le.sigma_perp * math.pi * n_truth) * norm_sq


def gauss_sum_dense(u, v):
    """sum_ij exp(-|u_i - v_j|^2 / 4) over every pair, in row blocks of u
    that hold at most PAIR_BLOCK pairs."""
    rows = max(1, PAIR_BLOCK // max(len(v), 1))
    total = 0.0
    for lo in range(0, len(u), rows):
        block = u[lo:lo + rows]
        q = np.square(block[:, 0, None] - v[:, 0])
        q += np.square(block[:, 1, None] - v[:, 1])
        q *= -0.25
        total += float(np.exp(q, out=q).sum())
    return total


def localization_error_dense(truth_points, est_points, le, grid):
    """metrics.localization_error's closed form summed over every point
    pair, in the given point order."""
    a_t = le.a_matrix.T

    def whitened(points):
        p = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        return p[grid.contains(p[:, 0], p[:, 1])] @ a_t

    u, v = whitened(truth_points), whitened(est_points)
    pair_sum = (gauss_sum_dense(u, u) + gauss_sum_dense(v, v)
                - 2.0 * gauss_sum_dense(u, v))
    return 2.0 / len(np.asarray(truth_points).reshape(-1, 2)) * pair_sum


def _bin_index_loop(x, z, grid):
    ix = int(round((x - grid.x0) / grid.dx))
    iz = int(round((z - grid.z0) / grid.dz))
    if 0 <= ix < grid.nx and 0 <= iz < grid.nz:
        return iz, ix
    return None


def accumulate_loop(rows, grid):
    """Fine-grid counts, binning one (t, x, z, score, vx, vz) row at a
    time with round()."""
    counts = np.zeros((grid.nz, grid.nx), dtype=np.int64)
    for _, x, z, _, _, _ in rows:
        hit = _bin_index_loop(x, z, grid)
        if hit is not None:
            counts[hit] += 1
    return counts


def velocity_map_loop(rows, grid):
    """(speed, vx, vz) maps: in row order, a pixel takes a tagged row's
    velocity when its speed beats the pixel's so far (NaN = untagged)."""
    speed = np.zeros((grid.nz, grid.nx))
    vx = np.zeros_like(speed)
    vz = np.zeros_like(speed)
    for _, x, z, _, tx, tz in rows:
        if math.isnan(tx) or math.isnan(tz):
            continue
        hit = _bin_index_loop(x, z, grid)
        if hit is None:
            continue
        s = math.hypot(tx, tz)
        if s > speed[hit]:
            speed[hit], vx[hit], vz[hit] = s, tx, tz
    return speed, vx, vz


def merge_frame_loop(rows, radius):
    """Greedy duplicate removal over (t, x, z, score, vx, vz) rows sorted
    by descending score, then position: a row is dropped when a kept row
    lies strictly within radius."""
    kept = []
    for row in sorted(rows, key=lambda r: (-r[3], (r[1], r[2]))):
        if any((row[1] - k[1]) ** 2 + (row[2] - k[2]) ** 2 < radius**2
               for k in kept):
            continue
        kept.append(row)
    return kept


def suppress_loop(x, z, radius):
    """Greedy suppression one point at a time, in the given order: a point
    is kept unless a kept point lies strictly within radius. Mask of kept
    points."""
    keep = np.zeros(len(x), dtype=bool)
    kept = []
    for i, (xi, zi) in enumerate(zip(x.tolist(), z.tolist())):
        if any((xi - kx) ** 2 + (zi - kz) ** 2 < radius**2
               for kx, kz in kept):
            continue
        kept.append((xi, zi))
        keep[i] = True
    return keep


def velocity_gain_ref(nt, dt, nz, dz, nx, dx, v_f, sigma_t,
                      floor=-np.inf):
    """H = exp(-(sigma_t (Omega + kx vx + kz vz))^2 / 2) on the rfftn half
    lattice of an (nt, nz, nx) stack, evaluated on the whole lattice at
    once, and 0 where the exponent is below floor. On the Nyquist plane of
    each even axis it is the mean of H at the bin and at the bin with every
    even axis's Nyquist frequency negated, and 0 where that mean is below
    e^floor."""
    def lattice(n, d):
        return 2.0 * np.pi * np.fft.fftfreq(n, d=d)

    axes = [lattice(nt, dt), lattice(nz, dz), lattice(nx, dx)[:nx // 2 + 1]]
    mirror = [a.copy() for a in axes]
    nyquist = np.zeros((nt, nz, nx // 2 + 1), dtype=bool)
    for ax, (m, n) in enumerate(zip(mirror, (nt, nz, nx))):
        if n % 2 == 0:
            m[n // 2] = -m[n // 2]
            nyquist[(slice(None),) * ax + (n // 2,)] = True

    def h(om, kz, kx):
        doppler = (om[:, None, None] + kx[None, None, :] * v_f[0]
                   + kz[None, :, None] * v_f[1])
        exponent = -0.5 * (sigma_t * doppler) ** 2
        return np.where(exponent < floor, 0.0, np.exp(exponent))

    gain = h(*axes)
    gain[nyquist] = (0.5 * (gain + h(*mirror)))[nyquist]
    gain[nyquist & (gain < math.exp(floor))] = 0.0
    return gain


def trimmed_irfftn_ref(spec, s, axes, keep):
    """The whole inverse real FFT, then the kept window of each axis."""
    index = [slice(None)] * spec.ndim
    for ax, k in zip(axes, keep):
        index[ax] = k
    return scipy.fft.irfftn(spec, s, axes=axes)[tuple(index)]


def synthesize_stack(bubbles, flow, grid, nt, dt, p, **kwargs):
    """(stack, truth): phantom.synthesize_frames' float64 blocks gathered
    into one FrameStack, and its truth table. kwargs go to
    synthesize_frames."""
    truth = []

    def fill(append):
        truth.append(synthesize_frames(bubbles, flow, grid, nt, dt, p,
                                       append, **kwargs))

    return gather_frames(FrameStream(grid, nt, dt, fill)), truth[0]


def render_frame(bubbles, grid, p):
    """Sum of pre-envelope PSFs at the bubbles' image positions, one frame,
    with fresh intermediates: the allocating form that
    phantom.synthesize_frames renders in place, byte for byte."""
    ux = grid.x_coords()[None, :] - bubbles.pos[:, 0, None]    # (n, nx)
    uz = grid.z_coords()[None, :] - bubbles.pos[:, 2, None]    # (n, nz)
    s2 = 2.0 * p.sigma_r**2
    lat = np.exp(-(ux**2) / s2)
    axial = np.exp(-(uz**2) / s2) * np.cos(2.0 * math.pi * uz / p.wavelength)
    # no bubbles: a (nz, 0) @ (0, nx) product, all zeros
    return (axial.T @ lat) * p.g_e_peak


def reached_rows(nt, dt, nz, dz, nx, dx, filters, floor, slabs):
    """For each slab (z0, z1) of kz rows of the rfftn half lattice of an
    (nt, nz, nx) stack, the number of omega rows on which the
    whole-lattice gain (velocity_gain_ref with floor) of some filter in
    filters is nonzero somewhere in the slab."""
    reached = np.zeros((len(slabs), nt), dtype=bool)
    for f in filters:
        gain = velocity_gain_ref(nt, dt, nz, dz, nx, dx, f.v_f, f.sigma_t,
                                 floor)
        for s, (z0, z1) in enumerate(slabs):
            reached[s] |= gain[:, z0:z1].any(axis=(1, 2))
    return reached.sum(axis=1).tolist()
