"""Closed-form predictions for velocity-filtered bubble responses.

Everything here is analytic: how much a Gaussian-windowed velocity filter
attenuates and reshapes a single bubble's PSF as a function of the velocity
mismatch dv = v_bubble - v_filter, the induced velocity passband of the
matched-filter detector, observable bubble densities across a vessel before
and after filtering, and the corresponding noise/acquisition-time bounds.

Conventions: sigma_t is the filter window width in seconds, dv is an image
plane (dvx, dvz) mismatch in mm/s, and kappa = sigma_t * |dv| / sigma_r is
the dimensionless mismatch all the pre-envelope formulas run on.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .psf import PsfParams, ToParams, autocorr_theory, eval_to_envelope


# ---------------------------------------------------------------------------
# Single-bubble attenuation, envelope-preserving form.

@dataclass(frozen=True)
class AttenuationReport:
    """Filtered-bubble shape parameters at mismatch dv.

    The filtered response (before envelope detection) is
        gamma * g_e(eta(theta) * |r|) * cos(2 pi (z - zeta(r)) / wavelength)
    with theta the angle between r and dv. ratio_vrt = sigma_r / sigma_t is
    the speed that crosses one PSF width per window time; kappa is the
    mismatch speed in those units, |dv| / ratio_vrt.
    """

    kappa: float
    gamma: float
    ratio_vrt: float
    sigma_t: float
    psf: PsfParams
    dv: tuple[float, float]

    def eta(self, theta) -> np.ndarray:
        """Isotropic-envelope shrink factor vs angle(r, dv)."""
        theta = np.asarray(theta, dtype=np.float64)
        k2 = self.kappa**2
        return np.sqrt(1.0 - k2 * np.cos(theta) ** 2 / (1.0 + k2))

    def zeta(self, x, z) -> np.ndarray:
        """Axial carrier displacement at image point r = (x, z)."""
        x = np.asarray(x, dtype=np.float64)
        z = np.asarray(z, dtype=np.float64)
        dvx, dvz = self.dv
        norm = math.hypot(dvx, dvz)
        if norm == 0.0:
            return np.zeros(np.broadcast(x, z).shape)
        k2 = self.kappa**2
        proj = (x * dvx + z * dvz) / norm
        return (self.kappa / (1.0 + k2)) * (self.sigma_t * dvz / self.psf.sigma_r) * proj


def attenuation_pre(p: PsfParams, sigma_t: float, dv) -> AttenuationReport:
    """Peak attenuation and shape report for the carrier-bearing PSF."""
    if sigma_t <= 0:
        raise ValueError("sigma_t must be positive")
    dvx, dvz = float(dv[0]), float(dv[1])
    kappa = sigma_t * math.hypot(dvx, dvz) / p.sigma_r
    k2 = kappa**2
    gamma = math.exp(-2.0 * math.pi**2 * (sigma_t * dvz / p.wavelength) ** 2
                     / (1.0 + k2)) / math.sqrt(1.0 + k2)
    return AttenuationReport(kappa=kappa, gamma=gamma,
                             ratio_vrt=p.sigma_r / sigma_t,
                             sigma_t=sigma_t, psf=p, dv=(dvx, dvz))


def q_pre(x, z, dv, p: PsfParams, sigma_t: float) -> np.ndarray:
    """Filtered single-bubble response, carrier-bearing PSF, bubble at 0."""
    rep = attenuation_pre(p, sigma_t, dv)
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    dvx, dvz = rep.dv
    norm = math.hypot(dvx, dvz)
    k2 = rep.kappa**2
    rn2 = x**2 + z**2
    if norm == 0.0:
        proj2 = np.zeros_like(rn2)
        zeta = 0.0
    else:
        proj = (x * dvx + z * dvz) / norm
        proj2 = proj**2
        zeta = (rep.kappa / (1.0 + k2)) * (sigma_t * dvz / p.sigma_r) * proj
    shrunk = rn2 - k2 * proj2 / (1.0 + k2)     # = (eta(theta)*|r|)^2
    env = p.g_e_peak * np.exp(-shrunk / (2.0 * p.sigma_r**2))
    return rep.gamma * env * np.cos(2.0 * math.pi * (z - zeta) / p.wavelength)


def q_post(x, z, dv, p: PsfParams, sigma_t: float) -> np.ndarray:
    """Filtered single-bubble response for the envelope-detected PSF."""
    rep = attenuation_pre(p, sigma_t, dv)
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    dvx, dvz = rep.dv
    norm = math.hypot(dvx, dvz)
    k2 = rep.kappa**2
    rn2 = x**2 + z**2
    proj2 = ((x * dvx + z * dvz) / norm) ** 2 if norm > 0 else np.zeros_like(rn2)
    shrunk = rn2 - k2 * proj2 / (1.0 + k2)
    env = p.g_e_peak * np.exp(-shrunk / (2.0 * p.sigma_r**2))
    return env / math.sqrt(1.0 + k2)


def _gamma_hat(kappa: float, axial_term: float) -> float:
    """Correlation-peak attenuation factor.

    axial_term is (sigma_t * dvz / wavelength)^2; for the passband solve it
    is rewritten via dvz = kappa * sigma_r * sin(theta) / sigma_t.
    """
    k2 = kappa**2
    return math.exp(-4.0 * math.pi**2 * axial_term / (2.0 + k2)) \
        / math.sqrt(4.0 + 2.0 * k2)


def mf_peak(dv, p: PsfParams, sigma_t: float) -> float:
    """Matched-filter output at the bubble location, mismatch dv.

    Peak of the correlation of the filtered response with the clean PSF:
        [gamma_hat(dv) + 2 c_g / sqrt(4 + 2 kappa^2)] * g_e_hat(0)
    where g_e_hat is the widened envelope of the PSF autocorrelation. At
    dv = 0 this reduces to the autocorrelation peak (1/2 + c_g) g_e_hat(0).
    """
    dvx, dvz = float(dv[0]), float(dv[1])
    kappa = sigma_t * math.hypot(dvx, dvz) / p.sigma_r
    mf = autocorr_theory(p)
    gh = _gamma_hat(kappa, (sigma_t * dvz / p.wavelength) ** 2)
    return (gh + 2.0 * mf.c_g / math.sqrt(4.0 + 2.0 * kappa**2)) * mf.g_e_hat_peak


# ---------------------------------------------------------------------------
# Velocity passband of the detector.

@dataclass(frozen=True)
class VelocityPassband:
    """Half-maximum speed passband of a velocity filter + matched detection.

    delta_v is the half-width: bubbles moving along direction theta (angle
    from lateral) at speed v pass when |v - v_f| <= delta_v.
    """

    v_f: float
    delta_v: float
    kappa_delta_v: float
    theta: float
    mode: str

    @property
    def interval(self) -> tuple[float, float]:
        return (self.v_f - self.delta_v, self.v_f + self.delta_v)


def velocity_bandwidth(p: PsfParams, sigma_t: float, theta: float = 0.0,
                       mode: str = "pre", v_f: float = 0.0,
                       tol: float = 1e-12) -> VelocityPassband:
    """Solve the half-maximum condition for kappa by bisection.

    mode 'pre' solves gamma_hat(kappa) = 1/4 + c_g (1/2 - (1+kappa^2/2)^-1/2)
    on the matched-filter peak; the lateral root (theta = 0) is exactly
    sqrt(6) for any sigma_r / wavelength because the c_g terms cancel there.
    mode 'post' is the envelope-detected condition (1+kappa^2/2)^-1/2 = 1/2,
    direction independent with the same sqrt(6) root.
    """
    if mode not in ("pre", "post"):
        raise ValueError(f"unknown mode {mode!r}")
    if sigma_t <= 0:
        raise ValueError("sigma_t must be positive")
    mf = autocorr_theory(p)
    sin2 = math.sin(theta) ** 2
    ratio2 = (p.sigma_r / p.wavelength) ** 2

    def resid(kappa: float) -> float:
        k2 = kappa**2
        if mode == "post":
            return 1.0 / math.sqrt(1.0 + k2 / 2.0) - 0.5
        gh = _gamma_hat(kappa, k2 * ratio2 * sin2)
        return gh - (0.25 + mf.c_g * (0.5 - 1.0 / math.sqrt(1.0 + k2 / 2.0)))

    lo, hi = 0.0, 4.0
    while resid(hi) > 0.0:
        hi *= 2.0
        if hi > 1e6:
            raise RuntimeError("passband bracket failed")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if resid(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    kappa = 0.5 * (lo + hi)
    return VelocityPassband(v_f=v_f, delta_v=kappa * p.sigma_r / sigma_t,
                            kappa_delta_v=kappa, theta=theta, mode=mode)


# ---------------------------------------------------------------------------
# Observable bubble densities across a parabolic-flow vessel.

def apparent_density(rho, vessel) -> np.ndarray:
    """Projected 2D bubble density (per mm^2) at in-plane offset rho.

    Line integral of the uniform 3D concentration through the cylinder:
    2 c_mb sqrt(R^2 - rho^2) inside, 0 outside.
    """
    rho = np.asarray(rho, dtype=np.float64)
    r2 = vessel.radius_r**2 - rho**2
    return np.where(r2 > 0.0, 2.0 * vessel.c_mb * np.sqrt(np.maximum(r2, 0.0)), 0.0)


def joint_density(v, rho, vessel) -> np.ndarray:
    """Density over (speed, in-plane offset); integrates over v to d2(rho).

    Diverges (integrably) at v -> vmax(rho): those points return inf.
    Zero outside 0 <= v <= vmax(rho) or |rho| >= R.
    """
    v = np.asarray(v, dtype=np.float64)
    rho = np.asarray(rho, dtype=np.float64)
    v, rho = np.broadcast_arrays(v, rho)
    R = vessel.radius_r
    vmax = vessel.v0 * (1.0 - (rho / R) ** 2)
    inside = (np.abs(rho) < R) & (v >= 0.0) & (v <= vmax)
    with np.errstate(divide="ignore", invalid="ignore"):
        rad = (1.0 - v / vmax) * (1.0 - (rho / R) ** 2)
        dens = (vessel.c_mb * R / vessel.v0) / np.sqrt(rad)
    out = np.where(inside, dens, 0.0)
    return np.where(inside & (rad <= 0.0), np.inf, out)


def filtered_density(rho, v_f: float, delta_v: float, vessel) -> np.ndarray:
    """Apparent density of bubbles inside the speed passband [v_f +- delta_v].

    Closed form of the joint-density integral over the clipped passband
    [max(v_f - delta_v, 0), min(v_f + delta_v, vmax(rho))]:
        2 c_mb R [G(v_lo) - G(v_hi)],
    G(u) = sqrt((1 - u / vmax)(1 - (rho/R)^2)); zero when the clipped
    interval is empty. Integrating over all offsets recovers the total count
    of in-band bubbles per unit vessel length.
    """
    if delta_v < 0:
        raise ValueError("delta_v must be nonnegative")
    rho = np.asarray(rho, dtype=np.float64)
    R = vessel.radius_r
    vmax = vessel.v0 * (1.0 - (rho / R) ** 2)
    inside = (np.abs(rho) < R) & (vmax > 0.0)
    lo = np.maximum(v_f - delta_v, 0.0)
    hi = np.minimum(v_f + delta_v, vmax)
    cross = 1.0 - (rho / R) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        g_lo = np.sqrt(np.maximum((1.0 - lo / vmax) * cross, 0.0))
        g_hi = np.sqrt(np.maximum((1.0 - hi / vmax) * cross, 0.0))
    out = 2.0 * vessel.c_mb * R * (g_lo - g_hi)
    return np.where(inside & (hi > lo), out, 0.0)


# ---------------------------------------------------------------------------
# Transverse-oscillation PSF under the filter.

@dataclass(frozen=True)
class ToAttenuationReport:
    """Filtered-response parameters for the two-carrier TO PSF.

    The filtered response is
        g_e_to(Xi r) * sum_j gamma_j cos(theta_j(r)),
    theta_j(r) = 2 pi z / wavelength - (-1)^j 2 pi x / lambda_x_tilde
                 - phase_coeff[j-1] * (dv^T D r).
    d_matrix is D = diag(1/(sigma_r^2+sigma_x^2), 1/sigma_r^2) in (x, z)
    order; xi is the 2x2 envelope warp, identity at dv = 0.
    """

    gamma1: float
    gamma2: float
    kappa_tilde_sq: float
    xi: np.ndarray
    d_matrix: np.ndarray
    phase_coeff: tuple[float, float]
    dv: tuple[float, float]
    sigma_t: float

    @property
    def gamma_bar(self) -> float:
        """Peak-gain proxy: sum of the two carrier gains, 1 at dv = 0."""
        return self.gamma1 + self.gamma2


def to_attenuation(dv, p: PsfParams, t: ToParams,
                   sigma_t: float) -> ToAttenuationReport:
    if sigma_t <= 0:
        raise ValueError("sigma_t must be positive")
    dvx, dvz = float(dv[0]), float(dv[1])
    d00 = 1.0 / (p.sigma_r**2 + t.sigma_x**2)
    d11 = 1.0 / p.sigma_r**2
    D = np.diag([d00, d11])
    kt2 = sigma_t**2 * (dvx**2 * d00 + dvz**2 * d11)
    gammas = []
    coeffs = []
    for j in (1, 2):
        a_j = dvz / p.wavelength - (-1.0) ** j * dvx / t.lambda_x_tilde
        gammas.append(math.exp(-2.0 * math.pi**2 * sigma_t**2 * a_j**2
                               / (1.0 + kt2)) / (2.0 * math.sqrt(1.0 + kt2)))
        coeffs.append(2.0 * math.pi * sigma_t**2 * a_j / (1.0 + kt2))
    if kt2 == 0.0:
        xi = np.eye(2)
    else:
        dvv = np.array([dvx, dvz])
        xi = np.eye(2) - (sigma_t**2 / kt2) * (1.0 - 1.0 / math.sqrt(1.0 + kt2)) \
            * np.outer(dvv, dvv) @ D
    return ToAttenuationReport(gamma1=gammas[0], gamma2=gammas[1],
                               kappa_tilde_sq=kt2, xi=xi, d_matrix=D,
                               phase_coeff=(coeffs[0], coeffs[1]),
                               dv=(dvx, dvz), sigma_t=sigma_t)


def to_q(x, z, dv, p: PsfParams, t: ToParams, sigma_t: float) -> np.ndarray:
    """Filtered single-bubble response for the TO PSF, bubble at the origin."""
    rep = to_attenuation(dv, p, t, sigma_t)
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    xw = rep.xi[0, 0] * x + rep.xi[0, 1] * z
    zw = rep.xi[1, 0] * x + rep.xi[1, 1] * z
    env = eval_to_envelope(p, t, xw, zw)
    dvx, dvz = rep.dv
    dv_d_r = dvx * rep.d_matrix[0, 0] * x + dvz * rep.d_matrix[1, 1] * z
    kz = 2.0 * math.pi / p.wavelength
    kx = 2.0 * math.pi / t.lambda_x_tilde
    th1 = kz * z + kx * x - rep.phase_coeff[0] * dv_d_r
    th2 = kz * z - kx * x - rep.phase_coeff[1] * dv_d_r
    return env * (rep.gamma1 * np.cos(th1) + rep.gamma2 * np.cos(th2))


# ---------------------------------------------------------------------------
# Noise reduction and acquisition-time bounds.

@dataclass(frozen=True)
class NoiseSpec:
    """White-noise field parameters for the noise-gain bound.

    omega_max = k_g * v0_max ties the largest blood-signal temporal frequency
    to the largest spatial frequency k_g passed by the imaging system and the
    fastest flow; frame_rate_f is in frames per second.
    """

    n0: float
    k_g: float
    v0_max: float
    omega_max: float
    frame_rate_f: float

    def __post_init__(self) -> None:
        if min(self.n0, self.k_g, self.v0_max, self.omega_max,
               self.frame_rate_f) <= 0:
            raise ValueError("all noise-spec parameters must be positive")
        expected = self.k_g * self.v0_max
        if abs(self.omega_max - expected) > 1e-9 * max(expected, 1.0):
            raise ValueError("omega_max must equal k_g * v0_max")


def make_noise_spec(n0: float, k_g: float, v0_max: float,
                    frame_rate_f: float) -> NoiseSpec:
    return NoiseSpec(n0=n0, k_g=k_g, v0_max=v0_max,
                     omega_max=k_g * v0_max, frame_rate_f=frame_rate_f)


@dataclass(frozen=True)
class NrfBound:
    """Lower bounds on the white-noise power reduction factor."""

    flow_form: float
    frame_rate_form: float

    @property
    def flow_form_db(self) -> float:
        return 10.0 * math.log10(self.flow_form)

    @property
    def frame_rate_form_db(self) -> float:
        return 10.0 * math.log10(self.frame_rate_form)


def nrf_bound(n: NoiseSpec, sigma_t: float) -> NrfBound:
    """Noise power in / noise power out, lower bounds.

    The filter keeps only |Omega + k . v_f| <~ 1/sigma_t of the noise band
    |Omega| <= omega_max, giving NRF >= (2/sqrt(pi)) omega_max sigma_t. With
    noise white up to the frame rate the same argument gives
    2 sqrt(pi) sigma_t F.
    """
    if sigma_t <= 0:
        raise ValueError("sigma_t must be positive")
    flow = (2.0 / math.sqrt(math.pi)) * n.omega_max * sigma_t
    frame = 2.0 * math.sqrt(math.pi) * sigma_t * n.frame_rate_f
    return NrfBound(flow_form=flow, frame_rate_form=frame)


@dataclass(frozen=True)
class AcqBoundInput:
    """Inputs for the minimum acquisition-time bound.

    flow_rate_q: bubbles-through-vessel volume rate (mm^3/s) divided out as
    Q/d per unit diameter; diameter_d and i_pix in mm; c_mb per mm^3.
    i_pix must be small against d for the per-pixel crossing-rate argument;
    a warning is raised above d/5.
    """

    flow_rate_q: float
    diameter_d: float
    c_mb: float
    i_pix: float

    def __post_init__(self) -> None:
        if min(self.flow_rate_q, self.diameter_d, self.c_mb, self.i_pix) <= 0:
            raise ValueError("all acquisition-bound inputs must be positive")
        if self.i_pix > self.diameter_d / 5.0:
            warnings.warn("i_pix is not small against the vessel diameter; "
                          "the crossing-rate bound degrades", stacklevel=3)


def acquisition_time_bound(a: AcqBoundInput) -> float:
    """Minimum seconds to expect one bubble transit per pixel column.

    T >= [ (Q / d) * c_mb * i_pix ]^-1. With Q scaling as d^4 at fixed
    pressure drop, halving the diameter costs 8x the acquisition time.
    """
    rate = (a.flow_rate_q / a.diameter_d) * a.c_mb * a.i_pix
    if rate <= 0:
        raise ValueError("nonpositive crossing rate")
    return 1.0 / rate
