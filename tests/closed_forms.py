"""Closed forms that only the tests evaluate.

The filtered single-bubble responses and their shape factors, the
matched-filter peak, the PSF autocorrelation at its peak and at a lag, the
LE's metric matrix and the joint speed/offset density. No command, table or stage of the package calls them; the tests
hold each against the quadrature and numeric oracles in oracles.py, and
against the package's own closed forms that they build on
(attenuation_pre, to_attenuation, autocorr_theory, LeParams).
"""

import math

import numpy as np

from velofilt.metrics import LeParams
from velofilt.psf import (MatchedFilterTheory, PsfParams, ToParams,
                          autocorr_theory, eval_to_envelope)
from velofilt.theory import (AttenuationReport, _gamma_hat, attenuation_pre,
                             to_attenuation)


def eta(rep: AttenuationReport, theta) -> np.ndarray:
    """Isotropic-envelope shrink factor of a filtered response vs
    angle(r, dv)."""
    theta = np.asarray(theta, dtype=np.float64)
    k2 = rep.kappa**2
    return np.sqrt(1.0 - k2 * np.cos(theta) ** 2 / (1.0 + k2))


def zeta(rep: AttenuationReport, x, z) -> np.ndarray:
    """Axial carrier displacement of a filtered response at image point
    r = (x, z)."""
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    dvx, dvz = rep.dv
    norm = math.hypot(dvx, dvz)
    if norm == 0.0:
        return np.zeros(np.broadcast(x, z).shape)
    k2 = rep.kappa**2
    proj = (x * dvx + z * dvz) / norm
    return (rep.kappa / (1.0 + k2)) * (rep.sigma_t * dvz / rep.psf.sigma_r) * proj


def g_e_hat_peak(mf: MatchedFilterTheory) -> float:
    """Peak of the unit-mass Gaussian of scale sigma_r_hat."""
    return 1.0 / (2.0 * math.pi * mf.sigma_r_hat**2)


def autocorr_peak(mf: MatchedFilterTheory) -> float:
    """R_g(0) = (1/2 + c_g) * g_e_hat(0)."""
    return (0.5 + mf.c_g) * g_e_hat_peak(mf)


def m_matrix(le: LeParams) -> np.ndarray:
    """M = A^T A, the quadratic form of the LE's whitened distance."""
    a = le.a_matrix
    return a.T @ a


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
    return (gh + 2.0 * mf.c_g / math.sqrt(4.0 + 2.0 * kappa**2)) * g_e_hat_peak(mf)


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


def eval_autocorr(p: PsfParams, x, z) -> np.ndarray:
    """R_g evaluated at lag r = (x, z)."""
    mf = autocorr_theory(p)
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    hat = g_e_hat_peak(mf) * np.exp(-(x**2 + z**2) / (2.0 * mf.sigma_r_hat**2))
    return hat * (0.5 * np.cos(2.0 * math.pi * z / p.wavelength) + mf.c_g)
