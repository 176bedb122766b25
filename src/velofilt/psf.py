"""Point-spread-function models on the image plane.

Three system models share one isotropic Gaussian envelope of scale sigma_r:

* post-envelope: the envelope alone,
  g_e(r) = exp(-|r|^2 / (2 sigma_r^2)) / (2 pi sigma_r^2);
* pre-envelope: envelope times the axial carrier, g(r) = g_e(r) cos(2 pi z / wavelength);
* transverse-oscillation (TO): the pre-envelope PSF pushed through a lateral
  two-lobe Gaussian k-space filter, which widens the envelope laterally,
  scales it by c_to and adds a lateral carrier of wavelength lambda_x_tilde.

All evaluators broadcast over x and z given in mm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import Grid2D


@dataclass(frozen=True)
class PsfParams:
    """Isotropic envelope scale sigma_r and axial carrier wavelength, mm."""

    sigma_r: float
    wavelength: float

    def __post_init__(self) -> None:
        if self.sigma_r <= 0 or self.wavelength <= 0:
            raise ValueError("sigma_r and wavelength must be positive")
        # the closed forms (g_e_peak, the autocorrelations, the passbands)
        # square both lengths and divide by the squares
        for name, value in (("sigma_r", self.sigma_r),
                            ("wavelength", self.wavelength)):
            try:
                if value**2 == 0.0:
                    raise ValueError(f"{name} {value!r} has a square of 0")
            except OverflowError:
                raise ValueError(f"{name} {value!r} has no finite "
                                 "square") from None
        # the "auto" speeds' bandwidth squares their ratio
        ratio = self.sigma_r / self.wavelength
        if not math.isfinite(ratio * ratio):
            raise ValueError(f"sigma_r / wavelength = {ratio:.3g} has no "
                             "finite square")

    @property
    def g_e_peak(self) -> float:
        return 1.0 / (2.0 * math.pi * self.sigma_r**2)


@dataclass(frozen=True)
class ToParams:
    """Transverse-oscillation filter parameters.

    lambda_x is the nominal lateral wavelength (the k-space lobes sit at
    +-2*pi/lambda_x); sigma_x (mm) sets the lobe width 1/sigma_x. The
    realized lateral carrier comes out slower, lambda_x_tilde =
    (1 + sigma_r^2/sigma_x^2) * lambda_x, and the filtered PSF keeps the
    fraction c_to of its peak.
    """

    lambda_x: float
    sigma_x: float
    sigma_r: float

    def __post_init__(self) -> None:
        if self.lambda_x <= 0 or self.sigma_x <= 0 or self.sigma_r <= 0:
            raise ValueError("ToParams lengths must be positive")

    @property
    def k0x(self) -> float:
        return 2.0 * math.pi / self.lambda_x

    @cached_property
    def lambda_x_tilde(self) -> float:
        return (1.0 + self.sigma_r**2 / self.sigma_x**2) * self.lambda_x

    @cached_property
    def c_to(self) -> float:
        ratio = self.sigma_x**2 / self.sigma_r**2
        gain = 2.0 / math.sqrt(1.0 + ratio)
        arg = (2.0 * math.pi**2 * self.sigma_r**2 / self.lambda_x_tilde**2
               * (1.0 + 1.0 / ratio))
        return gain * math.exp(-arg)

    @property
    def lateral_envelope_scale(self) -> float:
        """Factor the envelope widens by along x after TO filtering."""
        return math.sqrt(1.0 + self.sigma_x**2 / self.sigma_r**2)


def to_transfer(t: ToParams, kx: np.ndarray) -> np.ndarray:
    """Two-lobe lateral k-space gain: exp(-sigma_x^2 (kx -+ k0x)^2 / 2) summed."""
    kx = np.asarray(kx, dtype=np.float64)
    return (np.exp(-0.5 * t.sigma_x**2 * (kx - t.k0x) ** 2)
            + np.exp(-0.5 * t.sigma_x**2 * (kx + t.k0x) ** 2))


def eval_post_envelope(p: PsfParams, x, z) -> np.ndarray:
    """Envelope-only PSF g_e at r = (x, z) mm."""
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    return p.g_e_peak * np.exp(-(x**2 + z**2) / (2.0 * p.sigma_r**2))


def eval_pre_envelope(p: PsfParams, x, z) -> np.ndarray:
    """Pre-envelope PSF g = g_e(r) * cos(2 pi z / wavelength)."""
    z = np.asarray(z, dtype=np.float64)
    return eval_post_envelope(p, x, z) * np.cos(2.0 * math.pi * z / p.wavelength)


def eval_to_envelope(p: PsfParams, t: ToParams, x, z) -> np.ndarray:
    """TO-filtered envelope: c_to * g_e(x / widen, z)."""
    x = np.asarray(x, dtype=np.float64)
    return t.c_to * eval_post_envelope(p, x / t.lateral_envelope_scale, z)


def eval_to_psf(p: PsfParams, t: ToParams, x, z) -> np.ndarray:
    """TO PSF: widened envelope times axial and lateral carriers."""
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    return (eval_to_envelope(p, t, x, z)
            * np.cos(2.0 * math.pi * z / p.wavelength)
            * np.cos(2.0 * math.pi * x / t.lambda_x_tilde))


_MODES = ("post", "pre", "to")


def render_psf(p: PsfParams, grid: Grid2D, mode: str = "pre",
               center: tuple[float, float] = (0.0, 0.0),
               to: ToParams | None = None) -> np.ndarray:
    """Sample a PSF on a grid; returns an (nz, nx) image.

    center is the (x, z) position of the scatterer in mm; sub-pixel values
    are honoured exactly since the model is analytic.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    x = grid.x_coords()[None, :] - center[0]
    z = grid.z_coords()[:, None] - center[1]
    if mode == "post":
        return eval_post_envelope(p, x, z)
    if mode == "pre":
        return eval_pre_envelope(p, x, z)
    if to is None:
        raise ValueError("mode 'to' needs ToParams")
    return eval_to_psf(p, to, x, z)


@dataclass(frozen=True)
class MatchedFilterTheory:
    """Closed form of the pre-envelope PSF autocorrelation R_g = g * g.

    R_g(r) = g_e_hat(r) * (cos(2 pi z / wavelength)/2 + c_g) where g_e_hat is
    the unit-mass Gaussian of scale sigma_r_hat = sqrt(2) sigma_r and
    c_g = exp(-4 pi^2 sigma_r^2 / wavelength^2) / 2 is the small DC leak-through
    of the squared carrier.
    """

    sigma_r_hat: float
    c_g: float
    g_e_peak: float
    wavelength: float


def autocorr_theory(p: PsfParams) -> MatchedFilterTheory:
    c_g = 0.5 * math.exp(-4.0 * math.pi**2 * p.sigma_r**2 / p.wavelength**2)
    return MatchedFilterTheory(sigma_r_hat=math.sqrt(2.0) * p.sigma_r,
                               c_g=c_g, g_e_peak=p.g_e_peak,
                               wavelength=p.wavelength)

