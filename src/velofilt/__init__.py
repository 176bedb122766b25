"""velofilt: velocity-selective filtering and localization for ULM-style data.

Submodules:
    core      frame-stack containers, Fourier lattices, file formats
    psf       point-spread-function models (plain, envelope, transverse-osc)
    phantom   synthetic vessel/bubble phantoms and frame synthesis
    vfilter   the velocity filter bank (3D FFT) and the TO filter
    theory    closed-form attenuation, passband, density, and bound formulas
    localize  matched-filter detection, accumulation, velocity maps
    metrics   LE / IoU / FVE / empirical attenuation
    cli       config-driven experiment runner (`velofilt` entry point)
"""

__version__ = "0.1.0"

from .core import FrameStack, Grid2D, make_grid
from .psf import PsfParams, ToParams
from .vfilter import FilterBankSpec, VelocityFilterSpec

__all__ = [
    "__version__",
    "FrameStack",
    "Grid2D",
    "make_grid",
    "PsfParams",
    "ToParams",
    "FilterBankSpec",
    "VelocityFilterSpec",
]
