"""Velocity-selective filtering of frame stacks.

The filter is a pure gain in 3D Fourier space,
    H(k, Omega) = exp(-sigma_t^2 (Omega + k . v_f)^2 / 2),
i.e. a Gaussian temporal low-pass re-centered on the plane Omega = -k . v_f
traced out by anything translating at v_f. Two equivalent applications are
provided: the production 3D-FFT path and a direct shift-and-sum path
(temporal average along the selected trajectory) used as a cross-check.

Both paths zero-extend in time; apply_filter_fft pads by 4 sigma_t worth of
frames before the FFT and trims after, so trajectories do not wrap. The
spatial axes stay periodic: keep moving targets clear of the lateral edges
by v_f * 4 sigma_t or accept wrap-around (boundary="periodic" skips the
temporal pad too, for stationary-statistics measurements).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
import scipy.fft

from .core import (FrameStack, Grid2D, gaussian_window, kx_lattice,
                   kz_lattice, omega_lattice, save_frame_stack)
from .psf import ToParams, to_transfer

# Hard cap on the padded stack a 3D FFT runs on; it rejects sizes that would
# exhaust memory or overflow the int32 indexing of some FFT backends.
_MAX_FFT_ELEMENTS = 2**28


@dataclass(frozen=True)
class VelocityFilterSpec:
    """One velocity filter: selected velocity (mm/s) and window width (s)."""

    v_f: tuple[float, float]
    sigma_t: float
    window: str = "gaussian"

    def __post_init__(self) -> None:
        if self.sigma_t <= 0:
            raise ValueError("sigma_t must be positive")
        if self.window != "gaussian":
            raise ValueError(f"unsupported window kind {self.window!r}")

    @property
    def speed(self) -> float:
        return math.hypot(self.v_f[0], self.v_f[1])

    @property
    def angle_from_lateral_deg(self) -> float:
        """Unsigned angle between v_f and the lateral axis, 0 for v_f = 0."""
        if self.speed == 0.0:
            return 0.0
        return math.degrees(math.atan2(abs(self.v_f[1]), abs(self.v_f[0])))


@dataclass(frozen=True)
class FilterBankSpec:
    """A set of velocity filters run over the same input stack."""

    filters: tuple[VelocityFilterSpec, ...]
    lateral_to_angle_deg: float = 10.0

    def __post_init__(self) -> None:
        if len(self.filters) == 0:
            raise ValueError("filter bank must be nonempty")
        if any(f.speed < 0 for f in self.filters):
            raise ValueError("filter speeds must be nonnegative")

    def __len__(self) -> int:
        return len(self.filters)


def make_bank(speeds: Sequence[float], angles_rad: Sequence[float],
              sigma_t: float, lateral_to_angle_deg: float = 10.0
              ) -> FilterBankSpec:
    """Speed x direction grid of filters sharing one window width."""
    filters = tuple(
        VelocityFilterSpec(v_f=(s * math.cos(a), s * math.sin(a)),
                           sigma_t=sigma_t)
        for s in speeds for a in angles_rad)
    return FilterBankSpec(filters=filters,
                          lateral_to_angle_deg=lateral_to_angle_deg)


def tile_speeds(v_max: float, delta_v: float) -> np.ndarray:
    """Filter speeds whose half-max passbands tile [0, v_max] gaplessly.

    Centers at (2i+1) delta_v; the count is the least that covers v_max.
    """
    if delta_v <= 0:
        raise ValueError("delta_v must be positive")
    if v_max <= 0:
        return np.empty(0)
    n = max(1, math.ceil(v_max / (2.0 * delta_v)))
    return (2.0 * np.arange(n) + 1.0) * delta_v


def build_filter(grid: Grid2D, nt: int, dt: float,
                 spec: VelocityFilterSpec) -> np.ndarray:
    """Gain H on the (nt, nz, nx) DFT lattice; exactly 1 where Omega = -k.v_f."""
    if nt < 1:
        raise ValueError("nt must be >= 1")
    kx = kx_lattice(grid)
    kz = kz_lattice(grid)
    om = omega_lattice(nt, dt)
    vfx, vfz = spec.v_f
    doppler = (om[:, None, None] + kx[None, None, :] * vfx
               + kz[None, :, None] * vfz)
    return np.exp(-0.5 * (spec.sigma_t * doppler) ** 2)


def _pad_frames(spec: VelocityFilterSpec, frames: FrameStack) -> int:
    return int(math.ceil(4.0 * spec.sigma_t / frames.dt))


def apply_filter_fft(frames: FrameStack, spec: VelocityFilterSpec,
                     boundary: str = "pad", workers: int = 1) -> FrameStack:
    """Filter a stack through the 3D FFT path.

    boundary "pad" zero-extends time by ceil(4 sigma_t / dt) frames per side
    and trims afterwards; "periodic" filters the raw stack circularly (all
    axes), appropriate only for statistically stationary content. A padded
    stack of more than _MAX_FFT_ELEMENTS samples is rejected before anything
    is allocated.
    """
    if boundary not in ("pad", "periodic"):
        raise ValueError(f"unknown boundary {boundary!r}")
    pad = _pad_frames(spec, frames) if boundary == "pad" else 0
    shape = (frames.nt + 2 * pad, frames.grid.nz, frames.grid.nx)
    if math.prod(shape) > _MAX_FFT_ELEMENTS:
        raise ValueError(f"padded stack {shape} exceeds the in-memory FFT "
                         f"limit of {_MAX_FFT_ELEMENTS} samples")
    data = frames.data
    if pad:
        zeros = np.zeros((pad, frames.grid.nz, frames.grid.nx))
        data = np.concatenate([zeros, data, zeros], axis=0)
    gain = build_filter(frames.grid, shape[0], frames.dt, spec)
    spec_hat = scipy.fft.fftn(data, axes=(0, 1, 2), workers=workers)
    out = scipy.fft.ifftn(spec_hat * gain, axes=(0, 1, 2),
                          workers=workers).real
    if pad:
        out = out[pad:pad + frames.nt]
    return FrameStack(grid=frames.grid, nt=frames.nt, dt=frames.dt,
                      data=np.ascontiguousarray(out))


def apply_filter_direct(frames: FrameStack, spec: VelocityFilterSpec,
                        trunc_sigmas: float = 4.0) -> FrameStack:
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


def apply_to_filter(frames: FrameStack, t: ToParams) -> FrameStack:
    """Impose transverse oscillations by lateral k-space filtering.

    The gain depends on k_x only, so each frame is filtered along its rows;
    the lateral axis is treated as periodic (PSFs decay well inside the
    grid, making wrap-around negligible at the tested sizes).
    """
    kx = kx_lattice(frames.grid)
    gain = to_transfer(t, kx)
    row_hat = scipy.fft.fft(frames.data, axis=2)
    out = scipy.fft.ifft(row_hat * gain[None, None, :], axis=2).real
    return FrameStack(grid=frames.grid, nt=frames.nt, dt=frames.dt,
                      data=np.ascontiguousarray(out))


def run_filter_bank(frames: FrameStack, bank: FilterBankSpec,
                    to_params: ToParams | None = None,
                    sink: Callable[[int, VelocityFilterSpec, FrameStack, bool],
                                   object] | None = None,
                    boundary: str = "pad", workers: int = 1) -> list:
    """Run every filter in the bank over the same input.

    When to_params is given, filters selecting near-lateral directions
    (within bank.lateral_to_angle_deg of the x axis, and nonzero speed) see
    the TO-filtered stack instead of the raw one. With a sink, each output
    is handed over as sink(i, spec, out, used_to) as soon as it is ready and
    only the sink's return value is kept, bounding memory to one stack at a
    time; used_to tells whether that output came from the TO-filtered stack.
    """
    to_stack: FrameStack | None = None
    results: list = []
    for i, fspec in enumerate(bank.filters):
        used_to = (to_params is not None and fspec.speed > 0.0
                   and fspec.angle_from_lateral_deg
                   <= bank.lateral_to_angle_deg)
        if used_to and to_stack is None:
            to_stack = apply_to_filter(frames, to_params)
        src = to_stack if used_to else frames
        out = apply_filter_fft(src, fspec, boundary=boundary, workers=workers)
        if sink is None:
            results.append(out)
        else:
            try:
                results.append(sink(i, fspec, out, used_to))
            except OSError as exc:
                raise OSError(f"filter bank sink failed on filter {i}: {exc}"
                              ) from exc
    return results


def save_bank_outputs(frames: FrameStack, bank: FilterBankSpec,
                      out_dir: str | Path,
                      to_params: ToParams | None = None,
                      boundary: str = "pad", workers: int = 1) -> Path:
    """run_filter_bank with a directory sink; returns the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries: list[dict] = []

    def sink(i: int, fspec: VelocityFilterSpec, out: FrameStack,
             used_to: bool) -> None:
        base = out_dir / f"filtered_{i:03d}"
        header, _ = save_frame_stack(out, base)
        entries.append({
            "index": i,
            "v_f_mm_s": [fspec.v_f[0], fspec.v_f[1]],
            "sigma_t_s": fspec.sigma_t,
            "window": fspec.window,
            "to_prefilter": used_to,
            "frames": header.name,
        })

    run_filter_bank(frames, bank, to_params=to_params, sink=sink,
                    boundary=boundary, workers=workers)
    manifest = out_dir / "bank_manifest.json"
    with open(manifest, "w") as fh:
        json.dump({"version": 1, "n_filters": len(bank),
                   "lateral_to_angle_deg": bank.lateral_to_angle_deg,
                   "outputs": entries}, fh, indent=2)
        fh.write("\n")
    return manifest
