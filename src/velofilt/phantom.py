"""Synthetic microbubble phantoms: vessels, bubble motion, frame synthesis.

Vessels are straight cylinders in 3D whose axis lies in the image plane
(x lateral, z axial; y is elevation). Bubbles ride a parabolic speed profile,
v(rho3) = v0 * (1 - rho3^2/R^2) with rho3 the 3D distance to the axis, and
the image records the (x, z) projection, so the apparent line density across
a vessel is proportional to sqrt(R^2 - rho^2).

A circular band phantom puts the same cross-sectional profile on a ring:
bubbles orbit the origin at constant speed.

A phantom's flow is either such a band or a sequence of straight vessels
(empty for free bubbles moving in straight lines). It is the one input that
decides how `synthesize_frames` moves and respawns the bubbles and what
`truth_maps` rasterizes as the truth support and velocity map.

`synthesize_frames` allocates its per-bubble work arrays once per call and
renders every frame into them in place. Its frames are byte for byte those
of the allocating per-frame reference, `render_frame` in `tests/oracles.py`.
It hands the frames to a sink one block at a time, from one work buffer,
so no whole stack is held.

The ground truth is one table, as the localizations are: TRUTH_DTYPE rows
(frame t, bubble id, x, z in mm, vx, vz in mm/s), by frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .core import Grid2D, load_table_csv, save_table_csv
from .psf import PsfParams

TRUTH_DTYPE = np.dtype([("t", np.int64), ("id", np.int64),
                        ("x", np.float64), ("z", np.float64),
                        ("vx", np.float64), ("vz", np.float64)])


@dataclass(frozen=True)
class VesselSpec:
    """Straight vessel: radius and peak speed of the parabolic profile.

    axis_angle_rad is measured from the lateral (x) axis in the image plane;
    center is the (x, z) point the axis passes through; length (mm) bounds
    the simulated segment, which sampling, synthesis and truth_maps need
    (None only where nothing is sampled).
    """

    radius_r: float
    v0: float
    c_mb: float
    axis_angle_rad: float = 0.0
    center: tuple[float, float] = (0.0, 0.0)
    length: float | None = None

    def __post_init__(self) -> None:
        if self.radius_r <= 0:
            raise ValueError("vessel radius must be positive")
        if self.v0 < 0 or self.c_mb < 0:
            raise ValueError("v0 and c_mb must be nonnegative")

    @property
    def axis_dir(self) -> np.ndarray:
        """Unit axis direction in 3D (x, y, z)."""
        return np.array([math.cos(self.axis_angle_rad), 0.0,
                         math.sin(self.axis_angle_rad)])

    @property
    def perp_dir(self) -> np.ndarray:
        """In-plane unit normal to the axis."""
        return np.array([-math.sin(self.axis_angle_rad), 0.0,
                         math.cos(self.axis_angle_rad)])


@dataclass(frozen=True)
class CircularBandSpec:
    """Ring of flow: bubbles orbit the origin at orbit_radius +- radius_r."""

    orbit_radius: float
    radius_r: float
    v0: float
    c_mb: float
    spin: int = 1

    def __post_init__(self) -> None:
        if self.orbit_radius <= self.radius_r:
            raise ValueError("orbit radius must exceed the band radius")
        if self.spin not in (-1, 1):
            raise ValueError("spin must be +1 or -1")


# A band, or straight vessels (none: free straight-line motion).
Flow = CircularBandSpec | Sequence[VesselSpec]


def flow_speed(vessel, rho3) -> np.ndarray:
    """Parabolic speed profile at 3D distance rho3 from the axis; 0 outside."""
    rho3 = np.asarray(rho3, dtype=np.float64)
    prof = vessel.v0 * (1.0 - (rho3 / vessel.radius_r) ** 2)
    return np.where(np.abs(rho3) <= vessel.radius_r, np.maximum(prof, 0.0), 0.0)


@dataclass
class BubbleSet:
    """Vectorized bubble collection: pos/vel are (n, 3) arrays."""

    pos: np.ndarray
    vel: np.ndarray
    ids: np.ndarray

    def __post_init__(self) -> None:
        self.pos = np.atleast_2d(np.asarray(self.pos, dtype=np.float64))
        self.vel = np.atleast_2d(np.asarray(self.vel, dtype=np.float64))
        self.ids = np.asarray(self.ids, dtype=np.int64)
        if self.pos.shape != self.vel.shape or self.pos.shape[1] != 3:
            raise ValueError("pos and vel must both be (n, 3)")
        if self.ids.shape[0] != self.pos.shape[0]:
            raise ValueError("ids must match the bubble count")

    def __len__(self) -> int:
        return self.pos.shape[0]

    def copy(self) -> "BubbleSet":
        return BubbleSet(self.pos.copy(), self.vel.copy(), self.ids.copy())


def empty_bubbles() -> BubbleSet:
    return BubbleSet(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0, dtype=np.int64))


def concat_bubbles(parts: Sequence[BubbleSet]) -> BubbleSet:
    """One set holding the bubbles of every part, in order."""
    return BubbleSet(np.vstack([q.pos for q in parts]),
                     np.vstack([q.vel for q in parts]),
                     np.concatenate([q.ids for q in parts]))


def from_plane(positions_xz, velocities_xz) -> BubbleSet:
    """Lift (x, z) positions/velocities into the 3D set with y = 0."""
    positions_xz = np.atleast_2d(np.asarray(positions_xz, dtype=np.float64))
    velocities_xz = np.atleast_2d(np.asarray(velocities_xz, dtype=np.float64))
    n = positions_xz.shape[0]
    pos = np.zeros((n, 3))
    vel = np.zeros((n, 3))
    pos[:, 0], pos[:, 2] = positions_xz[:, 0], positions_xz[:, 1]
    vel[:, 0], vel[:, 2] = velocities_xz[:, 0], velocities_xz[:, 1]
    return BubbleSet(pos, vel, np.arange(n))


def _disk_samples(n: int, radius: float, rng: np.random.Generator) -> np.ndarray:
    """Uniform samples in a disk via rejection; returns (n, 2)."""
    out = np.empty((n, 2))
    filled = 0
    while filled < n:
        cand = rng.uniform(-radius, radius, size=(max(2 * (n - filled), 16), 2))
        keep = cand[np.hypot(cand[:, 0], cand[:, 1]) <= radius]
        take = min(len(keep), n - filled)
        out[filled:filled + take] = keep[:take]
        filled += take
    return out


def default_vessel_length(grid: Grid2D, p: PsfParams) -> float:
    """Grid diagonal plus a 4 sigma_r PSF margin on both ends."""
    wx, wz = grid.extent_mm
    return math.hypot(wx, wz) + 8.0 * p.sigma_r


def sample_bubbles(vessel: VesselSpec, rng: np.random.Generator,
                   id_start: int = 0) -> BubbleSet:
    """Poisson-count uniform draw inside the vessel cylinder.

    Count ~ Poisson(c_mb * pi R^2 * length); axial coordinate uniform over
    the segment, cross-section uniform in the disk, velocity along the axis
    with the parabolic speed at the bubble's 3D axis distance.
    """
    length = vessel.length
    if length is None or length <= 0:
        raise ValueError("vessel length must be set")
    volume = math.pi * vessel.radius_r**2 * length
    n = int(rng.poisson(vessel.c_mb * volume))
    if n == 0:
        return empty_bubbles()
    s = rng.uniform(-length / 2.0, length / 2.0, size=n)
    ab = _disk_samples(n, vessel.radius_r, rng)
    u = vessel.axis_dir
    w = vessel.perp_dir
    e_y = np.array([0.0, 1.0, 0.0])
    c3 = np.array([vessel.center[0], 0.0, vessel.center[1]])
    pos = c3 + s[:, None] * u + ab[:, 0:1] * w + ab[:, 1:2] * e_y
    speed = flow_speed(vessel, np.hypot(ab[:, 0], ab[:, 1]))
    vel = speed[:, None] * u
    return BubbleSet(pos, vel, id_start + np.arange(n))


def sample_circular_bubbles(band: CircularBandSpec, rng: np.random.Generator
                            ) -> BubbleSet:
    """Uniform draw in the orbital band (torus), tangential velocities."""
    circumference = 2.0 * math.pi * band.orbit_radius
    volume = math.pi * band.radius_r**2 * circumference
    n = int(rng.poisson(band.c_mb * volume))
    if n == 0:
        return empty_bubbles()
    phi = rng.uniform(0.0, 2.0 * math.pi, size=n)
    ab = _disk_samples(n, band.radius_r, rng)
    r_orb = band.orbit_radius + ab[:, 0]
    pos = np.column_stack([r_orb * np.cos(phi), ab[:, 1],
                           r_orb * np.sin(phi)])
    speed = band.v0 * (1.0 - (np.hypot(ab[:, 0], ab[:, 1]) / band.radius_r) ** 2)
    tang = np.column_stack([-np.sin(phi), np.zeros(n), np.cos(phi)]) * band.spin
    vel = speed[:, None] * tang
    return BubbleSet(pos, vel, np.arange(n))


def advance(bubbles: BubbleSet, dt: float,
            center: tuple[float, float] | None = None) -> BubbleSet:
    """One time step; returns a new BubbleSet.

    With center None bubbles move in straight lines. Otherwise they orbit
    center: position and velocity rotate about it in the image plane by
    omega*dt with omega = tangential speed / in-plane radius, which preserves
    speed and orbit radius exactly up to rounding.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    out = bubbles.copy()
    if center is None or len(bubbles) == 0:
        out.pos = out.pos + out.vel * dt
        return out
    cx, cz = center
    rx = out.pos[:, 0] - cx
    rz = out.pos[:, 2] - cz
    radius = np.hypot(rx, rz)
    if np.any(radius == 0.0):
        raise ValueError("bubble sits at the circular motion center")
    speed = np.hypot(out.vel[:, 0], out.vel[:, 2])
    sign = np.sign(rx * out.vel[:, 2] - rz * out.vel[:, 0])
    sign[sign == 0.0] = 1.0
    angle = sign * speed / radius * dt
    c, s = np.cos(angle), np.sin(angle)
    out.pos[:, 0] = cx + c * rx - s * rz
    out.pos[:, 2] = cz + s * rx + c * rz
    vx, vz = out.vel[:, 0].copy(), out.vel[:, 2].copy()
    out.vel[:, 0] = c * vx - s * vz
    out.vel[:, 2] = s * vx + c * vz
    return out


def respawn_axial(bubbles: BubbleSet, vessel: VesselSpec) -> BubbleSet:
    """Wrap bubbles leaving the vessel's segment back to the inlet.

    Shifting by the segment length along the axis preserves the cross-section
    offset and the speed, so the steady-state density is stationary.
    """
    if len(bubbles) == 0:
        return bubbles
    length = vessel.length
    u = vessel.axis_dir
    c3 = np.array([vessel.center[0], 0.0, vessel.center[1]])
    s = (bubbles.pos - c3) @ u
    out = bubbles.copy()
    over = s > length / 2.0
    under = s < -length / 2.0
    out.pos[over] -= length * u
    out.pos[under] += length * u
    return out


# ---------------------------------------------------------------------------
# Ground truth: the point table on disk, rasterized maps from the flow.

def save_truth_csv(truth: np.ndarray, path: str | Path) -> Path:
    """Write a truth table as CSV (core.save_table_csv): "%.9g" fields."""
    return save_table_csv(truth, path, "t_index,id,x_mm,z_mm,vx_mm_s,vz_mm_s",
                          "%d,%d,%.9g,%.9g,%.9g,%.9g")


def load_truth_csv(path: str | Path) -> np.ndarray:
    """The truth table save_truth_csv wrote, rows in file order. A
    malformed row, a negative t_index or a non-finite field raises a
    ValueError naming the line (see core.load_table_csv)."""
    return load_table_csv(path, TRUTH_DTYPE)


def truth_maps(flow: Flow, grid: Grid2D
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Truth support mask and peak-speed velocity map of a flow on grid.

    The mask holds the pixels inside the band's ring or within any vessel's
    radius of its axis and within its segment.
    The projection of the parabolic profile puts speeds [0, vmax(rho)] at
    in-plane offset rho; the map records vmax(rho) (the value a max-speed
    accumulation rule estimates) along the local flow direction. Crossing
    vessels combine by max speed. Returns (mask, speed, vx, vz), each of
    shape (nz, nx).
    """
    X, Z = grid.meshgrid()
    if isinstance(flow, CircularBandSpec):
        r = np.hypot(X, Z)
        rho = r - flow.orbit_radius
        mask = np.abs(rho) <= flow.radius_r
        speed = np.where(mask, flow.v0 * (1.0 - (rho / flow.radius_r) ** 2),
                         0.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            tx = np.where(r > 0, -Z / r, 0.0) * flow.spin
            tz = np.where(r > 0, X / r, 0.0) * flow.spin
        return mask, speed, speed * tx, speed * tz
    mask = np.zeros((grid.nz, grid.nx), dtype=bool)
    speed = np.zeros((grid.nz, grid.nx))
    vx = np.zeros_like(speed)
    vz = np.zeros_like(speed)
    for v in flow:
        cos, sin = math.cos(v.axis_angle_rad), math.sin(v.axis_angle_rad)
        dx = X - v.center[0]
        dz = Z - v.center[1]
        perp = -sin * dx + cos * dz
        inside = np.abs(perp) <= v.radius_r
        inside &= np.abs(cos * dx + sin * dz) <= v.length / 2.0
        mask |= inside
        vmax = np.where(inside, v.v0 * (1.0 - (perp / v.radius_r) ** 2), 0.0)
        take = vmax > speed
        speed[take] = vmax[take]
        vx[take] = vmax[take] * cos
        vz[take] = vmax[take] * sin
    return mask, speed, vx, vz


# ---------------------------------------------------------------------------
# Frame synthesis.

# samples of the float64 work buffer a streamed synthesis renders each block
# of frames into (2 MiB; at least one frame)
_SYNTH_BLOCK = 1 << 18


def synthesize_frames(bubbles: BubbleSet, flow: Flow, grid: Grid2D,
                      nt: int, dt: float, p: PsfParams,
                      sink: Callable[[np.ndarray], object],
                      noise_std: float = 0.0,
                      rng: np.random.Generator | None = None
                      ) -> np.ndarray:
    """Advance bubbles over nt frames and render each frame to sink.

    A frame is the sum of the pre-envelope PSFs at the bubbles' image
    positions. The PSF is separable in (x, z): per bubble the field is the
    outer product of a lateral and an axial factor, so a frame is one
    matrix product instead of a per-bubble 2D evaluation. The lateral
    factor (n, nx), the axial factor and the carrier (n, nz) are work
    arrays allocated once per call; each frame is rendered into them in
    place and its product is written straight into its block. The frames
    are byte for byte those of the allocating per-frame reference,
    `render_frame` in `tests/oracles.py`.

    Bubble positions are taken at frame times t = 0, dt, ..., (nt-1)dt. The
    flow sets the motion: a band makes the bubbles orbit the origin;
    vessels move them in straight lines, and a bubble leaving its simulated
    segment respawns at the inlet (the per-vessel test uses the nearest
    axis); an empty flow moves them in straight lines without respawn.
    White Gaussian noise of standard deviation noise_std is added per sample.

    The frames are made in blocks of at most _SYNTH_BLOCK samples (at
    least one frame), each rendered into one float64 work buffer, its
    noise drawn from rng after its frames are rendered, and handed to
    sink(block) in frame order. The buffer is reused for the next block,
    so sink keeps what it needs by copying. The draws of successive blocks
    are the values one draw of the whole stack gives, and rendering draws
    nothing, so the frames do not depend on the block size.

    Returns the truth table (TRUTH_DTYPE), rows by frame: a row per bubble
    whose image position falls inside the grid at that frame.
    """
    if noise_std < 0:
        raise ValueError("noise_std must be nonnegative")
    if noise_std > 0 and rng is None:
        raise ValueError("noise requires an rng for reproducibility")
    if isinstance(flow, CircularBandSpec):
        center, vessels = (0.0, 0.0), ()
    else:
        center, vessels = None, tuple(flow)
    step = max(1, _SYNTH_BLOCK // (grid.nz * grid.nx))
    data = np.empty((min(step, nt), grid.nz, grid.nx))
    n = len(bubbles)
    work = (np.empty((n, grid.nx)), np.empty((n, grid.nz)),
            np.empty((n, grid.nz)))
    truth = [np.empty(0, TRUTH_DTYPE)]
    state = bubbles.copy()
    for t0 in range(0, nt, step):
        block = data[:nt - t0]
        for k in range(block.shape[0]):
            _render_into(state.pos, grid, p, work, block[k])
            keep = grid.contains(state.pos[:, 0], state.pos[:, 2])
            rows = np.empty(np.count_nonzero(keep), TRUTH_DTYPE)
            rows["t"], rows["id"] = t0 + k, state.ids[keep]
            rows["x"], rows["z"] = state.pos[keep, 0], state.pos[keep, 2]
            rows["vx"], rows["vz"] = state.vel[keep, 0], state.vel[keep, 2]
            truth.append(rows)
            if t0 + k + 1 < nt:
                state = advance(state, dt, center)
                if vessels:
                    state = _respawn_nearest(state, vessels)
        if noise_std > 0:
            block += rng.normal(0.0, noise_std, size=block.shape)
        sink(block)
    return np.concatenate(truth)


def _render_into(pos: np.ndarray, grid: Grid2D, p: PsfParams,
                 work: tuple[np.ndarray, np.ndarray, np.ndarray],
                 out: np.ndarray) -> None:
    """Render one frame of the bubbles at pos (n, 3) into out (nz, nx).

    work holds the lateral factor (n, nx), the axial factor and the
    carrier (n, nz); every step runs in place on them, in the order of the
    allocating form, so the frame's bytes do not depend on the buffers.
    With no bubbles the (nz, 0) @ (0, nx) product is all zeros.
    """
    lat, axial, carrier = work
    s2 = 2.0 * p.sigma_r**2
    np.subtract(grid.x_coords(), pos[:, 0, None], out=lat)       # ux
    np.square(lat, out=lat)
    np.negative(lat, out=lat)
    np.divide(lat, s2, out=lat)
    np.exp(lat, out=lat)
    np.subtract(grid.z_coords(), pos[:, 2, None], out=axial)     # uz
    np.multiply(2.0 * math.pi, axial, out=carrier)
    np.divide(carrier, p.wavelength, out=carrier)
    np.cos(carrier, out=carrier)
    np.square(axial, out=axial)
    np.negative(axial, out=axial)
    np.divide(axial, s2, out=axial)
    np.exp(axial, out=axial)
    np.multiply(axial, carrier, out=axial)
    np.matmul(axial.T, lat, out=out)
    np.multiply(out, p.g_e_peak, out=out)


def _respawn_nearest(bubbles: BubbleSet, vessels: Sequence[VesselSpec]
                     ) -> BubbleSet:
    """Respawn against the vessel whose axis each bubble is closest to."""
    if len(vessels) == 1:
        return respawn_axial(bubbles, vessels[0])
    dist = np.empty((len(vessels), len(bubbles)))
    for i, v in enumerate(vessels):
        rel = bubbles.pos - np.array([v.center[0], 0.0, v.center[1]])
        along = rel @ v.axis_dir
        dist[i] = np.linalg.norm(rel - along[:, None] * v.axis_dir[None, :],
                                 axis=1)
    owner = np.argmin(dist, axis=0)
    out = bubbles.copy()
    for i, v in enumerate(vessels):
        sel = owner == i
        if not np.any(sel):
            continue
        sub = BubbleSet(out.pos[sel], out.vel[sel], out.ids[sel])
        sub = respawn_axial(sub, v)
        out.pos[sel] = sub.pos
    return out
