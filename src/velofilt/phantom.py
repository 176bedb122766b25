"""Synthetic microbubble phantoms: vessels, bubble motion, frame synthesis.

Vessels are straight cylinders in 3D whose axis lies in the image plane
(x lateral, z axial; y is elevation). Bubbles ride a parabolic speed profile,
v(rho3) = v0 * (1 - rho3^2/R^2) with rho3 the 3D distance to the axis, and
the image records the (x, z) projection, so the apparent line density across
a vessel is proportional to sqrt(R^2 - rho^2).

A circular band phantom puts the same cross-sectional profile on a ring:
bubbles orbit a common in-plane center at constant speed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import FrameStack, Grid2D
from .psf import PsfParams, ToParams


@dataclass(frozen=True)
class VesselSpec:
    """Straight vessel: radius and peak speed of the parabolic profile.

    axis_angle_rad is measured from the lateral (x) axis in the image plane;
    center is the (x, z) point the axis passes through; length (mm) bounds
    the simulated segment (None: pick from the grid at sampling time).
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
    """Ring of flow: bubbles orbit `center` at orbit_radius +- radius_r."""

    orbit_radius: float
    radius_r: float
    v0: float
    c_mb: float
    center: tuple[float, float] = (0.0, 0.0)
    spin: int = 1

    def __post_init__(self) -> None:
        if self.orbit_radius <= self.radius_r:
            raise ValueError("orbit radius must exceed the band radius")
        if self.spin not in (-1, 1):
            raise ValueError("spin must be +1 or -1")


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


def from_plane(positions_xz, velocities_xz, ids=None) -> BubbleSet:
    """Lift (x, z) positions/velocities into the 3D set with y = 0."""
    positions_xz = np.atleast_2d(np.asarray(positions_xz, dtype=np.float64))
    velocities_xz = np.atleast_2d(np.asarray(velocities_xz, dtype=np.float64))
    n = positions_xz.shape[0]
    pos = np.zeros((n, 3))
    vel = np.zeros((n, 3))
    pos[:, 0], pos[:, 2] = positions_xz[:, 0], positions_xz[:, 1]
    vel[:, 0], vel[:, 2] = velocities_xz[:, 0], velocities_xz[:, 1]
    if ids is None:
        ids = np.arange(n)
    return BubbleSet(pos, vel, np.asarray(ids))


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


def default_vessel_length(vessel: VesselSpec, grid: Grid2D,
                          p: PsfParams) -> float:
    """Grid diagonal plus a 4 sigma_r PSF margin on both ends."""
    wx, wz = grid.extent_mm
    return math.hypot(wx, wz) + 8.0 * p.sigma_r


def sample_bubbles(vessel: VesselSpec, rng: np.random.Generator,
                   length: float | None = None,
                   id_start: int = 0) -> BubbleSet:
    """Poisson-count uniform draw inside the vessel cylinder.

    Count ~ Poisson(c_mb * pi R^2 * length); axial coordinate uniform over
    the segment, cross-section uniform in the disk, velocity along the axis
    with the parabolic speed at the bubble's 3D axis distance.
    """
    if length is None:
        length = vessel.length
    if length is None or length <= 0:
        raise ValueError("vessel length must be set (or pass length=...)")
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


def sample_circular_bubbles(band: CircularBandSpec, rng: np.random.Generator,
                            id_start: int = 0) -> BubbleSet:
    """Uniform draw in the orbital band (torus), tangential velocities."""
    circumference = 2.0 * math.pi * band.orbit_radius
    volume = math.pi * band.radius_r**2 * circumference
    n = int(rng.poisson(band.c_mb * volume))
    if n == 0:
        return empty_bubbles()
    phi = rng.uniform(0.0, 2.0 * math.pi, size=n)
    ab = _disk_samples(n, band.radius_r, rng)
    r_orb = band.orbit_radius + ab[:, 0]
    cx, cz = band.center
    pos = np.column_stack([cx + r_orb * np.cos(phi), ab[:, 1],
                           cz + r_orb * np.sin(phi)])
    speed = band.v0 * (1.0 - (np.hypot(ab[:, 0], ab[:, 1]) / band.radius_r) ** 2)
    tang = np.column_stack([-np.sin(phi), np.zeros(n), np.cos(phi)]) * band.spin
    vel = speed[:, None] * tang
    return BubbleSet(pos, vel, id_start + np.arange(n))


@dataclass(frozen=True)
class MotionSpec:
    """How bubbles advance between frames: straight lines or circular orbits."""

    kind: str = "linear"
    center: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        if self.kind not in ("linear", "circular"):
            raise ValueError(f"unknown motion kind {self.kind!r}")


def advance(bubbles: BubbleSet, motion: MotionSpec, dt: float) -> BubbleSet:
    """One time step; returns a new BubbleSet.

    Circular motion rotates position and velocity about motion.center in the
    image plane by omega*dt with omega = tangential speed / in-plane radius,
    which preserves speed and orbit radius exactly up to rounding.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    out = bubbles.copy()
    if motion.kind == "linear" or len(bubbles) == 0:
        out.pos = out.pos + out.vel * dt
        return out
    cx, cz = motion.center
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


def respawn_axial(bubbles: BubbleSet, vessel: VesselSpec,
                  length: float) -> BubbleSet:
    """Wrap bubbles leaving the segment back to the inlet.

    Shifting by the segment length along the axis preserves the cross-section
    offset and the speed, so the steady-state density is stationary.
    """
    if len(bubbles) == 0:
        return bubbles
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
# Ground truth containers and rasterized truth maps.

@dataclass
class GroundTruth:
    """Per-frame truth points plus rasterized vessel truth.

    point_frames[t] is an (n_t, 5) array with columns
    (id, x_mm, z_mm, vx_mm_s, vz_mm_s), restricted to bubbles whose image
    position falls inside the grid extent at that frame.
    """

    point_frames: list[np.ndarray] = field(default_factory=list)
    support_mask: np.ndarray | None = None
    velocity_map: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
    n_bubbles: int = 0


def save_truth_csv(gt: GroundTruth, path: str | Path) -> Path:
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_index", "id", "x_mm", "z_mm", "vx_mm_s", "vz_mm_s"])
        for t, pts in enumerate(gt.point_frames):
            for row in pts:
                writer.writerow([t, int(row[0]), f"{row[1]:.9g}", f"{row[2]:.9g}",
                                 f"{row[3]:.9g}", f"{row[4]:.9g}"])
    return path


def load_truth_csv(path: str | Path) -> GroundTruth:
    frames: dict[int, list[list[float]]] = {}
    ids = set()
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            t = int(row["t_index"])
            ids.add(int(row["id"]))
            frames.setdefault(t, []).append(
                [float(row["id"]), float(row["x_mm"]), float(row["z_mm"]),
                 float(row["vx_mm_s"]), float(row["vz_mm_s"])])
    nt = max(frames) + 1 if frames else 0
    point_frames = [np.array(frames.get(t, np.empty((0, 5)))).reshape(-1, 5)
                    for t in range(nt)]
    return GroundTruth(point_frames=point_frames, n_bubbles=len(ids))


def vessel_support_mask(vessels: Sequence[VesselSpec], grid: Grid2D) -> np.ndarray:
    """Pixels whose in-plane distance to any vessel axis is <= its radius."""
    X, Z = grid.meshgrid()
    mask = np.zeros((grid.nz, grid.nx), dtype=bool)
    for v in vessels:
        dx = X - v.center[0]
        dz = Z - v.center[1]
        perp = -math.sin(v.axis_angle_rad) * dx + math.cos(v.axis_angle_rad) * dz
        inside = np.abs(perp) <= v.radius_r
        if v.length is not None:
            along = math.cos(v.axis_angle_rad) * dx + math.sin(v.axis_angle_rad) * dz
            inside &= np.abs(along) <= v.length / 2.0
        mask |= inside
    return mask


def circular_support_mask(band: CircularBandSpec, grid: Grid2D) -> np.ndarray:
    X, Z = grid.meshgrid()
    r = np.hypot(X - band.center[0], Z - band.center[1])
    return np.abs(r - band.orbit_radius) <= band.radius_r


def ground_truth_velocity_map(vessels: Sequence[VesselSpec], grid: Grid2D
                              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-pixel peak observable speed and its direction for straight vessels.

    The projection of the parabolic profile puts speeds [0, vmax(rho)] at
    in-plane offset rho; the map records vmax(rho) (the value a max-speed
    accumulation rule estimates). Crossing vessels combine by max speed.
    Returns (speed, vx, vz) arrays of shape (nz, nx).
    """
    X, Z = grid.meshgrid()
    speed = np.zeros((grid.nz, grid.nx))
    vx = np.zeros_like(speed)
    vz = np.zeros_like(speed)
    for v in vessels:
        dx = X - v.center[0]
        dz = Z - v.center[1]
        perp = -math.sin(v.axis_angle_rad) * dx + math.cos(v.axis_angle_rad) * dz
        vmax = np.where(np.abs(perp) <= v.radius_r,
                        v.v0 * (1.0 - (perp / v.radius_r) ** 2), 0.0)
        if v.length is not None:
            along = math.cos(v.axis_angle_rad) * dx + math.sin(v.axis_angle_rad) * dz
            vmax = np.where(np.abs(along) <= v.length / 2.0, vmax, 0.0)
        take = vmax > speed
        speed[take] = vmax[take]
        vx[take] = vmax[take] * math.cos(v.axis_angle_rad)
        vz[take] = vmax[take] * math.sin(v.axis_angle_rad)
    return speed, vx, vz


def circular_velocity_map(band: CircularBandSpec, grid: Grid2D
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Peak-speed map for the circular band, tangential directions."""
    X, Z = grid.meshgrid()
    rx = X - band.center[0]
    rz = Z - band.center[1]
    r = np.hypot(rx, rz)
    rho = r - band.orbit_radius
    inside = np.abs(rho) <= band.radius_r
    speed = np.where(inside, band.v0 * (1.0 - (rho / band.radius_r) ** 2), 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        tx = np.where(r > 0, -rz / r, 0.0) * band.spin
        tz = np.where(r > 0, rx / r, 0.0) * band.spin
    return speed, speed * tx, speed * tz


# ---------------------------------------------------------------------------
# Frame synthesis.

def render_frame(bubbles: BubbleSet, grid: Grid2D, p: PsfParams,
                 mode: str = "pre", to: ToParams | None = None) -> np.ndarray:
    """Sum of analytic PSFs at the bubbles' image positions, one frame.

    Uses the separability of every PSF model in (x, z): per bubble the field
    is an outer product of a lateral and an axial factor, so the frame is one
    matrix product instead of a per-bubble 2D evaluation.
    """
    frame = np.zeros((grid.nz, grid.nx))
    if len(bubbles) == 0:
        return frame
    xg = grid.x_coords()
    zg = grid.z_coords()
    bx = bubbles.pos[:, 0]
    bz = bubbles.pos[:, 2]
    ux = xg[None, :] - bx[:, None]      # (n, nx)
    uz = zg[None, :] - bz[:, None]      # (n, nz)
    s2 = 2.0 * p.sigma_r**2
    if mode == "to":
        if to is None:
            raise ValueError("mode 'to' needs ToParams")
        widen = to.lateral_envelope_scale
        lat = (np.exp(-(ux / widen) ** 2 / s2)
               * np.cos(2.0 * math.pi * ux / to.lambda_x_tilde))
        lat *= to.c_to
    else:
        lat = np.exp(-(ux**2) / s2)
    axial = np.exp(-(uz**2) / s2)
    if mode in ("pre", "to"):
        axial = axial * np.cos(2.0 * math.pi * uz / p.wavelength)
    elif mode != "post":
        raise ValueError(f"unknown PSF mode {mode!r}")
    frame = axial.T @ lat               # (nz, nx)
    frame *= p.g_e_peak
    return frame


def _in_grid(bubbles: BubbleSet, grid: Grid2D) -> np.ndarray:
    x = bubbles.pos[:, 0]
    z = bubbles.pos[:, 2]
    x_end = grid.x0 + grid.dx * (grid.nx - 1)
    z_end = grid.z0 + grid.dz * (grid.nz - 1)
    return ((x >= grid.x0) & (x <= x_end) & (z >= grid.z0) & (z <= z_end))


def synthesize_frames(bubbles: BubbleSet, motion: MotionSpec, grid: Grid2D,
                      nt: int, dt: float, p: PsfParams, mode: str = "pre",
                      to: ToParams | None = None, noise_std: float = 0.0,
                      rng: np.random.Generator | None = None,
                      vessels: Sequence[VesselSpec] | None = None,
                      band: CircularBandSpec | None = None
                      ) -> tuple[FrameStack, GroundTruth]:
    """Advance bubbles over nt frames and render each frame.

    Bubble positions are taken at frame times t = 0, dt, ..., (nt-1)dt.
    When straight `vessels` are given, bubbles leaving the simulated segment
    respawn at the inlet (the per-vessel test uses the nearest axis), and the
    truth container gets the support mask and peak-speed velocity map.
    White Gaussian noise of standard deviation noise_std is added per sample.
    """
    if noise_std < 0:
        raise ValueError("noise_std must be nonnegative")
    if noise_std > 0 and rng is None:
        raise ValueError("noise requires an rng for reproducibility")
    data = np.empty((nt, grid.nz, grid.nx))
    gt = GroundTruth(n_bubbles=len(bubbles))
    lengths: list[float] = []
    if vessels:
        lengths = [v.length if v.length is not None
                   else default_vessel_length(v, grid, p) for v in vessels]
    state = bubbles.copy()
    for t in range(nt):
        data[t] = render_frame(state, grid, p, mode=mode, to=to)
        keep = _in_grid(state, grid)
        pts = np.column_stack([state.ids[keep].astype(np.float64),
                               state.pos[keep, 0], state.pos[keep, 2],
                               state.vel[keep, 0], state.vel[keep, 2]])
        gt.point_frames.append(pts)
        if t + 1 < nt:
            state = advance(state, motion, dt)
            if vessels and motion.kind == "linear":
                state = _respawn_nearest(state, vessels, lengths)
    if noise_std > 0:
        data += rng.normal(0.0, noise_std, size=data.shape)
    if vessels:
        gt.support_mask = vessel_support_mask(vessels, grid)
        gt.velocity_map = ground_truth_velocity_map(vessels, grid)
    elif band is not None:
        gt.support_mask = circular_support_mask(band, grid)
        gt.velocity_map = circular_velocity_map(band, grid)
    stack = FrameStack(grid=grid, nt=nt, dt=dt, data=data)
    return stack, gt


def _respawn_nearest(bubbles: BubbleSet, vessels: Sequence[VesselSpec],
                     lengths: Sequence[float]) -> BubbleSet:
    """Respawn against the vessel whose axis each bubble is closest to."""
    if len(vessels) == 1:
        return respawn_axial(bubbles, vessels[0], lengths[0])
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
        sub = respawn_axial(sub, v, lengths[i])
        out.pos[sel] = sub.pos
    return out
