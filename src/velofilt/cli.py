"""Config-driven experiment runner.

One JSON config describes an experiment end to end: PSF, grid, phantom,
motion, filter bank, detector, metrics. Subcommands run single stages
(`synth`, `filter`, `localize`, `accumulate`, `metrics`) against a working
directory, `pipeline` chains them, and `theory` emits closed-form tables
without any simulation. Every run appends to a manifest recording the
config hash, seed, per-stage wall time, and artifact checksums; identical
(config, seed, version) runs reproduce identical checksums.

Exit codes: 0 ok, 2 config error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

import jsonschema
import numpy as np

from . import __version__
from .core import (FrameStack, Grid2D, load_frame_stack, make_grid,
                   save_frame_stack, write_pgm)
from .localize import (DetectorConfig, accumulate, load_localizations_csv,
                       make_fine_grid, run_pipeline, save_localizations_csv,
                       segment_support, velocity_map_from_locs)
from .metrics import LeParams, fve, iou, localization_error_frames
from .phantom import (BubbleSet, CircularBandSpec, MotionSpec, VesselSpec,
                      circular_support_mask, circular_velocity_map,
                      default_vessel_length, empty_bubbles, from_plane,
                      ground_truth_velocity_map, load_truth_csv,
                      sample_bubbles, sample_circular_bubbles, save_truth_csv,
                      synthesize_frames, vessel_support_mask)
from .psf import PsfParams, ToParams
from .theory import (AcqBoundInput, acquisition_time_bound, apparent_density,
                     attenuation_pre, filtered_density, make_noise_spec,
                     nrf_bound, to_attenuation, velocity_bandwidth)
from .vfilter import (FilterBankSpec, VelocityFilterSpec, make_bank,
                      save_bank_outputs, tile_speeds)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class ConfigError(Exception):
    pass


class DataError(Exception):
    pass


# ---------------------------------------------------------------------------
# Config schema. Unknown keys are rejected everywhere; every physical
# quantity carries its unit in the key name.

_POS = {"type": "number", "exclusiveMinimum": 0}
_NONNEG = {"type": "number", "minimum": 0}

_PHANTOM_SCHEMAS = {
    "grid_bubbles": {
        "type": "object", "additionalProperties": False,
        "required": ["kind", "positions_mm", "velocities_mm_s"],
        "properties": {
            "kind": {"const": "grid_bubbles"},
            "positions_mm": {"type": "array",
                             "items": {"type": "array", "minItems": 2,
                                       "maxItems": 2,
                                       "items": {"type": "number"}}},
            "velocities_mm_s": {"type": "array",
                                "items": {"type": "array", "minItems": 2,
                                          "maxItems": 2,
                                          "items": {"type": "number"}}},
        },
    },
    "crossing_vessels": {
        "type": "object", "additionalProperties": False,
        "required": ["kind", "radius_mm", "v0_mm_s", "c_mb_high_per_mm3",
                     "c_mb_low_per_mm3", "angles_deg"],
        "properties": {
            "kind": {"const": "crossing_vessels"},
            "radius_mm": _POS, "v0_mm_s": _POS,
            "c_mb_high_per_mm3": _NONNEG, "c_mb_low_per_mm3": _NONNEG,
            "angles_deg": {"type": "array", "minItems": 2, "maxItems": 2,
                           "items": {"type": "number"}},
            "length_mm": _POS,
        },
    },
    "parallel_vessels": {
        "type": "object", "additionalProperties": False,
        "required": ["kind", "radius_mm", "v0_mm_s", "c_mb_per_mm3",
                     "angle_deg", "gap_mm"],
        "properties": {
            "kind": {"const": "parallel_vessels"},
            "radius_mm": _POS, "v0_mm_s": _POS, "c_mb_per_mm3": _NONNEG,
            "angle_deg": {"type": "number"},
            "gap_mm": _POS,
            "opposite_directions": {"type": "boolean"},
            "length_mm": _POS,
        },
    },
    "single_vessel": {
        "type": "object", "additionalProperties": False,
        "required": ["kind", "radius_mm", "v0_mm_s", "c_mb_per_mm3",
                     "angle_deg"],
        "properties": {
            "kind": {"const": "single_vessel"},
            "radius_mm": _POS, "v0_mm_s": _POS, "c_mb_per_mm3": _NONNEG,
            "angle_deg": {"type": "number"},
            "length_mm": _POS,
        },
    },
    "circular": {
        "type": "object", "additionalProperties": False,
        "required": ["kind", "orbit_radius_mm", "radius_mm", "v0_mm_s",
                     "c_mb_per_mm3"],
        "properties": {
            "kind": {"const": "circular"},
            "orbit_radius_mm": _POS, "radius_mm": _POS, "v0_mm_s": _POS,
            "c_mb_per_mm3": _NONNEG,
            "spin": {"enum": [-1, 1]},
        },
    },
}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["psf", "grid", "phantom", "motion", "filter_bank"],
    "properties": {
        "seed": {"type": "integer", "minimum": 0},
        "psf": {
            "type": "object", "additionalProperties": False,
            "required": ["sigma_r_mm", "wavelength_mm"],
            "properties": {"sigma_r_mm": _POS, "wavelength_mm": _POS},
        },
        "to": {
            "type": "object", "additionalProperties": False,
            "required": ["lambda_x_mm", "sigma_x_mm"],
            "properties": {"lambda_x_mm": _POS, "sigma_x_mm": _POS},
        },
        "grid": {
            "type": "object", "additionalProperties": False,
            "required": ["nx", "nz", "dx_mm", "dz_mm"],
            "properties": {"nx": {"type": "integer", "minimum": 4},
                           "nz": {"type": "integer", "minimum": 4},
                           "dx_mm": _POS, "dz_mm": _POS},
        },
        "phantom": {"oneOf": list(_PHANTOM_SCHEMAS.values())},
        "motion": {
            "type": "object", "additionalProperties": False,
            "required": ["nt", "dt_s"],
            "properties": {"nt": {"type": "integer", "minimum": 1},
                           "dt_s": _POS},
        },
        "noise": {
            "type": "object", "additionalProperties": False,
            "required": ["std"],
            "properties": {"std": _NONNEG},
        },
        "filter_bank": {
            "type": "object", "additionalProperties": False,
            "required": ["sigma_t_s", "angles_deg"],
            "properties": {
                "sigma_t_s": _POS,
                "speeds_mm_s": {
                    "oneOf": [{"const": "auto"},
                              {"type": "array", "minItems": 1,
                               "items": _NONNEG}]},
                "v_max_mm_s": _POS,
                "angles_deg": {"type": "array", "minItems": 1,
                               "items": {"type": "number"}},
                "lateral_to_angle_deg": _NONNEG,
                "boundary": {"enum": ["pad", "periodic"]},
            },
        },
        "detector": {
            "type": "object", "additionalProperties": False,
            "properties": {
                "threshold_fraction": {"type": "number",
                                       "exclusiveMinimum": 0,
                                       "exclusiveMaximum": 1},
                "min_separation_mm": {"oneOf": [{"type": "null"}, _POS]},
                "subpixel": {"type": "boolean"},
                "fine_factor": {"type": "integer", "minimum": 1},
                "mode": {"enum": ["pre", "post"]},
            },
        },
        "metrics": {
            "type": "object", "additionalProperties": False,
            "properties": {
                "le_sigma_par_mm": _POS,
                "le_sigma_perp_mm": _POS,
                "flow_angle_deg": {"type": "number"},
                "fastest_q": {"type": "number", "exclusiveMinimum": 0,
                              "maximum": 1},
            },
        },
        "outputs": {
            "type": "object", "additionalProperties": False,
            "properties": {
                "prefix": {"type": "string", "minLength": 1},
                "save_pgm": {"type": "boolean"},
            },
        },
    },
}


def load_config(path: str | Path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    try:
        jsonschema.validate(cfg, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"config invalid at {exc.json_path}: {exc.message}"
                          ) from exc
    return cfg


# ---------------------------------------------------------------------------
# Config -> domain objects.

def _psf_from(cfg: dict) -> PsfParams:
    return PsfParams(sigma_r=cfg["psf"]["sigma_r_mm"],
                     wavelength=cfg["psf"]["wavelength_mm"])


def _to_from(cfg: dict, p: PsfParams) -> ToParams | None:
    if "to" not in cfg:
        return None
    return ToParams(lambda_x=cfg["to"]["lambda_x_mm"],
                    sigma_x=cfg["to"]["sigma_x_mm"], sigma_r=p.sigma_r)


def _grid_from(cfg: dict) -> Grid2D:
    g = cfg["grid"]
    return make_grid(g["nx"], g["nz"], g["dx_mm"], g["dz_mm"])


def _build_phantom(cfg: dict, rng: np.random.Generator):
    """Returns (bubbles, motion, vessels, band).

    Domain constraints the schema cannot express (e.g. orbit radius vs
    band radius) surface as ConfigError, not a numeric failure.
    """
    try:
        return _build_phantom_inner(cfg, rng)
    except ValueError as exc:
        raise ConfigError(f"phantom: {exc}") from exc


def _build_phantom_inner(cfg: dict, rng: np.random.Generator):
    ph = cfg["phantom"]
    kind = ph["kind"]
    if kind == "grid_bubbles":
        pos = np.asarray(ph["positions_mm"], dtype=np.float64)
        vel = np.asarray(ph["velocities_mm_s"], dtype=np.float64)
        if pos.shape != vel.shape:
            raise ConfigError("positions_mm and velocities_mm_s differ "
                              "in length")
        bubbles = from_plane(pos, vel) if pos.size else empty_bubbles()
        return bubbles, MotionSpec("linear"), [], None
    if kind == "circular":
        band = CircularBandSpec(orbit_radius=ph["orbit_radius_mm"],
                                radius_r=ph["radius_mm"], v0=ph["v0_mm_s"],
                                c_mb=ph["c_mb_per_mm3"],
                                spin=ph.get("spin", 1))
        bubbles = sample_circular_bubbles(band, rng)
        return bubbles, MotionSpec("circular", center=band.center), [], band
    length = ph.get("length_mm")
    if kind == "crossing_vessels":
        vessels = [
            VesselSpec(radius_r=ph["radius_mm"], v0=ph["v0_mm_s"],
                       c_mb=ph["c_mb_high_per_mm3"],
                       axis_angle_rad=math.radians(ph["angles_deg"][0]),
                       length=length),
            VesselSpec(radius_r=ph["radius_mm"], v0=ph["v0_mm_s"],
                       c_mb=ph["c_mb_low_per_mm3"],
                       axis_angle_rad=math.radians(ph["angles_deg"][1]),
                       length=length),
        ]
    elif kind == "parallel_vessels":
        angle = math.radians(ph["angle_deg"])
        gap = ph["gap_mm"]
        perp = (-math.sin(angle), math.cos(angle))
        second = angle + (math.pi if ph.get("opposite_directions", True)
                          else 0.0)
        vessels = [
            VesselSpec(radius_r=ph["radius_mm"], v0=ph["v0_mm_s"],
                       c_mb=ph["c_mb_per_mm3"], axis_angle_rad=angle,
                       center=(-perp[0] * gap / 2, -perp[1] * gap / 2),
                       length=length),
            VesselSpec(radius_r=ph["radius_mm"], v0=ph["v0_mm_s"],
                       c_mb=ph["c_mb_per_mm3"], axis_angle_rad=second,
                       center=(perp[0] * gap / 2, perp[1] * gap / 2),
                       length=length),
        ]
    elif kind == "single_vessel":
        vessels = [VesselSpec(radius_r=ph["radius_mm"], v0=ph["v0_mm_s"],
                              c_mb=ph["c_mb_per_mm3"],
                              axis_angle_rad=math.radians(ph["angle_deg"]),
                              length=length)]
    else:  # pragma: no cover - schema forbids
        raise ConfigError(f"unknown phantom kind {kind!r}")
    grid = _grid_from(cfg)
    p = _psf_from(cfg)
    parts = []
    next_id = 0
    resolved = []
    for v in vessels:
        myl = v.length if v.length is not None else default_vessel_length(
            v, grid, p)
        v = VesselSpec(radius_r=v.radius_r, v0=v.v0, c_mb=v.c_mb,
                       axis_angle_rad=v.axis_angle_rad, center=v.center,
                       length=myl)
        resolved.append(v)
        part = sample_bubbles(v, rng, id_start=next_id)
        next_id += len(part)
        parts.append(part)
    bubbles = BubbleSet(np.vstack([q.pos for q in parts]),
                        np.vstack([q.vel for q in parts]),
                        np.concatenate([q.ids for q in parts]))
    return bubbles, MotionSpec("linear"), resolved, None


def _bank_from(cfg: dict, p: PsfParams) -> FilterBankSpec:
    fb = cfg["filter_bank"]
    sigma_t = fb["sigma_t_s"]
    angles = [math.radians(a) for a in fb["angles_deg"]]
    speeds = fb.get("speeds_mm_s", "auto")
    lat = fb.get("lateral_to_angle_deg", 10.0)
    if speeds == "auto":
        v_max = fb.get("v_max_mm_s")
        if v_max is None:
            raise ConfigError("filter_bank.speeds_mm_s='auto' needs "
                              "v_max_mm_s")
        filters = []
        for a in angles:
            th = abs(a) % math.pi
            pb = velocity_bandwidth(p, sigma_t, theta=min(th, math.pi - th))
            for s in tile_speeds(v_max, pb.delta_v):
                filters.append(VelocityFilterSpec(
                    v_f=(s * math.cos(a), s * math.sin(a)), sigma_t=sigma_t))
        return FilterBankSpec(filters=tuple(filters),
                              lateral_to_angle_deg=lat)
    return make_bank(speeds, angles, sigma_t, lateral_to_angle_deg=lat)


def _detector_from(cfg: dict) -> tuple[DetectorConfig, int, str]:
    det = cfg.get("detector", {})
    dcfg = DetectorConfig(
        threshold_fraction=det.get("threshold_fraction", 0.5),
        min_separation=det.get("min_separation_mm"),
        subpixel=det.get("subpixel", True))
    return dcfg, det.get("fine_factor", 4), det.get("mode", "pre")


# ---------------------------------------------------------------------------
# Manifest plumbing.

def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()
                          ).hexdigest()


def _atomic_write_json(payload: dict, path: Path) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def _update_manifest(out: Path, cfg: dict, seed: int, stage: str,
                     wall_s: float, artifacts: list[Path]) -> None:
    man_path = out / "manifest.json"
    if man_path.exists():
        with open(man_path) as fh:
            manifest = json.load(fh)
    else:
        manifest = {"tool_version": __version__, "seed": seed,
                    "config_sha256": _config_hash(cfg), "stages": {},
                    "artifacts": {}}
    manifest["stages"][stage] = {"wall_s": round(wall_s, 3)}
    for art in artifacts:
        manifest["artifacts"][str(art.relative_to(out))] = _sha256_file(art)
    _atomic_write_json(manifest, man_path)


# ---------------------------------------------------------------------------
# Stage implementations. Each returns the list of artifact paths it wrote.

def _stage_synth(cfg: dict, out: Path, seed: int,
                 workers: int) -> list[Path]:
    p = _psf_from(cfg)
    grid = _grid_from(cfg)
    rng = np.random.default_rng(seed)
    bubbles, motion, vessels, band = _build_phantom(cfg, rng)
    mo = cfg["motion"]
    noise_std = cfg.get("noise", {}).get("std", 0.0)
    frames, gt = synthesize_frames(
        bubbles, motion, grid, mo["nt"], mo["dt_s"], p, mode="pre",
        noise_std=noise_std, rng=rng if noise_std > 0 else None,
        vessels=vessels or None, band=band)
    prefix = cfg.get("outputs", {}).get("prefix", "run")
    arts = list(save_frame_stack(frames, out / f"{prefix}_frames"))
    arts.append(save_truth_csv(gt, out / f"{prefix}_truth.csv"))
    if cfg.get("outputs", {}).get("save_pgm", False):
        arts.append(write_pgm(np.abs(frames.data).max(axis=0),
                              out / f"{prefix}_preview.pgm"))
    return arts


def _load_stack(base: Path) -> FrameStack:
    try:
        return load_frame_stack(base)
    except ValueError as exc:
        raise DataError(f"bad frame stack {base}: {exc}") from exc


def _stage_filter(cfg: dict, out: Path, workers: int) -> list[Path]:
    p = _psf_from(cfg)
    to = _to_from(cfg, p)
    prefix = cfg.get("outputs", {}).get("prefix", "run")
    base = out / f"{prefix}_frames"
    if not base.with_suffix(".json").exists():
        raise ConfigError(f"missing input stack {base}.json (run synth "
                          "first or pass --out of a synth run)")
    frames = _load_stack(base)
    bank = _bank_from(cfg, p)
    manifest = save_bank_outputs(
        frames, bank, out / f"{prefix}_filtered", to_params=to,
        boundary=cfg["filter_bank"].get("boundary", "pad"), workers=workers)
    arts = [manifest]
    with open(manifest) as fh:
        for entry in json.load(fh)["outputs"]:
            stem = out / f"{prefix}_filtered" / entry["frames"]
            arts += [stem, stem.with_suffix(".f32")]
    return arts


def _stage_localize(cfg: dict, out: Path, workers: int) -> list[Path]:
    p = _psf_from(cfg)
    to = _to_from(cfg, p)
    prefix = cfg.get("outputs", {}).get("prefix", "run")
    base = out / f"{prefix}_frames"
    if not base.with_suffix(".json").exists():
        raise ConfigError(f"missing input stack {base}.json")
    frames = _load_stack(base)
    bank = _bank_from(cfg, p)
    dcfg, fine_factor, det_mode = _detector_from(cfg)
    result = run_pipeline(frames, bank, p, cfg=dcfg, mode=det_mode,
                          to_params=to, fine_factor=fine_factor,
                          boundary=cfg["filter_bank"].get("boundary", "pad"),
                          workers=workers)
    return [save_localizations_csv(result.per_frame,
                                   out / f"{prefix}_locs.csv")]


def _stage_accumulate(cfg: dict, out: Path) -> list[Path]:
    prefix = cfg.get("outputs", {}).get("prefix", "run")
    locs_path = out / f"{prefix}_locs.csv"
    if not locs_path.exists():
        raise ConfigError(f"missing localizations {locs_path}")
    locs = load_localizations_csv(locs_path)
    grid = _grid_from(cfg)
    _, fine_factor, _ = _detector_from(cfg)
    fine = make_fine_grid(grid, fine_factor)
    acc = accumulate(locs, fine)
    vmap = velocity_map_from_locs(locs, fine)
    mask = segment_support(acc)
    acc_stack = FrameStack(grid=fine, nt=1, dt=1.0,
                           data=acc.counts.astype(np.float64)[None])
    arts = list(save_frame_stack(acc_stack, out / f"{prefix}_accum"))
    vel_stack = FrameStack(grid=fine, nt=3, dt=1.0,
                           data=np.stack([vmap.speed, vmap.vx, vmap.vz]))
    arts += save_frame_stack(vel_stack, out / f"{prefix}_velmap")
    arts.append(write_pgm(acc.counts.astype(np.float64),
                          out / f"{prefix}_accum.pgm"))
    arts.append(write_pgm(mask.astype(np.float64),
                          out / f"{prefix}_support.pgm"))
    return arts


def _truth_geometry(cfg: dict, fine: Grid2D):
    """Support mask and velocity map implied by the phantom geometry."""
    ph = cfg["phantom"]
    rng = np.random.default_rng(0)   # geometry only; sampling not used
    _, _, vessels, band = _build_phantom(cfg, rng)
    if band is not None:
        return (circular_support_mask(band, fine),
                circular_velocity_map(band, fine))
    if vessels:
        return (vessel_support_mask(vessels, fine),
                ground_truth_velocity_map(vessels, fine))
    return None, None


def _stage_metrics(cfg: dict, out: Path, fmt: str) -> list[Path]:
    prefix = cfg.get("outputs", {}).get("prefix", "run")
    locs_path = out / f"{prefix}_locs.csv"
    truth_path = out / f"{prefix}_truth.csv"
    if not locs_path.exists() or not truth_path.exists():
        raise ConfigError("metrics needs localizations and truth "
                          f"({locs_path.name}, {truth_path.name})")
    locs = load_localizations_csv(locs_path)
    if not locs:
        raise DataError("no localizations to score")
    gt = load_truth_csv(truth_path)
    p = _psf_from(cfg)
    grid = _grid_from(cfg)
    mcfg = cfg.get("metrics", {})

    # map metrics are scored at the frame grid; the detector's fine grid is
    # for rendering and stays in the accumulate artifacts
    report: dict = {}
    truth_mask, truth_vmap = _truth_geometry(cfg, grid)
    acc = accumulate(locs, grid)
    if truth_mask is not None:
        report["iou"] = iou(segment_support(acc), truth_mask)
    if truth_vmap is not None:
        est = velocity_map_from_locs(locs, grid)
        _, tvx, tvz = truth_vmap
        report["fve_mm_s"] = fve(tvx, tvz, est.vx, est.vz)
        q = mcfg.get("fastest_q")
        if q:
            report[f"fve_fastest_{q:g}_mm_s"] = fve(tvx, tvz, est.vx, est.vz,
                                                    fastest_q=q)

    sig_par = mcfg.get("le_sigma_par_mm", 0.3 * p.wavelength)
    sig_perp = mcfg.get("le_sigma_perp_mm", 0.15 * p.wavelength)
    theta = math.radians(mcfg.get("flow_angle_deg", 0.0))
    n_truth = sum(f.shape[0] for f in gt.point_frames)
    if n_truth:
        truth_frames = [f[:, 1:3] for f in gt.point_frames]
        est_frames = [np.empty((0, 2)) for _ in gt.point_frames]
        for loc in locs:
            if 0 <= loc.t_index < len(est_frames):
                est_frames[loc.t_index] = np.vstack(
                    [est_frames[loc.t_index], loc.pos])
        le_par = LeParams(sigma_par=sig_par, sigma_perp=sig_perp, theta=theta)
        factor = max(1, math.ceil(grid.dx / (sig_perp / 4.0)))
        le_grid = make_fine_grid(grid, factor)
        report["le"] = localization_error_frames(truth_frames, est_frames,
                                                 le_par, le_grid)
    report["n_localizations"] = len(locs)
    report["n_truth_points"] = int(n_truth)

    out_path = out / f"{prefix}_metrics.{fmt}"
    if fmt == "json":
        _atomic_write_json(report, out_path)
    else:
        with open(out_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["metric", "value"])
            for key, val in report.items():
                writer.writerow([key, val])
    return [out_path]


# ---------------------------------------------------------------------------
# theory subcommand: closed-form tables, no simulation.

def _write_csv(path: Path, header: list[str], rows) -> Path:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.9g}" if isinstance(v, float) else v
                             for v in row])
    return path


def cmd_theory(args: argparse.Namespace) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.ratio <= 0 or args.wavelength_mm <= 0 or args.sigma_r_mm <= 0:
        raise ConfigError("ratio, wavelength and sigma_r must be positive")
    p = PsfParams(sigma_r=args.sigma_r_mm, wavelength=args.wavelength_mm)
    sigma_t = p.sigma_r / args.ratio     # ratio = sigma_r/sigma_t in mm/s
    wrote = []

    if args.gamma:
        span = args.span_mm_s
        vals = np.linspace(-span, span, args.steps)
        rows = []
        for dvz in vals:
            for dvx in vals:
                rep = attenuation_pre(p, sigma_t, (dvx, dvz))
                rows.append([float(dvx), float(dvz), rep.gamma, rep.kappa])
        wrote.append(_write_csv(out / "gamma_grid.csv",
                                ["dvx_mm_s", "dvz_mm_s", "gamma", "kappa"],
                                rows))
    if args.deltav:
        rows = []
        for theta_deg in np.linspace(0.0, 90.0, args.steps):
            pb = velocity_bandwidth(p, sigma_t,
                                    theta=math.radians(float(theta_deg)))
            rows.append([float(theta_deg), pb.kappa_delta_v, pb.delta_v])
        wrote.append(_write_csv(out / "deltav_vs_theta.csv",
                                ["theta_deg", "kappa_delta_v", "delta_v_mm_s"],
                                rows))
    if args.density:
        vessel = VesselSpec(radius_r=args.vessel_radius_mm,
                            v0=args.v0_mm_s, c_mb=args.c_mb_per_mm3)
        pb = velocity_bandwidth(p, sigma_t, theta=0.0)
        rho = np.linspace(-vessel.radius_r, vessel.radius_r, args.steps)
        d2 = apparent_density(rho, vessel)
        dvf = filtered_density(rho, args.v_f_mm_s, pb.delta_v, vessel)
        rows = [[float(r), float(a), float(b)]
                for r, a, b in zip(rho, d2, dvf)]
        wrote.append(_write_csv(out / "density_profiles.csv",
                                ["rho_mm", "d2_per_mm2", "d_vf_per_mm2"],
                                rows))
    if args.to_gamma:
        t = ToParams(lambda_x=args.lambda_x_mm, sigma_x=args.sigma_x_mm,
                     sigma_r=p.sigma_r)
        span = args.span_mm_s
        vals = np.linspace(-span, span, args.steps)
        rows = []
        for dvz in vals:
            for dvx in vals:
                plain = attenuation_pre(p, sigma_t, (dvx, dvz)).gamma
                rep = to_attenuation((dvx, dvz), p, t, sigma_t)
                rows.append([float(dvx), float(dvz), plain, rep.gamma_bar])
        wrote.append(_write_csv(out / "to_gamma_grid.csv",
                                ["dvx_mm_s", "dvz_mm_s", "gamma",
                                 "gamma_bar_to"], rows))
    if args.nrf:
        spec = make_noise_spec(n0=1.0, k_g=2.0 * math.pi / p.wavelength,
                               v0_max=args.v0_max_mm_s,
                               frame_rate_f=args.frame_rate_hz)
        bound = nrf_bound(spec, args.nrf_sigma_t_s)
        print(f"NRF >= {bound.flow_form:.6g} "
              f"({bound.flow_form_db:.1f} dB) [flow form, rounds to "
              f"{round(bound.flow_form)}]")
        print(f"NRF >= {bound.frame_rate_form:.6g} "
              f"({bound.frame_rate_form_db:.1f} dB) [frame-rate form]")
        wrote.append(_write_csv(out / "nrf.csv",
                                ["form", "bound", "bound_db"],
                                [["flow", bound.flow_form,
                                  bound.flow_form_db],
                                 ["frame_rate", bound.frame_rate_form,
                                  bound.frame_rate_form_db]]))
    if args.acq_time:
        bound = acquisition_time_bound(AcqBoundInput(
            flow_rate_q=args.q_mm3_s, diameter_d=args.d_mm,
            c_mb=args.c_mb_per_mm3, i_pix=args.i_pix_mm))
        print(f"T_acq >= {bound:.6g} s")
        wrote.append(_write_csv(out / "acq_time.csv",
                                ["t_acq_lower_s"], [[bound]]))
    if not wrote:
        raise ConfigError("theory: pick at least one of --gamma --deltav "
                          "--density --to-gamma --nrf --acq-time")
    for path in wrote:
        print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Wiring.

_STAGE_RUNNERS = ("synth", "filter", "localize", "accumulate", "metrics",
                  "pipeline")


def _run_stage_command(cmd: str, args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    workers = args.threads
    stages = (("synth", "filter", "localize", "accumulate", "metrics")
              if cmd == "pipeline" else (cmd,))
    for stage in stages:
        t0 = time.perf_counter()
        if stage == "synth":
            arts = _stage_synth(cfg, out, seed, workers)
        elif stage == "filter":
            arts = _stage_filter(cfg, out, workers)
        elif stage == "localize":
            arts = _stage_localize(cfg, out, workers)
        elif stage == "accumulate":
            arts = _stage_accumulate(cfg, out)
        elif stage == "metrics":
            arts = _stage_metrics(cfg, out, args.format)
        wall = time.perf_counter() - t0
        _update_manifest(out, cfg, seed, stage, wall, arts)
        print(f"[{stage}] ok ({wall:.2f} s, {len(arts)} artifacts)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="velofilt",
        description="Velocity-selective filtering, localization, and "
                    "closed-form analysis for frame-stack data.")
    parser.add_argument("--version", action="version",
                        version=f"velofilt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", required=True, help="experiment JSON")
        sp.add_argument("--seed", type=int, default=None,
                        help="override config seed")
        sp.add_argument("--out", default="runs/out", help="working directory")
        sp.add_argument("--threads", type=int,
                        default=int(os.environ.get("VELOFILT_THREADS", "1")),
                        help="FFT worker threads (env VELOFILT_THREADS)")
        sp.add_argument("--format", choices=("csv", "json"), default="json",
                        help="metrics report format")

    for name, help_text in (
            ("synth", "synthesize phantom frames and ground truth"),
            ("filter", "run the velocity filter bank over a synth output"),
            ("localize", "filter bank + matched-filter localization"),
            ("accumulate", "bin localizations into super-resolved maps"),
            ("metrics", "score localizations against ground truth"),
            ("pipeline", "synth, filter, localize, accumulate, metrics in "
                         "sequence")):
        add_common(sub.add_parser(name, help=help_text))

    th = sub.add_parser("theory", help="emit closed-form tables as CSV")
    th.add_argument("--out", default="runs/theory")
    th.add_argument("--gamma", action="store_true",
                    help="attenuation over a velocity-mismatch grid")
    th.add_argument("--deltav", action="store_true",
                    help="passband half-width vs direction")
    th.add_argument("--density", action="store_true",
                    help="apparent and filtered density profiles")
    th.add_argument("--to-gamma", action="store_true",
                    help="plain vs transverse-oscillation attenuation")
    th.add_argument("--nrf", action="store_true",
                    help="noise reduction bounds")
    th.add_argument("--acq-time", action="store_true",
                    help="acquisition time lower bound")
    th.add_argument("--ratio", type=float, default=1.0,
                    help="sigma_r/sigma_t in mm/s")
    th.add_argument("--sigma-r-mm", type=float, default=0.3)
    th.add_argument("--wavelength-mm", type=float, default=0.3)
    th.add_argument("--span-mm-s", type=float, default=3.0)
    th.add_argument("--steps", type=int, default=61)
    th.add_argument("--vessel-radius-mm", type=float, default=1.0)
    th.add_argument("--v0-mm-s", type=float, default=10.0)
    th.add_argument("--c-mb-per-mm3", type=float, default=1000.0)
    th.add_argument("--v-f-mm-s", type=float, default=2.5)
    th.add_argument("--lambda-x-mm", type=float, default=0.6)
    th.add_argument("--sigma-x-mm", type=float, default=0.3)
    th.add_argument("--v0-max-mm-s", type=float, default=10.0)
    th.add_argument("--frame-rate-hz", type=float, default=100.0)
    th.add_argument("--nrf-sigma-t-s", type=float, default=0.5)
    th.add_argument("--q-mm3-s", type=float, default=1.0)
    th.add_argument("--d-mm", type=float, default=1.0)
    th.add_argument("--i-pix-mm", type=float, default=0.03)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "theory":
            return cmd_theory(args)
        return _run_stage_command(args.command, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, RuntimeError) as exc:
        print(f"error ({args.command}): {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error ({args.command}): {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
