"""Config-driven experiment runner.

One JSON config describes an experiment end to end: PSF, grid, phantom,
motion, filter bank, detector, metrics. Subcommands run single stages
(`synth`, `filter`, `localize`, `accumulate`, `metrics`) against a working
directory, `pipeline` chains them, and `theory` emits closed-form tables
without any simulation. Every run appends to a manifest recording each
stage's wall time, peak memory, seed and config hash, and the artifact
checksums; identical (config, seed, version) runs reproduce identical
checksums. A stage that reads the synth stack checks its header against
the config first. The study scripts and tests run a config in memory
through `resolve`, `synthesize`, `localize` and `score`, the stages' own
code, on the float32 frames the synth stage writes. `study_runs` gives the
study scripts their common flags and resolves each run of a sweep.

Exit codes: 0 ok, 2 config error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import operator
import os
import resource
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .core import (MAX_ELEMENTS, FrameStack, FrameStream, Grid2D,
                   load_frame_stack, make_fine_grid, make_grid,
                   save_frame_stack, short_int, to_float32, write_pgm)
from .localize import (DetectorConfig, accumulate, load_localizations_csv,
                       run_pipeline, save_localizations_csv, segment_support,
                       velocity_map_from_locs)
from .metrics import (LeParams, default_le_params, fve, iou,
                      localization_error_frames)
from .phantom import (BubbleSet, CircularBandSpec, Flow, VesselSpec,
                      concat_bubbles, default_vessel_length, empty_bubbles,
                      from_plane, load_truth_csv, sample_bubbles,
                      sample_circular_bubbles, save_truth_csv,
                      synthesize_frames, truth_maps)
from .psf import PsfParams, ToParams
from .theory import (AcqBoundInput, acquisition_time_bound, apparent_density,
                     attenuation_pre, filtered_density, make_noise_spec,
                     nrf_bound, to_attenuation, velocity_bandwidth)
from .vfilter import (MAX_FILTERS, FilterBankSpec, bank_pads, make_bank,
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
            },
        },
        "detector": {
            "type": "object", "additionalProperties": False,
            "properties": {
                "threshold_fraction": {"type": "number",
                                       "exclusiveMinimum": 0,
                                       "exclusiveMaximum": 1},
                "subpixel": {"type": "boolean"},
                "fine_factor": {"type": "integer", "minimum": 1},
                "mode": {"enum": ["pre", "post"]},
            },
        },
        "metrics": {
            "type": "object", "additionalProperties": False,
            "properties": {
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


def _finite(text: str) -> float:
    """text as a finite float, for config numbers and theory flags: json
    reads NaN, Infinity and overflowing literals such as 1e999, float()
    reads nan and inf, and they pass every bound the schema and cmd_theory
    check."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"must be a finite number, got {text!r}")
    return value


def _integer(text: str) -> int:
    """text as an int, for config integers: int() refuses a literal of more
    digits than sys.get_int_max_str_digits() with a plain ValueError."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"an integer literal of {len(text.lstrip('-'))} digits is past "
            f"the limit of {sys.get_int_max_str_digits()} digits") from None


def load_config(path: str | Path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh, parse_float=_finite, parse_constant=_finite,
                            parse_int=_integer)
    except FileNotFoundError as exc:
        raise ConfigError(f"config not found: {path}") from exc
    except (json.JSONDecodeError, argparse.ArgumentTypeError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    check_config(cfg)
    return cfg


def check_config(cfg: dict) -> None:
    """Raise a ConfigError at the first place cfg breaks CONFIG_SCHEMA.

    `_conforms` decides; jsonschema is imported only after a rejection, to
    word the error with its best_match, so a valid config loads none of it.
    """
    if _conforms(cfg, CONFIG_SCHEMA):
        return
    import jsonschema
    # jsonschema.validate without its check of CONFIG_SCHEMA against the
    # metaschema; a test makes that check
    validator_cls = jsonschema.validators.validator_for(CONFIG_SCHEMA)
    error = jsonschema.exceptions.best_match(
        validator_cls(CONFIG_SCHEMA).iter_errors(cfg))
    if error is None:
        raise ConfigError("config invalid: it breaks CONFIG_SCHEMA, but "
                          "jsonschema names no error")
    raise ConfigError(f"config invalid at {error.json_path}: "
                      f"{error.message}") from error


# The JSON Schema keywords `_conforms` interprets, with jsonschema's meaning:
# the ones CONFIG_SCHEMA uses (a test walks the schema). Each bound names
# the comparison of value against it that fails the check.
_BOUNDS = {"minimum": operator.lt, "maximum": operator.gt,
           "exclusiveMinimum": operator.le, "exclusiveMaximum": operator.ge}
_KEYWORDS = frozenset({
    "type", "properties", "required", "additionalProperties", "items",
    "minItems", "maxItems", "minLength", "const", "enum", "oneOf", *_BOUNDS})
_JSON_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
               "null": type(None)}


def _is_type(value, name: str) -> bool:
    """JSON Schema's type test: a bool is no number, 64.0 is an integer."""
    if name not in ("number", "integer"):
        return isinstance(value, _JSON_TYPES[name])
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return name == "number" or isinstance(value, int) or value.is_integer()


def _same(a, b) -> bool:
    """JSON equality, as const and enum test it: 1 equals 1.0, True is not
    1, and lists and objects compare item by item."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


def _conforms(value, schema: dict | bool) -> bool:
    """Whether value is valid under schema, which may use only _KEYWORDS;
    any other keyword raises, so a schema edit is never skipped silently."""
    if isinstance(schema, bool):
        return schema
    unknown = schema.keys() - _KEYWORDS
    if unknown:
        raise NotImplementedError(
            f"_conforms does not interpret the keywords {sorted(unknown)}")
    if "type" in schema and not _is_type(value, schema["type"]):
        return False
    if "const" in schema and not _same(value, schema["const"]):
        return False
    if "enum" in schema and not any(_same(value, e) for e in schema["enum"]):
        return False
    if "oneOf" in schema and sum(
            _conforms(value, sub) for sub in schema["oneOf"]) != 1:
        return False
    if _is_type(value, "number"):
        return not any(fails(value, schema[key])
                       for key, fails in _BOUNDS.items() if key in schema)
    if isinstance(value, str):
        return len(value) >= schema.get("minLength", 0)
    if isinstance(value, list):
        return (schema.get("minItems", 0) <= len(value)
                <= schema.get("maxItems", len(value))
                and all(_conforms(v, schema.get("items", True))
                        for v in value))
    if isinstance(value, dict):
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        return (all(key in value for key in schema.get("required", ()))
                and all(_conforms(v, props.get(key, extra))
                        for key, v in value.items()))
    return True


# ---------------------------------------------------------------------------
# Config -> domain objects, built once per command.

@dataclass(frozen=True)
class Resolved:
    """The domain objects of one config, shared by every stage it runs.

    `flow` is the phantom's band, or its vessels with lengths resolved; it
    is empty for grid_bubbles, whose fixed bubbles are in `points`. The
    other kinds draw their bubbles per seed from the flow. The schema's
    integers (`seed`, `nx`, `nz`, `nt`, `fine_factor`) are ints here even
    where the config writes them as 64.0, as JSON Schema allows.
    """

    seed: int
    psf: PsfParams
    grid: Grid2D
    fine: Grid2D
    nt: int
    dt: float
    noise_std: float
    points: BubbleSet | None
    flow: Flow
    bank: FilterBankSpec
    detector: DetectorConfig
    le: LeParams
    fastest_q: float | None
    prefix: str
    save_pgm: bool


@contextmanager
def _section(name: str):
    """Report a ValueError or an arithmetic error (an overflow, a division
    by a value that underflowed to zero) raised while building `name` as a
    ConfigError."""
    try:
        yield
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def resolve(cfg: dict) -> Resolved:
    """Build every domain object of a schema-valid config.

    Domain constraints the schema cannot express (e.g. orbit radius vs band
    radius, a bubble count past the render's limit) surface here as
    ConfigError naming the config section, before any stage runs.
    """
    with _section("psf"):
        p = PsfParams(sigma_r=cfg["psf"]["sigma_r_mm"],
                      wavelength=cfg["psf"]["wavelength_mm"])
    with _section("to"):
        to = (ToParams(lambda_x=cfg["to"]["lambda_x_mm"],
                       sigma_x=cfg["to"]["sigma_x_mm"], sigma_r=p.sigma_r)
              if "to" in cfg else None)
    # the schema's integers are sized as ints, before any float meets
    # them: past the float range, that conversion raises without a size
    with _section("grid"):
        g = cfg["grid"]
        nx, nz = int(g["nx"]), int(g["nz"])
        if nz * nx > MAX_ELEMENTS:
            raise ValueError(f"grid {short_int(nz)} x {short_int(nx)} "
                             f"exceeds the limit of {MAX_ELEMENTS} elements")
        grid = make_grid(nx, nz, g["dx_mm"], g["dz_mm"])
    det = cfg.get("detector", {})
    with _section("detector"):
        fine = make_fine_grid(grid, **{
            k: int(v) for k, v in _given(det, factor="fine_factor").items()})
        detector = DetectorConfig(**_given(
            det, threshold_fraction="threshold_fraction",
            subpixel="subpixel", mode="mode"))
    with _section("motion"):
        nt, dt = int(cfg["motion"]["nt"]), cfg["motion"]["dt_s"]
        span = nt * dt if nt <= sys.float_info.max else math.inf
        if not math.isfinite(span * span):
            raise ValueError(f"{short_int(nt)} frames of {dt:.3g} s span "
                             f"{span:.3g} s, whose square is not finite")
    with _section("phantom"):
        points, flow = _phantom(cfg["phantom"], grid, p)
        _check_bubble_count(flow, grid)
        # the render squares each bubble's offset from a pixel, which
        # grows with a listed bubble's distance from the origin and with
        # the travel
        start = _farthest(points)
        reach = start + _fastest(points, flow) * span
        if not math.isfinite(reach * reach):
            where = "from the origin " if start else ""
            raise ValueError(f"bubbles move up to {reach:.3g} mm {where}"
                             "over the run, whose square is not finite")
        # a bubble that crosses the grid in one frame leaves no track
        step = _fastest(points, flow) * dt
        diagonal = math.hypot(*grid.extent_mm)
        if step > diagonal:
            raise ValueError(f"bubbles move up to {step:.3g} mm in one "
                             f"frame, past the grid diagonal of "
                             f"{diagonal:.3g} mm")
    with _section("filter_bank"):
        bank = _bank(cfg["filter_bank"], p, to)
        bank_pads(bank, nt, dt, grid)
    with _section("grid"):
        # after the bank, whose own check names a step too fine for its
        # gain: the render squares offsets across the grid, and the
        # correlation scales by the pixel area in the stack's float32
        wx, wz = grid.extent_mm
        if not (math.isfinite(wx * wx) and math.isfinite(wz * wz)):
            raise ValueError(f"extent {wx:.3g} x {wz:.3g} mm has no finite "
                             "square")
        f32 = np.finfo(np.float32)
        area = grid.dx * grid.dz
        if not float(f32.tiny) <= area <= float(f32.max):
            raise ValueError(f"pixel area {area:.3g} mm^2 is not a normal "
                             "float32")
    with _section("psf"):
        # the render divides each squared offset of a bubble from a pixel
        # by 2 sigma_r^2: a subnormal divisor, or a quotient past the
        # float range, would overflow under numpy warnings (and the peak
        # 1 / (2 pi sigma_r^2) with them). An offset whose square alone is
        # not finite is the grid's or the phantom's, not sigma_r's.
        s2 = 2.0 * p.sigma_r**2
        offset = math.hypot(*grid.extent_mm) + reach
        square = offset * offset
        if s2 < sys.float_info.min:
            raise ValueError(f"sigma_r {p.sigma_r:.3g} mm is too small for "
                             f"the render: 2 sigma_r^2 = {s2:.3g} is not a "
                             "normal float")
        if math.isfinite(square) and not math.isfinite(square / s2):
            raise ValueError(f"sigma_r {p.sigma_r:.3g} mm is too small for "
                             "the render: a bubble's offset from a pixel, "
                             f"up to {offset:.3g} mm, squared over 2 "
                             "sigma_r^2 is not finite")
    mcfg = cfg.get("metrics", {})
    le = default_le_params(
        p.wavelength, theta=math.radians(mcfg.get("flow_angle_deg", 0.0)))
    outputs = cfg.get("outputs", {})
    return Resolved(
        psf=p, grid=grid, fine=fine,
        seed=int(cfg.get("seed", 0)),
        nt=nt, dt=dt,
        noise_std=cfg.get("noise", {}).get("std", 0.0),
        points=points, flow=flow,
        bank=bank, detector=detector,
        le=le, fastest_q=mcfg.get("fastest_q"),
        prefix=outputs.get("prefix", "run"),
        save_pgm=outputs.get("save_pgm", False))


def _given(section: dict, **keys: str) -> dict:
    """{param: section[key]} for each key the section sets; the callee's
    defaults fill in the rest."""
    return {param: section[key] for param, key in keys.items()
            if key in section}


def _phantom(ph: dict, grid: Grid2D, p: PsfParams
             ) -> tuple[BubbleSet | None, Flow]:
    """(points, flow) of the phantom section; points only for grid_bubbles."""
    kind = ph["kind"]
    if kind == "grid_bubbles":
        pos = np.asarray(ph["positions_mm"], dtype=np.float64)
        vel = np.asarray(ph["velocities_mm_s"], dtype=np.float64)
        if pos.shape != vel.shape:
            raise ValueError("positions_mm and velocities_mm_s differ in "
                             "length")
        points = from_plane(pos, vel) if pos.size else empty_bubbles()
        return points, ()
    if kind == "circular":
        return None, CircularBandSpec(
            orbit_radius=ph["orbit_radius_mm"], radius_r=ph["radius_mm"],
            v0=ph["v0_mm_s"], c_mb=ph["c_mb_per_mm3"], spin=ph.get("spin", 1))
    length = default_vessel_length(grid, p)
    if kind == "crossing_vessels":
        vessels = tuple(
            VesselSpec(radius_r=ph["radius_mm"], v0=ph["v0_mm_s"], c_mb=c_mb,
                       axis_angle_rad=math.radians(angle), length=length)
            for c_mb, angle in zip((ph["c_mb_high_per_mm3"],
                                    ph["c_mb_low_per_mm3"]),
                                   ph["angles_deg"]))
    elif kind == "parallel_vessels":
        angle = math.radians(ph["angle_deg"])
        gap = ph["gap_mm"]
        perp = (-math.sin(angle), math.cos(angle))
        second = angle + (math.pi if ph.get("opposite_directions", True)
                          else 0.0)
        vessels = (
            VesselSpec(radius_r=ph["radius_mm"], v0=ph["v0_mm_s"],
                       c_mb=ph["c_mb_per_mm3"], axis_angle_rad=angle,
                       center=(-perp[0] * gap / 2, -perp[1] * gap / 2),
                       length=length),
            VesselSpec(radius_r=ph["radius_mm"], v0=ph["v0_mm_s"],
                       c_mb=ph["c_mb_per_mm3"], axis_angle_rad=second,
                       center=(perp[0] * gap / 2, perp[1] * gap / 2),
                       length=length),
        )
    else:  # single_vessel
        vessels = (VesselSpec(radius_r=ph["radius_mm"], v0=ph["v0_mm_s"],
                              c_mb=ph["c_mb_per_mm3"],
                              axis_angle_rad=math.radians(ph["angle_deg"]),
                              length=length),)
    return None, vessels


def _check_bubble_count(flow: Flow, grid: Grid2D) -> None:
    """Refuse a flow whose expected bubble count, c_mb pi R^2 L summed over
    its vessels (L = 2 pi orbit_radius for a band), the render cannot hold:
    its (n, nx) and (n, nz) work arrays are its largest per-bubble
    allocation, so count * max(nx, nz) may not pass MAX_ELEMENTS. The
    sums run in Python floats, which overflow to inf without raising; the
    samplers' Poisson draw would fail on such a count, or on a radius
    whose square overflows, with a message that names neither."""
    if isinstance(flow, CircularBandSpec):
        tubes = [(flow.radius_r, 2.0 * math.pi * flow.orbit_radius,
                  flow.c_mb)]
        what, why = "band", "2 pi orbit_radius"
    else:
        tubes = [(v.radius_r, v.length, v.c_mb) for v in flow]
        what, why = "vessel", "the grid diagonal plus 8 sigma_r"
    count = 0.0
    for radius, length, c_mb in tubes:
        volume = math.pi * radius * radius * length
        if not math.isfinite(volume):
            raise ValueError(f"a {what} of radius {radius:.3g} mm and "
                             f"length {length:.3g} mm has no finite volume")
        count += c_mb * volume
    width = max(grid.nx, grid.nz)
    if count * width > MAX_ELEMENTS:
        raise ValueError(f"{count:.3g} bubbles expected over a {what} length "
                         f"of {length:.3g} mm ({why}): the render's "
                         f"{count:.3g} x {width} work array exceeds the "
                         f"limit of {MAX_ELEMENTS} elements")


def _farthest(points: BubbleSet | None) -> float:
    """The largest distance of a listed bubble from the origin, mm; 0 for
    a phantom that lists none."""
    if points is None:
        return 0.0
    return max(map(math.hypot, points.pos[:, 0].tolist(),
                   points.pos[:, 2].tolist()), default=0.0)


def _fastest(points: BubbleSet | None, flow: Flow) -> float:
    """The phantom's fastest bubble speed, mm/s: its listed bubbles' or
    its flow's peak speed v0."""
    if points is not None:
        return max(map(math.hypot, points.vel[:, 0].tolist(),
                       points.vel[:, 2].tolist()), default=0.0)
    if isinstance(flow, CircularBandSpec):
        return abs(flow.v0)
    return max(abs(v.v0) for v in flow)


def _bank(fb: dict, p: PsfParams, to: ToParams | None) -> FilterBankSpec:
    """The filter_bank section's bank, with the to section's prefilter.
    ValueError: more than MAX_FILTERS filters (counted before any is
    built), or a speed past the float32 range of the locs CSV and map."""
    sigma_t = fb["sigma_t_s"]
    angles = [math.radians(a) for a in fb["angles_deg"]]
    speeds = fb.get("speeds_mm_s", "auto")
    if speeds != "auto":
        filters = make_bank(speeds, angles, sigma_t).filters
    else:
        v_max = fb.get("v_max_mm_s")
        if v_max is None:
            raise ValueError("speeds_mm_s='auto' needs v_max_mm_s")
        tilings = []
        for a in angles:
            th = abs(a) % math.pi
            pb = velocity_bandwidth(p, sigma_t, theta=min(th, math.pi - th))
            tilings.append(tile_speeds(v_max, pb.delta_v))
            if sum(map(len, tilings)) > MAX_FILTERS:
                raise ValueError(f"the 'auto' speeds of {len(angles)} "
                                 "angles make more filters than the limit "
                                 f"of {MAX_FILTERS}")
        filters = [f for tiled, a in zip(tilings, angles)
                   for f in make_bank(tiled, [a], sigma_t).filters]
    bank = FilterBankSpec(filters=tuple(filters), to=to)
    fastest = max(f.speed for f in bank.filters)
    if fastest > float(np.finfo(np.float32).max):
        raise ValueError(f"filter speed {fastest:.3g} mm/s is past the "
                         "float32 range of the locs CSV and velocity map")
    return bank


def _draw_bubbles(r: Resolved, rng: np.random.Generator) -> BubbleSet:
    """The phantom's bubbles, drawn from rng vessel by vessel."""
    if r.points is not None:
        return r.points
    if isinstance(r.flow, CircularBandSpec):
        return sample_circular_bubbles(r.flow, rng)
    parts = []
    next_id = 0
    for v in r.flow:
        part = sample_bubbles(v, rng, id_start=next_id)
        next_id += len(part)
        parts.append(part)
    return concat_bubbles(parts)


# ---------------------------------------------------------------------------
# In-memory run of a resolved config: the synth and localize stages without
# their files, for the study scripts and the tests.

def synthesize(r: Resolved, seed: int, sink=None
               ) -> tuple[FrameStack | None, np.ndarray]:
    """The config's frames and truth table, with the bubbles and the
    noise drawn from one generator seeded with seed. Each block is cast
    once to the float32 the synth stage writes (core.to_float32), then
    goes to sink, and None is returned, or without sink into the stack."""
    rng = np.random.default_rng(seed)
    # a draw can still fail on the section's values, e.g. a Poisson mean
    # too large for numpy
    with _section("phantom"):
        bubbles = _draw_bubbles(r, rng)
    blocks: list[np.ndarray] = []
    done = 0

    def cast(block: np.ndarray) -> None:
        nonlocal done
        (blocks.append if sink is None else sink)(to_float32(block, done))
        done += len(block)

    truth = synthesize_frames(
        bubbles, r.flow, r.grid, r.nt, r.dt, r.psf, cast,
        noise_std=r.noise_std, rng=rng if r.noise_std > 0 else None)
    stack = None if sink else FrameStack(r.grid, r.nt, r.dt,
                                         np.concatenate(blocks))
    return stack, truth


def localize(r: Resolved, frames: FrameStack | FrameStream,
             workers: int = 1) -> np.ndarray:
    """The localization table of frames, rows by frame, through the
    config's bank, detector and TO prefilter."""
    result = run_pipeline(frames, r.bank, r.psf, cfg=r.detector,
                          workers=workers)
    return np.concatenate(result.per_frame)


def score(r: Resolved, locs: np.ndarray, truth: np.ndarray) -> dict:
    """The metrics stage's report of the table locs against the truth
    table: IoU, FVE (and the fastest-q FVE when the config sets fastest_q)
    and LE, then the counts, in that order.

    Map metrics are scored at the frame grid; the detector's fine grid is
    for rendering and stays in the accumulate artifacts. Grid bubbles have
    no flow, hence no truth maps, IoU or FVE; LE is left out when no frame
    holds a truth point."""
    grid = r.grid
    report: dict = {}
    if r.flow:
        truth_mask, _, tvx, tvz = truth_maps(r.flow, grid)
        report["iou"] = iou(segment_support(accumulate(locs, grid)),
                            truth_mask)
        est = velocity_map_from_locs(locs, grid)
        report["fve_mm_s"] = fve(tvx, tvz, est.vx, est.vz)
        q = r.fastest_q
        if q:
            report[f"fve_fastest_{q:g}_mm_s"] = fve(tvx, tvz, est.vx, est.vz,
                                                    fastest_q=q)

    if len(truth):
        report["le"] = localization_error_frames(truth, locs, r.le, grid)
    report["n_localizations"] = len(locs)
    report["n_truth_points"] = len(truth)
    return report


def study_runs(ap: argparse.ArgumentParser, config: Path, out: str,
               sweep=None) -> tuple[argparse.Namespace, list[Resolved]]:
    """The command line of a study script and the resolved config of each
    of its runs.

    Adds --config (default config), --seed, --nt and --out (default out)
    to the script's parser ap and parses; --seed and --nt are set in the
    config. sweep(args, cfg), if given, lists the runs as (label, edits)
    pairs: edits maps config sections to the keys one run sets in them,
    and label (e.g. "--gaps 0.4") names the run in an error. Every run is
    checked and resolved before the first one starts, and a ConfigError,
    of the config file or of any run, goes to ap.error: exit 2 with one
    error line, nothing run or written."""
    ap.add_argument("--config", default=str(config))
    ap.add_argument("--seed", type=seed_arg, help="override the config's seed")
    ap.add_argument("--nt", type=int, help="override the config's frames")
    ap.add_argument("--out", default=out)
    args = ap.parse_args()
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        ap.error(str(exc))
    if args.nt is not None:
        cfg["motion"]["nt"] = args.nt
    if args.seed is not None:
        cfg["seed"] = args.seed
    runs = []
    for label, edits in sweep(args, cfg) if sweep else [(None, {})]:
        run = {**cfg, **{name: {**cfg[name], **keys}
                         for name, keys in edits.items()}}
        try:
            check_config(run)
            runs.append(resolve(run))
        except ConfigError as exc:
            ap.error(f"{label}: {exc}" if label else str(exc))
    return args, runs


# ---------------------------------------------------------------------------
# Manifest plumbing.

def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    # 64 KiB reads stay under glibc's 128 KiB mmap threshold: a 1 MiB read
    # raises it, and the metrics stage, which hashes its CSVs before it
    # scores them, then peaked about 1 MB higher
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
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


def _peak_rss_mb() -> float:
    """High-water mark of this process's resident memory so far, in MB;
    ru_maxrss is in KiB on Linux and in bytes on macOS."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 1e6 if sys.platform == "darwin" else peak * 1024 / 1e6


def _minor_faults() -> int:
    """Minor page faults this process has taken so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _read_manifest(out: Path) -> dict:
    """The manifest in out, or a new one; a manifest that is not JSON, or
    whose stages or artifacts are not objects, is a data error."""
    man_path = out / "manifest.json"
    if not man_path.exists():
        return {"tool_version": __version__, "stages": {}, "artifacts": {}}
    try:
        with open(man_path) as fh:
            manifest = json.load(fh)
    except ValueError as exc:
        raise DataError(f"bad manifest {man_path}: {exc}") from exc
    if not (isinstance(manifest, dict)
            and isinstance(manifest.get("stages"), dict)
            and isinstance(manifest.get("artifacts"), dict)):
        raise DataError(f"bad manifest {man_path}: not an object with "
                        "'stages' and 'artifacts' objects")
    return manifest


def _update_manifest(manifest: dict, out: Path, cfg: dict, seed: int,
                     stage: str, wall_s: float, minor_faults: int,
                     artifacts: list[Path]) -> None:
    """Record stage and its artifacts in manifest and write it to out."""
    run = {"seed": seed, "config_sha256": _config_hash(cfg)}
    manifest.update(run)
    manifest["stages"][stage] = {"wall_s": round(wall_s, 3),
                                 "peak_rss_mb": round(_peak_rss_mb(), 1),
                                 "minor_faults": minor_faults, **run}
    for art in artifacts:
        manifest["artifacts"][str(art.relative_to(out))] = _sha256_file(art)
    _atomic_write_json(manifest, out / "manifest.json")


# ---------------------------------------------------------------------------
# Stage implementations. Each returns the list of artifact paths it wrote.

def _stage_synth(r: Resolved, out: Path, seed: int) -> list[Path]:
    """Stream the frames to disk block by block (the whole stack is never
    held), then write the truth and the preview of each pixel's max |x|."""
    truth: list[np.ndarray] = []
    peak = np.zeros((r.grid.nz, r.grid.nx))

    def fill(append):
        def write(block: np.ndarray) -> None:
            append(block)
            if r.save_pgm:
                # max |x| is max(max x, -min x) exactly: no |block| copy
                np.maximum(peak, block.max(axis=0), out=peak)
                np.maximum(peak, -block.min(axis=0), out=peak)
        truth.append(synthesize(r, seed, sink=write)[1])

    arts = list(save_frame_stack(FrameStream(r.grid, r.nt, r.dt, fill),
                                 out / f"{r.prefix}_frames"))
    arts.append(save_truth_csv(truth[0], out / f"{r.prefix}_truth.csv"))
    if r.save_pgm:
        arts.append(write_pgm(peak, out / f"{r.prefix}_preview.pgm"))
    return arts


def _load_frames(r: Resolved, out: Path) -> FrameStream:
    """The synth stack as a stream, its header checked against the config's
    grid and clock: a stack from another config would run and score against
    the wrong geometry. A damaged header or payload size is a data error
    here; a short payload or a non-finite sample that the bank finds as it
    reads the stream is one too, raised from inside the bank, before the
    stage writes anything."""
    base = out / f"{r.prefix}_frames"
    if not base.with_suffix(".json").exists():
        raise ConfigError(f"missing input stack {base}.json (run synth "
                          "first or pass --out of a synth run)")
    try:
        frames = load_frame_stack(base)
    except ValueError as exc:
        raise DataError(f"bad frame stack {base}: {exc}") from exc
    g, want = frames.grid, r.grid
    for key, got, expected in (
            ("nx", g.nx, want.nx), ("nz", g.nz, want.nz),
            ("nt", frames.nt, r.nt), ("dx_mm", g.dx, want.dx),
            ("dz_mm", g.dz, want.dz), ("x0_mm", g.x0, want.x0),
            ("z0_mm", g.z0, want.z0), ("dt_s", frames.dt, r.dt)):
        if not math.isclose(got, expected, rel_tol=1e-9):
            raise DataError(f"frame stack {base} has {key} = {got!r}, the "
                            f"config gives {expected!r}")

    def fill(append) -> None:
        # the bank's append checks each block's samples before its x pass:
        # the ValueError it raises names a sample of the stack
        try:
            frames.fill(append)
        except ValueError as exc:
            raise DataError(f"bad frame stack {base}: {exc}") from exc

    return FrameStream(frames.grid, frames.nt, frames.dt, fill)


def _load_csv(load, path: Path, out: Path):
    """load(path), with a malformed file, or one whose SHA-256 is not the
    one manifest.json records for it, reported as a data error. The hash
    is checked after the parse, so a bad row is still named by its line."""
    try:
        rows = load(path)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    name = str(path.relative_to(out))
    recorded = _read_manifest(out)["artifacts"].get(name)
    if recorded is None:
        raise DataError(f"{path}: manifest.json records no SHA-256 for "
                        f"{name}")
    if _sha256_file(path) != recorded:
        raise DataError(f"{path} is not the file its stage wrote: its "
                        "SHA-256 differs from manifest.json's")
    return rows


def _stage_filter(r: Resolved, out: Path, workers: int) -> list[Path]:
    return save_bank_outputs(_load_frames(r, out), r.bank,
                             out / f"{r.prefix}_filtered", workers)


def _stage_localize(r: Resolved, out: Path, workers: int) -> list[Path]:
    return [save_localizations_csv(localize(r, _load_frames(r, out), workers),
                                   out / f"{r.prefix}_locs.csv")]


def _stage_accumulate(r: Resolved, out: Path) -> list[Path]:
    locs_path = out / f"{r.prefix}_locs.csv"
    if not locs_path.exists():
        raise ConfigError(f"missing localizations {locs_path}")
    locs = _load_csv(load_localizations_csv, locs_path, out)
    acc = accumulate(locs, r.fine)
    vmap = velocity_map_from_locs(locs, r.fine)
    mask = segment_support(acc)
    # both stacks are cast straight to float32 and checked, channel c as
    # frame c, before either is written
    vel = np.empty((3,) + acc.counts.shape, dtype="<f4")
    for c, channel in enumerate((vmap.speed, vmap.vx, vmap.vz)):
        vel[c] = to_float32(channel[None], c)[0]
    acc_stack = FrameStack(grid=r.fine, nt=1, dt=1.0,
                           data=to_float32(acc.counts[None]))
    vel_stack = FrameStack(grid=r.fine, nt=3, dt=1.0, data=vel)
    arts = list(save_frame_stack(acc_stack, out / f"{r.prefix}_accum"))
    arts += save_frame_stack(vel_stack, out / f"{r.prefix}_velmap")
    arts.append(write_pgm(acc.counts, out / f"{r.prefix}_accum.pgm"))
    arts.append(write_pgm(mask, out / f"{r.prefix}_support.pgm"))
    return arts


def _stage_metrics(r: Resolved, out: Path) -> list[Path]:
    locs_path = out / f"{r.prefix}_locs.csv"
    truth_path = out / f"{r.prefix}_truth.csv"
    if not locs_path.exists() or not truth_path.exists():
        raise ConfigError("metrics needs localizations and truth "
                          f"({locs_path.name}, {truth_path.name})")
    locs = _load_csv(load_localizations_csv, locs_path, out)
    if len(locs) == 0:
        raise DataError("no localizations to score")
    report = score(r, locs, _load_csv(load_truth_csv, truth_path, out))
    out_path = out / f"{r.prefix}_metrics.json"
    _atomic_write_json(report, out_path)
    return [out_path]


def write_csv(path: Path, header: list[str], rows) -> Path:
    """Write a CSV table to path, making its folder; a float cell is
    written to 9 significant digits, any other cell as str() gives it."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.9g}" if isinstance(v, float) else v
                             for v in row])
    return path


# ---------------------------------------------------------------------------
# theory subcommand: closed-form tables, no simulation.

def cmd_theory(args: argparse.Namespace) -> int:
    if args.ratio <= 0 or args.wavelength_mm <= 0 or args.sigma_r_mm <= 0:
        raise ConfigError("ratio, wavelength and sigma_r must be positive")
    if args.steps < 1:
        raise ConfigError("theory: --steps must be at least 1")
    if (args.gamma or args.to_gamma) and args.span_mm_s <= 0:
        raise ConfigError("theory: --span-mm-s must be positive")
    # every table is computed before the first write, so an input the
    # closed forms reject is a config error with nothing written
    with _section("theory"):
        tables, notes = _theory_tables(args)
    if not tables:
        raise ConfigError("theory: pick at least one of --gamma --deltav "
                          "--density --to-gamma --nrf --acq-time")
    out = Path(args.out)
    for note in notes:
        print(note)
    for name, header, rows in tables:
        print(f"wrote {write_csv(out / name, header, rows)}")
    return EXIT_OK


def _theory_tables(args: argparse.Namespace
                   ) -> tuple[list[tuple[str, list[str], list]], list[str]]:
    """(file name, header, rows) of each requested table, and the summary
    lines to print."""
    p = PsfParams(sigma_r=args.sigma_r_mm, wavelength=args.wavelength_mm)
    sigma_t = p.sigma_r / args.ratio     # ratio = sigma_r/sigma_t in mm/s
    tables = []
    notes = []
    if args.gamma:
        span = args.span_mm_s
        vals = np.linspace(-span, span, args.steps)
        rows = []
        for dvz in vals:
            for dvx in vals:
                rep = attenuation_pre(p, sigma_t, (dvx, dvz))
                rows.append([float(dvx), float(dvz), rep.gamma, rep.kappa])
        tables.append(("gamma_grid.csv",
                       ["dvx_mm_s", "dvz_mm_s", "gamma", "kappa"], rows))
    if args.deltav:
        rows = []
        for theta_deg in np.linspace(0.0, 90.0, args.steps):
            pb = velocity_bandwidth(p, sigma_t,
                                    theta=math.radians(float(theta_deg)))
            rows.append([float(theta_deg), pb.kappa_delta_v, pb.delta_v])
        tables.append(("deltav_vs_theta.csv",
                       ["theta_deg", "kappa_delta_v", "delta_v_mm_s"], rows))
    if args.density:
        vessel = VesselSpec(radius_r=args.vessel_radius_mm,
                            v0=args.v0_mm_s, c_mb=args.c_mb_per_mm3)
        pb = velocity_bandwidth(p, sigma_t, theta=0.0)
        rho = np.linspace(-vessel.radius_r, vessel.radius_r, args.steps)
        d2 = apparent_density(rho, vessel)
        dvf = filtered_density(rho, args.v_f_mm_s, pb.delta_v, vessel)
        rows = [[float(r), float(a), float(b)]
                for r, a, b in zip(rho, d2, dvf)]
        tables.append(("density_profiles.csv",
                       ["rho_mm", "d2_per_mm2", "d_vf_per_mm2"], rows))
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
        tables.append(("to_gamma_grid.csv",
                       ["dvx_mm_s", "dvz_mm_s", "gamma", "gamma_bar_to"],
                       rows))
    if args.nrf:
        spec = make_noise_spec(n0=1.0, k_g=2.0 * math.pi / p.wavelength,
                               v0_max=args.v0_max_mm_s,
                               frame_rate_f=args.frame_rate_hz)
        bound = nrf_bound(spec, args.nrf_sigma_t_s)
        notes.append(f"NRF >= {bound.flow_form:.6g} "
                     f"({bound.flow_form_db:.1f} dB) [flow form, rounds to "
                     f"{round(bound.flow_form)}]")
        notes.append(f"NRF >= {bound.frame_rate_form:.6g} "
                     f"({bound.frame_rate_form_db:.1f} dB) [frame-rate form]")
        tables.append(("nrf.csv", ["form", "bound", "bound_db"],
                       [["flow", bound.flow_form, bound.flow_form_db],
                        ["frame_rate", bound.frame_rate_form,
                         bound.frame_rate_form_db]]))
    if args.acq_time:
        bound = acquisition_time_bound(AcqBoundInput(
            flow_rate_q=args.q_mm3_s, diameter_d=args.d_mm,
            c_mb=args.c_mb_per_mm3, i_pix=args.i_pix_mm))
        notes.append(f"T_acq >= {bound:.6g} s")
        tables.append(("acq_time.csv", ["t_acq_lower_s"], [[bound]]))
    return tables, notes


# ---------------------------------------------------------------------------
# Wiring.

# Stage name -> call, in pipeline order. Each call looks its stage function
# up at call time, so a wrapper set on the module attribute sees it.
_STAGES = {
    "synth": lambda r, out, seed, a: _stage_synth(r, out, seed),
    "filter": lambda r, out, seed, a: _stage_filter(r, out, a.threads),
    "localize": lambda r, out, seed, a: _stage_localize(r, out, a.threads),
    "accumulate": lambda r, out, seed, a: _stage_accumulate(r, out),
    "metrics": lambda r, out, seed, a: _stage_metrics(r, out),
}


def _run_stage_command(cmd: str, args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    r = resolve(cfg)
    seed = args.seed if args.seed is not None else r.seed
    out = Path(args.out)
    manifest = _read_manifest(out)
    out.mkdir(parents=True, exist_ok=True)
    for stage in (_STAGES if cmd == "pipeline" else (cmd,)):
        t0, faults0 = time.perf_counter(), _minor_faults()
        arts = _STAGES[stage](r, out, seed, args)
        wall = time.perf_counter() - t0
        _update_manifest(manifest, out, cfg, seed, stage, wall,
                         _minor_faults() - faults0, arts)
        print(f"[{stage}] ok ({wall:.2f} s, {len(arts)} artifacts)")
    return EXIT_OK


def _threads(value: str) -> int:
    try:
        n = int(value)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer (--threads or VELOFILT_THREADS), "
            f"got {value!r}")
    return n


def seed_arg(value: str) -> int:
    """argparse type of --seed, here and in scripts/: a non-negative
    integer, as the config's seed."""
    try:
        n = int(value)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {value!r}")
    return n


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
        sp.add_argument("--seed", type=seed_arg, default=None,
                        help="override config seed")
        sp.add_argument("--out", default="runs/out", help="working directory")
        # a string default goes through type at parse time, so a bad
        # VELOFILT_THREADS fails like a bad --threads, and only when used
        sp.add_argument("--threads", type=_threads,
                        default=os.environ.get("VELOFILT_THREADS", "1"),
                        help="worker threads of the filter bank's 3D FFTs, "
                             "a positive integer (env VELOFILT_THREADS)")

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
    th.add_argument("--ratio", type=_finite, default=1.0,
                    help="sigma_r/sigma_t in mm/s")
    th.add_argument("--sigma-r-mm", type=_finite, default=0.3)
    th.add_argument("--wavelength-mm", type=_finite, default=0.3)
    th.add_argument("--span-mm-s", type=_finite, default=3.0)
    th.add_argument("--steps", type=int, default=61)
    th.add_argument("--vessel-radius-mm", type=_finite, default=1.0)
    th.add_argument("--v0-mm-s", type=_finite, default=10.0)
    th.add_argument("--c-mb-per-mm3", type=_finite, default=1000.0)
    th.add_argument("--v-f-mm-s", type=_finite, default=2.5)
    th.add_argument("--lambda-x-mm", type=_finite, default=0.6)
    th.add_argument("--sigma-x-mm", type=_finite, default=0.3)
    th.add_argument("--v0-max-mm-s", type=_finite, default=10.0)
    th.add_argument("--frame-rate-hz", type=_finite, default=100.0)
    th.add_argument("--nrf-sigma-t-s", type=_finite, default=0.5)
    th.add_argument("--q-mm3-s", type=_finite, default=1.0)
    th.add_argument("--d-mm", type=_finite, default=1.0)
    th.add_argument("--i-pix-mm", type=_finite, default=0.03)
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
