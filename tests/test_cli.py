"""End-to-end tests for the config-driven CLI.

These exercise the wiring, not the physics: config validation, exit codes,
artifact layout, the run manifest, determinism across same-seed runs, and the
closed-form table subcommand. Numerical behavior of the underlying stages is
covered by the per-module tests.
"""

import copy
import csv
import dataclasses
import hashlib
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import velofilt
from oracles import reached_rows
from velofilt import __version__, cli, core, phantom, vfilter
from velofilt.cli import (CONFIG_SCHEMA, ConfigError, check_config,
                          load_config, main)
from velofilt.core import (FrameStack, gather_frames, load_frame_stack,
                           save_frame_stack, write_pgm)
from velofilt.localize import localize_frames, save_localizations_csv
from velofilt.phantom import save_truth_csv
from velofilt.psf import PsfParams
from velofilt.theory import velocity_bandwidth


_BASE = {
    "seed": 5,
    "psf": {"sigma_r_mm": 0.3, "wavelength_mm": 0.3},
    "grid": {"nx": 48, "nz": 48, "dx_mm": 0.05, "dz_mm": 0.05},
    "phantom": {
        "kind": "grid_bubbles",
        "positions_mm": [[-0.5, -0.4], [0.4, 0.5]],
        "velocities_mm_s": [[1.0, 0.0], [0.0, 0.0]],
    },
    "motion": {"nt": 16, "dt_s": 0.01},
    "filter_bank": {"sigma_t_s": 0.04, "speeds_mm_s": [0.0, 1.0],
                    "angles_deg": [0.0]},
    "detector": {"threshold_fraction": 0.45, "fine_factor": 2},
    "outputs": {"prefix": "t", "save_pgm": True},
}


def base_cfg() -> dict:
    return copy.deepcopy(_BASE)


def write_cfg(tmp_path: Path, cfg: dict, name: str = "cfg.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def read_table(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]

    def conv(v):
        try:
            return float(v)
        except ValueError:
            return v

    return header, [[conv(v) for v in row] for row in body]


# ---------------------------------------------------------------------------
# Config loading and validation.

REPO = Path(__file__).resolve().parents[1]


def test_bundled_configs_load_and_build():
    cfg_dir = Path(cli.__file__).parent / "configs"
    paths = sorted(cfg_dir.glob("*.json"))
    assert len(paths) >= 5
    # the benchmark's workload configs are read, never written
    workloads = sorted((REPO / "perfbench" / "workloads").glob("*.json"))
    assert len(workloads) == 3
    # two study configs and the TO golden config
    studies = sorted((REPO / "scripts" / "configs").glob("*.json"))
    assert len(studies) == 3
    rng = np.random.default_rng(0)
    for path in paths + workloads + studies:
        # every section must also survive domain construction
        r = cli.resolve(load_config(path))
        assert len(r.bank) >= 1
        assert cli._draw_bubbles(r, rng).pos.shape[1] == 3


def test_resolve_passes_only_the_bank_and_detection_keys_set(tmp_path):
    # unset keys leave FilterBankSpec's and DetectorConfig's defaults in
    # force
    r = cli.resolve(load_config(write_cfg(tmp_path, base_cfg())))
    assert r.bank.boundary == "pad" and r.detector.mode == "pre"
    assert r.bank.to is None
    cfg = base_cfg()
    cfg["filter_bank"]["boundary"] = "periodic"
    cfg["detector"]["mode"] = "post"
    r = cli.resolve(load_config(write_cfg(tmp_path, cfg)))
    assert r.bank.boundary == "periodic"
    assert r.detector.mode == "post"


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.json")


def test_load_config_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)


def test_load_config_rejects_unknown_keys(tmp_path):
    cfg = base_cfg()
    cfg["psf"]["sigma"] = 1.0          # typo for sigma_r_mm
    with pytest.raises(ConfigError, match="sigma") as err:
        load_config(write_cfg(tmp_path, cfg))
    assert "$.psf" in str(err.value)   # points at the offending section

    cfg = base_cfg()
    cfg["bogus_section"] = {}
    with pytest.raises(ConfigError, match="bogus_section"):
        load_config(write_cfg(tmp_path, cfg))


def test_load_config_requires_sections(tmp_path):
    cfg = base_cfg()
    del cfg["filter_bank"]
    with pytest.raises(ConfigError, match="filter_bank"):
        load_config(write_cfg(tmp_path, cfg))


def test_load_config_checks_value_ranges(tmp_path):
    cfg = base_cfg()
    cfg["grid"]["dx_mm"] = -0.05
    with pytest.raises(ConfigError, match=r"\$\.grid\.dx_mm"):
        load_config(write_cfg(tmp_path, cfg))

    cfg = base_cfg()
    cfg["detector"]["threshold_fraction"] = 1.5
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path, cfg))


def test_config_schema_is_valid_under_its_metaschema():
    # load_config skips this check on every command
    validator = jsonschema.validators.validator_for(CONFIG_SCHEMA)
    validator.check_schema(CONFIG_SCHEMA)


@pytest.mark.parametrize("section, key, literal", [
    ("psf", "sigma_r_mm", "Infinity"),
    ("filter_bank", "sigma_t_s", "Infinity"),
    ("psf", "wavelength_mm", "NaN"),
    ("grid", "dx_mm", "NaN"),
    ("motion", "dt_s", "NaN"),
    ("motion", "dt_s", "-Infinity"),
    ("noise", "std", "1e999"),
])
def test_non_finite_config_numbers_exit_2(tmp_path, capsys, section, key,
                                          literal):
    # json reads NaN, Infinity and overflowing literals, and no bound of the
    # schema stops them: Infinity ended in an uncaught OverflowError (exit 1),
    # and NaN printed "[synth] ok" over a NaN stack before exiting 3
    cfg = base_cfg()
    cfg.setdefault(section, {})[key] = 0.125
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg).replace("0.125", literal))
    out = tmp_path / "out"
    assert main(["pipeline", "--config", str(path), "--out", str(out)]) == 2
    assert (f"must be a finite number, got {literal!r}"
            in capsys.readouterr().err)
    assert not out.exists()


def test_check_config_checks_an_edited_config(tmp_path):
    # a study edits its loaded config (a sweep value, --nt) and checks it
    cfg = load_config(write_cfg(tmp_path, base_cfg()))
    check_config(cfg)
    cfg["motion"]["nt"] = 0
    with pytest.raises(ConfigError, match=r"\$\.motion\.nt"):
        check_config(cfg)


def test_in_memory_run_is_the_stages_without_files(tmp_path):
    cfg_path = write_cfg(tmp_path, base_cfg())
    out = tmp_path / "out"
    assert main(["pipeline", "--config", str(cfg_path), "--out",
                 str(out)]) == 0
    r = cli.resolve(load_config(cfg_path))
    frames, _ = cli.synthesize(r, 5)
    stack = gather_frames(load_frame_stack(out / "t_frames"))
    assert frames.data.dtype == np.float32
    assert frames.data.tobytes() == stack.data.tobytes()
    # localize on the in-memory stack writes the stage's bytes
    mem = save_localizations_csv(cli.localize(r, frames), tmp_path / "m.csv")
    assert mem.read_bytes() == (out / "t_locs.csv").read_bytes()
    raw = localize_frames(frames, r.psf, cfg=r.detector)
    assert len(raw) > 0 and np.isnan(raw["vx"]).all()
    assert np.all(np.diff(raw["t"]) >= 0)


def _bad_configs():
    cfg = base_cfg()
    cfg["psf"]["sigma"] = 1.0
    yield cfg
    cfg = base_cfg()
    del cfg["motion"]
    yield cfg
    cfg = base_cfg()
    cfg["grid"]["nx"] = 2.5
    yield cfg
    cfg = base_cfg()                   # fits no phantom of the oneOf
    cfg["phantom"] = {"kind": "single_vessel", "radius_mm": -1.0}
    yield cfg
    cfg = base_cfg()                   # a grid_bubbles phantom, one bad row
    cfg["phantom"]["positions_mm"][1] = [0.4]
    yield cfg
    cfg = base_cfg()
    cfg["filter_bank"]["speeds_mm_s"] = "fast"
    yield cfg
    yield []


@pytest.mark.parametrize("cfg", list(_bad_configs()))
def test_load_config_reports_what_jsonschema_validate_reports(tmp_path, cfg):
    with pytest.raises(jsonschema.ValidationError) as want:
        jsonschema.validate(cfg, CONFIG_SCHEMA)
    with pytest.raises(ConfigError) as got:
        load_config(write_cfg(tmp_path, cfg))
    assert str(got.value) == (f"config invalid at {want.value.json_path}: "
                              f"{want.value.message}")


def _subschemas(schema):
    """Every schema object in schema, itself first."""
    if not isinstance(schema, dict):
        return
    yield schema
    for key, sub in schema.items():
        if key == "properties":
            for prop in sub.values():
                yield from _subschemas(prop)
        elif key == "oneOf":
            for branch in sub:
                yield from _subschemas(branch)
        elif key in ("items", "additionalProperties"):
            yield from _subschemas(sub)


def test_conforms_interprets_every_keyword_the_schema_uses():
    used = {key for sub in _subschemas(CONFIG_SCHEMA) for key in sub}
    assert used == cli._KEYWORDS
    with pytest.raises(NotImplementedError, match="pattern"):
        cli._conforms("x", {"type": "string", "pattern": "^x$"})


def test_conforms_follows_json_schema_types_and_equality():
    assert cli._conforms(64.0, {"type": "integer"})
    assert not cli._conforms(64.5, {"type": "integer"})
    assert not cli._conforms(True, {"type": "number"})
    assert not cli._conforms(True, {"type": "integer", "minimum": 0})
    assert cli._conforms(1.0, {"enum": [-1, 1]})
    assert not cli._conforms(True, {"enum": [-1, 1]})
    assert not cli._conforms([True], {"const": [1]})
    assert cli._conforms([1.0], {"const": [1]})
    assert not cli._conforms("auto", {"oneOf": [{"const": "auto"},
                                                {"type": "string"}]})


def test_check_config_words_a_rejection_jsonschema_cannot_place(
        tmp_path, monkeypatch):
    cfg = load_config(write_cfg(tmp_path, base_cfg()))
    monkeypatch.setattr(cli, "_conforms", lambda value, schema: False)
    with pytest.raises(ConfigError, match="jsonschema names no error"):
        check_config(cfg)


_CHECKED_CONFIGS = [
    json.loads(path.read_text()) for path in
    sorted((Path(cli.__file__).parent / "configs").glob("*.json"))
    + sorted((REPO / "scripts" / "configs").glob("*.json"))]
_POOL = (0, -0.0, 64.0, True, None, "auto", [], {}, [0.4])
_NAMES = sorted({name for sub in _subschemas(CONFIG_SCHEMA)
                 for name in sub.get("properties", {})} | {"bogus"})
_JSONSCHEMA = jsonschema.validators.validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)


def _paths(node, path=()):
    """The path of node and of every value inside it."""
    yield path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield from _paths(value, path + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


@st.composite
def mutated_configs(draw):
    """A bundled or study config after one to three mutations: a value
    swapped for one from _POOL, a key or item deleted, or a key or item
    added."""
    cfg = copy.deepcopy(draw(st.sampled_from(_CHECKED_CONFIGS)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(cfg))))
        op = draw(st.sampled_from(["swap", "delete", "add"]))
        value = copy.deepcopy(draw(st.sampled_from(_POOL)))
        node = _at(cfg, path)
        if op == "add" and isinstance(node, dict):
            node[draw(st.sampled_from(_NAMES))] = value
        elif op == "add" and isinstance(node, list):
            node.insert(draw(st.integers(0, len(node))), value)
        elif not path:
            cfg = value if op == "swap" else cfg
        elif op == "delete":
            del _at(cfg, path[:-1])[path[-1]]
        else:
            _at(cfg, path[:-1])[path[-1]] = value
    return cfg


@settings(max_examples=2000, deadline=None)
@given(mutated_configs())
def test_conforms_agrees_with_jsonschema(cfg):
    assert cli._conforms(cfg, CONFIG_SCHEMA) == _JSONSCHEMA.is_valid(cfg)


@pytest.mark.parametrize("section, key", [("grid", "nx"), ("motion", "nt"),
                                          ("detector", "fine_factor"),
                                          (None, "seed")])
def test_integers_written_as_floats_run_as_their_int_twin(tmp_path, section,
                                                          key):
    # JSON Schema counts 64.0 as an integer; each of these passed the check
    # and then ended in a TypeError traceback (exit 1)
    cfg = base_cfg()
    owner = cfg if section is None else cfg[section]
    owner[key] = float(owner[key])
    manifests = []
    for name, run_cfg in (("int", base_cfg()), ("float", cfg)):
        out = tmp_path / name
        assert main(["pipeline", "--config",
                     str(write_cfg(tmp_path, run_cfg, f"{name}.json")),
                     "--out", str(out)]) == 0
        manifests.append(json.loads((out / "manifest.json").read_text()))
    want, got = manifests
    assert got["artifacts"] == want["artifacts"]
    assert got["seed"] == want["seed"] == 5
    assert got["config_sha256"] != want["config_sha256"]


# ---------------------------------------------------------------------------
# Exit codes.

def test_exit_config_error_paths(tmp_path, capsys):
    out = str(tmp_path / "out")
    # missing config file
    assert main(["synth", "--config", str(tmp_path / "no.json"),
                 "--out", out]) == 2

    # schema-valid but domain-impossible phantom: band wider than its orbit
    cfg = base_cfg()
    cfg["phantom"] = {"kind": "circular", "orbit_radius_mm": 0.2,
                      "radius_mm": 0.3, "v0_mm_s": 1.0, "c_mb_per_mm3": 5.0}
    assert main(["synth", "--config", str(write_cfg(tmp_path, cfg, "c.json")),
                 "--out", out]) == 2
    assert "phantom" in capsys.readouterr().err

    # filter/localize/accumulate/metrics before synth: nothing to read
    cfg_path = write_cfg(tmp_path, base_cfg())
    for command in ("filter", "localize"):
        assert main([command, "--config", str(cfg_path), "--out", out]) == 2
        assert "missing input stack" in capsys.readouterr().err
    assert main(["accumulate", "--config", str(cfg_path), "--out", out]) == 2
    assert main(["metrics", "--config", str(cfg_path), "--out", out]) == 2


def test_exit_config_auto_speeds_need_vmax(tmp_path):
    cfg = base_cfg()
    cfg["filter_bank"]["speeds_mm_s"] = "auto"   # no v_max_mm_s given
    cfg_path = write_cfg(tmp_path, cfg)
    out = str(tmp_path / "out")
    # the whole config is built before any stage, so synth rejects it too
    assert main(["synth", "--config", str(cfg_path), "--out", out]) == 2
    assert main(["filter", "--config", str(cfg_path), "--out", out]) == 2


def test_config_errors_exit_2_before_any_write(tmp_path, capsys):
    # each error is one the schema cannot see; the LE widths one used to
    # run four stages and then exit 4 from metrics
    le = base_cfg()
    le["metrics"] = {"le_sigma_par_mm": 0.02, "le_sigma_perp_mm": 0.05}
    auto = base_cfg()
    auto["filter_bank"]["speeds_mm_s"] = "auto"    # no v_max_mm_s given
    orbit = base_cfg()
    orbit["phantom"] = {"kind": "circular", "orbit_radius_mm": 0.3,
                        "radius_mm": 0.3, "v0_mm_s": 1.0,
                        "c_mb_per_mm3": 5.0}
    # suppression squares the radius: 1e300 used to pass resolve and end in
    # an OverflowError traceback in localize, after synth and filter wrote
    separation = base_cfg()
    separation["detector"]["min_separation_mm"] = 1e300
    for k, (section, cfg) in enumerate([("metrics", le),
                                        ("filter_bank", auto),
                                        ("phantom", orbit),
                                        ("detector", separation)]):
        cfg_path = write_cfg(tmp_path, cfg, f"c{k}.json")
        for command in ("synth", "pipeline"):
            out = tmp_path / f"out{k}-{command}"
            assert main([command, "--config", str(cfg_path),
                         "--out", str(out)]) == 2, (section, command)
            assert f"config error: {section}:" in capsys.readouterr().err
            assert not (out / "manifest.json").exists()
            assert not out.exists()


def _phantom_e_at_nt_20(section: str, key: str, value) -> dict:
    cfg = load_config(Path(cli.__file__).parent / "configs" / "phantom_e.json")
    cfg["motion"]["nt"] = 20
    cfg[section][key] = value
    return cfg


def _pipeline_exits_2_before_any_write(tmp_path, capsys, cfg) -> str:
    """The one stderr line of a pipeline run that must exit 2 at resolve."""
    out = tmp_path / "out"
    assert main(["pipeline", "--config", str(write_cfg(tmp_path, cfg)),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not out.exists()
    return err


def test_sigma_r_that_underflows_exits_2(tmp_path, capsys):
    # its square underflows to 0 in the "auto" speeds' bandwidth: this used
    # to end in a ZeroDivisionError traceback and exit 1
    cfg = _phantom_e_at_nt_20("psf", "sigma_r_mm", 1e-300)
    err = _pipeline_exits_2_before_any_write(tmp_path, capsys, cfg)
    assert "psf: " in err


def test_wavelength_that_overflows_exits_2(tmp_path, capsys):
    # the "auto" speeds' bandwidth overflows: this used to end in an
    # OverflowError traceback and exit 1
    cfg = _phantom_e_at_nt_20("psf", "wavelength_mm", 1e300)
    err = _pipeline_exits_2_before_any_write(tmp_path, capsys, cfg)
    assert "psf: " in err


def test_filter_count_past_the_element_cap_exits_2(tmp_path, capsys):
    # sigma_r 1e-155 narrows the "auto" speeds' bandwidth until tiling
    # [0, v_max] takes about 1e154 filters: the message used to be numpy's
    # "Maximum allowed size exceeded" alone
    cfg = _phantom_e_at_nt_20("psf", "sigma_r_mm", 1e-155)
    err = _pipeline_exits_2_before_any_write(tmp_path, capsys, cfg)
    assert err.startswith("config error: filter_bank: tiling [0, 1] mm/s "
                          "takes 1.02e+154 filter speeds, more than the "
                          f"limit of {vfilter.MAX_FILTERS}")


def test_wavelength_whose_square_is_0_exits_2(tmp_path, capsys):
    # the "auto" speeds' bandwidth divides by it: the message used to be
    # "filter_bank: float division by zero", naming the wrong section
    cfg = _phantom_e_at_nt_20("psf", "wavelength_mm", 1e-300)
    err = _pipeline_exits_2_before_any_write(tmp_path, capsys, cfg)
    assert err.startswith("config error: psf: wavelength 1e-300 has a "
                          "square of 0")


def test_wavelength_whose_ratio_has_no_finite_square_exits_2(tmp_path,
                                                             capsys):
    # its square is nonzero, but the "auto" speeds' bandwidth squares
    # sigma_r / wavelength = 3e159: the message used to be "filter_bank:
    # (34, 'Numerical result out of range')", naming the wrong section
    cfg = _phantom_e_at_nt_20("psf", "wavelength_mm", 1e-160)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err = _pipeline_exits_2_before_any_write(tmp_path, capsys, cfg)
    assert err.startswith("config error: psf: sigma_r / wavelength = "
                          "3e+159 has no finite square")


def test_bubble_speed_whose_travel_overflows_exits_2(tmp_path, capsys):
    # 1e300 mm/s over 20 frames of 20 ms: the render's square of a
    # bubble's offset overflowed under a numpy warning, four stages said
    # "ok" and metrics exited 3 with no localizations to score
    cfg = _phantom_e_at_nt_20("phantom", "v0_mm_s", 1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err = _pipeline_exits_2_before_any_write(tmp_path, capsys, cfg)
    assert err.startswith("config error: phantom: bubbles move up to "
                          "4e+299 mm over the run, whose square")


def test_listed_bubble_whose_offset_overflows_exits_2(tmp_path, capsys):
    # a grid_bubbles position 1e300 mm from the origin: the render's square
    # of its offset from a pixel overflowed under a numpy warning, four
    # stages said "ok" and metrics exited 3 with no localizations to score
    cfg = _phantom_e_at_nt_20("motion", "nt", 20)
    cfg["phantom"] = {"kind": "grid_bubbles", "positions_mm": [[1e300, 0.0]],
                      "velocities_mm_s": [[0.0, 0.0]]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err = _pipeline_exits_2_before_any_write(tmp_path, capsys, cfg)
    assert err.startswith("config error: phantom: bubbles move up to 1e+300 "
                          "mm from the origin over the run, whose square is "
                          "not finite")


def _small_sigma_r_cases():
    # 2 sigma_r^2 = 2e-310 is subnormal: the render's divisions overflowed
    # under two numpy warnings, its peak under an invalid-value one, and
    # synth exited 4 at the float32 cast
    cfg = _phantom_e_at_nt_20("psf", "sigma_r_mm", 1e-155)
    cfg["filter_bank"]["speeds_mm_s"] = [0.5]
    yield pytest.param(cfg, "2 sigma_r^2 = 2e-310 is not a normal float",
                       id="subnormal")
    # a bubble 1e150 mm out squares to 1e300, which 2 sigma_r^2 = 2e-16
    # takes past the float range: the render overflowed under a numpy
    # warning and metrics exited 3 with no localizations to score
    cfg = _phantom_e_at_nt_20("psf", "sigma_r_mm", 1e-8)
    cfg["filter_bank"]["speeds_mm_s"] = [0.5]
    cfg["phantom"] = {"kind": "grid_bubbles", "positions_mm": [[1e150, 0.0]],
                      "velocities_mm_s": [[0.0, 0.0]]}
    yield pytest.param(cfg, "a bubble's offset from a pixel, up to 1e+150 "
                       "mm, squared over 2 sigma_r^2 is not finite",
                       id="quotient")


@pytest.mark.parametrize("cfg, reason", _small_sigma_r_cases())
def test_sigma_r_too_small_for_the_render_exits_2(tmp_path, capsys, cfg,
                                                  reason):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err = _pipeline_exits_2_before_any_write(tmp_path, capsys, cfg)
    assert err.startswith("config error: psf: sigma_r ")
    assert f"mm is too small for the render: {reason}\n" in err


def test_frame_interval_whose_run_span_overflows_exits_2(tmp_path, capsys):
    # 20 frames of 1e300 s: the render's square overflowed under a numpy
    # warning and the run exited 0 with every bubble off the grid after
    # frame 0
    cfg = _phantom_e_at_nt_20("motion", "dt_s", 1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err = _pipeline_exits_2_before_any_write(tmp_path, capsys, cfg)
    assert err.startswith("config error: motion: 20 frames of 1e+300 s "
                          "span 2e+301 s, whose square is not finite")


@pytest.mark.parametrize("key", ["dx_mm", "dz_mm"])
def test_grid_step_whose_gain_overflows_exits_2(tmp_path, capsys, key):
    # pi / 1e-300 times the filter's speed: the gain's square overflowed
    # under a numpy warning, four stages said "ok" and metrics exited 3
    cfg = _phantom_e_at_nt_20("grid", key, 1e-300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err = _pipeline_exits_2_before_any_write(tmp_path, capsys, cfg)
    assert err.startswith("config error: filter_bank: filter 0's gain "
                          "argument reaches ")
    assert "whose square is not finite" in err


def _grid_size_cases():
    # each passed resolve: four stages said "ok" and metrics exited 3 with
    # no localizations to score
    for name, grid, position, reason in (
            # the render's squares overflowed under numpy warnings, and so
            # did the correlation's float32 pixel-area scale
            ("extent", {"dx_mm": 1e300}, [0.1, 0.0],
             "extent 9.6e+301 x 4.8 mm has no finite square"),
            # the correlation's float32 scale overflowed under warnings
            ("area-over", {"dx_mm": 1e20, "dz_mm": 1e20}, [0.0, 0.0],
             "pixel area 1e+40 mm^2 is not a normal float32"),
            # the scale is subnormal in float32
            ("area-under", {"dx_mm": 1e-37}, [0.0, 0.1],
             "pixel area 5e-39 mm^2 is not a normal float32")):
        cfg = _phantom_e_at_nt_20("filter_bank", "speeds_mm_s", [0.5])
        cfg["grid"].update(grid)
        cfg["phantom"] = {"kind": "grid_bubbles", "positions_mm": [position],
                          "velocities_mm_s": [[0.0, 0.0]]}
        yield pytest.param(cfg, reason, id=name)


@pytest.mark.parametrize("cfg, reason", _grid_size_cases())
def test_grid_whose_size_overflows_exits_2(tmp_path, capsys, cfg, reason):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err = _pipeline_exits_2_before_any_write(tmp_path, capsys, cfg)
    assert err == f"config error: grid: {reason}\n"


def test_filter_count_past_max_filters_is_refused_at_resolve(
        tmp_path, capsys, monkeypatch):
    # v_max 1e4 mm/s used to resolve to 44364 filters, each a whole bank
    # pass; the count is refused before any filter is built: listed speeds
    # by make_bank, one heading's "auto" tiling by tile_speeds, and the
    # headings' "auto" tilings together by resolve
    def no_filter(self):
        raise AssertionError("a filter was built")

    listed = _phantom_e_at_nt_20("filter_bank", "speeds_mm_s",
                                 [0.5] * 2049)
    listed["filter_bank"]["angles_deg"] = [0.0, 90.0]
    two_headings = _phantom_e_at_nt_20("filter_bank", "v_max_mm_s", 500.0)
    two_headings["filter_bank"]["angles_deg"] = [90.0, 80.0]
    for cfg, match in [
            (_phantom_e_at_nt_20("filter_bank", "v_max_mm_s", 1e4),
             r"tiling .* takes 4.44e\+04 filter speeds"),
            (listed, "2049 speeds x 2 angles make 4098 filters"),
            (two_headings, "the 'auto' speeds of 2 angles make more "
                           "filters")]:
        with monkeypatch.context() as m:
            m.setattr(vfilter.VelocityFilterSpec, "__post_init__", no_filter)
            with pytest.raises(ConfigError, match=f"^filter_bank: {match}.* "
                                                  "limit of 4096"):
                cli.resolve(cfg)
        err = _pipeline_exits_2_before_any_write(tmp_path, capsys, cfg)
        assert err.startswith("config error: filter_bank: ")
    assert vfilter.MAX_FILTERS == 4096


def test_fine_grid_past_the_element_cap_is_refused_at_resolve():
    # fine_factor 100000 used to pass every stage up to accumulate, which
    # then asked numpy for 671 TiB; resolve allocates nothing
    cfg = _phantom_e_at_nt_20("detector", "fine_factor", 100000)
    with pytest.raises(ConfigError, match="detector: fine grid 9600000 x "
                                          "9600000 exceeds the limit"):
        cli.resolve(cfg)
    # a 64 x 64 grid at factor 256 is exactly MAX_ELEMENTS = 2**28 elements
    cfg["grid"].update(nx=64, nz=64)
    cfg["detector"]["fine_factor"] = 256
    assert cli.resolve(cfg).fine.nx == 64 * 256
    cfg["detector"]["fine_factor"] = 257
    with pytest.raises(ConfigError, match="fine grid"):
        cli.resolve(cfg)


def test_exit_data_error_on_corrupt_stack(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, base_cfg())
    out = tmp_path / "out"
    assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 0
    raw = (out / "t_frames.f32").read_bytes()
    (out / "t_frames.f32").write_bytes(raw[: len(raw) // 2])
    assert main(["filter", "--config", str(cfg_path), "--out", str(out)]) == 3
    assert "data error" in capsys.readouterr().err


def test_exit_data_error_on_non_finite_stack(tmp_path, capsys):
    # a NaN spreads over the whole stack through the 3D FFT and used to give
    # an "ok" localize run with a header-only CSV
    cfg_path = write_cfg(tmp_path, base_cfg())
    out = tmp_path / "out"
    assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 0
    raw = np.fromfile(out / "t_frames.f32", dtype="<f4")
    raw[(3 * 48 + 5) * 48 + 7] = np.nan
    raw.tofile(out / "t_frames.f32")
    assert main(["localize", "--config", str(cfg_path), "--out",
                 str(out)]) == 3
    assert "(t, z, x) = (3, 5, 7)" in capsys.readouterr().err
    assert not (out / "t_locs.csv").exists()


def _files(out: Path) -> dict:
    """Every file under out, by path, with its bytes."""
    return {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("command", ["filter", "localize"])
def test_short_payload_exits_3_before_any_sample_is_read(
        tmp_path, capsys, monkeypatch, command):
    # the payload's size is checked against the header before the stage
    # reads a sample; the stage writes nothing
    cfg_path = write_cfg(tmp_path, base_cfg())
    out = tmp_path / "out"
    assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 0
    raw = out / "t_frames.f32"
    raw.write_bytes(raw.read_bytes()[:-4])  # the last sample is gone
    written = _files(out)

    def no_read(*args, **kwargs):
        raise AssertionError("a sample was read before the size check")

    monkeypatch.setattr(np, "fromfile", no_read)
    assert main([command, "--config", str(cfg_path), "--out",
                 str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: bad frame stack ")
    assert err.count("\n") == 1 and "header implies 147456" in err
    assert _files(out) == written


@pytest.mark.parametrize("command", ["filter", "localize"])
def test_non_finite_sample_in_the_last_block_exits_3(
        tmp_path, capsys, monkeypatch, command):
    # the stack is read in blocks of 3 frames while the bank runs, so the
    # NaN in frame 15, the last block, is found inside the bank: it is
    # still a data error, and the stage writes nothing
    cfg_path = write_cfg(tmp_path, base_cfg())
    out = tmp_path / "out"
    assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 0
    raw = np.fromfile(out / "t_frames.f32", dtype="<f4")
    raw[(15 * 48 + 5) * 48 + 7] = np.nan
    raw.tofile(out / "t_frames.f32")
    written = _files(out)
    monkeypatch.setattr(core, "STREAM_BLOCK", 3 * 48 * 48)
    assert main([command, "--config", str(cfg_path), "--out",
                 str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: bad frame stack ")
    assert err.count("\n") == 1 and "(t, z, x) = (15, 5, 7)" in err
    assert _files(out) == written
    assert not (out / "t_filtered").exists()


def _without_nx(header):
    del header["nx"]
    return header


@pytest.mark.parametrize("damage", [
    _without_nx,
    # the right size, written as a float: the payload size still matches
    lambda header: {**header, "nx": float(header["nx"])},
    lambda header: {**header, "dt_s": "0.1"},
    lambda header: [1, 2]], ids=["no-nx", "float-nx", "string-dt", "list"])
def test_exit_data_error_on_damaged_stack_header(tmp_path, capsys, damage):
    # each of these used to end in a traceback and exit 1
    cfg_path = write_cfg(tmp_path, base_cfg())
    out = tmp_path / "out"
    assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 0
    header_path = out / "t_frames.json"
    header_path.write_text(json.dumps(damage(json.loads(
        header_path.read_text()))))
    assert main(["localize", "--config", str(cfg_path), "--out",
                 str(out)]) == 3
    assert "bad frame stack" in capsys.readouterr().err


@pytest.mark.parametrize("key, edit", [
    ("nx", {"nx": 40}), ("nz", {"nz": 40}), ("nt", {"nt": 8}),
    ("dx_mm", {"dx": 0.1}), ("dz_mm", {"dz": 0.1}), ("x0_mm", {"x0": 1.0}),
    ("z0_mm", {"z0": 1.0}), ("dt_s", {"dt": 0.02})])
def test_exit_data_error_on_stack_config_mismatch(tmp_path, capsys, key,
                                                  edit):
    # a stack made for another grid or frame rate used to localize and
    # score "ok" against the config's geometry, with wrong metrics
    cfg_path = write_cfg(tmp_path, base_cfg())
    out = tmp_path / "out"
    assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 0
    frames = load_frame_stack(out / "t_frames")
    edit = dict(edit)
    nt, dt = edit.pop("nt", frames.nt), edit.pop("dt", frames.dt)
    grid = dataclasses.replace(frames.grid, **edit)
    save_frame_stack(FrameStack(grid=grid, nt=nt, dt=dt,
                                data=np.zeros((nt, grid.nz, grid.nx))),
                     out / "t_frames")
    written = sorted(out.iterdir())
    for command in ("filter", "localize"):
        assert main([command, "--config", str(cfg_path), "--out",
                     str(out)]) == 3, command
        assert f"has {key} = " in capsys.readouterr().err
    assert sorted(out.iterdir()) == written
    with open(out / "manifest.json") as fh:
        assert set(json.load(fh)["stages"]) == {"synth"}


def test_oversized_fft_exits_2_at_resolve(tmp_path, capsys):
    # the bank's padded stack is checked at resolve, so no stage runs: the
    # synth stage used to write its stack before the filter stage exited 4
    cfg = base_cfg()
    cfg["filter_bank"]["sigma_t_s"] = 1e18
    # filter 1 (1 mm/s along x) is routed through the TO prefilter
    cfg["to"] = {"lambda_x_mm": 0.6, "sigma_x_mm": 0.3}
    cfg_path = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    for command in ("synth", "filter"):
        assert main([command, "--config", str(cfg_path), "--out",
                     str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: filter_bank: padded stack (")
        assert "exceeds the in-memory FFT limit" in err
    assert not out.exists()


def test_padded_bank_past_the_element_cap_is_refused_at_resolve():
    # phantom_e pads its 0.5 s window by 100 frames per side at 0.02 s: on
    # a 64 x 64 grid, nt 65336 pads to exactly MAX_ELEMENTS = 2**28
    # samples. One frame more used to pass resolve, and synth wrote 1.07 GB
    # before the filter stage exited 4; resolve allocates nothing
    cfg = _phantom_e_at_nt_20("grid", "nx", 64)
    cfg["grid"]["nz"] = 64
    cfg["motion"]["nt"] = 65336
    assert cli.resolve(cfg).nt == 65336
    cfg["motion"]["nt"] = 65337
    with pytest.raises(ConfigError, match=r"filter_bank: padded stack "
                                          r"\(65537, 64, 64\) exceeds"):
        cli.resolve(cfg)


def test_exit_data_error_on_empty_localizations(tmp_path, capsys):
    cfg = base_cfg()
    cfg["phantom"]["positions_mm"] = []
    cfg["phantom"]["velocities_mm_s"] = []
    cfg_path = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 0
    # an empty phantom synthesizes an all-zero stack ...
    frames = gather_frames(load_frame_stack(out / "t_frames"))
    assert frames.data.shape == (16, 48, 48)
    assert np.all(frames.data == 0.0)
    # ... on which the detector finds nothing (threshold is absolute,
    # tied to the template autocorrelation peak)
    assert main(["localize", "--config", str(cfg_path), "--out",
                 str(out)]) == 0
    assert (out / "t_locs.csv").read_text().count("\n") == 1  # header only
    assert main(["metrics", "--config", str(cfg_path), "--out",
                 str(out)]) == 3
    assert "no localizations" in capsys.readouterr().err


@pytest.fixture(scope="module")
def localized_run(tmp_path_factory):
    """Config and output directory of a synth + localize run."""
    root = tmp_path_factory.mktemp("localized")
    cfg_path = write_cfg(root, base_cfg())
    out = root / "out"
    for stage in ("synth", "localize"):
        assert main([stage, "--config", str(cfg_path), "--out",
                     str(out)]) == 0
    return cfg_path, out


@pytest.mark.parametrize("name, field, value", [
    ("truth", 2, "nan"),                # x
    ("truth", 0, "-1"),                 # t_index
    ("truth", 4, "fast"),
    ("truth", 5, None),                 # a 5-field row
    ("locs", 1, "nan"),                 # x
    ("locs", 0, "-1"),                  # t_index
    ("locs", 3, "fast"),                # score
    ("locs", 5, None),
])
def test_exit_data_error_on_malformed_csv(localized_run, tmp_path, capsys,
                                          name, field, value):
    # a NaN point lies outside every grid, so LE and the maps would drop it
    # without a word; a bad row must stop the command instead
    cfg_path, run = localized_run
    out = tmp_path / "out"
    shutil.copytree(run, out)
    path = out / f"t_{name}.csv"
    lines = path.read_text().splitlines(keepends=True)
    fields = lines[2].rstrip("\r\n").split(",")
    if value is None:
        del fields[field]
    else:
        fields[field] = value
    lines[2] = ",".join(fields) + "\r\n"
    path.write_text("".join(lines), newline="")
    commands = ["accumulate", "metrics"] if name == "locs" else ["metrics"]
    for command in commands:
        assert main([command, "--config", str(cfg_path), "--out",
                     str(out)]) == 3, command
        assert f"{path} line 3:" in capsys.readouterr().err
    assert not (out / "t_metrics.json").exists()


@pytest.mark.parametrize("name, keep", [
    ("truth", 0), ("truth", 1), ("locs", 0), ("locs", 1)],
    ids=["truth-empty", "truth-header-only", "locs-empty",
         "locs-header-only"])
def test_altered_csv_exits_3(localized_run, tmp_path, capsys, name, keep):
    # a 0-byte or header-only truth CSV used to be scored "ok" with exit 0,
    # and a header-only locs CSV accumulated into empty maps: each CSV a
    # stage reads must be the one manifest.json records
    cfg_path, run = localized_run
    out = tmp_path / "out"
    shutil.copytree(run, out)
    path = out / f"t_{name}.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:keep]), newline="")
    written = _files(out)
    commands = ["accumulate", "metrics"] if name == "locs" else ["metrics"]
    for command in commands:
        assert main([command, "--config", str(cfg_path), "--out",
                     str(out)]) == 3, command
        err = capsys.readouterr().err
        assert err == (f"data error: {path} is not the file its stage "
                       "wrote: its SHA-256 differs from manifest.json's\n")
    assert _files(out) == written


def test_csv_without_a_manifest_record_exits_3(localized_run, tmp_path,
                                               capsys):
    cfg_path, run = localized_run
    out = tmp_path / "out"
    shutil.copytree(run, out)
    manifest = json.loads((out / "manifest.json").read_text())
    del manifest["artifacts"]["t_truth.csv"]
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert main(["metrics", "--config", str(cfg_path), "--out",
                 str(out)]) == 3
    assert "manifest.json records no SHA-256 for t_truth.csv" in (
        capsys.readouterr().err)
    assert not (out / "t_metrics.json").exists()


def test_lone_filter_and_localize_stages_hold_no_whole_stack(tmp_path):
    # axial-pre's size: a (350, 96, 49) half lattice and five filters. A
    # stage streams its input from the file into the bank and each output
    # from the bank to its file or its detection, so it holds the shared
    # spectrum's rows that some filter reaches in each slab, the kept
    # frames' half spectrum, one slab's gain and product and a few blocks;
    # a whole padded spectrum (13.2 MB) or a whole input or output stack
    # (5.5 MB each) is outside the budget
    cfg = _phantom_e_at_nt_20("motion", "nt", 150)
    cfg["phantom"]["c_mb_per_mm3"] = 24.0
    cfg_path = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 0
    r = cli.resolve(cfg)
    half = 96 * (96 // 2 + 1)
    slabs = vfilter._slabs(350, 96, 96 // 2 + 1)
    rows = reached_rows(350, r.dt, 96, r.grid.dz, 96, r.grid.dx,
                        r.bank.filters, vfilter._exp_floor(np.float32), slabs)
    budget = (8 * sum(n * (z1 - z0) for n, (z0, z1) in zip(rows, slabs))
              * (96 // 2 + 1)  # shared spectrum's reached rows
              + 8 * 150 * half  # kept frames
              + 2 * 8 * vfilter._SLAB_ELEMENTS
              + 2 * 4 * core.STREAM_BLOCK  # blocks of frames
              + 2**20)  # slack: small temporaries and the hash's chunk
    for command in ("filter", "localize"):
        tracemalloc.start()
        try:
            assert main([command, "--config", str(cfg_path), "--out",
                         str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= budget, (command, peak, budget)


def test_float32_overflowing_speed_exits_2_before_any_write(tmp_path,
                                                           capsys):
    # sigma_t 1e-300 makes the "auto" bank speed about 1e298 mm/s, which
    # the locs CSV and the velocity map cannot hold as float32: the run
    # used to write the synth, filter and localize stages' files and exit
    # 4 at the accumulate stage's float32 cast (and before that, say "ok",
    # exit 0 and write inf after numpy's overflow warning)
    cfg = base_cfg()
    cfg["filter_bank"].update(sigma_t_s=1e-300, speeds_mm_s="auto",
                              v_max_mm_s=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err = _pipeline_exits_2_before_any_write(tmp_path, capsys, cfg)
    assert err.startswith("config error: filter_bank: filter speed ")
    assert "float32 range" in err


def test_accumulate_names_the_velocity_channel_past_float32(tmp_path,
                                                           capsys,
                                                           monkeypatch):
    # each velocity channel is cast to float32 on its own, checked as frame
    # c of the stack, and a value past float32 stops the stage before it
    # writes either stack
    cfg_path = write_cfg(tmp_path, base_cfg())
    out = tmp_path / "out"
    for command in ("synth", "localize"):
        assert main([command, "--config", str(cfg_path), "--out",
                     str(out)]) == 0
    velocity_map = cli.velocity_map_from_locs

    def past_float32(locs, grid):
        vmap = velocity_map(locs, grid)
        vmap.vx[1, 2] = 1e300
        return vmap

    monkeypatch.setattr(cli, "velocity_map_from_locs", past_float32)
    capsys.readouterr()
    assert main(["accumulate", "--config", str(cfg_path), "--out",
                 str(out)]) == 4
    err = capsys.readouterr().err
    assert "float32 cast: non-finite sample at (t, z, x) = (1, 1, 2)" in err
    assert not list(out.glob("t_accum*")) and not list(out.glob("t_vel*"))


@pytest.mark.parametrize("frames_per_block", [1, 3, None])
def test_streamed_synth_is_the_whole_stack_write(tmp_path, monkeypatch,
                                                 frames_per_block):
    # the synth stage streams its stack in blocks, each with its own noise
    # draw and its part of the preview's max |x|; its files are the bytes
    # of one whole-stack draw written at once, as the stage used to write
    cfg = base_cfg()
    cfg["noise"] = {"std": 0.3}
    cfg["motion"]["nt"] = 10
    cfg_path = write_cfg(tmp_path, cfg)
    r = cli.resolve(cfg)
    monkeypatch.setattr(phantom, "_SYNTH_BLOCK", 10 * 48 * 48)
    frames, truth = cli.synthesize(r, 5)
    want = tmp_path / "want"
    want.mkdir()
    paths = [*save_frame_stack(frames, want / "t_frames"),
             save_truth_csv(truth, want / "t_truth.csv"),
             write_pgm(np.abs(frames.data).max(axis=0),
                       want / "t_preview.pgm")]
    monkeypatch.undo()
    if frames_per_block:
        monkeypatch.setattr(phantom, "_SYNTH_BLOCK",
                            frames_per_block * 48 * 48)
    out = tmp_path / "out"
    assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 0
    for path in paths:
        assert (out / path.name).read_bytes() == path.read_bytes(), path.name


def test_exit_numeric_and_io_mapping(tmp_path, monkeypatch):
    cfg_path = write_cfg(tmp_path, base_cfg())
    out = str(tmp_path / "out")

    def numeric_boom(*args, **kwargs):
        raise ValueError("synthetic numeric failure")

    monkeypatch.setattr(cli, "_stage_synth", numeric_boom)
    assert main(["synth", "--config", str(cfg_path), "--out", out]) == 4

    def io_boom(*args, **kwargs):
        raise OSError("synthetic i/o failure")

    monkeypatch.setattr(cli, "_stage_synth", io_boom)
    assert main(["synth", "--config", str(cfg_path), "--out", out]) == 3


# ---------------------------------------------------------------------------
# Pipeline artifacts and manifest.

def test_pipeline_artifacts_and_manifest(tmp_path):
    cfg = base_cfg()
    cfg_path = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["pipeline", "--config", str(cfg_path),
                 "--out", str(out)]) == 0

    expected = [
        "t_frames.json", "t_frames.f32", "t_truth.csv", "t_preview.pgm",
        "t_filtered/bank_manifest.json",
        "t_filtered/filtered_000.json", "t_filtered/filtered_000.f32",
        "t_filtered/filtered_001.json", "t_filtered/filtered_001.f32",
        "t_locs.csv", "t_accum.json", "t_accum.f32",
        "t_velmap.json", "t_velmap.f32", "t_accum.pgm", "t_support.pgm",
        "t_metrics.json", "manifest.json",
    ]
    for rel in expected:
        assert (out / rel).exists(), rel

    with open(out / "manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["tool_version"] == __version__
    assert manifest["seed"] == cfg["seed"]
    assert set(manifest["stages"]) == {"synth", "filter", "localize",
                                       "accumulate", "metrics"}
    for entry in manifest["stages"].values():
        assert entry["wall_s"] >= 0.0
    want_hash = hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode()).hexdigest()
    assert manifest["config_sha256"] == want_hash
    # every recorded artifact checksum matches the file on disk
    for rel, digest in manifest["artifacts"].items():
        h = hashlib.sha256((out / rel).read_bytes()).hexdigest()
        assert h == digest, rel

    with open(out / "t_filtered" / "bank_manifest.json") as fh:
        bank = json.load(fh)
    assert bank["n_filters"] == 2
    assert bank["boundary"] == "pad" and bank["to"] is None
    assert [e["to_prefilter"] for e in bank["outputs"]] == [False, False]
    assert {tuple(e["v_f_mm_s"]) for e in bank["outputs"]} == {
        (0.0, 0.0), (1.0, 0.0)}

    with open(out / "t_metrics.json") as fh:
        report = json.load(fh)
    assert report["n_truth_points"] == 2 * cfg["motion"]["nt"]
    assert report["n_localizations"] > 0
    assert report["le"] >= 0.0
    assert "iou" not in report            # grid_bubbles has no geometry

    acc = gather_frames(load_frame_stack(out / "t_accum"))
    assert acc.nt == 1
    assert acc.grid.nx == cfg["grid"]["nx"] * cfg["detector"]["fine_factor"]
    assert acc.data.sum() == report["n_localizations"]
    vel = load_frame_stack(out / "t_velmap")
    assert vel.nt == 3                    # speed, vx, vz planes


def test_manifest_records_peak_memory_of_each_stage(tmp_path):
    cfg_path = write_cfg(tmp_path, base_cfg())
    out = tmp_path / "out"
    assert main(["pipeline", "--config", str(cfg_path),
                 "--out", str(out)]) == 0
    with open(out / "manifest.json") as fh:
        stages = json.load(fh)["stages"]
    assert set(stages) == set(cli._STAGES)
    peaks = [stages[name]["peak_rss_mb"] for name in cli._STAGES]
    assert all(peak > 0 for peak in peaks)
    # one process ran every stage, and its high-water mark never falls
    assert peaks == sorted(peaks)
    # each stage's own minor page faults, a count
    faults = [stages[name]["minor_faults"] for name in cli._STAGES]
    assert all(type(n) is int and n >= 0 for n in faults)


def test_pipeline_metrics_with_vessel_geometry(tmp_path):
    cfg = base_cfg()
    cfg["phantom"] = {"kind": "single_vessel", "radius_mm": 0.3,
                      "v0_mm_s": 1.0, "c_mb_per_mm3": 30.0, "angle_deg": 0.0}
    cfg["motion"] = {"nt": 10, "dt_s": 0.02}
    cfg["filter_bank"] = {"sigma_t_s": 0.03, "speeds_mm_s": [0.0, 1.0],
                          "angles_deg": [0.0]}
    cfg["metrics"] = {"fastest_q": 0.25}
    cfg_path = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["pipeline", "--config", str(cfg_path),
                 "--out", str(out)]) == 0
    with open(out / "t_metrics.json") as fh:
        report = json.load(fh)
    assert 0.0 <= report["iou"] <= 1.0
    assert report["fve_mm_s"] >= 0.0
    assert report["fve_fastest_0.25_mm_s"] >= 0.0
    assert report["n_truth_points"] > 0

    # same report in csv form
    assert main(["metrics", "--config", str(cfg_path), "--out", str(out),
                 "--format", "csv"]) == 0
    header, rows = read_table(out / "t_metrics.csv")
    assert header == ["metric", "value"]
    assert {r[0] for r in rows} >= {"iou", "fve_mm_s", "le",
                                    "n_localizations"}


def test_metrics_on_anisotropic_grid(tmp_path):
    # a grid twice as coarse along z as along x is scored end to end
    cfg = load_config(Path(cli.__file__).parent / "configs" / "phantom_e.json")
    cfg["grid"] = {"nx": 48, "nz": 24, "dx_mm": 0.05, "dz_mm": 0.1}
    cfg["motion"]["nt"] = 40
    cfg_path = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["pipeline", "--config", str(cfg_path),
                 "--out", str(out)]) == 0
    with open(out / "phantom_e_metrics.json") as fh:
        report = json.load(fh)
    assert math.isfinite(report["le"])


def test_same_seed_runs_are_bit_identical(tmp_path):
    cfg = base_cfg()
    cfg["noise"] = {"std": 0.2}          # exercises the rng path too
    cfg_path = write_cfg(tmp_path, cfg)

    manifests = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["pipeline", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        with open(out / "manifest.json") as fh:
            manifests.append(json.load(fh)["artifacts"])
    assert manifests[0] == manifests[1]

    # a different seed must change the synthesized data
    out = tmp_path / "c"
    assert main(["synth", "--config", str(cfg_path), "--out", str(out),
                 "--seed", "6"]) == 0
    with open(out / "manifest.json") as fh:
        other = json.load(fh)
    assert other["seed"] == 6
    assert other["artifacts"]["t_frames.f32"] != \
        manifests[0]["t_frames.f32"]


def test_manifest_records_seed_of_each_invocation(tmp_path):
    cfg_path = write_cfg(tmp_path, base_cfg())
    out = tmp_path / "out"

    def manifest():
        with open(out / "manifest.json") as fh:
            return json.load(fh)

    for seed in ("1", "2"):
        assert main(["synth", "--config", str(cfg_path), "--out", str(out),
                     "--seed", seed]) == 0
    assert manifest()["seed"] == 2
    assert manifest()["stages"]["synth"]["seed"] == 2

    assert main(["filter", "--config", str(cfg_path), "--out", str(out),
                 "--seed", "3"]) == 0
    m = manifest()
    assert m["seed"] == 3
    assert m["stages"]["synth"]["seed"] == 2
    assert m["stages"]["filter"]["seed"] == 3
    assert m["stages"]["filter"]["config_sha256"] == m["config_sha256"]


@pytest.mark.parametrize("command", ["synth", "pipeline"])
@pytest.mark.parametrize("seed", ["-1", "x"])
def test_seed_flag_must_be_a_non_negative_integer(tmp_path, capsys, command,
                                                  seed):
    # -1 exited 4, the numeric-failure code, after creating --out
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(write_cfg(tmp_path, base_cfg())),
              "--out", str(out), "--seed", seed])
    assert exc.value.code == 2
    assert "--seed: must be a non-negative integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", ['{"stages": {', '[]',
                                  '{"stages": [], "artifacts": {}}'])
def test_damaged_manifest_exits_3_before_any_write(tmp_path, capsys, text):
    # an unparseable manifest exited 4 after the stage wrote its artifacts;
    # a list, or stages that are no object, ended in a traceback (exit 1)
    out = tmp_path / "out"
    out.mkdir()
    (out / "manifest.json").write_text(text)
    assert main(["synth", "--config", str(write_cfg(tmp_path, base_cfg())),
                 "--out", str(out)]) == 3
    assert f"bad manifest {out / 'manifest.json'}" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["manifest.json"]
    assert (out / "manifest.json").read_text() == text


# ---------------------------------------------------------------------------
# theory subcommand.

def test_theory_requires_a_table(tmp_path):
    assert main(["theory", "--out", str(tmp_path)]) == 2


def test_theory_rejects_bad_ratio(tmp_path):
    assert main(["theory", "--out", str(tmp_path), "--deltav",
                 "--ratio", "-1.0"]) == 2


@pytest.mark.parametrize("argv", [
    ["--gamma", "--steps", "0"],
    ["--deltav", "--steps", "-1"],
    ["--density", "--vessel-radius-mm", "0"],
    ["--to-gamma", "--lambda-x-mm", "-1"],
    ["--nrf", "--frame-rate-hz", "0"],
    ["--deltav", "--acq-time", "--d-mm", "0"],
    ["--gamma", "--span-mm-s", "0"],
    ["--gamma", "--span-mm-s", "-2"],
    ["--to-gamma", "--span-mm-s", "0"],
    ["--to-gamma", "--span-mm-s", "-2"],
], ids=" ".join)
def test_theory_bad_inputs_exit_2_before_any_write(tmp_path, capsys, argv):
    # --steps 0 used to write a header-only table and exit 0, --span-mm-s 0
    # a grid of all-zero mismatches and -2 a reversed grid; the domain
    # checks of the closed forms used to exit 4
    out = tmp_path / "theory"
    assert main(["theory", "--out", str(out), *argv]) == 2
    assert "config error: theory:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--ratio", "nan"), ("--nrf-sigma-t-s", "inf"), ("--sigma-r-mm", "-inf"),
    ("--span-mm-s", "1e999"), ("--v0-max-mm-s", "fast"),
])
def test_theory_float_flags_must_be_finite(tmp_path, capsys, flag, value):
    # --ratio nan exited 0 with an all-NaN table, and --nrf-sigma-t-s inf
    # ended in a traceback (exit 1)
    out = tmp_path / "theory"
    with pytest.raises(SystemExit) as exc:
        main(["theory", "--out", str(out), "--gamma", "--nrf",
              f"{flag}={value}"])
    assert exc.value.code == 2
    assert "must be a finite number" in capsys.readouterr().err
    assert not out.exists()


def test_theory_deltav_table(tmp_path):
    assert main(["theory", "--out", str(tmp_path), "--deltav",
                 "--steps", "7"]) == 0
    header, rows = read_table(tmp_path / "deltav_vs_theta.csv")
    assert header == ["theta_deg", "kappa_delta_v", "delta_v_mm_s"]
    assert len(rows) == 7
    # lateral mismatch (theta = 0): passband edge at kappa = sqrt(6) exactly
    assert rows[0][0] == 0.0
    assert rows[0][1] == pytest.approx(math.sqrt(6.0), abs=1e-6)
    # defaults: ratio = 1 mm/s, so delta_v = kappa numerically
    assert rows[0][2] == pytest.approx(rows[0][1], rel=1e-9)
    # axial mismatch: much narrower (carrier phase); matches the closed form
    want = velocity_bandwidth(PsfParams(sigma_r=0.3, wavelength=0.3), 0.3,
                              theta=math.pi / 2.0).kappa_delta_v
    assert rows[-1][0] == 90.0
    assert rows[-1][1] == pytest.approx(want, rel=1e-6)
    assert 0.15 < rows[-1][1] < 0.25
    # half-width shrinks monotonically from lateral to axial
    kappas = [r[1] for r in rows]
    assert all(a > b for a, b in zip(kappas, kappas[1:]))


def test_theory_gamma_grid(tmp_path):
    assert main(["theory", "--out", str(tmp_path), "--gamma",
                 "--steps", "5"]) == 0
    header, rows = read_table(tmp_path / "gamma_grid.csv")
    assert header == ["dvx_mm_s", "dvz_mm_s", "gamma", "kappa"]
    assert len(rows) == 25
    center = [r for r in rows if r[0] == 0.0 and r[1] == 0.0]
    assert len(center) == 1
    assert center[0][2] == pytest.approx(1.0, abs=1e-12)
    assert center[0][3] == 0.0
    assert all(0.0 < r[2] <= 1.0 for r in rows)


def test_theory_density_table(tmp_path):
    assert main(["theory", "--out", str(tmp_path), "--density",
                 "--steps", "5"]) == 0
    header, rows = read_table(tmp_path / "density_profiles.csv")
    assert header == ["rho_mm", "d2_per_mm2", "d_vf_per_mm2"]
    # defaults: R = 1 mm, c = 1000 /mm^3 -> projected center density 2000
    mid = rows[2]
    assert mid[0] == 0.0
    assert mid[1] == pytest.approx(2000.0, rel=1e-9)
    assert all(r[2] <= r[1] + 1e-9 for r in rows)   # filtering only removes


def test_theory_to_gamma_grid(tmp_path):
    assert main(["theory", "--out", str(tmp_path), "--to-gamma",
                 "--steps", "3"]) == 0
    header, rows = read_table(tmp_path / "to_gamma_grid.csv")
    assert header == ["dvx_mm_s", "dvz_mm_s", "gamma", "gamma_bar_to"]
    center = [r for r in rows if r[0] == 0.0 and r[1] == 0.0][0]
    assert center[2] == pytest.approx(1.0, abs=1e-12)
    assert center[3] == pytest.approx(1.0, abs=1e-12)
    assert all(r[3] <= 1.0 + 1e-12 for r in rows)


def test_theory_nrf_bounds(tmp_path, capsys):
    assert main(["theory", "--out", str(tmp_path), "--nrf"]) == 0
    printed = capsys.readouterr().out
    # defaults sigma_t = 0.5 s, v0_max = 10 mm/s, lambda = 0.3 mm:
    # (2/sqrt(pi)) * (2 pi / 0.3) * 10 * 0.5 = 118.16...
    assert "rounds to 118" in printed
    header, rows = read_table(tmp_path / "nrf.csv")
    assert header == ["form", "bound", "bound_db"]
    by_form = {r[0]: r for r in rows}
    want_flow = (2.0 / math.sqrt(math.pi)) * (2.0 * math.pi / 0.3) * 10 * 0.5
    assert by_form["flow"][1] == pytest.approx(want_flow, rel=1e-6)
    assert by_form["flow"][2] == pytest.approx(
        10 * math.log10(want_flow), rel=1e-6)
    want_frame = 2.0 * math.sqrt(math.pi) * 0.5 * 100.0
    assert by_form["frame_rate"][1] == pytest.approx(want_frame, rel=1e-6)


def test_theory_acq_time_bound(tmp_path, capsys):
    assert main(["theory", "--out", str(tmp_path), "--acq-time"]) == 0
    # defaults: Q = 1 mm^3/s, d = 1 mm, c = 1000 /mm^3, i_pix = 0.03 mm
    # -> T >= 1 / ((Q/d) * c * i_pix) = 1/30 s
    assert "T_acq >=" in capsys.readouterr().out
    header, rows = read_table(tmp_path / "acq_time.csv")
    assert header == ["t_acq_lower_s"]
    assert rows[0][0] == pytest.approx(1.0 / 30.0, rel=1e-6)


# ---------------------------------------------------------------------------
# Parser plumbing.

def _fresh_python(code: str) -> str:
    """Stdout of code run in a new interpreter that imports this package."""
    src_root = str(Path(velofilt.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


_SCIPY_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_cli_import_leaves_scipy_signal_out():
    # scipy.fft alone costs about 0.14 s and 20 MB of start-up (scipy.signal,
    # with scipy.stats and scipy.interpolate, about 1 s); the package loads
    # only pocketfft's extension, and only on its first transform
    code = f"import sys, velofilt.cli; print({_SCIPY_LOADED})"
    assert _fresh_python(code) == "[]"


@pytest.mark.parametrize("stage", ["filter", "localize", "pipeline"])
def test_transforming_commands_load_no_scipy_fft(tmp_path, stage):
    # scipy.fft's array-API layer imports numpy.f2py and scipy.special; the
    # transforms call pocketfft's extension, loaded on its own
    cfg = write_cfg(tmp_path, base_cfg())
    out = tmp_path / "out"
    if stage != "pipeline":
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
    heavy = ("scipy.fft", "scipy.special", "scipy._lib._array_api",
             "numpy.f2py")
    code = (f"import sys, velofilt.cli as c; "
            f"rc = c.main({[stage, '--config', str(cfg), '--out', str(out)]}"
            f"); print(rc, [m for m in {heavy} if m in sys.modules], "
            f"'scipy.fft._pocketfft.pypocketfft' in sys.modules)")
    assert _fresh_python(code).splitlines()[-1] == "0 [] True"


_TRANSFORM = """
import hashlib
import numpy as np
from velofilt import _pocketfft
from velofilt.core import FrameStack, make_grid
from velofilt.vfilter import VelocityFilterSpec, apply_filter_fft
data = np.random.default_rng(3).normal(size=(16, 12, 10)).astype(np.float32)
stack = FrameStack(grid=make_grid(10, 12, 0.05, 0.05), nt=16, dt=0.01,
                   data=data)
out = apply_filter_fft(stack, VelocityFilterSpec(v_f=(1.0, 0.5),
                                                 sigma_t=0.05))
print(hashlib.sha256(out.data.tobytes()).hexdigest())
"""


def test_transform_bytes_do_not_depend_on_import_order():
    # whichever of velofilt and scipy.fft loads pocketfft's extension
    # first, the other reuses that module, and the bytes are the same
    shared = ("import scipy.fft\n"
              "print(_pocketfft._extension()"
              " is scipy.fft._pocketfft.basic.pfft)")
    velofilt_first = _fresh_python(_TRANSFORM + shared).splitlines()
    scipy_first = _fresh_python("import scipy.fft" + _TRANSFORM
                                + shared).splitlines()
    assert velofilt_first == scipy_first
    assert velofilt_first[-1] == "True"


@pytest.mark.parametrize("stage", ["synth", "accumulate", "metrics"])
def test_commands_without_transforms_load_no_scipy(tmp_path, stage):
    cfg = write_cfg(tmp_path, base_cfg())
    out = tmp_path / "out"
    if stage != "synth":
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["localize", "--config", str(cfg), "--out",
                     str(out)]) == 0
    code = (f"import sys, velofilt.cli as c; "
            f"rc = c.main({[stage, '--config', str(cfg), '--out', str(out)]}"
            f"); print(rc, {_SCIPY_LOADED})")
    assert _fresh_python(code).splitlines()[-1] == "0 []"
    assert (out / "manifest.json").exists()


_JSONSCHEMA_LOADED = (
    "sorted(m for m in sys.modules if m.split('.')[0] in ('jsonschema', "
    "'referencing', 'rpds', 'attr', 'attrs', 'jsonschema_specifications'))")


@pytest.mark.parametrize("command", [None, "synth", "filter", "localize",
                                     "accumulate", "metrics", "pipeline"])
def test_valid_config_loads_no_jsonschema(tmp_path, command):
    # jsonschema and its dependencies cost about 60 ms and 4 MB of every
    # start-up; they load only to word a rejected config's error
    cfg = write_cfg(tmp_path, base_cfg())
    out = tmp_path / "out"
    if command is None:                # the set-up probe
        code = (f"import sys, velofilt.cli as c; c.load_config({str(cfg)!r})"
                f"; print(0, {_JSONSCHEMA_LOADED})")
    else:
        if command not in ("synth", "pipeline"):
            assert main(["pipeline", "--config", str(cfg), "--out",
                         str(out)]) == 0
        code = (f"import sys, velofilt.cli as c; rc = c.main("
                f"{[command, '--config', str(cfg), '--out', str(out)]}"
                f"); print(rc, {_JSONSCHEMA_LOADED})")
    assert _fresh_python(code).splitlines()[-1] == "0 []"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_threads_env_default(monkeypatch):
    monkeypatch.setenv("VELOFILT_THREADS", "3")
    args = cli.build_parser().parse_args(["synth", "--config", "x.json"])
    assert args.threads == 3
    monkeypatch.delenv("VELOFILT_THREADS")
    args = cli.build_parser().parse_args(["synth", "--config", "x.json"])
    assert args.threads == 1


@pytest.mark.parametrize("flag, env", [("0", None), ("-1", None),
                                       (None, "abc"), (None, "0")])
def test_threads_must_be_positive(tmp_path, monkeypatch, capsys, flag, env):
    # 0 used to run synth and then fail in the filter stage, -1 reached
    # scipy as "every core", and a bad VELOFILT_THREADS crashed the parser
    if env is None:
        monkeypatch.delenv("VELOFILT_THREADS", raising=False)
    else:
        monkeypatch.setenv("VELOFILT_THREADS", env)
    cli.build_parser()
    out = tmp_path / "out"
    argv = ["pipeline", "--config", str(write_cfg(tmp_path, base_cfg())),
            "--out", str(out)] + (["--threads", flag] if flag else [])
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not out.exists()
    # the environment value is read only by the commands that take it
    assert main(["theory", "--out", str(tmp_path / "t"), "--acq-time"]) == 0


README = REPO / "README.md"


def _readme_command_lines(text: str) -> list[list[str]]:
    """argv of every `velofilt ...` line in the README's sh blocks and of
    every inline `velofilt ...` code span, comments dropped."""
    lines = [ln for block in re.findall(r"```sh\n(.*?)```", text, re.S)
             for ln in block.splitlines()]
    lines += [" ".join(span.split())
              for span in re.findall(r"`(velofilt [^`]*)`", text)]
    return [shlex.split(ln, comments=True)[1:] for ln in lines
            if ln.startswith("velofilt ")]


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def test_readme_command_lines_parse():
    text = README.read_text()
    parser = cli.build_parser()
    argvs = _readme_command_lines(text)
    assert len(argvs) >= 8
    for argv in argvs:
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command line does not parse: {argv}")
        # argparse accepts unique prefixes; the README must spell flags out
        for tok in argv:
            if tok.startswith("--"):
                assert _dest(tok) in vars(args), (tok, argv)
    # flags named on their own in the command-line prose exist too
    known = (set(vars(parser.parse_args(["theory"])))
             | set(vars(parser.parse_args(["pipeline", "--config", "c"]))))
    section = text.split("## Command line")[1].split("\n## ")[0]
    flags = re.findall(r"`(--[\w-]+)`", section)
    assert len(flags) >= 8
    assert [f for f in flags if _dest(f) not in known] == []


def test_readme_library_example_runs():
    text = README.read_text()
    block = re.search(r"Typical flow:\n\n```python\n(.*?)```", text,
                      re.S).group(1)
    # the README acquires 300 frames; 40 exercise the same calls quickly
    assert "nt=300" in block
    namespace: dict = {}
    exec(block.replace("nt=300", "nt=40"), namespace)
    assert len(namespace["res"].per_frame) == 40
    assert namespace["density"].total > 0
    assert namespace["mask"].any()


def _console_script_entry(name: str) -> str:
    """The ``[project.scripts]`` target for ``name`` from pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


def test_console_script_installed(tmp_path):
    # Build the launcher an installer would write for the declared entry
    # point, so the declaration is checked without a site install.
    module, _, func = _console_script_entry("velofilt").partition(":")
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    launcher = bin_dir / "velofilt"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {func}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({func}())\n")
    launcher.chmod(0o755)

    env = dict(os.environ)
    env["PATH"] = os.pathsep.join([str(bin_dir), env.get("PATH", "")])
    # run the same source tree the tests imported
    src_root = str(Path(velofilt.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src_root, env.get("PYTHONPATH")]))
    exe = shutil.which("velofilt", path=env["PATH"])
    assert exe is not None
    proc = subprocess.run([exe, "--version"], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert __version__ in proc.stdout


@pytest.mark.skipif(shutil.which("velofilt") is None,
                    reason="velofilt executable not on PATH")
def test_installed_console_script_runs():
    exe = shutil.which("velofilt")
    proc = subprocess.run([exe, "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert __version__ in proc.stdout
