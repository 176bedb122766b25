"""End-to-end tests for the config-driven CLI.

These exercise the wiring, not the physics: config validation, exit codes,
artifact layout, the run manifest, determinism across same-seed runs, and the
closed-form table subcommand. Numerical behavior of the underlying stages is
covered by the per-module tests.
"""

import copy
import csv
import hashlib
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import velofilt
from velofilt import __version__, cli
from velofilt.cli import CONFIG_SCHEMA, ConfigError, load_config, main
from velofilt.core import load_frame_stack
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

def test_bundled_configs_load_and_build():
    cfg_dir = Path(cli.__file__).parent / "configs"
    paths = sorted(cfg_dir.glob("*.json"))
    assert len(paths) >= 5
    rng = np.random.default_rng(0)
    for path in paths:
        cfg = load_config(path)
        # the phantom section must also survive domain construction
        bubbles, motion, vessels, band = cli._build_phantom(cfg, rng)
        assert bubbles.pos.shape[1] == 3


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
    assert main(["synth", "--config", str(cfg_path), "--out", out]) == 0
    assert main(["filter", "--config", str(cfg_path), "--out", out]) == 2


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


def test_exit_numeric_on_oversized_fft(tmp_path, capsys):
    cfg = base_cfg()
    cfg["filter_bank"]["sigma_t_s"] = 1e18
    cfg_path = write_cfg(tmp_path, cfg)
    out = str(tmp_path / "out")
    assert main(["synth", "--config", str(cfg_path), "--out", out]) == 0
    assert main(["filter", "--config", str(cfg_path), "--out", out]) == 4
    assert "exceeds the in-memory FFT limit" in capsys.readouterr().err


def test_exit_data_error_on_empty_localizations(tmp_path, capsys):
    cfg = base_cfg()
    cfg["phantom"]["positions_mm"] = []
    cfg["phantom"]["velocities_mm_s"] = []
    cfg_path = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 0
    # an empty phantom synthesizes an all-zero stack ...
    frames = load_frame_stack(out / "t_frames")
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
    assert [e["to_prefilter"] for e in bank["outputs"]] == [False, False]
    assert {tuple(e["v_f_mm_s"]) for e in bank["outputs"]} == {
        (0.0, 0.0), (1.0, 0.0)}

    with open(out / "t_metrics.json") as fh:
        report = json.load(fh)
    assert report["n_truth_points"] == 2 * cfg["motion"]["nt"]
    assert report["n_localizations"] > 0
    assert report["le"] >= 0.0
    assert "iou" not in report            # grid_bubbles has no geometry

    acc = load_frame_stack(out / "t_accum")
    assert acc.nt == 1
    assert acc.grid.nx == cfg["grid"]["nx"] * cfg["detector"]["fine_factor"]
    assert acc.data.sum() == report["n_localizations"]
    vel = load_frame_stack(out / "t_velmap")
    assert vel.nt == 3                    # speed, vx, vz planes


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


# ---------------------------------------------------------------------------
# theory subcommand.

def test_theory_requires_a_table(tmp_path):
    assert main(["theory", "--out", str(tmp_path)]) == 2


def test_theory_rejects_bad_ratio(tmp_path):
    assert main(["theory", "--out", str(tmp_path), "--deltav",
                 "--ratio", "-1.0"]) == 2


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


README = Path(__file__).resolve().parents[1] / "README.md"


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
