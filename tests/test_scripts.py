"""Smoke tests for the study drivers in scripts/.

Every script must import against the current library, and every study must
run end to end on a short acquisition: --nt 24, or --nt 60 for
run_parallel_gap_sweep, whose bank finds nothing in 24 frames; it runs one
gap of its sweep. Each run's CSV is compared with its SHA-256 in
tests/golden/scripts.json where numpy, scipy and the machine match the
recorded ones (the rule of scripts/check_golden.py). A study whose output
moves on purpose gets its entry replaced by the hash the failing test
prints.
"""

import argparse
import csv
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import velofilt
from velofilt import cli
from velofilt.localize import load_localizations_csv, save_localizations_csv
from velofilt.phantom import load_truth_csv, save_truth_csv

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"
GOLDEN = json.loads((ROOT / "tests" / "golden" / "scripts.json").read_text())
ARGS = {"run_parallel_gap_sweep": ["--nt", "60", "--gaps", "0.4"]}
STUDIES = ["run_velocity_map", "run_attenuation_study", "run_circular",
           "run_parallel_gap_sweep", "run_phantom_c"]


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _env() -> dict:
    """This environment with the tested package's sources on PYTHONPATH."""
    src_root = str(Path(velofilt.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src_root, env.get("PYTHONPATH")]))
    return env


check_golden = _load(SCRIPTS / "check_golden.py")


@pytest.mark.parametrize("path", sorted(SCRIPTS.glob("*.py")),
                         ids=lambda p: p.stem)
def test_script_imports(path):
    assert callable(_load(path).main)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """CSV path of a short run of a study, each study run once."""
    done: dict[str, Path] = {}

    def run(name: str) -> Path:
        if name not in done:
            out = tmp_path_factory.mktemp(name) / f"{name}.csv"
            proc = subprocess.run(
                [sys.executable, str(SCRIPTS / f"{name}.py"), "--out",
                 str(out), *ARGS.get(name, ["--nt", "24"])],
                capture_output=True, text=True, env=_env(), timeout=300)
            assert proc.returncode == 0, proc.stderr
            done[name] = out
        return done[name]

    return run


@pytest.mark.parametrize("name", STUDIES)
def test_script_runs_short(runs, name):
    with open(runs(name), newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) > 1
    assert all(len(row) == len(rows[0]) for row in rows)


def test_velocity_map_default_run_reproduces_its_committed_csv(tmp_path):
    # the full default run (about 1 s), not a short one: its CSV is the
    # bytes committed under runs/, where the environment matches the one
    # the golden hashes were recorded in
    reason = check_golden.hash_skip_reason(GOLDEN)
    if reason:
        pytest.skip(reason)
    out = tmp_path / "velocity_profile.csv"
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_velocity_map.py"), "--out",
         str(out)], capture_output=True, text=True, env=_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == (ROOT / "runs" / "velocity_profile.csv"
                                ).read_bytes()


@pytest.mark.parametrize("name", STUDIES)
def test_script_csv_hash(runs, name):
    reason = check_golden.hash_skip_reason(GOLDEN)
    if reason:
        pytest.skip(reason)
    got = hashlib.sha256(runs(name).read_bytes()).hexdigest()
    assert got == GOLDEN["csv_sha256"][name], f"{name} CSV sha256 {got}"


BAD_FLAGS = [
    ("run_velocity_map", ["--seed", "-1"], "--seed: must be a non-negative"),
    ("run_circular", ["--seed", "x"], "--seed: must be a non-negative"),
    ("run_velocity_map", ["--nt", "0"], "$.motion.nt"),
    ("run_parallel_gap_sweep", ["--gaps", "0.4", "-0.2"],
     "--gaps -0.2: config invalid at $.phantom.gap_mm"),
    ("run_phantom_c", ["--c-mb", "-5", "1"],
     "--c-mb -5.0: config invalid at $.phantom.c_mb_high_per_mm3"),
    *[(name, ["--config", config], message)
      for name in ("run_velocity_map", "run_circular", "run_phantom_c",
                   "run_parallel_gap_sweep")
      for config, message in (("missing.json", "config not found"),
                              (str(ROOT / "README.md"),
                               "config is not valid JSON"))],
    ("run_attenuation_study", ["--sigma-t", "-1"],
     "--sigma-t must be positive"),
    ("run_attenuation_study", ["--sigma-t", "inf"],
     "--sigma-t must be positive and finite"),
    ("run_attenuation_study", ["--dt", "0"], "--dt must be positive"),
    ("run_attenuation_study", ["--max-dv", "0"], "--max-dv must be positive"),
    ("run_attenuation_study", ["--max-dv", "nan"],
     "--max-dv must be positive"),
    ("run_attenuation_study", ["--nt", "0"], "--nt must be at least 10"),
    ("run_attenuation_study", ["--nt", "9"], "--nt must be at least 10"),
    ("run_attenuation_study", ["--steps", "0"], "--steps must be at least 2"),
    ("run_attenuation_study", ["--steps", "1"], "--steps must be at least 2"),
    # a 2e9-frame pad per side: past the bank's in-memory FFT limit
    ("run_attenuation_study", ["--nt", "12", "--steps", "3", "--dt", "1e-9"],
     "exceeds the in-memory FFT limit"),
]


@pytest.mark.parametrize("name, args, message", BAD_FLAGS,
                         ids=lambda v: v if isinstance(v, str) else None)
def test_script_bad_flag_exits_2_before_any_run(tmp_path, name, args,
                                                message):
    # a bad flag, or a config it makes invalid, is refused by argparse
    # (exit 2, one error line after the usage) before any gap or
    # concentration runs, and nothing is written
    out = tmp_path / "runs" / f"{name}.csv"
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / f"{name}.py"), "--out", str(out),
         *args], capture_output=True, text=True, env=_env(), timeout=120,
        cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.splitlines()[-1].startswith(f"{name}.py: error: ")
    assert message in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_attenuation_study_runs_at_the_shortest_window(tmp_path):
    # 10 frames hold the 10-frame window around the middle one
    out = tmp_path / "att.csv"
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_attenuation_study.py"), "--out",
         str(out), "--nt", "10", "--steps", "2"],
        capture_output=True, text=True, env=_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert len(out.read_text().splitlines()) == 5


def test_study_run_is_the_pipeline_run(tmp_path, monkeypatch):
    # run_velocity_map's run at --nt 24, made in memory through study_runs,
    # synthesize and localize, is the run `velofilt pipeline` makes on the
    # same edited config: the same locs and truth CSV bytes, and, scored
    # from those CSVs as the metrics stage reads them, the same metrics.
    # (score of the unrounded in-memory tables can differ: a sub-pixel
    # offset clipped to half a pixel sits on a bin edge, where the CSV's
    # 9 digits can move it to the next pixel.)
    study = _load(SCRIPTS / "run_velocity_map.py")
    monkeypatch.setattr(sys, "argv", ["run_velocity_map.py", "--nt", "24"])
    _, [r] = cli.study_runs(argparse.ArgumentParser(), study.CONFIG,
                            str(tmp_path / "unused.csv"))
    frames, table = cli.synthesize(r, r.seed)
    locs = save_localizations_csv(cli.localize(r, frames),
                                  tmp_path / "mem_locs.csv")
    truth = save_truth_csv(table, tmp_path / "mem_truth.csv")
    report = cli.score(r, load_localizations_csv(locs), load_truth_csv(truth))

    cfg = cli.load_config(study.CONFIG)
    cfg["motion"]["nt"] = 24
    cfg_path = tmp_path / "edited.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["pipeline", "--config", str(cfg_path), "--out",
                     str(out)]) == 0
    assert locs.read_bytes() == (out / f"{r.prefix}_locs.csv").read_bytes()
    assert truth.read_bytes() == (out / f"{r.prefix}_truth.csv").read_bytes()
    metrics = json.loads((out / f"{r.prefix}_metrics.json").read_text())
    assert metrics == report and report["n_localizations"] > 0


def test_bench_pairs_gives_each_run_an_empty_bytecode_cache(tmp_path,
                                                           monkeypatch):
    # every perfbench run, on either side, compiles its imports into a new
    # empty directory and reads no checkout's __pycache__
    bench_pairs = _load(SCRIPTS / "bench_pairs.py")
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setenv("BENCH_PAIRS_PROBE", "kept")
    seen = []

    def fake_run(argv, cwd, env, **kwargs):
        cache = Path(env["PYTHONPYCACHEPREFIX"])
        seen.append((Path(cwd), cache, list(cache.iterdir())))
        assert "PYTHONDONTWRITEBYTECODE" not in env
        assert env["BENCH_PAIRS_PROBE"] == "kept"
        line = {"correct": True, "metrics": {
            "wall_s": {"value": 1.0, "unit": "s"}}}
        return subprocess.CompletedProcess(argv, 0, json.dumps(line), "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    parent, change = tmp_path / "parent", tmp_path / "change"
    assert bench_pairs.main(["--parent", str(parent), "--change",
                             str(change), "--workload", "orbit-bank",
                             "--seeds", "1", "2"]) == 0
    assert [cwd for cwd, _, _ in seen] == [parent, change, change, parent]
    caches = [cache for _, cache, _ in seen]
    assert all(files == [] for _, _, files in seen)
    assert len(set(caches)) == 4
    assert not any(cache.exists() for cache in caches)
