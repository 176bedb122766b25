"""Smoke tests for the study drivers in scripts/.

Every script must import against the current library, and every one that
runs within seconds at --nt 24 must run end to end on that short
acquisition. run_parallel_gap_sweep runs one gap of its sweep.
"""

import csv
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import velofilt

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
EXTRA_ARGS = {"run_parallel_gap_sweep": ["--gaps", "0.4"]}


@pytest.mark.parametrize("path", sorted(SCRIPTS.glob("*.py")),
                         ids=lambda p: p.stem)
def test_script_imports(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


@pytest.mark.parametrize("name", ["run_velocity_map",
                                  "run_attenuation_study", "run_circular",
                                  "run_parallel_gap_sweep", "run_phantom_c"])
def test_script_runs_short(name, tmp_path):
    src_root = str(Path(velofilt.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src_root, env.get("PYTHONPATH")]))
    out = tmp_path / f"{name}.csv"
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / f"{name}.py"), "--nt", "24",
         "--out", str(out), *EXTRA_ARGS.get(name, [])],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) > 1
    assert all(len(row) == len(rows[0]) for row in rows)
