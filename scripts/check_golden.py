#!/usr/bin/env python3
"""Golden outputs: run `velofilt pipeline` at seed 7 and compare the run
with tests/golden/seed7.json.

Each entry of the file holds one config's artifact SHA-256s from
manifest.json, its iou, fve_mm_s, le and n_localizations, and the numpy,
scipy and machine the run was made with. Counts must match exactly, IoU,
FVE and LE to a relative 1e-6. The hashes are compared only where numpy,
scipy and the machine match the entry; otherwise the script says why it
skips them.

    python3 scripts/check_golden.py                     # eight fast configs
    python3 scripts/check_golden.py --config phantom_f  # the 600-frame case
    python3 scripts/check_golden.py --write             # regenerate entries

Each run's line also gives its stages' wall time and peak resident memory
from manifest.json (`synth 0.15 s 197.0 MB, ...`). They vary from run to
run, so they are neither compared nor written to the golden file. The
memory is the process's high-water mark, which the configs run before
carry over: pass one --config for a config's own figures.

Exits 1 when a compared value differs. tests/test_golden.py runs the same
check on the eight fast configs.
"""

import argparse
import contextlib
import io
import json
import math
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from velofilt.cli import main as velofilt_main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "seed7.json"
SEED = 7
METRICS = ("iou", "fve_mm_s", "le", "n_localizations")
METRIC_RTOL = 1e-6
STAGES = ("synth", "filter", "localize", "accumulate", "metrics")
CONFIGS = {
    **{name: ROOT / "perfbench" / "workloads" / f"{name}.json"
       for name in ("orbit-bank", "axial-pre", "cross-staged")},
    **{f"phantom_{k}": ROOT / "src" / "velofilt" / "configs"
       / f"phantom_{k}.json" for k in "acdef"},
    # the one config with a `to` section: its lateral filter is detected
    # through the TO chain
    "to_lateral": ROOT / "scripts" / "configs" / "to_lateral.json",
}
FAST = [name for name in CONFIGS if name != "phantom_f"]


def environment() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "machine": platform.machine()}


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


def run(name: str, out: Path) -> dict:
    """Pipeline of one config at SEED, one thread, into out; the entry the
    golden file keeps for it."""
    argv = ["pipeline", "--config", str(CONFIGS[name]), "--seed", str(SEED),
            "--out", str(out), "--threads", "1"]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = velofilt_main(argv)
    if rc != 0:
        raise RuntimeError(f"{name}: pipeline exited {rc}")
    manifest = json.loads((out / "manifest.json").read_text())
    [report_path] = out.glob("*_metrics.json")
    report = json.loads(report_path.read_text())
    return {"artifacts": manifest["artifacts"],
            "metrics": {k: report[k] for k in METRICS if k in report},
            "environment": environment()}


def stage_figures(out: Path) -> str:
    """Each stage's wall time and peak RSS from the manifest in out, in
    pipeline order."""
    stages = json.loads((out / "manifest.json").read_text())["stages"]
    return ", ".join(f"{name} {stages[name]['wall_s']:.2f} s "
                     f"{stages[name]['peak_rss_mb']:.1f} MB"
                     for name in STAGES)


def metric_problems(got: dict, want: dict) -> list[str]:
    """Metrics that differ: counts exactly, the rest beyond METRIC_RTOL."""
    problems = [f"metric {k} missing or extra"
                for k in sorted(set(got) ^ set(want))]
    for key in sorted(set(got) & set(want)):
        g, w = got[key], want[key]
        same = (g == w if key == "n_localizations"
                else math.isclose(g, w, rel_tol=METRIC_RTOL, abs_tol=0.0))
        if not same:
            problems.append(f"{key} {g!r}, golden {w!r}")
    return problems


def hash_problems(got: dict, want: dict) -> list[str]:
    """Artifacts whose SHA-256 differs, or that only one side has."""
    return [f"artifact {name} differs"
            for name in sorted(set(got) | set(want))
            if got.get(name) != want.get(name)]


def hash_skip_reason(entry: dict) -> str | None:
    """Why the hashes of an entry cannot be compared here, or None."""
    here = environment()
    diffs = [f"{k} {here[k]} (golden {entry['environment'].get(k)})"
             for k in here if here[k] != entry["environment"].get(k)]
    if not diffs:
        return None
    return "hashes not compared: " + ", ".join(diffs)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--config", action="append", choices=sorted(CONFIGS),
                    help="config to run, repeatable (default: the eight "
                         "fast ones)")
    ap.add_argument("--write", action="store_true",
                    help="record the runs as golden entries, keeping the "
                         "entries of configs not run")
    args = ap.parse_args(argv)
    names = args.config or FAST
    with tempfile.TemporaryDirectory() as tmp:
        results = {name: run(name, Path(tmp) / name) for name in names}
        figures = {name: stage_figures(Path(tmp) / name) for name in names}
    if args.write:
        golden = load_golden() if GOLDEN.exists() else {"seed": SEED,
                                                        "configs": {}}
        golden["configs"].update(results)
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True)
                          + "\n")
        for name in names:
            print(f"{name}: stages {figures[name]}")
        print(f"wrote {len(results)} entries to {GOLDEN}")
        return 0
    golden = load_golden()
    failed = False
    for name, got in results.items():
        want = golden["configs"].get(name)
        if want is None:
            print(f"{name}: no golden entry")
            failed = True
            continue
        problems = metric_problems(got["metrics"], want["metrics"])
        skip = hash_skip_reason(want)
        if skip:
            print(f"{name}: {skip}")
        else:
            problems += hash_problems(got["artifacts"], want["artifacts"])
        for problem in problems:
            print(f"{name}: {problem}")
        print(f"{name}: {'FAIL' if problems else 'ok'} {got['metrics']}")
        print(f"{name}: stages {figures[name]}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
