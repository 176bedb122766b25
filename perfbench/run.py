"""velofilt benchmark: one workload, end to end or traced per layer.

    python3 perfbench/run.py --workload orbit-bank --seed 1 --trace 0

Runs from the root of a velofilt checkout. Each pass of a workload runs the
program's own CLI (`python -m velofilt.cli`, PYTHONPATH=src) in fresh
processes on a config made from perfbench/workloads/<name>.json and the
seed, pinned to one thread. Every pass is checked (see checks.py). The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
of a traced pass (see tracer.py). The full record of the run, with the
environment, goes to .perfbench_work/results/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

STAGES = tracer.STAGES

# name -> command sequence of one pass. See README.md for why each exists.
WORKLOADS = {
    "orbit-bank": (("pipeline",),),
    "axial-pre": (("pipeline",),),
    "cross-staged": tuple((s,) for s in STAGES),
}

SETUP_PROBES = 3     # fresh interpreters timed per end-to-end run
MIN_PASSES = 2       # the second pass is also the same-seed hash check
TRACED_PASSES = 2    # counts must repeat exactly between the two
HARD_LIMIT_S = 160   # no new child starts after this; a late one is killed

END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "disk_mb": "MB",
    "iou": "1", "fve_mm_s": "mm/s", "le": "1", "ok_rate": "1",
}


def per_layer_units() -> dict[str, str]:
    units = {f"cli.{s}_s": "s" for s in STAGES}
    units["cli.glue_s"] = "s"
    units.update({name: "s" for name in tracer.DURATION_METRICS})
    units["localize.run_pipeline_self_s"] = "s"
    units.update({name: "count" for name in tracer.COUNT_METRICS})
    units["vfilter.spectrum_bytes"] = "B"
    units["core.bytes_written"] = "B"
    units["core.bytes_read"] = "B"
    units["localize.merge_keep_ratio"] = "1"
    units["trace.overhead_s"] = "s"
    return units


# ---------------------------------------------------------------------------
# Child processes.

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VELOFILT_THREADS"):
        env[var] = "1"
    return env


def run_child(argv: list[str], log: Path, deadline: float) -> dict:
    """Run one child to completion; returns exit code, wall and max RSS.

    The child is killed at the deadline. Waiting uses waitid(WNOWAIT) first
    so the kill timer can never signal a reaped (and reusable) pid.
    """
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        return {"rc": None, "wall_s": 0.0, "maxrss_kb": 0,
                "error": "deadline reached before start"}
    lock = threading.Lock()
    state = {"done": False, "killed": False}
    with open(log, "ab") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=fh,
                                stderr=subprocess.STDOUT)

        def kill() -> None:
            with lock:
                if not state["done"]:
                    state["killed"] = True
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(remaining, kill)
        timer.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - t0
            with lock:
                state["done"] = True
        finally:
            timer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = {"rc": proc.returncode, "wall_s": wall, "maxrss_kb": usage.ru_maxrss}
    if state["killed"]:
        out["error"] = "killed at the run's time limit"
    return out


def log_tail(log: Path, n: int = 400) -> str:
    try:
        return log.read_text(errors="replace")[-n:]
    except OSError:
        return ""


# ---------------------------------------------------------------------------
# One workload pass.

class Bench:
    def __init__(self, workload: str, seed: int, work: Path,
                 deadline: float) -> None:
        self.workload = workload
        self.commands = WORKLOADS[workload]
        self.work = work
        self.deadline = deadline
        cfg = json.loads((HERE / "workloads" / f"{workload}.json").read_text())
        cfg["seed"] = seed
        self.prefix = cfg.get("outputs", {}).get("prefix", "run")
        self.config = work / "config.json"
        self.config.write_text(json.dumps(cfg, indent=2) + "\n")
        self.first_hashes: dict | None = None

    def setup_probe(self, k: int) -> dict:
        """Fresh interpreter: import the CLI and validate the config."""
        code = ("import sys, velofilt.cli as c; "
                "c.load_config(sys.argv[1])")
        log = self.work / f"setup{k}.log"
        res = run_child([sys.executable, "-c", code, str(self.config)],
                        log, self.deadline)
        problems = [] if res["rc"] == 0 else [
            f"set-up probe failed ({res.get('error', res['rc'])}): "
            f"{log_tail(log)}"]
        return {"kind": "setup", "wall_s": res["wall_s"],
                "problems": problems}

    def run_pass(self, k: int, traced: bool) -> dict:
        """One pass of the workload's commands into a fresh directory."""
        out = self.work / f"pass{k}"
        shutil.rmtree(out, ignore_errors=True)
        log = self.work / f"pass{k}.log"
        problems: list[str] = []
        span_files: list[Path] = []
        maxrss = 0
        t0 = time.perf_counter()
        for cmd in self.commands:
            args = [*cmd, "--config", str(self.config), "--out", str(out),
                    "--threads", "1"]
            if traced:
                spans = self.work / f"pass{k}-{cmd[0]}.spans.jsonl"
                span_files.append(spans)
                argv = [sys.executable, str(HERE / "tracer.py"),
                        "--spans", str(spans),
                        "--run-id", f"{self.workload}-pass{k}", "--", *args]
            else:
                argv = [sys.executable, "-m", "velofilt.cli", *args]
            res = run_child(argv, log, self.deadline)
            maxrss = max(maxrss, res["maxrss_kb"])
            if res["rc"] != 0:
                problems.append(f"`{' '.join(cmd)}` exited "
                                f"{res.get('error', res['rc'])}: "
                                f"{log_tail(log)}")
                break
        wall = time.perf_counter() - t0
        rec = {"kind": "traced" if traced else "pass", "wall_s": wall,
               "peak_rss_mb": maxrss * 1024 / 1e6, "problems": problems}
        if not problems:
            found, quality, hashes = checks.check_outputs(out, self.prefix)
            problems += found
            rec["quality"] = quality
            rec["disk_mb"] = checks.disk_bytes(out) / 1e6
            if self.first_hashes is None:
                self.first_hashes = hashes
            else:
                diff = checks.hash_differences(self.first_hashes, hashes)
                if diff:
                    problems.append("same seed, different artifacts: "
                                    + ", ".join(diff[:5]))
            if traced:
                rec.update(self._read_trace(out, span_files, problems))
        shutil.rmtree(out, ignore_errors=True)
        return rec

    def _read_trace(self, out: Path, span_files: list[Path],
                    problems: list[str]) -> dict:
        try:
            traces = [tracer.read_trace(p) for p in span_files]
            manifest = json.loads((out / "manifest.json").read_text())
        except (OSError, ValueError) as exc:
            problems.append(f"trace unreadable: {exc}")
            return {}
        layers = tracer.layer_metrics(traces)
        # Stage walls come from the stage spans, at full precision; they must
        # agree with the walls the program wrote (rounded to 1 ms there).
        stage_walls = {s: float(v["wall_s"])
                       for s, v in manifest.get("stages", {}).items()}
        span_walls = tracer.stage_span_walls(traces)
        for stage in STAGES:
            wall = span_walls.get(stage, stage_walls.get(stage, 0.0))
            layers[f"cli.{stage}_s"] = wall
            if abs(wall - stage_walls.get(stage, 0.0)) > 0.05 + 0.02 * wall:
                problems.append(f"stage {stage}: span {wall:.3f} s vs "
                                f"manifest {stage_walls.get(stage)} s")
        return {"layers": layers}


# ---------------------------------------------------------------------------
# The two kinds of run.

def end_to_end(bench: Bench, seconds: float) -> tuple[list[dict], dict]:
    start = time.monotonic()
    attempts = [bench.setup_probe(k) for k in range(SETUP_PROBES)]
    passes: list[dict] = []
    while True:
        passes.append(bench.run_pass(len(passes), traced=False))
        next_wall = checks.median([p["wall_s"] for p in passes])
        now = time.monotonic()
        if len(passes) >= MIN_PASSES and now + next_wall > start + seconds:
            break
        if now + 1.5 * next_wall > bench.deadline:
            break
    attempts += passes
    good = [p for p in passes if "quality" in p]
    quality = good[0]["quality"] if good else {}
    metrics = {
        "wall_s": checks.median([p["wall_s"] for p in passes]),
        "setup_s": checks.median([a["wall_s"] for a in attempts
                                  if a["kind"] == "setup"]),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "disk_mb": checks.median([p["disk_mb"] for p in good]),
        **{k: quality.get(k, float("nan")) for k in checks.QUALITY_KEYS},
        "ok_rate": checks.summarize(attempts)["ok_rate"],
    }
    return attempts, {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                      for k, v in metrics.items()}


def traced(bench: Bench) -> tuple[list[dict], dict]:
    # one interpreter start (not reported) first, so the untraced pass does
    # not pay for cold file caches
    warm = bench.setup_probe(0)
    plain = [bench.run_pass(0, traced=False)]
    runs = [bench.run_pass(1 + k, traced=True)
            for k in range(TRACED_PASSES)]
    with_layers = [r for r in runs if "layers" in r]
    layers: dict[str, float] = {}
    if with_layers:
        first = with_layers[0]["layers"]
        for name in first:
            vals = [r["layers"][name] for r in with_layers]
            layers[name] = (first[name] if name in tracer.COUNT_METRICS
                            else checks.median(vals))
        for r in with_layers[1:]:
            moved = [n for n in tracer.COUNT_METRICS
                     if r["layers"][n] != first[n]]
            if moved:
                r["problems"].append("counts differ between traced passes: "
                                     + ", ".join(moved))
    layers["trace.overhead_s"] = (
        checks.median([r["wall_s"] for r in runs])
        - checks.median([p["wall_s"] for p in plain]))
    units = per_layer_units()
    return [warm, *plain, *runs], {k: {"value": layers.get(k, float("nan")),
                              "unit": u} for k, u in units.items()}


# ---------------------------------------------------------------------------
# Environment record.

def environment() -> dict:
    def version(pkg: str) -> str | None:
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    digest = hashlib.sha256()
    for path in sorted((SRC / "velofilt").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "git_commit": git_commit(), "source_sha256": digest.hexdigest(),
            "threads": 1, "platform": platform.platform()}


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (SRC / "velofilt" / "cli.py").is_file():
        print(f"perfbench: no velofilt source at {SRC / 'velofilt'}; run from "
              "the root of a velofilt checkout", file=sys.stderr)
        return 2

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(args.workload, args.seed, work,
                  time.monotonic() + HARD_LIMIT_S)
    if args.trace:
        attempts, metrics = traced(bench)
    else:
        attempts, metrics = end_to_end(bench, args.seconds)
    for m in metrics.values():
        if not math.isfinite(m["value"]):
            m["value"] = None      # only after a failure; keeps the JSON valid
    summary = checks.summarize(attempts)
    result = {"correct": summary["failed"] == 0,
              "attempted": summary["attempted"], "failed": summary["failed"],
              "metrics": metrics}

    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(), "attempts": attempts, **result}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(record, indent=2) + "\n")
    for a in attempts:
        for problem in a["problems"]:
            print(f"FAILED {a['kind']}: {problem}", file=sys.stderr)
    for key, m in metrics.items():
        print(f"{key:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
