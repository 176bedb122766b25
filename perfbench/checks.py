"""Output checks for one workload run, and the summary over a run's attempts.

Every attempt (a set-up probe or one pass of the workload's commands) is
counted; an attempt with any problem is a failure. A failed attempt keeps
its wall time in the medians, so a broken run cannot vanish from the
figures, and it makes the benchmark's `correct` false.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import statistics
from pathlib import Path

QUALITY_KEYS = ("iou", "fve_mm_s", "le")


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def check_outputs(out: Path, prefix: str) -> tuple[list[str], dict, dict]:
    """Check a finished run directory.

    Returns (problems, quality, artifact hashes). Quality holds iou,
    fve_mm_s, le and n_localizations from the metrics JSON when readable.
    """
    problems: list[str] = []
    quality: dict = {}
    metrics_path = out / f"{prefix}_metrics.json"
    try:
        report = json.loads(metrics_path.read_text())
    except (OSError, ValueError) as exc:
        return [f"metrics JSON unreadable: {exc}"], quality, {}
    for key in QUALITY_KEYS:
        val = report.get(key)
        if not isinstance(val, (int, float)) or not math.isfinite(val):
            problems.append(f"metrics {key} is not a finite number: {val!r}")
        else:
            quality[key] = float(val)
    n_locs = report.get("n_localizations")
    if not isinstance(n_locs, int) or n_locs <= 0:
        problems.append(f"n_localizations is not positive: {n_locs!r}")
    else:
        quality["n_localizations"] = n_locs
        try:
            with open(out / f"{prefix}_locs.csv", newline="") as fh:
                rows = sum(1 for _ in csv.reader(fh)) - 1
        except OSError as exc:
            problems.append(f"locs CSV unreadable: {exc}")
        else:
            if rows != n_locs:
                problems.append(f"locs CSV has {rows} rows, metrics report "
                                f"{n_locs} localizations")
    try:
        manifest = json.loads((out / "manifest.json").read_text())
        hashes = dict(manifest["artifacts"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return problems + [f"manifest unreadable: {exc}"], quality, {}
    if not hashes:
        problems.append("manifest lists no artifacts")
    for rel, digest in sorted(hashes.items()):
        path = out / rel
        if not path.is_file():
            problems.append(f"artifact missing: {rel}")
        elif sha256_file(path) != digest:
            problems.append(f"artifact hash mismatch: {rel}")
    return problems, quality, hashes


def hash_differences(first: dict, other: dict) -> list[str]:
    """Artifacts whose hash differs between two runs of the same seed."""
    names = sorted(set(first) | set(other))
    return [n for n in names if first.get(n) != other.get(n)]


def disk_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def summarize(attempts: list[dict]) -> dict:
    """attempted / failed counts and the ok share over all attempts.

    Each attempt is a dict with a `problems` list; failed ones stay in the
    list (and in any median taken from it) and are counted here.
    """
    attempted = len(attempts)
    failed = sum(1 for a in attempts if a["problems"])
    return {"attempted": attempted, "failed": failed,
            "ok_rate": (attempted - failed) / attempted if attempted else 0.0}


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else math.nan
