"""Tests of the benchmark itself: span arithmetic, output checks, tracing.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracer  # noqa: E402


def span(sid, name, start, end, parent=None):
    return {"id": sid, "name": name, "run": "r", "parent": parent,
            "start": start, "end": end}


def test_self_time_subtracts_union_of_direct_children():
    spans = [
        span(0, "root", 0.0, 10.0),
        span(1, "a", 1.0, 3.0, parent=0),
        span(2, "b", 2.0, 5.0, parent=0),    # overlaps a: counted once
        span(3, "c", 8.0, 12.0, parent=0),   # clipped to the parent's end
        span(4, "grand", 1.5, 2.5, parent=1),
    ]
    own = tracer.self_times(spans)
    assert own[0] == pytest.approx(10.0 - (4.0 + 2.0))
    assert own[1] == pytest.approx(2.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)


def test_layer_metrics_glue_self_time_and_counts():
    spans = [
        span(0, "cli.stage.localize", 0.0, 10.0),
        span(1, "localize.run_pipeline", 1.0, 9.0, parent=0),
        span(2, "vfilter.apply_filter_fft", 1.0, 4.0, parent=1),
        span(3, "localize.detect", 5.0, 6.0, parent=1),
        span(4, "localize.detect", 6.0, 6.5, parent=1),
    ]
    counts = {"localize.detections": 8, "localize.n_localizations": 6,
              "vfilter.bank_passes": 1}
    m = tracer.layer_metrics([(spans, counts), (spans, counts)])
    assert m["cli.glue_s"] == pytest.approx(2 * 2.0)
    assert m["localize.run_pipeline_self_s"] == pytest.approx(2 * 3.5)
    assert m["vfilter.apply_filter_fft_s"] == pytest.approx(2 * 3.0)
    assert m["localize.detect_s"] == pytest.approx(2 * 1.5)
    assert m["vfilter.bank_passes"] == 2
    assert m["localize.merge_keep_ratio"] == pytest.approx(6 / 8)
    assert tracer.stage_span_walls([(spans, counts)]) == {"localize": 10.0}


def make_run(out: Path, n_locs: int = 3) -> None:
    """A minimal finished run directory that passes every check."""
    out.mkdir(parents=True)
    rows = ["t_index,x_mm,z_mm,score,vf_x_mm_s,vf_z_mm_s"]
    rows += [f"{i},0.1,0.2,0.5,1,0" for i in range(n_locs)]
    (out / "p_locs.csv").write_text("\n".join(rows) + "\n")
    (out / "p_frames.f32").write_bytes(bytes(range(64)))
    (out / "p_metrics.json").write_text(json.dumps(
        {"iou": 0.5, "fve_mm_s": 0.8, "le": 2.5, "n_localizations": n_locs}))
    arts = ["p_locs.csv", "p_frames.f32", "p_metrics.json"]
    (out / "manifest.json").write_text(json.dumps(
        {"artifacts": {a: checks.sha256_file(out / a) for a in arts}}))


def test_clean_run_passes(tmp_path):
    make_run(tmp_path / "run")
    problems, quality, hashes = checks.check_outputs(tmp_path / "run", "p")
    assert problems == []
    assert quality == {"iou": 0.5, "fve_mm_s": 0.8, "le": 2.5,
                       "n_localizations": 3}
    assert len(hashes) == 3


def test_truncated_locs_csv_is_a_failure(tmp_path):
    out = tmp_path / "run"
    make_run(out)
    lines = (out / "p_locs.csv").read_text().splitlines()
    (out / "p_locs.csv").write_text("\n".join(lines[:-1]) + "\n")
    problems, _, _ = checks.check_outputs(out, "p")
    assert any("locs CSV has 2 rows" in p for p in problems)
    assert any("hash mismatch: p_locs.csv" in p for p in problems)


def test_stale_manifest_hash_is_a_failure(tmp_path):
    out = tmp_path / "run"
    make_run(out)
    (out / "p_frames.f32").write_bytes(bytes(64))
    problems, _, _ = checks.check_outputs(out, "p")
    assert problems == ["artifact hash mismatch: p_frames.f32"]


@pytest.mark.parametrize("report", [
    {"iou": float("nan"), "fve_mm_s": 0.8, "le": 2.5, "n_localizations": 3},
    {"iou": 0.5, "fve_mm_s": 0.8, "le": 2.5, "n_localizations": 0},
    {"iou": 0.5, "le": 2.5, "n_localizations": 3},
])
def test_bad_metrics_report_is_a_failure(tmp_path, report):
    out = tmp_path / "run"
    make_run(out)
    (out / "p_metrics.json").write_text(json.dumps(report))
    problems, _, _ = checks.check_outputs(out, "p")
    assert problems


def test_failed_attempt_is_counted_and_kept_in_medians():
    attempts = [{"kind": "pass", "wall_s": 5.0, "problems": []},
                {"kind": "pass", "wall_s": 9.0,
                 "problems": ["artifact hash mismatch: p_locs.csv"]},
                {"kind": "pass", "wall_s": 6.0, "problems": []}]
    assert checks.summarize(attempts) == {"attempted": 3, "failed": 1,
                                          "ok_rate": pytest.approx(2 / 3)}
    assert checks.median([a["wall_s"] for a in attempts]) == 6.0


def test_hash_differences_names_changed_and_missing_artifacts():
    diff = checks.hash_differences({"a": "1", "b": "2"},
                                   {"a": "1", "b": "3", "c": "4"})
    assert diff == ["b", "c"]


TINY = {
    "seed": 3,
    "psf": {"sigma_r_mm": 0.3, "wavelength_mm": 0.3},
    "grid": {"nx": 32, "nz": 32, "dx_mm": 0.1, "dz_mm": 0.1},
    "phantom": {"kind": "single_vessel", "radius_mm": 0.3, "v0_mm_s": 1.0,
                "c_mb_per_mm3": 40.0, "angle_deg": 0.0},
    "motion": {"nt": 12, "dt_s": 0.05},
    "filter_bank": {"sigma_t_s": 0.1, "speeds_mm_s": "auto",
                    "v_max_mm_s": 1.0, "angles_deg": [0.0]},
    "detector": {"mode": "post"},
    "outputs": {"prefix": "tiny"},
}


def test_traced_pipeline_wraps_every_target_and_counts_exactly(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TINY))
    counts = []
    for k in range(2):
        spans_path = tmp_path / f"spans{k}.jsonl"
        proc = subprocess.run(
            [sys.executable, str(BENCH / "tracer.py"), "--spans",
             str(spans_path), "--run-id", f"t{k}", "--", "pipeline",
             "--config", str(cfg), "--out", str(tmp_path / f"out{k}")],
            cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        info = json.loads(spans_path.read_text().splitlines()[-1])
        assert info["missing"] == []
        trace = tracer.read_trace(spans_path)
        m = tracer.layer_metrics([trace])
        counts.append({n: m[n] for n in tracer.COUNT_METRICS})
        assert m["vfilter.bank_passes"] == 2       # filter and localize
        assert m["phantom.frames"] == 12
        assert m["metrics.le_frames"] > 0
        assert m["localize.n_localizations"] > 0
        manifest = json.loads((tmp_path / f"out{k}" / "manifest.json")
                              .read_text())
        for stage, wall in tracer.stage_span_walls([trace]).items():
            assert wall == pytest.approx(manifest["stages"][stage]["wall_s"],
                                         abs=0.01)
    assert counts[0] == counts[1]


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "orbit-bank",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
