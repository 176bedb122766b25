"""Outside-in tracing of velofilt: timing wrappers around its public calls.

The wrappers are installed on the module attribute each caller looks up
(`velofilt.cli.run_pipeline`, `velofilt.localize.detect`, ...), so the
program itself is not modified. A span records name, start, end, parent and
run id; spans and counters stay in memory and are written as JSON lines when
the traced command ends.

Run as a script, this file is the traced child process of the benchmark:

    PYTHONPATH=src python3 perfbench/tracer.py --spans S.jsonl --run-id R \
        -- pipeline --config cfg.json --out out/ --threads 1

It installs the wrappers, calls `velofilt.cli.main` with the arguments after
`--` in the same process, writes the spans and exits with main's code.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import math
import os
import sys
import time
from collections import Counter
from pathlib import Path


class Tracer:
    """Spans and counters of one traced process, kept in memory."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name: str | None, fn, count=None):
        """Wrap fn in a span called name; count(bound_args, result) adds to
        the counters. With name None the wrapper only counts, so it hides no
        time from its caller's self time."""
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                rec = {"id": len(self.spans), "name": name,
                       "run": self.run_id,
                       "parent": self._stack[-1] if self._stack else None}
                self.spans.append(rec)
                self._stack.append(rec["id"])
                rec["start"] = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec["end"] = time.perf_counter()
                    self._stack.pop()
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counts.update(count(bound.arguments, result))
            return result
        return wrapper

    def dump(self, path: Path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
            fh.write(json.dumps({"run": self.run_id,
                                 "counts": dict(self.counts),
                                 "missing": self.missing}) + "\n")


def _file_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


# ---------------------------------------------------------------------------
# What is wrapped. Each entry: (module, attribute, span name or None for a
# counter-only wrapper, count function or None). A function is wrapped at
# each module that looks it up, so every caller's calls are seen once.

def _count_synth(a, res):
    return {"phantom.frames": int(a["nt"]),
            "phantom.bubbles": len(a["bubbles"])}


def _count_fft(a, res):
    # Computed, not measured: the padded stack shape the 3D FFT runs on,
    # from the ceil(4 sigma_t / dt) zero pad per side of the "pad" boundary.
    frames, spec = a["frames"], a["spec"]
    pad = (math.ceil(4.0 * spec.sigma_t / frames.dt)
           if a.get("boundary", "pad") == "pad" else 0)
    vox = (frames.nt + 2 * pad) * frames.grid.nz * frames.grid.nx
    return {"vfilter.apply_filter_fft_calls": 1, "vfilter.fft_voxels": vox,
            "vfilter.spectrum_bytes": 16 * vox}


def _count_le(a, res):
    grid = a["grid"]
    return {"metrics.le_frames": 1, "metrics.le_raster_px": grid.nx * grid.nz}


def _count_pipeline(a, res):
    return {"localize.n_localizations": sum(len(f) for f in res.per_frame)}


def _count_save(a, res):
    return {"core.bytes_written": _file_bytes(*res)}


def _count_load(a, res):
    base = Path(a["base"])
    return {"core.bytes_read": _file_bytes(base.with_suffix(".json"),
                                           base.with_suffix(".f32"))}


STAGES = ("synth", "filter", "localize", "accumulate", "metrics")

TARGETS = [
    *[("velofilt.cli", f"_stage_{s}", f"cli.stage.{s}", None)
      for s in STAGES],
    ("velofilt.cli", "_sha256_file", "cli.sha256", None),
    ("velofilt.cli", "sample_bubbles", "phantom.sample_bubbles", None),
    ("velofilt.cli", "sample_circular_bubbles", "phantom.sample_bubbles",
     None),
    ("velofilt.cli", "synthesize_frames", "phantom.synthesize_frames",
     _count_synth),
    ("velofilt.localize", "render_psf", "psf.render_psf", None),
    ("velofilt.vfilter", "apply_filter_fft", "vfilter.apply_filter_fft",
     _count_fft),
    ("velofilt.vfilter", "run_filter_bank", None,
     lambda a, r: {"vfilter.bank_passes": 1}),
    ("velofilt.localize", "run_filter_bank", None,
     lambda a, r: {"vfilter.bank_passes": 1}),
    ("velofilt.localize", "matched_filter_map", "localize.matched_filter_map",
     lambda a, r: {"localize.matched_filter_map_calls": 1}),
    ("velofilt.localize", "detect", "localize.detect",
     lambda a, r: {"localize.detections": len(r)}),
    ("velofilt.cli", "run_pipeline", "localize.run_pipeline",
     _count_pipeline),
    ("velofilt.localize", "accumulate", "localize.accumulate", None),
    ("velofilt.cli", "accumulate", "localize.accumulate", None),
    ("velofilt.localize", "velocity_map_from_locs", "localize.velocity_map",
     None),
    ("velofilt.cli", "velocity_map_from_locs", "localize.velocity_map", None),
    ("velofilt.cli", "localization_error_frames", "metrics.le", None),
    ("velofilt.metrics", "localization_error", None, _count_le),
    ("velofilt.cli", "iou", "metrics.iou_fve", None),
    ("velofilt.cli", "fve", "metrics.iou_fve", None),
    ("velofilt.cli", "save_frame_stack", "core.save_frame_stack",
     _count_save),
    ("velofilt.vfilter", "save_frame_stack", "core.save_frame_stack",
     _count_save),
    ("velofilt.cli", "load_frame_stack", "core.load_frame_stack", _count_load),
    ("velofilt.cli", "velocity_bandwidth", None,
     lambda a, r: {"theory.velocity_bandwidth_calls": 1}),
]


def install(tracer: Tracer) -> None:
    """Replace each target attribute with its wrapper; a target the program
    no longer has is listed in tracer.missing and left out."""
    for mod_name, attr, name, count in TARGETS:
        mod = importlib.import_module(mod_name)
        fn = getattr(mod, attr, None)
        if fn is None:
            tracer.missing.append(f"{mod_name}.{attr}")
        else:
            setattr(mod, attr, tracer.wrap(name, fn, count))


# ---------------------------------------------------------------------------
# Span arithmetic.

def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval that its direct
    children cover (overlapping children are counted once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        covered, reach = 0.0, lo
        for a, b in sorted(children.get(s["id"], [])):
            a, b = max(a, reach), min(b, hi)
            if b > a:
                covered += b - a
                reach = b
        out[s["id"]] = (hi - lo) - covered
    return out


def read_trace(path: Path) -> tuple[list[dict], dict]:
    """Spans and the counts record of one traced process."""
    spans, counts = [], {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if "counts" in rec:
                counts = rec["counts"]
            else:
                spans.append(rec)
    return spans, counts


# Time metrics: per-layer name -> span name whose total duration it sums.
DURATION_METRICS = {
    "cli.hash_s": "cli.sha256",
    "phantom.sample_bubbles_s": "phantom.sample_bubbles",
    "phantom.synthesize_frames_s": "phantom.synthesize_frames",
    "psf.render_psf_s": "psf.render_psf",
    "vfilter.apply_filter_fft_s": "vfilter.apply_filter_fft",
    "localize.matched_filter_map_s": "localize.matched_filter_map",
    "localize.detect_s": "localize.detect",
    "localize.accumulate_s": "localize.accumulate",
    "localize.velocity_map_s": "localize.velocity_map",
    "metrics.le_s": "metrics.le",
    "metrics.iou_fve_s": "metrics.iou_fve",
    "core.save_frame_stack_s": "core.save_frame_stack",
    "core.load_frame_stack_s": "core.load_frame_stack",
}

# Exact counts; a traced run of the same seed must repeat each of them.
COUNT_METRICS = (
    "phantom.frames", "phantom.bubbles",
    "vfilter.apply_filter_fft_calls", "vfilter.bank_passes",
    "vfilter.fft_voxels", "vfilter.spectrum_bytes",
    "localize.matched_filter_map_calls", "localize.detections",
    "localize.n_localizations",
    "metrics.le_frames", "metrics.le_raster_px",
    "core.bytes_written", "core.bytes_read",
    "theory.velocity_bandwidth_calls",
)


def layer_metrics(traces: list[tuple[list[dict], dict]]) -> dict[str, float]:
    """Per-layer times and counts summed over the traced processes of one
    workload run (one process for `pipeline`, one per staged command)."""
    out = {name: 0.0 for name in DURATION_METRICS}
    out.update({name: 0 for name in COUNT_METRICS})
    out["cli.glue_s"] = 0.0
    out["localize.run_pipeline_self_s"] = 0.0
    by_span = {v: k for k, v in DURATION_METRICS.items()}
    for spans, counts in traces:
        own = self_times(spans)
        for s in spans:
            dur = s["end"] - s["start"]
            if s["name"] in by_span:
                out[by_span[s["name"]]] += dur
            if s["name"].startswith("cli.stage."):
                out["cli.glue_s"] += own[s["id"]]
            elif s["name"] == "localize.run_pipeline":
                out["localize.run_pipeline_self_s"] += own[s["id"]]
        for name in COUNT_METRICS:
            out[name] += int(counts.get(name, 0))
    dets = out["localize.detections"]
    out["localize.merge_keep_ratio"] = (
        out["localize.n_localizations"] / dets if dets else 0.0)
    return out


def stage_span_walls(traces: list[tuple[list[dict], dict]]
                     ) -> dict[str, float]:
    """Stage name -> wall of its cli.stage.* span, to set against the stage
    wall the program writes into manifest.json."""
    out: dict[str, float] = {}
    for spans, _ in traces:
        for s in spans:
            if s["name"].startswith("cli.stage."):
                stage = s["name"][len("cli.stage."):]
                out[stage] = out.get(stage, 0.0) + s["end"] - s["start"]
    return out


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--" not in argv:
        print("usage: tracer.py --spans PATH --run-id ID -- <velofilt args>",
              file=sys.stderr)
        return 2
    cut = argv.index("--")
    ap = argparse.ArgumentParser(prog="tracer.py")
    ap.add_argument("--spans", required=True, type=Path)
    ap.add_argument("--run-id", required=True)
    opts = ap.parse_args(argv[:cut])
    cli = importlib.import_module("velofilt.cli")
    tracer = Tracer(opts.run_id)
    install(tracer)
    try:
        return cli.main(argv[cut + 1:])
    finally:
        tracer.dump(opts.spans)


if __name__ == "__main__":
    sys.exit(main())
