#!/usr/bin/env python3
"""Parallel counter-flow vessels: resolution vs gap, with and without VF.

Runs a parallel_vessels config, by default
scripts/configs/parallel_gap.json, once per center-to-center gap (the
sweep sets phantom.gap_mm). Two thin vessels carry opposite lateral flows.
Opposite directions separate the populations in velocity space, so the
bank sees one stream per member while the raw chain blends both envelopes
in the gap (worst when the gap is a carrier-wavelength multiple, where the
pre-envelope signals add in phase). Two design constraints matter: bubbles
must stay in view for the full filter window (v0 * 4 sigma_t within the
grid width) and the line density must stay sparse, since a dense
compensated counter-stream piles into a quasi-static stripe no velocity
filter can reject.

Reports IoU and the flow-aligned localization error over every frame, as
the metrics stage scores them, per chain: the config's bank, and as the
raw baseline the same detector on the unfiltered frames. The LE column
penalizes count mismatch, so the multi-member bank pays for duplicate
detections that the lambda/4 cross-member merge keeps; read IoU for
support recovery and LE for per-point cleanliness.

Writes runs/parallel_gap_sweep.csv:
gap_mm, iou_vf, iou_raw, le_vf, le_raw.
"""

import argparse
import time
from pathlib import Path

from velofilt.cli import localize, score, study_runs, synthesize, write_csv
from velofilt.localize import localize_frames

CONFIG = Path(__file__).resolve().parent / "configs" / "parallel_gap.json"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--gaps", type=float, nargs="+",
                    default=[0.2, 0.3, 0.4, 0.6, 0.8],
                    help="center-to-center gaps (mm) to run")
    args, runs = study_runs(
        ap, CONFIG, "runs/parallel_gap_sweep.csv",
        lambda args, cfg: [(f"--gaps {gap}", {"phantom": {"gap_mm": gap}})
                           for gap in args.gaps])

    rows = []
    for gap, r in zip(args.gaps, runs):
        t0 = time.time()
        frames, truth = synthesize(r, r.seed)
        vf = score(r, localize(r, frames), truth)
        raw = score(r, localize_frames(frames, r.psf, cfg=r.detector),
                    truth)
        rows.append([f"{gap:.2f}"] + [f"{m[key]:.4f}" for key in ("iou", "le")
                                      for m in (vf, raw)])
        print(f"gap={gap:.2f}: iou vf={vf['iou']:.3f} raw={raw['iou']:.3f}  "
              f"le vf={vf['le']:.3f} raw={raw['le']:.3f} "
              f"[{time.time() - t0:.0f}s]")
    out = write_csv(Path(args.out),
                    ["gap_mm", "iou_vf", "iou_raw", "le_vf", "le_raw"], rows)
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
