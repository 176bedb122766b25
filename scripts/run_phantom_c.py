#!/usr/bin/env python3
"""Crossing-vessel study: IoU against acquisition time, with and without
velocity filtering, at two bubble concentrations.

Runs a crossing_vessels config, by default scripts/configs/crossing.json,
twice: once with both vessels at its high concentration and once with
both at its low one, 6x lower (the sweep sets c_mb_high_per_mm3 =
c_mb_low_per_mm3). Each run is localized through the config's bank and,
as the raw baseline, with the same detector on the unfiltered frames.

Writes runs/phantom_c_iou_vs_time.csv with one row per checkpoint:
t_s, iou_vf_high, iou_raw_high, iou_vf_low, iou_raw_low.
"""

import argparse
import time
from pathlib import Path

from velofilt.cli import localize, score, study_runs, synthesize, write_csv
from velofilt.localize import localize_frames

CONFIG = Path(__file__).resolve().parent / "configs" / "crossing.json"


def concentrations(args, cfg):
    """One run per concentration, set for both vessels."""
    ph = cfg["phantom"]
    for c_mb in args.c_mb or (ph["c_mb_high_per_mm3"],
                              ph["c_mb_low_per_mm3"]):
        yield f"--c-mb {c_mb}", {"phantom": {"c_mb_high_per_mm3": c_mb,
                                             "c_mb_low_per_mm3": c_mb}}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--c-mb", type=float, nargs=2, metavar=("HIGH", "LOW"),
                    help="the two concentrations (per mm^3) to run; default "
                         "the config's high and low ones")
    args, runs = study_runs(ap, CONFIG, "runs/phantom_c_iou_vs_time.csv",
                            concentrations)

    columns = []
    for r in runs:
        checkpoints = [int(k * r.nt) for k in (0.25, 0.5, 0.75, 1.0)]
        frames, truth = synthesize(r, r.seed)
        t0 = time.time()
        for locs in (localize(r, frames),
                     localize_frames(frames, r.psf, cfg=r.detector)):
            columns.append([
                score(r, locs[locs["t"] < nt], truth[truth["t"] < nt])["iou"]
                for nt in checkpoints])
        print(f"c_mb={r.flow[0].c_mb:.1f}: vf={columns[-2][-1]:.3f} "
              f"raw={columns[-1][-1]:.3f} [{time.time() - t0:.0f}s]")

    out = write_csv(
        Path(args.out),
        ["t_s", "iou_vf_high", "iou_raw_high", "iou_vf_low", "iou_raw_low"],
        [[f"{nt * r.dt:.3g}"] + [f"{col[i]:.4f}" for col in columns]
         for i, nt in enumerate(checkpoints)])
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
