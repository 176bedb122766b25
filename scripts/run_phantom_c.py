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
import csv
import time
from pathlib import Path

from velofilt.cli import (ConfigError, check_config, load_config, localize,
                          resolve, seed_arg, synthesize)
from velofilt.localize import accumulate, segment_support
from velofilt.metrics import iou
from velofilt.phantom import truth_maps

CONFIG = Path(__file__).resolve().parent / "configs" / "crossing.json"


def iou_curve(locs, truth, grid, checkpoints):
    vals = []
    for nt in checkpoints:
        acc = accumulate(locs[locs["t"] < nt], grid)
        vals.append(iou(segment_support(acc), truth))
    return vals


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=str(CONFIG))
    ap.add_argument("--seed", type=seed_arg, help="override the config's seed")
    ap.add_argument("--nt", type=int, help="override the config's frames")
    ap.add_argument("--c-mb", type=float, nargs=2, metavar=("HIGH", "LOW"),
                    help="the two concentrations (per mm^3) to run; default "
                         "the config's high and low ones")
    ap.add_argument("--out", default="runs/phantom_c_iou_vs_time.csv")
    args = ap.parse_args()

    cfg = load_config(args.config)
    if args.nt is not None:
        cfg["motion"]["nt"] = args.nt
    ph = cfg["phantom"]
    concentrations = args.c_mb or (ph["c_mb_high_per_mm3"],
                                   ph["c_mb_low_per_mm3"])

    # both concentrations are checked before the first one runs
    resolved = []
    for c_mb in concentrations:
        ph["c_mb_high_per_mm3"] = ph["c_mb_low_per_mm3"] = c_mb
        try:
            check_config(cfg)
            resolved.append(resolve(cfg))
        except ConfigError as exc:
            ap.error(f"--c-mb {c_mb}: {exc}")

    curves = {}
    for label, c_mb, r in zip(("high", "low"), concentrations, resolved):
        checkpoints = [int(k * r.nt) for k in (0.25, 0.5, 0.75, 1.0)]
        frames, _ = synthesize(
            r, r.seed if args.seed is None else args.seed)
        truth = truth_maps(r.flow, r.grid)[0]
        t0 = time.time()
        curves[f"vf_{label}"] = iou_curve(localize(r, frames), truth,
                                          r.grid, checkpoints)
        curves[f"raw_{label}"] = iou_curve(localize(r, frames, bank=False),
                                           truth, r.grid, checkpoints)
        print(f"c_mb={c_mb:.1f}: "
              f"vf={curves[f'vf_{label}'][-1]:.3f} "
              f"raw={curves[f'raw_{label}'][-1]:.3f} "
              f"[{time.time() - t0:.0f}s]")

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t_s", "iou_vf_high", "iou_raw_high",
                    "iou_vf_low", "iou_raw_low"])
        for i, nt in enumerate(checkpoints):
            w.writerow([f"{nt * r.dt:.3g}",
                        f"{curves['vf_high'][i]:.4f}",
                        f"{curves['raw_high'][i]:.4f}",
                        f"{curves['vf_low'][i]:.4f}",
                        f"{curves['raw_low'][i]:.4f}"])
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
