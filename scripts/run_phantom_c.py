#!/usr/bin/env python3
"""Crossing-vessel study: IoU against acquisition time, with and without
velocity filtering, at two bubble concentrations 6x apart.

Writes runs/phantom_c_iou_vs_time.csv with one row per checkpoint:
t_s, iou_vf_high, iou_raw_high, iou_vf_low, iou_raw_low.
"""

import argparse
import csv
import math
import time
from pathlib import Path

import numpy as np

from velofilt.core import make_grid
from velofilt.localize import (DetectorConfig, accumulate, localize_frames,
                               run_pipeline, segment_support)
from velofilt.metrics import iou
from velofilt.phantom import (VesselSpec, concat_bubbles,
                              default_vessel_length, sample_bubbles,
                              synthesize_frames, truth_maps)
from velofilt.psf import PsfParams
from velofilt.theory import velocity_bandwidth
from velofilt.vfilter import FilterBankSpec, VelocityFilterSpec, tile_speeds


def crossing_vessels(radius, v0, c_mb, grid, p):
    length = default_vessel_length(grid, p)
    return [VesselSpec(radius_r=radius, v0=v0, c_mb=c_mb,
                       axis_angle_rad=math.radians(ang), length=length)
            for ang in (45.0, -45.0)]


def speed_bank(p, sigma_t, v0, angles_deg):
    pb = velocity_bandwidth(p, sigma_t, theta=math.radians(45.0))
    filters = []
    for a_deg in angles_deg:
        a = math.radians(a_deg)
        for s in tile_speeds(v0, pb.delta_v):
            filters.append(VelocityFilterSpec(
                v_f=(s * math.cos(a), s * math.sin(a)), sigma_t=sigma_t))
    return FilterBankSpec(filters=tuple(filters))


def iou_curve(locs, truth, grid, checkpoints):
    vals = []
    for nt in checkpoints:
        acc = accumulate(locs[locs["t"] < nt], grid)
        vals.append(iou(segment_support(acc), truth))
    return vals


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--nt", type=int, default=600)
    ap.add_argument("--dt", type=float, default=0.02)
    ap.add_argument("--v0", type=float, default=1.0)
    ap.add_argument("--radius", type=float, default=0.1)
    ap.add_argument("--c-high", type=float, default=170.0)
    ap.add_argument("--noise", type=float, default=1.5)
    ap.add_argument("--sigma-t", type=float, default=1.0)
    ap.add_argument("--out", default="runs/phantom_c_iou_vs_time.csv")
    args = ap.parse_args()

    p = PsfParams(sigma_r=0.3, wavelength=0.3)
    grid = make_grid(128, 128, 0.05, 0.05)
    bank = speed_bank(p, args.sigma_t, args.v0, (45.0, -45.0))
    cfg = DetectorConfig(threshold_fraction=0.4)
    checkpoints = [int(k * args.nt) for k in (0.25, 0.5, 0.75, 1.0)]

    curves = {}
    for label, c_mb in (("high", args.c_high), ("low", args.c_high / 6.0)):
        rng = np.random.default_rng(args.seed)
        vessels = crossing_vessels(args.radius, args.v0, c_mb, grid, p)
        bubbles = concat_bubbles([sample_bubbles(v, rng, id_start=1000 * i)
                                  for i, v in enumerate(vessels)])
        frames, _ = synthesize_frames(bubbles, vessels, grid, args.nt,
                                      args.dt, p, noise_std=args.noise,
                                      rng=rng)
        truth = truth_maps(vessels, grid)[0]
        t0 = time.time()
        res = run_pipeline(frames, bank, p, cfg=cfg, mode="post")
        raw = np.concatenate(localize_frames(frames, p, cfg=cfg, mode="post"))
        curves[f"vf_{label}"] = iou_curve(np.concatenate(res.per_frame),
                                          truth, grid, checkpoints)
        curves[f"raw_{label}"] = iou_curve(raw, truth, grid, checkpoints)
        print(f"c_mb={c_mb:.1f}: n_bubbles={len(bubbles)} "
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
            w.writerow([f"{nt * args.dt:.3g}",
                        f"{curves['vf_high'][i]:.4f}",
                        f"{curves['raw_high'][i]:.4f}",
                        f"{curves['vf_low'][i]:.4f}",
                        f"{curves['raw_low'][i]:.4f}"])
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
