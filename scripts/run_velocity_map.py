#!/usr/bin/env python3
"""Single-vessel velocity map: recover the parabolic max-speed profile.

An axial vessel (flow along z) is filtered with a bank of axial speeds
tiled to the centerline speed; each detection inherits the speed of the
filter that found it, and the per-pixel max-speed map is compared to the
analytic parabola.

Writes runs/velocity_profile.csv with one row per lateral position:
x_mm, v_true_mm_s, v_est_mm_s (median over the vessel's z extent).
Prints the full-support and fastest-5% FVE.
"""

import argparse
import csv
import math
import time
from pathlib import Path

import numpy as np

from velofilt.core import make_grid
from velofilt.localize import (DetectorConfig, run_pipeline,
                               velocity_map_from_locs)
from velofilt.metrics import fve
from velofilt.phantom import (VesselSpec, default_vessel_length,
                              sample_bubbles, synthesize_frames, truth_maps)
from velofilt.psf import PsfParams
from velofilt.theory import velocity_bandwidth
from velofilt.vfilter import FilterBankSpec, VelocityFilterSpec, tile_speeds


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=17)
    ap.add_argument("--nt", type=int, default=300)
    ap.add_argument("--dt", type=float, default=0.02)
    ap.add_argument("--v0", type=float, default=1.0)
    ap.add_argument("--radius", type=float, default=0.45)
    ap.add_argument("--c-mb", type=float, default=12.0)
    ap.add_argument("--sigma-t", type=float, default=0.5)
    ap.add_argument("--out", default="runs/velocity_profile.csv")
    args = ap.parse_args()

    p = PsfParams(sigma_r=0.3, wavelength=0.3)
    grid = make_grid(96, 96, 0.05, 0.05)
    angle = math.pi / 2  # axial flow: the passband is narrowest there
    vessel = VesselSpec(radius_r=args.radius, v0=args.v0, c_mb=args.c_mb,
                        axis_angle_rad=angle,
                        length=default_vessel_length(grid, p))

    pb = velocity_bandwidth(p, args.sigma_t, theta=angle)
    speeds = tile_speeds(args.v0, pb.delta_v)
    bank = FilterBankSpec(filters=tuple(
        VelocityFilterSpec(v_f=(0.0, s), sigma_t=args.sigma_t)
        for s in speeds))
    print(f"bank speeds (mm/s): {[round(float(s), 3) for s in speeds]}")

    rng = np.random.default_rng(args.seed)
    bubbles = sample_bubbles(vessel, rng)
    frames, _ = synthesize_frames(bubbles, [vessel], grid, args.nt, args.dt,
                                  p)
    t0 = time.time()
    res = run_pipeline(frames, bank, p, cfg=DetectorConfig())
    locs = np.concatenate(res.per_frame)
    vmap = velocity_map_from_locs(locs, grid)

    _, t_speed, t_vx, t_vz = truth_maps([vessel], grid)
    full = fve(t_vx, t_vz, vmap.vx, vmap.vz)
    fast = fve(t_vx, t_vz, vmap.vx, vmap.vz, fastest_q=0.05)
    print(f"n_locs={len(locs)} fve={full:.4f} mm/s "
          f"fve(fastest 5%)={fast:.4f} mm/s "
          f"({100 * fast / args.v0:.1f}% of centerline) "
          f"[{time.time() - t0:.0f}s]")

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    xs = grid.x0 + grid.dx * np.arange(grid.nx)
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x_mm", "v_true_mm_s", "v_est_mm_s"])
        for i, x in enumerate(xs):
            if abs(x) > args.radius + 2 * grid.dx:
                continue
            col = vmap.speed[:, i]
            est = float(np.median(col[col > 0])) if (col > 0).any() else 0.0
            w.writerow([f"{x:.3f}", f"{t_speed[grid.nz // 2, i]:.4f}",
                        f"{est:.4f}"])
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
