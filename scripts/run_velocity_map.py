#!/usr/bin/env python3
"""Single-vessel velocity map: recover the parabolic max-speed profile.

Runs a single-vessel config, by default the bundled phantom_e: an axial
vessel (flow along z) filtered with a bank of axial speeds tiled to the
centerline speed. Each detection inherits the speed of the filter that
found it, and the per-pixel max-speed map is compared to the analytic
parabola.

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

import velofilt
from velofilt.cli import (ConfigError, check_config, load_config, localize,
                          resolve, seed_arg, synthesize)
from velofilt.localize import velocity_map_from_locs
from velofilt.metrics import fve
from velofilt.phantom import truth_maps

CONFIG = Path(velofilt.__file__).parent / "configs" / "phantom_e.json"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=str(CONFIG))
    ap.add_argument("--seed", type=seed_arg, help="override the config's seed")
    ap.add_argument("--nt", type=int, help="override the config's frames")
    ap.add_argument("--out", default="runs/velocity_profile.csv")
    args = ap.parse_args()

    cfg = load_config(args.config)
    if args.nt is not None:
        cfg["motion"]["nt"] = args.nt
    try:
        check_config(cfg)
        r = resolve(cfg)
    except ConfigError as exc:
        ap.error(str(exc))
    [vessel] = r.flow
    grid = r.grid
    speeds = [round(math.hypot(*f.v_f), 3) for f in r.bank.filters]
    print(f"bank speeds (mm/s): {speeds}")

    seed = r.seed if args.seed is None else args.seed
    frames, _ = synthesize(r, seed)
    t0 = time.time()
    locs = localize(r, frames)
    vmap = velocity_map_from_locs(locs, grid)

    _, t_speed, t_vx, t_vz = truth_maps(r.flow, grid)
    full = fve(t_vx, t_vz, vmap.vx, vmap.vz)
    fast = fve(t_vx, t_vz, vmap.vx, vmap.vz, fastest_q=0.05)
    print(f"n_locs={len(locs)} fve={full:.4f} mm/s "
          f"fve(fastest 5%)={fast:.4f} mm/s "
          f"({100 * fast / vessel.v0:.1f}% of centerline) "
          f"[{time.time() - t0:.0f}s]")

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    xs = grid.x0 + grid.dx * np.arange(grid.nx)
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x_mm", "v_true_mm_s", "v_est_mm_s"])
        for i, x in enumerate(xs):
            if abs(x) > vessel.radius_r + 2 * grid.dx:
                continue
            col = vmap.speed[:, i]
            est = float(np.median(col[col > 0])) if (col > 0).any() else 0.0
            w.writerow([f"{x:.3f}", f"{t_speed[grid.nz // 2, i]:.4f}",
                        f"{est:.4f}"])
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
