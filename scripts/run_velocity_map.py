#!/usr/bin/env python3
"""Single-vessel velocity map: recover the parabolic max-speed profile.

Runs a single-vessel config, by default the bundled phantom_e: an axial
vessel (flow along z) filtered with a bank of axial speeds tiled to the
centerline speed. Each detection inherits the speed of the filter that
found it, and the per-pixel max-speed map is compared to the analytic
parabola.

Writes runs/velocity_profile.csv with one row per lateral position:
x_mm, v_true_mm_s, v_est_mm_s (median over the vessel's z extent).
Prints the FVE the metrics stage reports: over the full support, and over
the fastest pixels when the config sets metrics.fastest_q (phantom_e: 5%).
"""

import argparse
import math
import time
from pathlib import Path

import numpy as np

import velofilt
from velofilt.cli import localize, score, study_runs, synthesize, write_csv
from velofilt.localize import velocity_map_from_locs
from velofilt.phantom import truth_maps

CONFIG = Path(velofilt.__file__).parent / "configs" / "phantom_e.json"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    args, [r] = study_runs(ap, CONFIG, "runs/velocity_profile.csv")
    [vessel] = r.flow
    grid = r.grid
    speeds = [round(math.hypot(*f.v_f), 3) for f in r.bank.filters]
    print(f"bank speeds (mm/s): {speeds}")

    frames, truth = synthesize(r, r.seed)
    t0 = time.time()
    locs = localize(r, frames)
    fves = {key: val for key, val in score(r, locs, truth).items()
            if key.startswith("fve")}
    print(f"n_locs={len(locs)} " + " ".join(
        f"{key}={val:.4f} ({100 * val / vessel.v0:.1f}% of centerline)"
        for key, val in fves.items()) + f" [{time.time() - t0:.0f}s]")

    vmap = velocity_map_from_locs(locs, grid)
    t_speed = truth_maps(r.flow, grid)[1]
    rows = []
    for i, x in enumerate(grid.x0 + grid.dx * np.arange(grid.nx)):
        if abs(x) > vessel.radius_r + 2 * grid.dx:
            continue
        col = vmap.speed[:, i]
        est = float(np.median(col[col > 0])) if (col > 0).any() else 0.0
        rows.append((f"{x:.3f}", f"{t_speed[grid.nz // 2, i]:.4f}",
                     f"{est:.4f}"))
    out = write_csv(Path(args.out), ["x_mm", "v_true_mm_s", "v_est_mm_s"],
                    rows)
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
