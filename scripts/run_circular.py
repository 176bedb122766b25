#!/usr/bin/env python3
"""Circular-flow tolerance study: IoU of the accumulated ring vs time.

Runs a circular config, by default the bundled phantom_f. Bubbles orbit at
constant speed, so their velocity direction rotates inside the filter
window (centripetal acceleration v0^2/orbit_radius). A bank of one speed
at several headings still accumulates the full annulus when the detector
threshold absorbs the curvature-induced score loss; envelope ("post")
detection keeps the smeared responses artifact-free.

Writes runs/circular_iou_vs_time.csv: t_s, iou.
"""

import argparse
import math
import time
from pathlib import Path

import velofilt
from velofilt.cli import localize, score, study_runs, synthesize, write_csv

CONFIG = Path(velofilt.__file__).parent / "configs" / "phantom_f.json"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    args, [r] = study_runs(ap, CONFIG, "runs/circular_iou_vs_time.csv")
    band = r.flow
    sigma_t = r.bank.filters[0].sigma_t
    accel = band.v0**2 / band.orbit_radius
    print(f"centripetal acceleration = {accel:.3g} mm/s^2, "
          f"direction rotates "
          f"{math.degrees(4 * sigma_t * band.v0 / band.orbit_radius):.0f} deg "
          f"per 4 sigma_t window")

    frames, truth = synthesize(r, r.seed)
    t0 = time.time()
    locs = localize(r, frames)
    rows = []
    for nt in [int(k * r.nt) for k in (0.25, 0.5, 0.75, 1.0)]:
        val = score(r, locs[locs["t"] < nt], truth[truth["t"] < nt])["iou"]
        rows.append((f"{nt * r.dt:.3g}", f"{val:.4f}"))
        print(f"t={nt * r.dt:5.1f} s  iou={val:.3f}")
    out = write_csv(Path(args.out), ["t_s", "iou"], rows)
    print(f"n_locs={len(locs)} [{time.time() - t0:.0f}s]; wrote {out}")


if __name__ == "__main__":
    main()
