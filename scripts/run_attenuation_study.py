#!/usr/bin/env python3
"""Attenuation sweep: measured peak suppression vs the closed forms.

A stationary bubble is filtered with velocity filters of increasing
selected speed; the velocity mismatch equals the filter speed, so the
measured peak ratio traces the attenuation curve directly. Both the
carrier-bearing path and the transverse-oscillation path are swept, for
lateral and axial mismatch directions.

Writes runs/attenuation_sweep.csv:
dv_mm_s, direction, gamma_pred, gamma_meas, gamma_to_pred, gamma_to_meas.
"""

import argparse
import csv
import math
import time
from pathlib import Path

import numpy as np

from velofilt.core import make_grid
from velofilt.metrics import measure_attenuation
from velofilt.phantom import BubbleSet, MotionSpec, synthesize_frames
from velofilt.psf import PsfParams, ToParams
from velofilt.theory import attenuation_pre, to_attenuation
from velofilt.vfilter import (VelocityFilterSpec, apply_filter_fft,
                              apply_to_filter)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sigma-t", type=float, default=0.5)
    ap.add_argument("--nt", type=int, default=200)
    ap.add_argument("--dt", type=float, default=0.025)
    ap.add_argument("--max-dv", type=float, default=2.0)
    ap.add_argument("--steps", type=int, default=9)
    ap.add_argument("--out", default="runs/attenuation_sweep.csv")
    args = ap.parse_args()

    p = PsfParams(sigma_r=0.3, wavelength=0.3)
    t = ToParams(lambda_x=0.6, sigma_x=0.3, sigma_r=p.sigma_r)
    grid = make_grid(64, 64, 0.05, 0.05)
    bubble = BubbleSet(np.array([[0.0, 0.0, 0.0]]),
                       np.zeros((1, 3)), np.array([0]))
    frames, _ = synthesize_frames(bubble, MotionSpec("linear"), grid,
                                  args.nt, args.dt, p)
    frames_to = apply_to_filter(frames, t)
    mid = args.nt // 2
    span = (mid - 5, mid + 5)
    win = 2.0 * p.sigma_r

    rows = []
    t0 = time.time()
    for direction, unit in (("lateral", (1.0, 0.0)), ("axial", (0.0, 1.0))):
        for dv in np.linspace(0.0, args.max_dv, args.steps):
            spec = VelocityFilterSpec(v_f=(dv * unit[0], dv * unit[1]),
                                      sigma_t=args.sigma_t)
            flt = apply_filter_fft(frames, spec)
            meas = 1.0 / measure_attenuation(frames, flt, (0.0, 0.0), win,
                                             frame_range=span)
            pred = attenuation_pre(p, args.sigma_t, spec.v_f).gamma

            flt_to = apply_filter_fft(frames_to, spec)
            meas_to = 1.0 / measure_attenuation(frames_to, flt_to,
                                                (0.0, 0.0), win,
                                                frame_range=span)
            pred_to = to_attenuation(spec.v_f, p, t, args.sigma_t).gamma_bar
            rows.append((dv, direction, pred, meas, pred_to, meas_to))
            print(f"{direction:7s} dv={dv:4.2f}: gamma {pred:.4f} "
                  f"(meas {meas:.4f})  TO {pred_to:.4f} (meas {meas_to:.4f})")

    lat = [r for r in rows if r[1] == "lateral" and r[0] > 0]
    best = max(r[2] / max(r[4], 1e-12) for r in lat)
    print(f"max lateral suppression advantage of TO: {best:.1f}x "
          f"[{time.time() - t0:.0f}s]")

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["dv_mm_s", "direction", "gamma_pred", "gamma_meas",
                    "gamma_to_pred", "gamma_to_meas"])
        for dv, d, a, b, c, e in rows:
            w.writerow([f"{dv:.3f}", d, f"{a:.5f}", f"{b:.5f}",
                        f"{c:.5f}", f"{e:.5f}"])
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
