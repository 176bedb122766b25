#!/usr/bin/env python3
"""Alternated benchmark pairs: perfbench/run.py in a parent checkout and in
a changed one, seed by seed, and each end-to-end metric side by side.

    python3 scripts/bench_pairs.py --parent ../base --change . \
        --workload axial-pre orbit-bank --seeds 911 912 913 --seconds 6

For each workload and seed, both checkouts run `perfbench/run.py --trace 0`
from their own root, the parent first for the 1st, 3rd, ... seed and the
change first for the others, so a drift of the host over the session
weighs on both sides alike. For each metric the script prints every run,
both medians, the quartiles of each side, and the number of pairs in which
the change read lower. It runs nothing but perfbench/run.py.

Each run keeps Python's bytecode in a new empty directory of its own
(PYTHONPYCACHEPREFIX), with writing on: the run's first interpreter
compiles every module it imports there, and the later ones read it. So
neither side reads bytecode that its checkout left in __pycache__, which
would favour it: `import velofilt.cli` took 92 ms with the package's
__pycache__ and 129 ms without (in-process import time, medians of 12
alternated probes, 2-core x86_64 VM, Python 3.11). With writing off,
every interpreter would compile numpy as well: `import velofilt.cli` took
0.3 s more on that host.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one perfbench run in checkout, with a bytecode
    cache of its own (see the module docstring)."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    with tempfile.TemporaryDirectory(prefix="bench-pairs-pyc-") as cache:
        env["PYTHONPYCACHEPREFIX"] = cache
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=checkout, capture_output=True, text=True, check=True,
            env=env)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def report(workload: str, runs: dict[str, list[dict]]) -> None:
    """Print each metric of the workload's paired runs."""
    failed = {side: sum(not r["correct"] for r in rs)
              for side, rs in runs.items()}
    print(f"== {workload}: {len(runs['parent'])} pairs, failed runs "
          f"parent {failed['parent']}, change {failed['change']}")
    for name, meta in runs["parent"][0]["metrics"].items():
        values = {side: [r["metrics"][name]["value"] for r in rs]
                  for side, rs in runs.items()}
        if any(v is None for vs in values.values() for v in vs):
            print(f"{name}: a run gave no value")
            continue
        print(f"{name} ({meta['unit']})")
        for side, vs in values.items():
            q1, q3 = quartiles(vs)
            print(f"  {side:6s} {' '.join(f'{v:.6g}' for v in vs)}")
            print(f"  {'':6s} median {statistics.median(vs):.6g}, "
                  f"quartiles {q1:.6g} .. {q3:.6g}")
        lower = sum(c < p for p, c in zip(values["parent"], values["change"]))
        print(f"  change lower in {lower} of {len(values['parent'])} pairs")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True,
                    help="root of the parent checkout")
    ap.add_argument("--change", type=Path, required=True,
                    help="root of the changed checkout")
    ap.add_argument("--workload", nargs="+", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=float, default=6.0)
    args = ap.parse_args(argv)
    sides = {"parent": args.parent, "change": args.change}
    for workload in args.workload:
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for k, seed in enumerate(args.seeds):
            order = ("parent", "change") if k % 2 == 0 else ("change",
                                                              "parent")
            for side in order:
                runs[side].append(run(sides[side], workload, seed,
                                      args.seconds))
        report(workload, runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
