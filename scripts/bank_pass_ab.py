#!/usr/bin/env python3
"""Alternated timing pairs of one filter-bank pass: a parent checkout's
velofilt against a changed one's, in one interpreter.

    python3 scripts/bank_pass_ab.py --parent ../base --change . \
        --workload axial-pre scripts/configs/to_lateral.json --pairs 30

Each checkout's package is loaded from its src/velofilt under its own name,
so both run side by side. For each workload, its config (a name in the
change's perfbench/workloads, or the path of a config file ending in
.json) is resolved by each side's own cli.resolve, and a seeded float32
noise stack of its (nt, nz, nx) goes through one run_filter_bank(frames,
bank) pass per timing, the resolved bank carrying its boundary and TO
prefilter, every output drained block by block into a sink that drops
it. Both checkouts must take the bank in that form. The sides alternate
which runs first, pair by pair, after one untimed pass each. The script
prints both medians, the paired median difference and the number of
pairs in which the change was faster.
"""

import argparse
import gc
import importlib
import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np


def load(root: Path, name: str):
    """root's src/velofilt imported as the package name."""
    init = root / "src" / "velofilt" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def bank_pass(name: str, cfg: dict, seed: int):
    """A function that runs one drained bank pass of cfg with the package
    name, on a float32 noise stack drawn once from seed."""
    cli = importlib.import_module(f"{name}.cli")
    core = importlib.import_module(f"{name}.core")
    vfilter = importlib.import_module(f"{name}.vfilter")
    r = cli.resolve(cfg)
    data = np.random.default_rng(seed).standard_normal(
        (r.nt, r.grid.nz, r.grid.nx), dtype=np.float32)
    frames = core.FrameStack(grid=r.grid, nt=r.nt, dt=r.dt, data=data)

    def run() -> None:
        for *_, out, _ in vfilter.run_filter_bank(frames, r.bank):
            out.fill(lambda block: None)

    return run


def workload_config(change: Path, workload: str) -> dict:
    """The config of a workload name in the change's perfbench/workloads,
    or of the config file at the path workload if it ends in .json."""
    path = Path(workload)
    if path.suffix != ".json":
        path = change / "perfbench" / "workloads" / f"{workload}.json"
    return json.loads(path.read_text())


def timed(run) -> float:
    gc.collect()
    t0 = time.perf_counter()
    run()
    return time.perf_counter() - t0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True,
                    help="root of the parent checkout")
    ap.add_argument("--change", type=Path, required=True,
                    help="root of the changed checkout")
    ap.add_argument("--workload", nargs="+",
                    default=["axial-pre", "orbit-bank", "cross-staged"],
                    help="workload names or config paths ending in .json")
    ap.add_argument("--pairs", type=int, default=30)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)
    names = {"parent": "velofilt_parent", "change": "velofilt_change"}
    for side, name in names.items():
        load(getattr(args, side), name)
    for workload in args.workload:
        cfg = workload_config(args.change, workload)
        runs = {side: bank_pass(name, cfg, args.seed)
                for side, name in names.items()}
        for run in runs.values():
            run()
        times: dict[str, list[float]] = {"parent": [], "change": []}
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change",
                                                              "parent")
            for side in order:
                times[side].append(timed(runs[side]))
        parent, change = times["parent"], times["change"]
        diff = statistics.median(c - p for p, c in zip(parent, change))
        faster = sum(c < p for p, c in zip(parent, change))
        base = statistics.median(parent)
        print(f"== {workload}: {args.pairs} pairs, one bank pass each")
        print(f"  parent median {1e3 * base:.2f} ms, change median "
              f"{1e3 * statistics.median(change):.2f} ms")
        print(f"  paired median difference {1e3 * diff:+.2f} ms "
              f"({100 * diff / base:+.1f} %), change faster in {faster} of "
              f"{args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
