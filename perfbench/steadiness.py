"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads a,b] [--out FILE]

For every workload and end-to-end metric this prints the median of the
per-seed values and their interquartile distance as a share of the median
(quartiles as `statistics.quantiles(values, n=4)` gives them), next to the
metric's bound and a third of it. Runs are sequential, one process at a
time, each with BENCHMARK.json's run_seconds. With --out the raw values are
written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    raw = {}
    for wl in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, "perfbench/run.py", "--workload", wl, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            out = json.loads(res.stdout.strip().splitlines()[-1])
            if not out["correct"]:
                print(f"{wl} seed {seed}: incorrect output\n{res.stdout}", file=sys.stderr)
                return 1
            for name in bounds:
                values[name].append(out["metrics"][name]["value"])
            print(f"{wl} seed={seed} attempted={out['attempted']} "
                  + " ".join(f"{k}={v[-1]:.4f}" for k, v in values.items()), flush=True)
        raw[wl] = values
        for name, xs in values.items():
            s = spread(xs)
            print(f"{wl:<17} {name:<12} median={statistics.median(xs):11.4f} "
                  f"spread={s:.4f} bound={bounds[name]} "
                  f"{'ok' if s < bounds[name] / 3 else 'WIDE'}", flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seeds": seed_list(args.seeds), "run_seconds": spec["run_seconds"],
                       "values": raw}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
