"""Alternating parent/change pairs of perfbench runs, summarized into BENCH_<tag>.json.

    python3 tools/bench_pairs.py --parent REF --workload NAME --seeds 1,2,3 --tag TAG

Both sides run from temporary directories of one layout that hold only what
a perfbench run reads (src/, perfbench/ and BENCHMARK.json): the parent side
the committed files of REF, exported with `git archive` (the files a fresh
checkout has), and the change side a copy of this checkout's working tree,
taken once before the first run. Each seed is one pair: both
sides run `perfbench/run.py --workload NAME --seed N --trace 0`, the side that
goes first alternating from pair to pair, each for BENCHMARK.json's
run_seconds. The result is merged into BENCH_<tag>.json at the root of this
checkout under workloads/NAME, so one file can hold several workloads:
per-pair values with the ops each side completed (perfbench keeps two floats
per op, so peak_rss_mb grows with them), medians with [q1, q3] per side, wins
per pair (ties count for neither side), the digest lines of both sides and the
failed-op counts.
A file holds runs against one parent commit only; merging runs against
another is refused.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
# what a perfbench run reads of a checkout
RUN_FILES = ("src", "perfbench", "BENCHMARK.json")


def _quartiles(values: list) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(statistics.median(values), 6), "q1": round(q1, 6),
            "q3": round(q3, 6)}


def summarize(per_pair: list, metrics: list) -> dict:
    """Per-metric summary of pairs [{"parent": {name: value}, "change": {...}}].

    metrics are BENCHMARK.json's end_to_end entries (name, unit, better, bound).
    For each: medians with quartiles per side; the relative change of the
    median; the pairs in which the change is strictly better; whether the
    change's median stays inside the bound; and whether the medians differ,
    in the change's favour, by more than the parent's interquartile range.
    """
    out = {}
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        parent = [pair["parent"][name] for pair in per_pair]
        change = [pair["change"][name] for pair in per_pair]
        ps, cs = _quartiles(parent), _quartiles(change)
        gain = cs["median"] - ps["median"] if higher else ps["median"] - cs["median"]
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        out[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "bound": m["bound"],
            "parent": ps,
            "change": cs,
            "median_change_ratio": round(cs["median"] / ps["median"] - 1, 4),
            "change_better_in_pairs": f"{wins}/{len(per_pair)}",
            "within_bound": gain >= -m["bound"] * ps["median"],
            "gain_exceeds_parent_iqr": gain > ps["q3"] - ps["q1"],
        }
    return out


def export(ref: str, dest: Path) -> None:
    """The committed RUN_FILES of ref, written under dest."""
    with tempfile.TemporaryFile() as fh:
        subprocess.run(["git", "archive", "--format=tar", ref, *RUN_FILES], cwd=ROOT, stdout=fh,
                       check=True)
        fh.seek(0)
        with tarfile.open(fileobj=fh) as tar:
            tar.extractall(dest)


def snapshot(dest: Path) -> None:
    """The RUN_FILES of this checkout's working tree, copied under dest, without
    bytecode caches or perfbench's span output."""
    dest.mkdir(parents=True)
    for name in RUN_FILES:
        if (ROOT / name).is_dir():
            shutil.copytree(ROOT / name, dest / name,
                            ignore=shutil.ignore_patterns("__pycache__", "out"))
        else:
            shutil.copy2(ROOT / name, dest / name)


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", "0"]
    res = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    lines = res.stdout.splitlines()
    result = json.loads(lines[-1])
    digest = next(line for line in lines if line.startswith("digest "))
    return {
        "metrics": {k: round(v["value"], 6) for k, v in result["metrics"].items()},
        "digest": digest,
        "attempted": result["attempted"],
        "failed": result["failed"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git ref of the parent side")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="comma-separated, one pair per seed")
    ap.add_argument("--tag", required=True)
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    out = ROOT / f"BENCH_{args.tag}.json"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent_rev = subprocess.run(["git", "rev-parse", "--short", args.parent], cwd=ROOT,
                                capture_output=True, text=True, check=True).stdout.strip()
    harness = (f"python3 perfbench/run.py --workload W --seed S --trace 0, run_seconds "
               f"{spec['run_seconds']} from BENCHMARK.json; both sides from temporary copies of "
               f"{', '.join(RUN_FILES)}: parent from `git archive` of its commit, change from "
               "this checkout's working tree; pairs alternate which side runs first")
    doc = json.loads(out.read_text()) if out.exists() else {}
    for key, value in (("parent", parent_rev), ("harness", harness)):
        if doc.get(key, value) != value:
            print(f"{out.name} holds runs with {key} {doc[key]!r}, not {value!r}; "
                  "use another tag", file=sys.stderr)
            return 1

    tmp = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    try:
        dirs = {side: tmp / side for side in SIDES}
        export(parent_rev, dirs["parent"])
        snapshot(dirs["change"])
        per_pair, digests = [], []
        totals = {side: {"attempted": 0, "failed": 0} for side in SIDES}
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            runs = {}
            for side in order:
                runs[side] = run_once(dirs[side], args.workload, seed)
                for k in ("attempted", "failed"):
                    totals[side][k] += runs[side][k]
                print(f"{args.workload} seed={seed} {side}: ops_per_s="
                      f"{runs[side]['metrics']['ops_per_s']:.1f}", file=sys.stderr)
            per_pair.append({"seed": seed, "first": order[0],
                             **{side: runs[side]["metrics"] for side in SIDES},
                             "ops": {side: runs[side]["attempted"] for side in SIDES}})
            digests.append({"seed": seed, **{side: runs[side]["digest"] for side in SIDES},
                            "equal": runs["parent"]["digest"] == runs["change"]["digest"]})
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    doc.setdefault("tag", args.tag)
    doc["parent"] = parent_rev
    doc["harness"] = harness
    doc["quartiles"] = "statistics.quantiles(n=4, method='inclusive') over the runs of one side"
    doc.setdefault("workloads", {})[args.workload] = {
        "seeds": seeds,
        "pairs": len(seeds),
        "metrics": summarize(per_pair, spec["end_to_end"]),
        "per_pair": per_pair,
        "digests": digests,
        "ops": totals,
    }
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
