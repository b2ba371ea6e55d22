"""Benchmark of the imperfect package: one workload, one seed, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Single process, single thread, closed loop with one client: each op starts
when the previous one has returned. Ops are drawn from the seed in batches
and run until S seconds of op time have passed (and at least the digest
prefix is done). Every op checks its outputs; a failed op is counted and the
run goes on.

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 it carries the per-layer metrics, taken from spans
recorded around every call the benchmark makes into a layer. Times are
scaled to a reference host speed, measured by a fixed kernel between
batches (see harness.py); the unscaled throughput is printed too. A traced run
runs every batch of the op stream twice, untraced and traced, the two taking
turns going first, for S seconds in all. That gives the tracing overhead and a
second digest that must equal the first. Spans are written to perfbench/out/
when the run ends. S defaults to BENCHMARK.json's run_seconds.

The package is imported from src/ next to this directory; without it the
run fails with exit code 2 before printing any result.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 21  # fresh processes timed for setup_s, after one that warms the caches


def _die(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _use_checkout_package() -> None:
    if not (SRC / "imperfect" / "__init__.py").is_file():
        _die(f"no package at {SRC / 'imperfect'}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))


def _benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def setup_probe(workload: str):
    """Seconds, at reference speed, for a fresh process to import the package
    and then to build the workload's state."""
    t0 = time.perf_counter()
    import workloads  # noqa: F401  (imports the package)

    t1 = time.perf_counter()
    workloads.WORKLOADS[workload].setup()
    t2 = time.perf_counter()
    import harness

    scale = harness.CAL_REF_S / statistics.median(harness.kernel_times(9))
    return (t1 - t0) * scale, (t2 - t1) * scale


def measure_setup(workload: str):
    """(setup_s, construction alone): medians over fresh processes."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--setup-probe"]
    total, construct = [], []
    for i in range(SETUP_PROBES + 1):
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if res.returncode != 0:
            _die(f"setup probe failed: {res.stderr.strip()}")
        if i:
            imp, build = map(float, res.stdout.split()[-2:])
            total.append(imp + build)
            construct.append(build)
    return statistics.median(total), statistics.median(construct)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    _use_checkout_package()
    if args.setup_probe:
        print("%.9f %.9f" % setup_probe(args.workload))
        return 0
    spec = _benchmark_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _die(f"unknown workload {args.workload!r}; have {', '.join(workloads.WORKLOADS)}")

    wl = workloads.WORKLOADS[args.workload]
    setup_s, construct_s = measure_setup(args.workload)
    state = wl.setup()

    if args.trace:
        tr = harness.Tracer()
        plain, traced = harness.run_paired(wl, state, args.seed, seconds / 2, tr,
                                           workloads.COUNTED_CALLS)
    else:
        plain = harness.run_phase(wl, state, args.seed, seconds)
    digest = plain.digest.hexdigest()
    print(f"digest {wl.name} seed={args.seed} ops={plain.digest_ops} sha256={digest}")
    for line in plain.failures:
        print(f"failed {line}")
    attempted, failed = plain.attempted, plain.failed
    correct = failed == 0
    scale = plain.scale
    print(f"host speed {scale:.4f}x reference, the mean factor applied to op times; "
          f"measured {plain.attempted / plain.busy_s:.3f} ops/s")

    if not args.trace:
        pct = harness.TAIL_PCT
        tail_value, beyond = harness.percentile(plain.scaled, pct)
        metrics = {
            "ops_per_s": (plain.ops_per_s, "1/s"),
            "op_p50_ms": (harness.percentile(plain.scaled, 50.0)[0] * 1e3, "ms"),
            "op_tail_ms": (tail_value * 1e3, "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
        }
        for name, (value, unit) in metrics.items():
            note = ""
            if name == "op_tail_ms":
                note = f"  (p{pct:g} of {plain.attempted} ops, {beyond} beyond)"
                if beyond < harness.TAIL_BEYOND:
                    note += " WARNING: fewer than 10 samples beyond"
            print(f"{name:<12} {value:14.6f} {unit}{note}")
        print(f"{'fail_ratio':<12} {plain.failed / plain.attempted:14.6f} "
              f"({plain.failed} of {plain.attempted})")
        result_metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    else:
        t_digest = traced.digest.hexdigest()
        print(f"digest {wl.name} seed={args.seed} ops={traced.digest_ops} sha256={t_digest} (traced)")
        for line in traced.failures:
            print(f"failed {line} (traced)")
        correct = correct and traced.failed == 0 and t_digest == digest
        names = [m["name"] for m in spec["per_layer"]]
        values = harness.layer_metrics(tr, names, traced.scale)
        values["trace.overhead_ratio"] = plain.ops_per_s / traced.ops_per_s
        values["setup.construct_s"] = construct_s
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        result_metrics = {k: {"value": values[k], "unit": units[k]} for k in names}
        print(f"setup_s {setup_s:.6f} s, of which construction {construct_s:.6f} s")
        cover = harness.coverage(tr, traced.busy_s)
        print("coverage " + " ".join(f"{k}={v:.3f}" for k, v in cover.items()))
        print("inside the package " + " ".join(
            f"{k}={v / traced.busy_s:.3f}" for k, v in sorted(tr.times.items())))
        OUT.mkdir(exist_ok=True)
        tr.write(OUT / f"spans-{wl.name}-{args.seed}.jsonl.gz")
        attempted += traced.attempted
        failed += traced.failed

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
