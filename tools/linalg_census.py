"""Census of the eliminations that perfbench's workloads run, per op kind.

    python3 tools/linalg_census.py [--workload NAME] [--seed N] [--seconds S]

Runs the ops of each workload (all three by default; seed 4242, 6 s of op
time each), untraced, with `_linalg._gauss_jordan` swapped for a wrapper
that logs every call. Prints one line per op kind, then the workload total:
the ops and their time, the eliminations and their number per op, the
share of op time spent inside them, the nonzero density of their input
matrices (nonzero entries over rows x width, width being the highest
column present plus one, or the pivot columns searched if more), the
terms per nonzero entry, and the three most frequent shapes, rows x width.
Times are seconds by `time.perf_counter` on this host, so compare shares
and ratios, not times across hosts.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class Census:
    """Eliminations, their time and their input matrices, per op kind."""

    def __init__(self):
        self.ops = Counter()
        self.op_s = Counter()
        self.calls = Counter()
        self.elim_s = Counter()
        self.cells = Counter()
        self.nonzero = Counter()
        self.terms = Counter()
        self.shapes = defaultdict(Counter)
        self.kind = None

    def wrap(self, real):
        def logged(mat, ncols, one):
            width = max([ncols] + [k + 1 for row in mat for k in row])
            entries = [x for row in mat for x in row.values()]
            kind = self.kind
            self.calls[kind] += 1
            self.cells[kind] += len(mat) * width
            self.nonzero[kind] += len(entries)
            self.terms[kind] += sum(len(x.terms) for x in entries)
            self.shapes[kind][f"{len(mat)}x{width}"] += 1
            t0 = time.perf_counter()
            try:
                return real(mat, ncols, one)
            finally:
                self.elim_s[kind] += time.perf_counter() - t0
        return logged

    def line(self, label: str, kinds) -> str:
        ops = sum(self.ops[k] for k in kinds)
        op_s = sum(self.op_s[k] for k in kinds)
        calls = sum(self.calls[k] for k in kinds)
        cells = sum(self.cells[k] for k in kinds)
        nonzero = sum(self.nonzero[k] for k in kinds)
        terms = sum(self.terms[k] for k in kinds)
        shapes = Counter()
        for k in kinds:
            shapes.update(self.shapes[k])
        top = " ".join(f"{s}:{c}" for s, c in shapes.most_common(3))
        return (f"{label:28s} ops={ops:6d} op_s={op_s:7.3f} elims={calls:6d} "
                f"per_op={calls / max(ops, 1):6.2f} "
                f"share={sum(self.elim_s[k] for k in kinds) / max(op_s, 1e-9):6.1%} "
                f"density={nonzero / max(cells, 1):6.1%} "
                f"terms/nz={terms / max(nonzero, 1):5.2f}  {top}")


def census(name: str, seed: int, seconds: float) -> Census:
    import workloads
    from harness import NULL
    from imperfect import _linalg

    wl = workloads.WORKLOADS[name]
    state = wl.setup()
    out = Census()
    real = _linalg._gauss_jordan
    _linalg._gauss_jordan = out.wrap(real)
    try:
        busy, index = 0.0, 0
        while busy < seconds:
            for op in wl.make_batch(seed, index):
                out.kind = op["kind"]
                t0 = time.perf_counter()
                wl.run_op(state, op, NULL)
                dt = time.perf_counter() - t0
                out.ops[out.kind] += 1
                out.op_s[out.kind] += dt
                busy += dt
                if busy >= seconds:
                    break
            index += 1
    finally:
        _linalg._gauss_jordan = real
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="one workload (default: all three)")
    ap.add_argument("--seed", type=int, default=4242)
    ap.add_argument("--seconds", type=float, default=6.0)
    args = ap.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    for name in names:
        c = census(name, args.seed, args.seconds)
        print(f"{name} (seed {args.seed}, {args.seconds:g} s of op time)")
        for kind in sorted(c.ops):
            print("  " + c.line(kind, [kind]))
        print("  " + c.line("total", list(c.ops)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
