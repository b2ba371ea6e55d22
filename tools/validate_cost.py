"""Time validate_tower on the tower presets.

    python3 tools/validate_cost.py --samples 30

For each preset named tower-*, the configuration is loaded once and
`validate_tower(tower, sample_count=SAMPLES, seed=s)` is timed with
`time.perf_counter` for each seed s in 0..29. Prints one line per preset:
its name, the median time in milliseconds and whether the report passed.
`--samples` (default 30, the CLI's default) sizes the sampled checks.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(30)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--samples", type=int, default=30)
    args = ap.parse_args()
    sys.path[:0] = [str(ROOT / "src")]
    from imperfect.presets import Bundle, preset_names
    from imperfect.tower import validate_tower

    print(f"validate_tower, median of {len(SEEDS)} seeds, samples={args.samples}")
    for name in preset_names():
        if not name.startswith("tower-"):
            continue
        tower = Bundle.load(name).cfg.tower
        times = []
        for seed in SEEDS:
            start = time.perf_counter()
            ok = validate_tower(tower, sample_count=args.samples, seed=seed).ok
            times.append(time.perf_counter() - start)
        verdict = "ok" if ok else "fails"
        print(f"{name:14s} {1000 * statistics.median(times):8.3f} ms  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
