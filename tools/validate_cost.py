"""Time validate_tower on the tower presets.

    python3 tools/validate_cost.py

For each preset named tower-*, the configuration is loaded once and
`validate_tower(tower)` is timed with `time.perf_counter` RUNS times.
Prints one line per preset: its name, the median time in milliseconds and
whether the report passed.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 30


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    sys.path[:0] = [str(ROOT / "src")]
    from imperfect.presets import Bundle, preset_names
    from imperfect.tower import validate_tower

    print(f"validate_tower, median of {RUNS} runs")
    for name in preset_names():
        if not name.startswith("tower-"):
            continue
        tower = Bundle.load(name).cfg.tower
        times = []
        for _ in range(RUNS):
            start = time.perf_counter()
            ok = validate_tower(tower).ok
            times.append(time.perf_counter() - start)
        verdict = "ok" if ok else "fails"
        print(f"{name:14s} {1000 * statistics.median(times):8.3f} ms  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
