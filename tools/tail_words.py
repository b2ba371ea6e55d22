"""Time sp4_bruhat and its reassembly check on the 30 seeded indifferent-proper tail words.

    python3 tools/tail_words.py

The words are `rand_word_matrix(proper_spec(), random.Random(5), length=6,
torus=True) * h`, h the indifferent-proper preset's first torus matrix, as
built by tests/test_sp4.py's `proper_tail_words`. Prints one line per word:
its index, the `sp4_bruhat` time, the `Bruhat4.reassembles` time (the check
that `imperfect sp4 bruhat` runs before it prints; the library split does not
run it) and the chamber, then the totals. Times are seconds by
`time.perf_counter`. Word 12's split takes seconds, most others milliseconds.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from imperfect.sp4 import sp4_bruhat
    from test_sp4 import proper_tail_words

    print(f"{'word':7}  {'split':>11}  {'reassembles':>11}  chamber")
    split_total = check_total = 0.0
    for k, g in enumerate(proper_tail_words()):
        start = time.perf_counter()
        br = sp4_bruhat(g)
        split = time.perf_counter() - start
        start = time.perf_counter()
        ok = br.reassembles(g)
        check = time.perf_counter() - start
        if not ok:
            print(f"word {k}: decomposition does not reassemble", file=sys.stderr)
            return 1
        split_total += split
        check_total += check
        print(f"word {k:2d}  {split:9.4f} s  {check:9.4f} s  {br.word}")
    print(f"total    {split_total:9.4f} s  {check_total:9.4f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
