"""Time sp4_bruhat on the 30 seeded indifferent-proper tail words.

    python3 tools/tail_words.py

The words are `rand_word_matrix(proper_spec(), random.Random(5), length=6,
torus=True) * h`, h the indifferent-proper preset's first torus matrix, as
built by tests/test_sp4.py's `proper_tail_words`. Prints one line per word:
its index, the `sp4_bruhat` time in seconds (`time.perf_counter`) and the
chamber, then the total. Word 12 takes seconds, most others milliseconds.
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

    total = 0.0
    for k, g in enumerate(proper_tail_words()):
        start = time.perf_counter()
        word = sp4_bruhat(g).word
        elapsed = time.perf_counter() - start
        total += elapsed
        print(f"word {k:2d}  {elapsed:9.4f} s  {word}")
    print(f"total    {total:9.4f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
