"""Count the oracle queries of reconstruct's recovery and of one verification sample.

    python3 tools/oracle_queries.py

For each preset with a hexagon (g2) or quadrangle (indifferent) section, the
faithful oracle of its datum is wrapped so that every query is logged; then
`g2_recover` or `c2_recover` runs on it, and `verify_recovery(n=1, seed=0)`,
one sample, on what it returns. Prints one line per preset and phase: the
total number of queries, the number distinct by value, and the count of each
kind (eq, mul, inv, member, sample). Two queries are equal by value when they
are of one kind and ask about equal group elements (and, for member, the same
slot); every sample draw is distinct, since it reads a random stream. The
distinct count is the floor a memo keyed on values would reach.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("eq", "mul", "inv", "member", "sample")


def logging_oracle(o, log: list):
    """o with every query appended to log as (kind, value key)."""
    from imperfect.reconstruct import GroupOracle

    def asked(kind, fn, slot=None):
        def query(*args):
            if kind == "sample":
                key = len(log)
            else:
                key = (slot, *(x._u for x in args))
            log.append((kind, key))
            return fn(*args)
        return query

    return GroupOracle(
        kind=o.kind, eq=asked("eq", o.eq), mul=asked("mul", o.mul), inv=asked("inv", o.inv),
        identity=o.identity, params=dict(o.params),
        member={s: asked("member", f, s) for s, f in o.member.items()},
        sample={s: asked("sample", f, s) for s, f in o.sample.items()},
    )


def line(preset: str, group: str, phase: str, log: list) -> str:
    kinds = Counter(kind for kind, _ in log)
    counts = "  ".join(f"{k}={kinds[k]}" for k in KINDS)
    return (f"{preset:20s} {group}  {phase:8s} total={len(log):4d}  "
            f"distinct={len(set(log)):4d}  {counts}")


def main() -> int:
    sys.path[:0] = [str(ROOT / "src")]
    from imperfect import reconstruct
    from imperfect.presets import PRESETS, Bundle

    for name in sorted(PRESETS):
        bundle = Bundle.load(name)
        if bundle.cfg.g2 is not None:
            datum, make, recover = bundle.g2(), reconstruct.make_g2_oracle, reconstruct.g2_recover
        elif bundle.cfg.indifferent is not None:
            datum, make, recover = bundle.c2(), reconstruct.make_c2_oracle, reconstruct.c2_recover
        else:
            continue
        raw, codec = make(datum)
        log: list = []
        rec = recover(logging_oracle(raw, log))
        print(line(name, datum.kind, "recover", log))
        log.clear()
        reconstruct.verify_recovery(rec, codec, n=1, seed=0)
        print(line(name, datum.kind, "verify", log))
    return 0


if __name__ == "__main__":
    sys.exit(main())
