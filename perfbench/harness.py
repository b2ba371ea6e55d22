"""Timing loop, spans and per-layer aggregation for the benchmark.

A workload is an object with `setup()`, `make_batch(seed, index)` and
`run_op(state, op, tr)`. The loop here draws batches of ops from the seed,
times each op on its own (input generation stays outside every timer),
checks nothing itself and only records what `run_op` reports: the canonical
renderings of the op's outputs, or an exception, which counts as a failed op.

Every time is reported at a reference host speed. The shared host this
benchmark was built on changes speed by up to 2x within a minute, and that
drift, not the program, set the spread of raw times between runs. Before each
batch, outside every op timer, the loop times a fixed pure-Python kernel that
does not use the package, and the batch's op times are multiplied by
`CAL_REF_S / median(kernel times)`. On a host running at half speed the
kernel takes twice as long, so the scaled times come out as they would at
reference speed. A change to the package cannot move the kernel.

Spans are recorded by a `Tracer` around each call the benchmark makes into a
layer of the package. `count_calls` also counts, in a traced run only, the
calls of a few functions inside the package (the gcd, the elimination) by
swapping in a counting wrapper for the length of a batch. `NULL` is the
tracer of an untraced run; its spans and counts do nothing, so the untraced
loop pays only an attribute lookup and an empty `with` per call.
"""

from __future__ import annotations

import contextlib
import gc
import gzip
import hashlib
import json
import statistics
import time
from typing import Dict, List

perf_counter = time.perf_counter

# op_tail_ms is this percentile, the same on every workload and commit. It
# keeps at least 40 samples beyond it at 2,000 ops a run; p99 moved twice as
# much with the seed on matrix-words. A tail percentile needs at least
# TAIL_BEYOND samples beyond it.
TAIL_PCT = 98.0
TAIL_BEYOND = 10

# the kernel's median time at reference speed (the machine the bounds were
# set on, when it ran fast), and how many kernel runs precede each batch
CAL_REF_S = 0.0005
CAL_REPS = 3

_KA = tuple(((i, j, k), (i + 2 * j + 3 * k) % 5 or 1)
            for i in range(5) for j in range(4) for k in range(3))
_KB = tuple(((i, j, k), (3 * i + j + k) % 5 or 2)
            for i in range(4) for j in range(3) for k in range(3))


def _kernel() -> int:
    """A sparse product of two fixed polynomials over F_5, the package's kind of work."""
    out = {}
    for ea, ca in _KA:
        for eb, cb in _KB:
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            c = (out.get(e, 0) + ca * cb) % 5
            if c:
                out[e] = c
            else:
                out.pop(e, None)
    return len(out)


def kernel_times(reps: int = CAL_REPS) -> List[float]:
    """Kernel times with the cyclic collector off, so the program's heap does not count."""
    times = []
    gc.disable()
    try:
        for _ in range(reps):
            t0 = perf_counter()
            _kernel()
            times.append(perf_counter() - t0)
    finally:
        gc.enable()
    return times


class OpFailed(Exception):
    """An output failed its identity or its known answer."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise OpFailed(what)


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class NullTracer:
    _span = _NullSpan()

    def span(self, name: str):
        return self._span

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, k: int = 1) -> None:
        pass

    def begin_op(self, op_id: int) -> None:
        pass

    def end_prefix(self) -> None:
        pass


NULL = NullTracer()


class _Span:
    __slots__ = ("tr", "name", "idx")

    def __init__(self, tr: "Tracer", name: str):
        self.tr = tr
        self.name = name

    def __enter__(self):
        tr = self.tr
        self.idx = len(tr.spans)
        tr.spans.append([self.name, perf_counter(), 0.0, tr.stack[-1], tr.op_id])
        tr.stack.append(self.idx)
        return self

    def __exit__(self, *exc):
        tr = self.tr
        tr.spans[self.idx][2] = perf_counter()
        tr.stack.pop()
        return False


class Tracer:
    """Spans as [name, start, end, parent index, op id], kept in memory."""

    def __init__(self):
        self.spans: List[list] = []
        self.stack: List[int] = [-1]
        self.op_id = -1
        self.counts: Dict[str, int] = {}
        self.prefix_counts: Dict[str, int] = {}
        self.times: Dict[str, float] = {}  # time inside calls counted by count_calls

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def call(self, name: str, fn, *args, **kwargs):
        with _Span(self, name):
            return fn(*args, **kwargs)

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def add_time(self, name: str, dt: float) -> None:
        self.times[name] = self.times.get(name, 0.0) + dt

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id

    def end_prefix(self) -> None:
        """Freeze the counts of the digest prefix, which every run of a seed repeats."""
        self.prefix_counts = dict(self.counts)

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


# ---------------------------------------------------------------------------
# the timed loop
# ---------------------------------------------------------------------------


class Phase:
    """Outcome of one timed pass over the op stream."""

    def __init__(self, digest_ops: int):
        self.digest_ops = digest_ops  # the prefix every run of a seed repeats
        self.latencies: List[float] = []
        self.scaled: List[float] = []  # the latencies at reference speed
        self.busy_s = 0.0
        self.scaled_s = 0.0
        self.failed = 0
        self.failures: List[str] = []
        self.digest = hashlib.sha256()

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def done(self, seconds: float) -> bool:
        return self.attempted >= self.digest_ops and self.busy_s >= seconds

    @property
    def scale(self) -> float:
        """Mean factor from measured time to time at reference speed."""
        return self.scaled_s / self.busy_s

    @property
    def ops_per_s(self) -> float:
        """Verified ops per second of op time, at reference speed."""
        return self.attempted / self.scaled_s


@contextlib.contextmanager
def count_calls(tr, targets):
    """Count and time calls of functions inside the package while the block runs.

    `targets` holds (module or class, attribute, name). The function is
    swapped for a wrapper and put back afterwards. Every call adds to the
    count `name.calls`; only the outermost calls add their time to `name`,
    so a recursive function is not counted twice. An attribute that no
    longer exists is skipped, and its metrics read 0.
    """
    saved = []
    depths: Dict[str, list] = {}  # one per name, shared by the functions counted under it
    for owner, attr, name in targets:
        real = getattr(owner, attr, None)
        if real is None:
            continue

        def counted(*args, _real=real, _name=name, _depth=depths.setdefault(name, [0]),
                    **kwargs):
            tr.count(_name + ".calls")
            if _depth[0]:
                return _real(*args, **kwargs)
            _depth[0] = 1
            t0 = perf_counter()
            try:
                return _real(*args, **kwargs)
            finally:
                tr.add_time(_name, perf_counter() - t0)
                _depth[0] = 0

        setattr(owner, attr, counted)
        saved.append((owner, attr, real))
    try:
        yield
    finally:
        for owner, attr, real in saved:
            setattr(owner, attr, real)


def run_batch(workload, state, batch, out: Phase, tr=NULL, seconds=None, counted=()) -> None:
    """Run the ops of one batch into `out`.

    With `seconds`, stop as soon as `seconds` of op time have passed and the
    digest prefix is done. With a tracer, the calls named in `counted` are
    counted too (see `count_calls`).
    """
    scale = CAL_REF_S / statistics.median(kernel_times())
    with count_calls(tr, counted) if tr is not NULL else contextlib.nullcontext():
        for op in batch:
            op_id = out.attempted
            tr.begin_op(op_id)
            t0 = perf_counter()
            try:
                with tr.span("op"):
                    rendered = workload.run_op(state, op, tr)
            except Exception as e:  # a failed op is counted, the run goes on
                dt = perf_counter() - t0
                out.failed += 1
                if len(out.failures) < 5:
                    out.failures.append(f"op {op_id} ({op['kind']}): {type(e).__name__}: {e}")
                rendered = [f"<failed {type(e).__name__}>"]
            else:
                dt = perf_counter() - t0
            out.latencies.append(dt)
            out.scaled.append(dt * scale)
            out.busy_s += dt
            out.scaled_s += dt * scale
            if op_id < out.digest_ops:
                line = f"{op_id}:{op['kind']}:" + "|".join(rendered) + "\n"
                out.digest.update(line.encode())
                if op_id + 1 == out.digest_ops:
                    tr.end_prefix()
            if seconds is not None and out.done(seconds):
                return


def run_phase(workload, state, seed: int, seconds: float, tr=NULL) -> Phase:
    """Run ops until `seconds` of op time have passed and the digest prefix is done.

    The first `workload.digest_ops` ops always run; their renderings form the
    digest, so two runs of one seed, or two commits, can be compared byte for
    byte whatever their speed.
    """
    out = Phase(workload.digest_ops)
    index = 0
    while not out.done(seconds):
        run_batch(workload, state, workload.make_batch(seed, index), out, tr, seconds)
        index += 1
    return out


def run_paired(workload, state, seed: int, seconds: float, tr, counted=()):
    """(untraced, traced): both phases run every batch of the same op stream.

    The phases take turns going first, batch by batch, so neither always
    meets the caches the other has warmed. Whole batches run until the
    untraced phase has spent `seconds` of op time and the prefix is done.
    """
    plain, traced = Phase(workload.digest_ops), Phase(workload.digest_ops)
    index = 0
    while not plain.done(seconds):
        batch = workload.make_batch(seed, index)
        turns = [(plain, NULL), (traced, tr)]
        for phase, t in turns if index % 2 == 0 else reversed(turns):
            run_batch(workload, state, batch, phase, t, counted=counted)
        index += 1
    return plain, traced


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def percentile(latencies: List[float], pct: float):
    """(value, samples beyond it): the sample of rank floor(n * pct / 100)."""
    xs = sorted(latencies)
    rank = max(1, int(len(xs) * pct / 100.0))
    return xs[rank - 1], len(xs) - rank


def layer_metrics(tr: Tracer, names: List[str], scale: float) -> Dict[str, float]:
    """Calls, busy and self time per span name and per layer.

    busy_s sums span durations, or for a function counted by `count_calls`
    the time of its outermost calls; a layer's self_s sums its spans'
    durations minus the time their child spans cover. Both are multiplied by
    `scale`, the phase's factor to reference speed. Counts and ratios of
    counts come from the digest prefix, so they are exact for a seed.
    """
    spans = tr.spans
    child = [0.0] * len(spans)
    calls: Dict[str, int] = {}
    busy: Dict[str, float] = dict(tr.times)
    for name, start, end, parent, _ in spans:
        d = end - start
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + d
        if parent >= 0:
            child[parent] += d
    selfs: Dict[str, float] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        layer = name.split(".", 1)[0]
        selfs[layer] = selfs.get(layer, 0.0) + (end - start) - child[i]
    c = tr.prefix_counts

    def ratio(num: str, den: str) -> float:
        return c.get(num, 0) / c[den] if c.get(den) else 0.0

    derived = {
        "field.render.bytes": c.get("field.render.bytes", 0),
        "pbasis.lambda_coords.defined_ratio": ratio("pbasis.lambda_coords.defined",
                                                    "pbasis.lambda_coords"),
        "tower.member.yes_ratio": ratio("tower.member.yes", "tower.member"),
        "rank1.membership.unknown_ratio": ratio("rank1.membership.unknown",
                                                "rank1.membership"),
        "reconstruct.oracle_queries": c.get("reconstruct.oracle_queries", 0),
        "reconstruct.queries_per_check": ratio("reconstruct.oracle_queries",
                                               "reconstruct.checks"),
        "field.poly_gcd.calls": c.get("field.poly_gcd.calls", 0),
        "tower.solve.calls": c.get("tower.solve.calls", 0),
    }
    out: Dict[str, float] = {}
    for metric in names:
        if metric in derived:
            out[metric] = derived[metric]
        elif metric.endswith(".calls"):
            out[metric] = calls.get(metric[: -len(".calls")], 0)
        elif metric.endswith(".busy_s"):
            out[metric] = busy.get(metric[: -len(".busy_s")], 0.0) * scale
        elif metric.endswith(".self_s"):
            out[metric] = selfs.get(metric[: -len(".self_s")], 0.0) * scale
    return out


def coverage(tr: Tracer, phase_s: float) -> Dict[str, float]:
    """Share of the timed phase covered by each layer's outermost spans."""
    spans = tr.spans
    top: Dict[str, float] = {}
    for name, start, end, parent, _ in spans:
        if name == "op" or parent < 0:
            continue
        if spans[parent][0] != "op":
            continue
        layer = name.split(".", 1)[0]
        top[layer] = top.get(layer, 0.0) + end - start
    return {k: v / phase_s for k, v in sorted(top.items())} if phase_s else {}
