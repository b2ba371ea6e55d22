"""Tests of the benchmark itself: determinism, tracing, fault counting, exit codes.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import workloads  # noqa: E402
from imperfect import field, rank1  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def states():
    return {name: wl.setup() for name, wl in workloads.WORKLOADS.items()}


def prefix(name, state, seed, tr=harness.NULL):
    """Exactly the digest prefix: with zero seconds the loop stops right after it."""
    return harness.run_phase(workloads.WORKLOADS[name], state, seed, 0.0, tr)


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_ops_and_digest(name, states):
    a = prefix(name, states[name], 7)
    b = prefix(name, states[name], 7)
    assert a.failed == 0, a.failures
    assert a.attempted == b.attempted == workloads.WORKLOADS[name].digest_ops
    assert a.digest.hexdigest() == b.digest.hexdigest()
    assert prefix(name, states[name], 8).digest.hexdigest() != a.digest.hexdigest()


@pytest.mark.parametrize("name", NAMES)
def test_traced_digest_equals_untraced(name, states):
    tr = harness.Tracer()
    plain, traced = harness.run_paired(workloads.WORKLOADS[name], states[name], 3, 0.0, tr,
                                       workloads.COUNTED_CALLS)
    assert traced.digest.hexdigest() == plain.digest.hexdigest()
    assert traced.digest.hexdigest() == prefix(name, states[name], 3).digest.hexdigest()
    assert plain.failed == traced.failed == 0, traced.failures
    assert plain.attempted == traced.attempted == workloads.WORKLOADS[name].digest_ops
    ops = [s for s in tr.spans if s[0] == "op"]
    assert len(ops) == traced.attempted
    # every layer span hangs under an op span or under another layer span
    assert all(s[3] >= 0 for s in tr.spans if s[0] != "op")
    # the prefix counts include the calls counted inside the package
    assert tr.prefix_counts.get("tower.solve.calls", 0) > 0
    assert tr.times["tower.solve"] > 0


def test_count_calls_counts_and_restores():
    tr = harness.Tracer()
    real = field.poly_gcd
    ctx = field.Context(3, ("s", "v"))
    x = ctx.var("s") + ctx.one()
    with harness.count_calls(tr, workloads.COUNTED_CALLS + ((field, "no_such_fn", "x"),)):
        assert field.poly_gcd is not real
        y = x / (x * x)
    assert field.poly_gcd is real
    assert y == x.inverse()
    assert tr.counts["field.poly_gcd.calls"] > 0
    assert set(tr.times) == {"field.poly_gcd"}
    assert "x.calls" not in tr.counts


def test_injected_faults_are_counted_and_the_run_goes_on(states, monkeypatch):
    real = rank1.bruhat2
    calls = {"n": 0}

    def faulty(g):
        calls["n"] += 1
        form = real(g)
        if calls["n"] == 1:  # a wrong answer
            one = g.ctx.one()
            if isinstance(form, rank1.Upper):
                return rank1.Upper(form.tau, form.s + one)
            return rank1.Cell(form.tau, form.s1 + one, form.s2)
        if calls["n"] == 2:  # an exception
            raise ZeroDivisionError("injected")
        return form

    monkeypatch.setattr(rank1, "bruhat2", faulty)
    wl = workloads.WORKLOADS["matrix-words"]
    out = prefix("matrix-words", states["matrix-words"], 5)
    assert out.attempted == wl.digest_ops
    assert out.failed == 2
    assert "OpFailed" in out.failures[0] and "ZeroDivisionError" in out.failures[1]


def test_layer_metrics_self_time_subtracts_children():
    tr = harness.Tracer()
    tr.spans = [
        ["op", 0.0, 10.0, -1, 0],
        ["reconstruct.recover", 1.0, 6.0, 0, 0],
        ["reconstruct.oracle", 2.0, 3.0, 1, 0],
        ["reconstruct.oracle", 4.0, 4.5, 1, 0],
        ["unipotent.u_mult", 7.0, 9.0, 0, 0],
    ]
    tr.prefix_counts = {"reconstruct.oracle_queries": 2, "reconstruct.checks": 4}
    names = ["reconstruct.recover.calls", "reconstruct.recover.busy_s",
             "reconstruct.oracle.busy_s", "reconstruct.self_s", "unipotent.self_s",
             "reconstruct.oracle_queries", "reconstruct.queries_per_check",
             "tower.member.yes_ratio"]
    m = harness.layer_metrics(tr, names, 1.0)
    assert m["reconstruct.recover.calls"] == 1
    assert m["reconstruct.recover.busy_s"] == 5.0
    assert m["reconstruct.oracle.busy_s"] == 1.5
    # recover's 3.5 s of self time plus the oracle spans' own 1.5 s
    assert m["reconstruct.self_s"] == 5.0
    assert m["unipotent.self_s"] == 2.0
    assert m["reconstruct.oracle_queries"] == 2
    assert m["reconstruct.queries_per_check"] == 0.5
    assert m["tower.member.yes_ratio"] == 0.0
    assert harness.coverage(tr, 10.0) == {"reconstruct": 0.5, "unipotent": 0.2}
    assert harness.layer_metrics(tr, names, 0.5)["reconstruct.self_s"] == 2.5


def test_times_are_scaled_to_reference_speed(states, monkeypatch):
    # a host at half the reference speed: the kernel takes twice as long
    monkeypatch.setattr(harness, "kernel_times", lambda: [2 * harness.CAL_REF_S] * 3)
    out = prefix("tower-build", states["tower-build"], 2)
    assert out.scaled == [t * 0.5 for t in out.latencies]
    assert out.scale == pytest.approx(0.5)
    assert out.ops_per_s == pytest.approx(2 * out.attempted / out.busy_s)


def test_percentile_reports_samples_beyond():
    xs = [float(i) for i in range(1000, 0, -1)]
    assert harness.percentile(xs, 99.0) == (990.0, 10)
    assert harness.percentile(xs, 50.0) == (500.0, 500)


def test_command_prints_the_result_line():
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tower-build", "--seed", "2",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(out["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert "fail_ratio" in res.stdout


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tower-build", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert res.returncode == 2
    assert res.stdout == ""
