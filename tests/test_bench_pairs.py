"""The summary of tools/bench_pairs.py: medians, quartiles, wins and gates."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.15},
    {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.15},
]


def pairs(parent_ops, change_ops, parent_ms, change_ms):
    return [{"parent": {"ops_per_s": a, "op_p50_ms": c}, "change": {"ops_per_s": b, "op_p50_ms": d}}
            for a, b, c, d in zip(parent_ops, change_ops, parent_ms, change_ms)]


def test_medians_quartiles_and_wins():
    got = bench_pairs.summarize(
        pairs([100, 110, 90, 100, 105], [130, 110, 140, 120, 125],
              [1.0, 1.0, 1.2, 0.9, 1.1], [0.8, 1.0, 1.3, 0.7, 0.6]), METRICS)
    ops = got["ops_per_s"]
    assert ops["parent"] == {"median": 100, "q1": 100, "q3": 105}
    assert ops["change"] == {"median": 125, "q1": 120, "q3": 130}
    assert ops["median_change_ratio"] == 0.25
    # the tie (110 against 110) counts for neither side
    assert ops["change_better_in_pairs"] == "4/5"
    assert ops["within_bound"] and ops["gain_exceeds_parent_iqr"]
    ms = got["op_p50_ms"]
    # lower is better: 1.3 against 1.2 is a loss, 1.0 against 1.0 a tie
    assert ms["change_better_in_pairs"] == "3/5"
    assert ms["median_change_ratio"] == pytest.approx(-0.2)
    assert ms["within_bound"] and ms["gain_exceeds_parent_iqr"]
    assert ms["unit"] == "ms" and ms["better"] == "lower" and ms["bound"] == 0.15


def test_bound_and_iqr_gates_in_both_directions():
    # throughput 10% lower is inside a 15% bound, 20% lower is not
    inside = bench_pairs.summarize(pairs([100] * 3, [90] * 3, [1.0] * 3, [1.1] * 3), METRICS)
    outside = bench_pairs.summarize(pairs([100] * 3, [80] * 3, [1.0] * 3, [1.2] * 3), METRICS)
    for name in ("ops_per_s", "op_p50_ms"):
        assert inside[name]["within_bound"] and not outside[name]["within_bound"]
        assert not inside[name]["gain_exceeds_parent_iqr"]
        assert inside[name]["change_better_in_pairs"] == "0/3"
    # a gain smaller than the parent's spread does not count as one
    noisy = bench_pairs.summarize(pairs([80, 100, 120, 90, 110], [105] * 5, [1.0] * 5, [1.0] * 5),
                                  METRICS)
    assert noisy["ops_per_s"]["parent"]["q3"] - noisy["ops_per_s"]["parent"]["q1"] == 20
    assert not noisy["ops_per_s"]["gain_exceeds_parent_iqr"]


def test_a_single_pair_has_degenerate_quartiles():
    got = bench_pairs.summarize(pairs([100], [120], [1.0], [0.9]), METRICS)
    assert got["ops_per_s"]["parent"] == {"median": 100, "q1": 100, "q3": 100}
    assert got["ops_per_s"]["change_better_in_pairs"] == "1/1"


def test_runs_against_another_parent_are_not_merged(tmp_path, monkeypatch):
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-C", str(tmp_path)]
    (tmp_path / "BENCHMARK.json").write_text((TOOL.parents[1] / "BENCHMARK.json").read_text())
    subprocess.run(git + ["init", "-q"], check=True)
    subprocess.run(git + ["add", "BENCHMARK.json"], check=True)
    subprocess.run(git + ["commit", "-qm", "c"], check=True)
    old = tmp_path / "BENCH_t.json"
    old.write_text(json.dumps({"tag": "t", "parent": "0000000", "workloads": {}}))
    before = old.read_text()
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    # refused before any run: the file and the checkout stay as they were
    argv = ["--parent", "HEAD", "--workload", "matrix-words", "--seeds", "1", "--tag", "t"]
    assert bench_pairs.main(argv) == 1
    assert old.read_text() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [".git", "BENCHMARK.json", "BENCH_t.json"]


def test_each_pair_records_the_ops_of_both_sides(tmp_path, monkeypatch):
    """peak_rss_mb grows with the ops a run completes, so each pair keeps them."""
    spec = (TOOL.parents[1] / "BENCHMARK.json").read_text()
    (tmp_path / "BENCHMARK.json").write_text(spec)
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *a, **kw: subprocess.CompletedProcess(
        a, 0, stdout="abc1234\n"))
    monkeypatch.setattr(bench_pairs, "export", lambda ref, dest: None)
    monkeypatch.setattr(bench_pairs, "snapshot", lambda dest: None)
    metrics = {m["name"]: 1.0 for m in json.loads(spec)["end_to_end"]}

    def fake_run(checkout, workload, seed):
        ops = 1000 * seed + (7 if checkout.name == "change" else 0)
        return {"metrics": metrics, "digest": f"digest {seed}", "attempted": ops, "failed": 0}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    argv = ["--parent", "HEAD", "--workload", "matrix-words", "--seeds", "1,2", "--tag", "t"]
    assert bench_pairs.main(argv) == 0
    doc = json.loads((tmp_path / "BENCH_t.json").read_text())
    got = doc["workloads"]["matrix-words"]
    assert [pair["ops"] for pair in got["per_pair"]] == [
        {"parent": 1000, "change": 1007}, {"parent": 2000, "change": 2007}]
    assert [pair["first"] for pair in got["per_pair"]] == ["parent", "change"]
    assert got["ops"]["change"] == {"attempted": 3014, "failed": 0}


def test_both_sides_run_from_copies_of_one_layout(tmp_path, monkeypatch):
    """The change side runs from a copy of the working tree, not from the
    checkout, so that neither side's peak RSS depends on where it runs."""
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-C", str(tmp_path)]
    spec = (TOOL.parents[1] / "BENCHMARK.json").read_text()
    for name, text in (("BENCHMARK.json", spec), ("src/pkg/mod.py", "x = 1\n"),
                       ("perfbench/run.py", "run\n"), ("tests/t.py", "t\n")):
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    subprocess.run(git + ["init", "-q"], check=True)
    subprocess.run(git + ["add", "."], check=True)
    subprocess.run(git + ["commit", "-qm", "c"], check=True)
    # the working tree moves on after the commit, and leaves caches and spans behind
    (tmp_path / "src/pkg/mod.py").write_text("x = 2\n")
    for junk in ("src/pkg/__pycache__/mod.pyc", "perfbench/out/spans.json"):
        (tmp_path / junk).parent.mkdir(parents=True)
        (tmp_path / junk).write_text("junk")
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    metrics = {m["name"]: 1.0 for m in json.loads(spec)["end_to_end"]}
    seen = {}

    def fake_run(checkout, workload, seed):
        files = sorted(str(f.relative_to(checkout)) for f in checkout.rglob("*") if f.is_file())
        seen[checkout.name] = (checkout, files, (checkout / "src/pkg/mod.py").read_text())
        return {"metrics": metrics, "digest": "digest", "attempted": 1, "failed": 0}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    argv = ["--parent", "HEAD", "--workload", "matrix-words", "--seeds", "1", "--tag", "t"]
    assert bench_pairs.main(argv) == 0
    files = ["BENCHMARK.json", "perfbench/run.py", "src/pkg/mod.py"]
    assert seen["parent"][1:] == (files, "x = 1\n")
    assert seen["change"][1:] == (files, "x = 2\n")
    # both copies sit side by side in one temporary directory, removed after the runs
    assert seen["parent"][0].parent == seen["change"][0].parent != tmp_path
    assert not seen["change"][0].exists()
