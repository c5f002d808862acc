"""Tests of the benchmark itself: tiny smoke runs and mutation checks.

    PYTHONPATH=src python -m pytest -q bench/selftest.py

The file name keeps these tests out of the default `pytest` collection: the
smoke runs spend about 15 s of CPU, and the package's own throughput
criterion, which runs in the same process, is sensitive to that.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from gesturestream import cli  # noqa: E402


def tiny(name: str) -> workloads.Workload:
    return dataclasses.replace(workloads.WORKLOADS[name], videos=1)


@pytest.fixture
def root(tmp_path):
    """A checkout stand-in: src/ of this repository, fresh work directories."""
    (tmp_path / "src").symlink_to(ROOT / "src")
    return tmp_path


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_smoke_run_measures_every_metric(root, name, trace):
    record = run.measure(tiny(name), seed=3, seconds=0, trace=trace, root=root)
    assert record["failures"] == []
    assert record["unmeasured"] == []
    assert record["correct"] and record["failed"] == 0 and record["attempted"] > 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert list(record["metrics"]) == list(expected)
    assert record["untraced_boundaries"] == []
    assert not (root / ".bench_work").exists() or not any((root / ".bench_work").iterdir())


def test_workloads_and_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    # sweep-c12 stays runnable by name but is not gated (see README.md).
    assert [w["name"] for w in spec["workloads"]] == ["idle-c10", "active-c83"]
    assert all(w["why"] == workloads.WORKLOADS[w["name"]].why for w in spec["workloads"])
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER


def replay_one_cycle(root, monkeypatch=None, patch=None) -> workloads.Replay:
    """Set up a tiny idle-c10 replay, apply a mutation, run one cycle."""
    replay = workloads.Replay(tiny("idle-c10"), 5, root / "work", root / "src")
    replay.work.mkdir()
    replay.setup()
    if patch is not None:
        monkeypatch.setattr(cli, *patch)
    replay.cycle(traced=False)
    return replay


def failed_ops(replay) -> set[str]:
    return {failure.split(":", 1)[0].split("/", 1)[1] for failure in replay.ledger.failures}


def test_unmutated_cycle_passes(root):
    assert replay_one_cycle(root).ledger.failures == []


def test_corrupted_events_file_fails_run_and_eval(root, monkeypatch):
    original = cli.write_events_file

    def corrupting(path, corpus_run):
        count = original(path, corpus_run)
        lines = Path(path).read_text().splitlines()
        record = json.loads(lines[0])
        record["class"] = (record["class"] + 1) % 10
        lines[0] = json.dumps(record)
        Path(path).write_text("\n".join(lines) + "\n")
        return count

    replay = replay_one_cycle(root, monkeypatch, ("write_events_file", corrupting))
    assert {"run", "eval"} <= failed_ops(replay)


def test_score_off_by_more_than_tolerance_fails_run(root, monkeypatch):
    original = cli.write_events_file

    def nudging(path, corpus_run):
        count = original(path, corpus_run)
        lines = Path(path).read_text().splitlines()
        record = json.loads(lines[-1])
        record["score"] += 1e-9
        lines[-1] = json.dumps(record)
        Path(path).write_text("\n".join(lines) + "\n")
        return count

    replay = replay_one_cycle(root, monkeypatch, ("write_events_file", nudging))
    assert "run" in failed_ops(replay)


def test_wrong_eval_aggregate_fails_eval(root, monkeypatch):
    original = cli.build_eval_report

    def off_by_one(*args, **kwargs):
        report = original(*args, **kwargs)
        report["aggregate"]["matched"] += 1
        return report

    replay = replay_one_cycle(root, monkeypatch, ("build_eval_report", off_by_one))
    assert failed_ops(replay) == {"eval"}
    assert replay.ledger.attempted > len(replay.ledger.failures) == workloads.EVAL_REPEATS


def test_wrong_sweep_row_fails_sweep(root, monkeypatch):
    original = cli.sweep

    def shifted(corpus, cfg, taus):
        return [dataclasses.replace(row, matched_count=row.matched_count - 1) for row in original(corpus, cfg, taus)]

    replay = replay_one_cycle(root, monkeypatch, ("sweep", shifted))
    assert failed_ops(replay) == {"sweep"}


def test_nonzero_exit_counts_as_failed(root, monkeypatch):
    replay = replay_one_cycle(root, monkeypatch, ("cmd_eval", lambda args: 1))
    assert failed_ops(replay) == {"eval"}


@pytest.mark.parametrize(
    "line",
    [
        "not json",
        '{"video": "v000", "class": 1, "frame": 40, "kind": "late"}',
        '{"video": "v000", "class": 1.0, "frame": 40, "kind": "late", "score": 0.5}',
        '{"video": "v000", "class": 1, "frame": "40", "kind": "late", "score": 0.5}',
        '{"video": "v000", "class": 1, "frame": 40, "kind": "soon", "score": 0.5}',
    ],
)
def test_read_events_rejects_malformed_lines(line):
    with pytest.raises(checks.CheckFailed):
        checks.read_events(line)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "idle-c10", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
