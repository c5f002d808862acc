"""gesturestream benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload idle-c10 --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is imported from `src/` of the checkout that
holds this file, and all files go under `.bench_work/` (removed at the end)
and `.bench_out/` of that checkout. With `--trace 0` the last line of
standard output is a JSON object with the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics of a traced run. The lines before
it give every metric with its spread and sample count, the machine and the
inputs. See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("idle-c10", "active-c83", "sweep-c12")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="gesturestream benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")
    return args


def quantiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def git_commit(root: Path):
    """HEAD's commit when the checkout is a git repository, else None."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((src / "gesturestream").rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "git_commit": git_commit(ROOT),
        "source_sha256": source_sha256(SRC),
    }


# name -> (unit, better); the order is the order of BENCHMARK.json.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "eval_s": ("s", "lower"),
    "sweep_s": ("s", "lower"),
    "windows_per_s": ("1/s", "higher"),
    "window_us_p50": ("us", "lower"),
    "window_us_p99": ("us", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "accuracy_pct": ("%", "higher"),
    "early_frames_mean": ("frames", "higher"),
}

# Layer times: per-layer metric -> span name. Each is the inclusive time of
# that span summed over one traced cycle, median over traced cycles.
LAYER_TIMES = {
    "scoring.load_detector_s": "scoring.load_detector",
    "scoring.load_classifier_s": "scoring.load_classifier",
    "scoring.load_annotations_s": "scoring.load_annotations",
    "scoring.generate_s": "scoring.generate",
    "scoring.write_s": "scoring.write",
    "core.ingest_probs_s": "core.ingest_probs",
    "gate.step_s": "gate.step",
    "activation.step_s": "activation.step",
    "pipeline.run_corpus_s": "pipeline.run_corpus",
    "evaluate.evaluate_video_s": "evaluate.evaluate_video",
    "evaluate.levenshtein_s": "evaluate.levenshtein",
    "evaluate.match_s": "evaluate.match",
    "cli.write_events_s": "cli.write_events",
    "cli.build_report_s": "cli.build_report",
    "cli.load_events_s": "cli.load_events",
}

PER_LAYER = {
    "scoring.load_detector_s": ("s", "lower"),
    "scoring.load_classifier_s": ("s", "lower"),
    "scoring.load_annotations_s": ("s", "lower"),
    "scoring.records": ("count", "lower"),
    "scoring.bytes_read": ("B", "lower"),
    "scoring.generate_s": ("s", "lower"),
    "scoring.write_s": ("s", "lower"),
    "core.ingest_probs_s": ("s", "lower"),
    "core.ingest_probs_calls": ("count", "lower"),
    "windows.windows": ("count", "lower"),
    "gate.step_s": ("s", "lower"),
    "gate.steps": ("count", "lower"),
    "gate.activations": ("count", "lower"),
    "gate.active_windows": ("count", "lower"),
    "activation.step_s": ("s", "lower"),
    "activation.folds": ("count", "lower"),
    "activation.periods": ("count", "lower"),
    "activation.events_early": ("count", "higher"),
    "activation.events_late": ("count", "lower"),
    "activation.periods_dismissed": ("count", "lower"),
    "activation.open_at_end": ("count", "lower"),
    "activation.useful_ratio": ("ratio", "higher"),
    "pipeline.run_corpus_s": ("s", "lower"),
    "pipeline.run_video_s_p50": ("s", "lower"),
    "pipeline.run_video_s_max": ("s", "lower"),
    "pipeline.invocations_per_window": ("ratio", "lower"),
    "pipeline.early_tau_max": ("tau", "higher"),
    "evaluate.evaluate_video_s": ("s", "lower"),
    "evaluate.levenshtein_s": ("s", "lower"),
    "evaluate.match_s": ("s", "lower"),
    "evaluate.matched": ("count", "higher"),
    "evaluate.duplicates": ("count", "lower"),
    "evaluate.unmatched": ("count", "lower"),
    "evaluate.missed": ("count", "lower"),
    "cli.write_events_s": ("s", "lower"),
    "cli.build_report_s": ("s", "lower"),
    "cli.load_events_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.bytes_written": ("B", "lower"),
    "trace_overhead_pct": ("%", "lower"),
}


def end_to_end_metrics(replay) -> tuple[dict, dict]:
    """Metric values plus, for the log, each timing's (n, q1, median, q3)."""
    values: dict = {}
    spread: dict = {}
    for metric, samples in (
        ("setup_s", replay.samples.get("gen", [])),
        ("run_s", replay.samples.get("run", [])),
        ("eval_s", replay.samples.get("eval", [])),
        ("sweep_s", replay.samples.get("sweep", [])),
        ("windows_per_s", replay.samples.get("windows_per_s", [])),
    ):
        if samples:
            q1, q2, q3 = quantiles(samples)
            values[metric], spread[metric] = q2, (len(samples), q1, q2, q3)
    # Quantiles of each online replay, then their median over replays, so that
    # a burst of machine noise in one replay does not decide the run's tail.
    for metric, q in (("window_us_p50", 0.5), ("window_us_p99", 0.99)):
        per_replay = [percentile(sorted(xs), q) * 1e6 for xs in replay.window_s if xs]
        if per_replay:
            q1, q2, q3 = quantiles(per_replay)
            values[metric], spread[metric] = q2, (sum(map(len, replay.window_s)), q1, q2, q3)
    if replay.peak_rss_mb is not None:
        values["peak_rss_mb"] = replay.peak_rss_mb
    if replay.run_report is not None:
        values["accuracy_pct"] = replay.run_report["aggregate"]["mean_levenshtein_accuracy"]
    if replay.sweep_early_frames is not None:
        values["early_frames_mean"] = replay.sweep_early_frames
    return values, spread


def per_layer_metrics(replay) -> dict:
    from spans import check_self_times_add_up, self_times

    tracer = replay.trace_log
    own = self_times(tracer.spans)
    check_self_times_add_up(tracer, own)
    cycle_of_op = [-1] * len(tracer.ops)
    for i, ops in enumerate(replay.traced_cycles):
        for op in ops:
            cycle_of_op[op] = i
    per_cycle = [dict.fromkeys([*LAYER_TIMES.values(), "cli.self"], 0.0) for _ in replay.traced_cycles]
    run_video_s = []
    for (_, op, name, start, end), t in zip(tracer.spans, own):
        if cycle_of_op[op] < 0:
            continue
        sums = per_cycle[cycle_of_op[op]]
        if name in sums:
            sums[name] += end - start
        elif name == "cli.main":
            sums["cli.self"] += t
        elif name == "pipeline.run_video":
            run_video_s.append(end - start)
    values = {metric: statistics.median(c[span] for c in per_cycle) for metric, span in LAYER_TIMES.items()}
    values["cli.self_s"] = statistics.median(c["cli.self"] for c in per_cycle)
    values["pipeline.run_video_s_p50"] = statistics.median(run_video_s)
    values["pipeline.run_video_s_max"] = max(run_video_s)

    values["scoring.records"] = replay.corpus_records
    values["scoring.bytes_read"] = replay.corpus_bytes
    values["core.ingest_probs_calls"] = replay.ingest_calls
    c = replay.online_counts
    periods = c["activations"]
    values.update({
        "windows.windows": c["scheduled"],
        "gate.steps": c["windows"],
        "gate.activations": c["activations"],
        "gate.active_windows": c["folds"],
        "activation.folds": c["folds"],
        "activation.periods": periods,
        "activation.events_early": c["early"],
        "activation.events_late": c["late"],
        "activation.periods_dismissed": c["dismissed"],
        "activation.open_at_end": c["open_at_end"],
        "activation.useful_ratio": (c["early"] + c["late"]) / periods if periods else 0.0,
        "pipeline.invocations_per_window": replay.library_invocations_per_window,
    })
    swept = [
        summary for op, name, summary in tracer.observed
        if name == "pipeline.run_corpus" and tracer.ops[op][0] == "sweep"
    ]
    values["pipeline.early_tau_max"] = max((tau for tau, early in swept if early > 0), default=0.0)
    agg = replay.eval_report["aggregate"]
    values.update({
        "evaluate.matched": agg["matched"],
        "evaluate.duplicates": agg["duplicates"],
        "evaluate.unmatched": agg["unmatched_events"],
        "evaluate.missed": agg["missed_segments"],
        "cli.bytes_written": replay.run_bytes,
    })
    untraced, traced = replay.cycle_s[False], replay.cycle_s[True]
    values["trace_overhead_pct"] = (statistics.median(traced) / statistics.median(untraced) - 1.0) * 100.0
    return values


def op_breakdown(replay) -> dict:
    """Per operation, the mean self time of each span name over traced cycles."""
    from spans import self_times

    tracer = replay.trace_log
    cycles = max(1, len(replay.traced_cycles))
    table: dict = {}
    for (_, op, name, _, _), t in zip(tracer.spans, self_times(tracer.spans)):
        row = table.setdefault(tracer.ops[op][0], {})
        row[name] = row.get(name, 0.0) + t / cycles
    return table


def measure(workload, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """One benchmark run; returns its full record (metrics, machine, inputs, failures)."""
    import workloads

    load_start = os.getloadavg()
    replay = workloads.execute(workload, seed, seconds, trace, root)
    expected = PER_LAYER if trace else END_TO_END
    spread: dict = {}
    breakdown: dict = {}
    if trace:
        values = replay.ledger.attempt("trace-summary", lambda: per_layer_metrics(replay)) or {}
        if values:
            breakdown = op_breakdown(replay)
    else:
        values, spread = end_to_end_metrics(replay)
    unmeasured = [m for m in expected if m not in values]
    attempted, failed = replay.ledger.attempted, len(replay.ledger.failures)
    return {
        "workload": {"name": workload.name, "why": workload.why, "videos": workload.videos,
                     "gestures": workload.gestures, "classes": workload.classes},
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "inputs": {"corpus_sha256": replay.corpus_sha, "corpus_bytes": replay.corpus_bytes,
                   "corpus_records": replay.corpus_records},
        "correct": failed == 0 and not unmeasured,
        "attempted": attempted,
        "failed": failed,
        "failed_ops_pct": 100.0 * failed / max(1, attempted),
        "failures": replay.ledger.failures,
        "unmeasured": unmeasured,
        "untraced_boundaries": replay.missing_boundaries,
        "metrics": {m: {"value": values.get(m), "unit": u, "better": b} for m, (u, b) in expected.items()},
        "spread": {m: dict(zip(("n", "q1", "median", "q3"), s)) for m, s in spread.items()},
        "self_s_by_op": breakdown,
        "spans": replay.trace_log if trace else None,
    }


def report(record: dict) -> None:
    """Print every metric with its unit and spread, then the result line."""
    print(f"# gesturestream benchmark: {record['workload']['name']}, seed {record['seed']}, "
          f"{record['seconds']:g} s, trace {record['trace']}")
    for key in ("machine", "loadavg_start", "loadavg_end", "inputs"):
        print(f"# {key}: {json.dumps(record[key])}")
    for m, metric in record["metrics"].items():
        value = float("nan") if metric["value"] is None else metric["value"]
        line = f"{m:32s} {value:>16.6f} {metric['unit']:6s} ({metric['better']} is better)"
        if m in record["spread"]:
            s = record["spread"][m]
            line += f"  n={s['n']}" if s["median"] is None else f"  n={s['n']} q1={s['q1']:.6g} q3={s['q3']:.6g}"
        print(line)
    print(f"{'failed_ops_pct':32s} {record['failed_ops_pct']:>16.6f} %      "
          f"({record['failed']} of {record['attempted']} operations)")
    for op, row in record["self_s_by_op"].items():
        top = sorted(row.items(), key=lambda kv: -kv[1])
        print(f"# self time per traced cycle, op {op}: " + ", ".join(f"{n} {t:.4f}s" for n, t in top))
    for failure in record["failures"]:
        print(f"# FAILED {failure}")
    for m in record["unmeasured"]:
        print(f"# UNMEASURED {m}")
    if record["untraced_boundaries"]:
        print(f"# untraced boundaries (not found): {', '.join(record['untraced_boundaries'])}")
    metrics = {m: {"value": v["value"] if v["value"] is not None else 0.0, "unit": v["unit"]}
               for m, v in record["metrics"].items()}
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))


def main(argv=None) -> int:
    args = parse_args(argv)
    package = SRC / "gesturestream"
    if not (package / "__init__.py").is_file():
        print(f"error: {package} not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import gesturestream

    if Path(gesturestream.__file__).resolve().parent != package.resolve():
        print(f"error: imported gesturestream from {gesturestream.__file__}, not {package}", file=sys.stderr)
        return 2
    import workloads
    from spans import self_times, write_spans

    record = measure(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), ROOT)
    tracer = record.pop("spans")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if tracer is not None and tracer.spans:
        write_spans(out_dir / f"{stem}.spans.tsv", tracer, self_times(tracer.spans))
    print(f"# record: .bench_out/{stem}.json")
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
