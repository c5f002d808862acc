"""Output checks for the benchmark's operations.

Each check raises CheckFailed when an output disagrees with its reference;
the caller counts the operation as failed. The references are:

- the online API (`gate_step` + `activation_step`), replayed window by
  window, for the events of `run` and of the library `run_corpus`;
- the `run` report's aggregate for the `eval` aggregate and for the sweep
  row at the default tau_early of 1.0.

The events file is parsed here with its own strict reader, so a malformed
line cannot be skipped by the package's loader.
"""

from __future__ import annotations

import csv
import io
import json

SCORE_TOL = 1e-12
# Aggregate fields that `run` and `eval` must both report and agree on.
EVAL_FIELDS = (
    "videos",
    "mean_levenshtein_accuracy",
    "events",
    "matched",
    "duplicates",
    "unmatched_events",
    "missed_segments",
    "early_frames",
)


class CheckFailed(Exception):
    """An operation's output disagrees with its reference."""


def read_events(text: str) -> dict[str, list[tuple[int, int, str, float]]]:
    """Parse events.jsonl into {video: [(class, frame, kind, score), ...]}."""
    events: dict[str, list[tuple[int, int, str, float]]] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        try:
            record = json.loads(line)
            video, label, frame, kind, score = (
                record["video"], record["class"], record["frame"], record["kind"], record["score"]
            )
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise CheckFailed(f"events line {lineno}: unreadable ({exc})") from None
        if not (
            isinstance(video, str)
            and type(label) is int
            and type(frame) is int
            and kind in ("early", "late")
            and type(score) is float
        ):
            raise CheckFailed(f"events line {lineno}: bad field types in {line!r}")
        events.setdefault(video, []).append((label, frame, kind, score))
    return events


def check_events_equal(expected: dict, actual: dict, what: str) -> None:
    """Same videos, same (class, frame, kind) sequences, scores within SCORE_TOL."""
    if sorted(expected) != sorted(actual):
        missing = sorted(set(expected) - set(actual))
        extra = sorted(set(actual) - set(expected))
        raise CheckFailed(f"{what}: videos differ (missing {missing[:5]}, extra {extra[:5]})")
    for video, want in expected.items():
        got = actual[video]
        if len(got) != len(want):
            raise CheckFailed(f"{what}: {video} has {len(got)} events, expected {len(want)}")
        for i, (w, g) in enumerate(zip(want, got)):
            if w[:3] != g[:3] or not abs(w[3] - g[3]) <= SCORE_TOL:
                raise CheckFailed(f"{what}: {video} event {i} is {g}, expected {w}")


def check_eval_matches_run(run_report: dict, eval_report: dict) -> None:
    """Re-scoring a run's events must reproduce that run's aggregate."""
    run_agg, eval_agg = run_report["aggregate"], eval_report["aggregate"]
    for field in EVAL_FIELDS:
        if field not in run_agg or field not in eval_agg:
            raise CheckFailed(f"eval: aggregate field {field!r} missing")
        if run_agg[field] != eval_agg[field]:
            raise CheckFailed(f"eval: {field} is {eval_agg[field]!r}, run reported {run_agg[field]!r}")


def sweep_rows(csv_text: str) -> dict[float, dict[str, str]]:
    return {float(row["tau_early"]): row for row in csv.DictReader(io.StringIO(csv_text))}


def check_sweep_matches_run(rows: dict[float, dict[str, str]], run_report: dict) -> None:
    """The sweep row at tau_early 1.0 (the default) must equal the default run."""
    if 1.0 not in rows:
        raise CheckFailed("sweep: no row at tau_early 1.0")
    row, agg = rows[1.0], run_report["aggregate"]

    def num(x) -> str:
        return "" if x is None else f"{x:.6f}"

    early = agg["early_frames"] or {}
    expected = {
        "levenshtein_accuracy": num(agg["mean_levenshtein_accuracy"]),
        "mean_early_frames": num(early.get("mean")),
        "median_early_frames": num(early.get("median")),
        "matched": str(agg["matched"]),
        "duplicates": str(agg["duplicates"]),
        "misses": str(agg["missed_segments"]),
    }
    for field, want in expected.items():
        if row.get(field) != want:
            raise CheckFailed(f"sweep: tau 1.0 {field} is {row.get(field)!r}, run reported {want!r}")


def check_counts(what: str, got: dict, expected: dict) -> None:
    """Counters such as windows and classifier invocations must agree exactly."""
    for key, want in expected.items():
        if got.get(key) != want:
            raise CheckFailed(f"{what}: {key} is {got.get(key)!r}, expected {want!r}")
