"""End-to-end per-video runs: windowing -> detector -> gate -> classifier -> events.

The events are those of a causal real-time system that processes each video
strictly in stride order with no lookahead, over logical frame time; the
batch kernel reaches them in whole-video passes. The classifier stream is
consulted only while the gate holds the classifier active, which is the
pipeline's whole economy: idle stretches cost one detector lookup per window.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .activation import ActivationEvent, EventKind, fold_periods, midpoint, sigmoid_weight
from .core import GESTURE_INDEX, PipelineConfig, top2_rows, validate_config
from .evaluate import AggregateStats, VideoScore, evaluate_corpus
from .gate import gate_periods
from .scoring import Corpus, ScoreStream
from .windows import cursor_for

log = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
class TraceRow:
    """Per-window diagnostics mirroring the signals a live dashboard would plot."""

    t: int
    raw_prob: float
    filtered_prob: float
    mode: str
    j: int
    weight: float
    top_label: int
    top1: float
    top2: float


@dataclass(frozen=True, slots=True)
class RunTrace:
    """Everything one video run produced: events, counters, optional rows."""

    video_id: str
    events: tuple[ActivationEvent, ...]
    windows_processed: int
    classifier_invocations: int
    rows: tuple[TraceRow, ...] = ()


def run_video(
    detector: ScoreStream,
    classifier: ScoreStream,
    cfg: PipelineConfig,
    collect_trace: bool = False,
) -> RunTrace:
    """Run the full pipeline over one video's score streams.

    Gives what a window-by-window replay through gate_step and
    activation_step gives, bit for bit, in two passes over arrays: a plain
    float loop over the detector's gesture column finds the active periods,
    then fold_periods folds the classifier rows of all of them at once. The
    schedule spans the detector stream; a missing score for any window the
    replay would read aborts with the offending frame. Trace rows are built
    only on request since full traces dwarf the event log.
    """
    validate_config(cfg)
    ends = cursor_for(detector.length, cfg)
    if not ends:
        log.warning(
            "stream of %d frames is shorter than the classifier window (%d); no windows scheduled",
            detector.length,
            cfg.classifier_window,
        )
    raws = detector.rows[ends.start :: ends.step, GESTURE_INDEX]
    bad = np.flatnonzero(~((raws >= 0.0) & (raws <= 1.0)))  # NaN for a missing frame
    usable = int(bad[0]) if bad.size else len(raws)
    raw_list = raws[:usable].tolist()
    filtered, periods = gate_periods(raw_list, cfg)

    lengths = [stop - first for first, stop in periods]
    fold_windows = np.concatenate([np.arange(first, stop) for first, stop in periods]) if periods else np.arange(0)
    fold_frames = ends.start + ends.step * fold_windows
    # Fail on the frame a window-by-window replay would fail on: the gate ran
    # up to the first unusable detector frame, so classifier frames read
    # before it come first.
    missing = fold_frames >= classifier.length
    missing[~missing] = np.isnan(classifier.rows[fold_frames[~missing], 0])
    if missing.any():
        raise ValueError(f"no score for {classifier.video_id}@{fold_frames[missing.argmax()]}")
    if usable < len(raws):
        if np.isnan(raws[usable]):
            raise ValueError(f"no score for {detector.video_id}@{ends[usable]}")
        raise ValueError(f"raw gesture probability {raws[usable].item()!r} outside [0, 1]")
    if lengths and classifier.arity != cfg.num_classes:
        raise ValueError(f"arity mismatch: mean has {cfg.num_classes} classes, scores have {classifier.arity}")

    t_mid = midpoint(cfg.mean_duration, cfg.stride)
    weights = [0.0] + [sigmoid_weight(j, t_mid, cfg.sigmoid_slope) for j in range(1, max(lengths, default=0) + 1)]
    means = classifier.rows[fold_frames]
    fold_periods(means, lengths, weights)
    label_arr, top1_arr, top2_arr = top2_rows(means)
    labels, top1s, top2s = label_arr.tolist(), top1_arr.tolist(), top2_arr.tolist()
    margins = (top1_arr - top2_arr).tolist()

    events: list[ActivationEvent] = []
    offset = 0
    for (first, stop), size in zip(periods, lengths):
        hit = next((i for i in range(offset, offset + size) if margins[i] >= cfg.tau_early), None)
        if hit is not None:
            events.append(ActivationEvent(labels[hit], ends[first + hit - offset], EventKind.EARLY, margins[hit]))
        elif stop < len(ends):
            last = offset + size - 1
            if top1s[last] >= cfg.tau_late:
                events.append(ActivationEvent(labels[last], ends[stop], EventKind.LATE, top1s[last]))
        offset += size
    if periods and periods[-1][1] == len(ends):
        log.debug("%s: stream ended while the gate was active; no event flushed", detector.video_id)

    rows: tuple[TraceRow, ...] = ()
    if collect_trace:
        count = len(ends)
        modes, js, row_weights = ["idle"] * count, [0] * count, [0.0] * count
        row_labels, row_top1, row_top2 = [-1] * count, [0.0] * count, [0.0] * count
        offset = 0
        for (first, stop), size in zip(periods, lengths):
            modes[first:stop] = ["active"] * size
            js[first:stop] = range(1, size + 1)
            row_weights[first:stop] = weights[1 : size + 1]
            row_labels[first:stop] = labels[offset : offset + size]
            row_top1[first:stop] = top1s[offset : offset + size]
            row_top2[first:stop] = top2s[offset : offset + size]
            offset += size
        rows = tuple(map(TraceRow, ends, raw_list, filtered, modes, js, row_weights, row_labels, row_top1, row_top2))
    return RunTrace(
        video_id=detector.video_id,
        events=tuple(events),
        windows_processed=len(ends),
        classifier_invocations=len(fold_frames),
        rows=rows,
    )


@dataclass(frozen=True, slots=True)
class VideoRun(VideoScore):
    """One video's evaluation against ground truth plus the trace it came from."""

    trace: RunTrace


@dataclass(frozen=True, slots=True)
class CorpusRun:
    """Per-video runs plus the aggregate report for one configuration."""

    videos: dict[str, VideoRun]
    skipped: tuple[str, ...]
    aggregate: AggregateStats


def run_corpus(
    corpus: Corpus,
    cfg: PipelineConfig,
    grace: Optional[int] = None,
    collect_trace: bool = False,
) -> CorpusRun:
    """Run and evaluate every annotated video in the corpus.

    Videos without annotations are skipped with a warning and listed in the
    result. The grace window for event/segment matching defaults to the
    classifier window, the span within which a late detection can still
    belong to the gesture that just ended.
    """
    validate_config(cfg)
    if grace is None:
        grace = cfg.classifier_window
    video_ids = corpus.video_ids()
    if not video_ids:
        raise ValueError("no videos in corpus")

    traces: dict[str, RunTrace] = {}
    skipped: list[str] = []
    for video_id in video_ids:
        segments = corpus.segments.get(video_id)
        if not segments:
            log.warning("skipping %s: no annotations", video_id)
            skipped.append(video_id)
            continue
        if video_id not in corpus.classifier:
            raise ValueError(f"no classifier stream for {video_id}")
        traces[video_id] = run_video(
            corpus.detector[video_id], corpus.classifier[video_id], cfg, collect_trace=collect_trace
        )
    if not traces:
        raise ValueError("no videos with annotations to evaluate")

    scores, aggregate = evaluate_corpus(
        {v: trace.events for v, trace in traces.items()},
        {v: corpus.segments[v] for v in traces},
        grace,
    )
    runs = {v: VideoRun(s.events, s.result, s.matches, s.early, traces[v]) for v, s in scores.items()}
    aggregate = replace(
        aggregate,
        windows_processed=sum(t.windows_processed for t in traces.values()),
        classifier_invocations=sum(t.classifier_invocations for t in traces.values()),
    )
    return CorpusRun(videos=runs, skipped=tuple(skipped), aggregate=aggregate)
