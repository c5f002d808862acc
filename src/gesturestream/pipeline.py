"""End-to-end per-video runs: windowing -> detector -> gate -> classifier -> events.

The events are those of a causal real-time system that processes each video
strictly in stride order with no lookahead, over logical frame time; the
batch kernel reaches them in whole-video passes. The classifier stream is
consulted only while the gate holds the classifier active, which is the
pipeline's whole economy: idle stretches cost one detector lookup per window.
"""

from __future__ import annotations

import logging
from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import Callable, Optional, TypeVar

import numpy as np

from .activation import ActivationEvent, EventKind, fold_periods, midpoint, sigmoid_weight
from .core import GESTURE_INDEX, PipelineConfig, top2_rows, validate_config
from .evaluate import AggregateStats, VideoScore, evaluate_corpus
from .gate import gate_periods
from .scoring import Corpus, ScoreStream
from .windows import cursor_for

log = logging.getLogger(__name__)

T = TypeVar("T")


@dataclass(frozen=True, slots=True)
class RunTrace:
    """Everything one video run produced: events, counters, and the fold when traced.

    open_at_end is 1 when the stream ended while the gate was active; that
    period's pending late event is never emitted.
    """

    video_id: str
    events: tuple[ActivationEvent, ...]
    windows_processed: int
    classifier_invocations: int
    open_at_end: int
    folded: Optional[FoldedVideo] = None


@dataclass(frozen=True, slots=True)
class FoldedVideo:
    """One video gated and folded: everything a run computes before any threshold.

    Neither the gate nor the weighted means read tau_early or tau_late, so
    one pass serves every threshold and video_events derives each
    threshold's events from it. The per-fold lists hold the folds of all
    active periods, period after period; best_margins holds, for each fold,
    the largest top-2 margin its period has reached so far.
    """

    video_id: str
    ends: range
    raws: list[float]
    filtered: list[float]
    periods: list[tuple[int, int]]
    weights: list[float]
    labels: list[int]
    top1s: list[float]
    top2s: list[float]
    best_margins: list[float]


def fold_video(detector: ScoreStream, classifier: ScoreStream, cfg: PipelineConfig) -> FoldedVideo:
    """Gate one video's windows and fold the classifier rows of its active periods.

    A plain float loop over the detector's gesture column finds the active
    periods, then fold_periods folds the classifier rows of all of them at
    once. The schedule spans the detector stream; a missing score for any
    window a window-by-window replay would read aborts with the offending
    frame.
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
    best_margins = top1_arr - top2_arr
    offset = 0
    for size in lengths:
        period = best_margins[offset : offset + size]
        np.maximum.accumulate(period, out=period)
        offset += size
    return FoldedVideo(
        detector.video_id, ends, raw_list, filtered, periods, weights,
        label_arr.tolist(), top1_arr.tolist(), top2_arr.tolist(), best_margins.tolist(),
    )


def video_events(folded: FoldedVideo, tau_early: float, tau_late: float) -> tuple[ActivationEvent, ...]:
    """The events of a folded video at the given thresholds, at most one per active period.

    The first fold whose margin reaches tau_early gives an early event;
    failing that, a period the gate closed gives a late event at its
    deactivation window when the last mean's maximum reaches tau_late. A
    period still open at the end of the stream gives no late event.
    """
    ends, labels, best = folded.ends, folded.labels, folded.best_margins
    events: list[ActivationEvent] = []
    offset = 0
    for first, stop in folded.periods:
        size = stop - first
        # the first fold whose margin reaches tau_early, where the running best is that margin
        hit = bisect_left(best, tau_early, offset, offset + size)
        if hit < offset + size:
            events.append(ActivationEvent(labels[hit], ends[first + hit - offset], EventKind.EARLY, best[hit]))
        elif stop < len(ends):
            last = offset + size - 1
            if folded.top1s[last] >= tau_late:
                events.append(ActivationEvent(labels[last], ends[stop], EventKind.LATE, folded.top1s[last]))
        offset += size
    return tuple(events)


def run_video(
    detector: ScoreStream,
    classifier: ScoreStream,
    cfg: PipelineConfig,
    collect_trace: bool = False,
) -> RunTrace:
    """Run the full pipeline over one video's score streams.

    Gives what a window-by-window replay through gate_step and
    activation_step gives, bit for bit: fold_video gates and folds the
    whole video, then video_events applies the configured thresholds.
    The fold is kept only on request since it dwarfs the event log.
    """
    folded = fold_video(detector, classifier, cfg)
    periods = folded.periods
    return RunTrace(
        video_id=folded.video_id,
        events=video_events(folded, cfg.tau_early, cfg.tau_late),
        windows_processed=len(folded.ends),
        classifier_invocations=len(folded.best_margins),
        open_at_end=int(bool(periods) and periods[-1][1] == len(folded.ends)),
        folded=folded if collect_trace else None,
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


def over_annotated_videos(
    corpus: Corpus, per_video: Callable[[ScoreStream, ScoreStream], T]
) -> tuple[dict[str, T], tuple[str, ...]]:
    """Apply per_video(detector, classifier) to every annotated video, in id order.

    Videos without annotations are skipped with a warning and returned as
    the second item. A corpus with no videos, an annotated video without a
    classifier stream, and a corpus with no annotated video are errors.
    """
    video_ids = corpus.video_ids()
    if not video_ids:
        raise ValueError("no videos in corpus")
    done: dict[str, T] = {}
    skipped: list[str] = []
    for video_id in video_ids:
        if not corpus.segments.get(video_id):
            log.warning("skipping %s: no annotations", video_id)
            skipped.append(video_id)
            continue
        if video_id not in corpus.classifier:
            raise ValueError(f"no classifier stream for {video_id}")
        done[video_id] = per_video(corpus.detector[video_id], corpus.classifier[video_id])
    if not done:
        raise ValueError("no videos with annotations to evaluate")
    return done, tuple(skipped)


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
    traces, skipped = over_annotated_videos(
        corpus, lambda detector, classifier: run_video(detector, classifier, cfg, collect_trace=collect_trace)
    )
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
        open_at_end=sum(t.open_at_end for t in traces.values()),
    )
    return CorpusRun(videos=runs, skipped=skipped, aggregate=aggregate)
