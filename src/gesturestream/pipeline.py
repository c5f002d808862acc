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
from itertools import accumulate
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
    """One video run: its events and the fold they came from.

    The run counters follow from the fold. open_at_end is 1 when the stream
    ended while the gate was active; that period's pending late event is
    never emitted.
    """

    events: tuple[ActivationEvent, ...]
    folded: FoldedVideo

    @property
    def windows_processed(self) -> int:
        return len(self.folded.ends)

    @property
    def classifier_invocations(self) -> int:
        return sum(stop - first for first, stop in self.folded.periods)

    @property
    def open_at_end(self) -> int:
        periods = self.folded.periods
        return int(bool(periods) and periods[-1][1] == len(self.folded.ends))


@dataclass(frozen=True, slots=True)
class FoldedVideo:
    """One video gated and folded: everything a run computes before any threshold.

    Neither the gate nor the weighted means read tau_early or tau_late, so
    one pass serves every threshold and video_events derives each
    threshold's events from it. All but periods and weights are per window:
    an active window holds its mean's top-2 and its period's best margin so
    far, an idle one -1, 0.0, 0.0 and 0.0.
    """

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
    periods, fold_periods folds the classifier rows of all of them at once,
    and each fold lands at its window. The schedule spans the detector
    stream. A classifier arity other than cfg.num_classes, or a classifier
    stream that ends before a fold window, aborts with a replay's first error.
    """
    validate_config(cfg)
    ends = cursor_for(detector.length, cfg)
    if not ends:
        log.warning(
            "stream of %d frames is shorter than the classifier window (%d); no windows scheduled",
            detector.length,
            cfg.classifier_window,
        )
    raw_list = detector.rows[ends.start :: ends.step, GESTURE_INDEX].tolist()
    filtered, periods = gate_periods(raw_list, cfg)

    lengths = [stop - first for first, stop in periods]
    fold_windows = np.concatenate([np.arange(first, stop) for first, stop in periods]) if periods else np.arange(0)
    fold_frames = ends.start + ends.step * fold_windows
    # the replay meets the arity at the first fold, so a frame missing later comes second
    if lengths and fold_frames[0] < classifier.length and classifier.arity != cfg.num_classes:
        raise ValueError(f"arity mismatch: mean has {cfg.num_classes} classes, scores have {classifier.arity}")
    missing = fold_frames >= classifier.length
    if missing.any():
        raise ValueError(f"no score for {classifier.video_id}@{fold_frames[missing.argmax()]}")

    t_mid = midpoint(cfg.mean_duration, cfg.stride)
    weights = [0.0] + [sigmoid_weight(j, t_mid, cfg.sigmoid_slope) for j in range(1, max(lengths, default=0) + 1)]
    means = classifier.rows[fold_frames]
    fold_periods(means, lengths, weights)
    label_arr, top1_arr, top2_arr = top2_rows(means)
    # idle windows share one sentinel object per column, so each costs a list slot and no float
    labels, top1s, top2s, best_margins = [-1] * len(ends), [0.0] * len(ends), [0.0] * len(ends), [0.0] * len(ends)
    for (first, stop), fold in zip(periods, accumulate(lengths, initial=0)):
        folds = slice(fold, fold + stop - first)
        labels[first:stop] = label_arr[folds].tolist()
        top1s[first:stop] = top1_arr[folds].tolist()
        top2s[first:stop] = top2_arr[folds].tolist()
        best_margins[first:stop] = np.maximum.accumulate(top1_arr[folds] - top2_arr[folds]).tolist()
    return FoldedVideo(ends, raw_list, filtered, periods, weights, labels, top1s, top2s, best_margins)


def video_events(folded: FoldedVideo, tau_early: float, tau_late: float) -> tuple[ActivationEvent, ...]:
    """The events of a folded video at the given thresholds, at most one per active period.

    The first window of a period whose margin reaches tau_early gives an
    early event; failing that, a period the gate closed gives a late event
    at its deactivation window when its last mean's maximum reaches
    tau_late. A period still open at the end of the stream gives no late event.
    """
    ends, labels, top1s, best = folded.ends, folded.labels, folded.top1s, folded.best_margins
    events: list[ActivationEvent] = []
    for first, stop in folded.periods:
        # the first window whose margin reaches tau_early, where the running best is that margin
        hit = bisect_left(best, tau_early, first, stop)
        if hit < stop:
            events.append(ActivationEvent(labels[hit], ends[hit], EventKind.EARLY, best[hit]))
        elif stop < len(ends) and top1s[stop - 1] >= tau_late:
            events.append(ActivationEvent(labels[stop - 1], ends[stop], EventKind.LATE, top1s[stop - 1]))
    return tuple(events)


def run_video(detector: ScoreStream, classifier: ScoreStream, cfg: PipelineConfig) -> RunTrace:
    """Run the full pipeline over one video's score streams.

    Gives what a window-by-window replay through gate_step and
    activation_step gives, bit for bit: fold_video gates and folds the
    whole video, then video_events applies the configured thresholds.
    """
    folded = fold_video(detector, classifier, cfg)
    return RunTrace(video_events(folded, cfg.tau_early, cfg.tau_late), folded)


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
    detector or a classifier stream, and a corpus with no annotated video
    are errors, raised before any video is processed.
    """
    video_ids = corpus.video_ids()
    if not video_ids:
        raise ValueError("no videos in corpus")
    annotated = sorted(video_id for video_id, segments in corpus.segments.items() if segments)
    for video_id in annotated:
        if video_id not in corpus.detector:
            raise ValueError(f"no detector stream for {video_id}")
        if video_id not in corpus.classifier:
            raise ValueError(f"no classifier stream for {video_id}")
    skipped = tuple(video_id for video_id in video_ids if not corpus.segments.get(video_id))
    for video_id in skipped:
        log.warning("skipping %s: no annotations", video_id)
    if not annotated:
        raise ValueError("no videos with annotations to evaluate")
    done = {video_id: per_video(corpus.detector[video_id], corpus.classifier[video_id]) for video_id in annotated}
    return done, skipped


def run_corpus(
    corpus: Corpus,
    cfg: PipelineConfig,
    grace: Optional[int] = None,
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
    traces, skipped = over_annotated_videos(corpus, lambda detector, classifier: run_video(detector, classifier, cfg))
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
