"""End-to-end per-video runs: windowing -> detector -> gate -> classifier -> events.

The events are those of a causal real-time system that processes each video
strictly in stride order with no lookahead, over logical frame time; the
batch kernel reaches them in array passes that gate each video whole and
fold the whole corpus at once. The classifier stream is consulted only
while the gate holds the classifier active, which is the pipeline's whole
economy: idle stretches cost one detector lookup per window.
"""

from __future__ import annotations

import logging
from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .activation import ActivationEvent, EventKind, fold_periods, midpoint, sigmoid_weight
from .core import GESTURE_INDEX, PipelineConfig, top2_rows, validate_config
from .evaluate import AggregateStats, VideoScore, check_grace, evaluate_corpus
from .gate import gate_periods
from .scoring import Corpus, ScoreStream
from .windows import cursor_for

log = logging.getLogger(__name__)


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
    the corpus is folded once for every threshold and run_video derives
    each threshold's events from the fold. All but periods and weights are
    per window: an active window holds its mean's top-2 and its period's
    best margin so far, an idle one -1, 0.0, 0.0 and 0.0.
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


def fold_videos(streams: list[tuple[ScoreStream, ScoreStream]], cfg: PipelineConfig) -> list[FoldedVideo]:
    """Gate each video's windows, then fold the classifier rows of every video's active periods at once.

    Per video, in the given order, gate_periods filters the detector's
    gesture column in one array pass and finds the active periods from its
    on/off boundaries; the schedule spans the detector stream. A classifier
    arity other than cfg.num_classes, or a classifier stream that ends
    before a fold window, aborts with a replay's first error before anything
    is folded. fold_periods then folds the rows of every period of every
    video in one call, top2_rows reads every mean's top-2 at once, and each
    fold lands at its video's window. Each video's fold is what folding it
    alone gives, field for field.
    """
    validate_config(cfg)
    gated, views = [], []
    for detector, classifier in streams:
        ends = cursor_for(detector.length, cfg)
        if not ends:
            log.warning(
                "stream of %d frames is shorter than the classifier window (%d); no windows scheduled",
                detector.length,
                cfg.classifier_window,
            )
        raws = detector.rows[ends.start :: ends.step, GESTURE_INDEX]
        filtered, periods = gate_periods(raws, cfg)
        gated.append((ends, raws, filtered, periods))
        frames = [ends[first:stop] for first, stop in periods]
        # the replay meets the arity at the first fold, so a frame missing later comes second
        if frames and frames[0][0] < classifier.length and classifier.arity != cfg.num_classes:
            raise ValueError(f"arity mismatch: mean has {cfg.num_classes} classes, scores have {classifier.arity}")
        if frames and frames[-1][-1] >= classifier.length:
            missing = next(r[bisect_left(r, classifier.length)] for r in frames if r[-1] >= classifier.length)
            raise ValueError(f"no score for {classifier.video_id}@{missing}")
        views += [classifier.rows[r.start : r.stop : r.step] for r in frames]

    lengths = [stop - first for *_, periods in gated for first, stop in periods]
    t_mid = midpoint(cfg.mean_duration, cfg.stride)
    weights = [0.0] + [sigmoid_weight(j, t_mid, cfg.sigmoid_slope) for j in range(1, max(lengths, default=0) + 1)]
    means = np.concatenate(views) if views else np.empty((0, cfg.num_classes))
    fold_periods(means, lengths, weights)
    label_arr, top1_arr, top2_arr = top2_rows(means)
    margins = top1_arr - top2_arr
    all_labels, all_top1s, all_top2s = label_arr.tolist(), top1_arr.tolist(), top2_arr.tolist()
    folded, fold = [], 0
    for ends, raws, filtered, periods in gated:
        # idle windows share one sentinel object per column, so each costs a list slot and no float
        labels, top1s, top2s, best_margins = [-1] * len(ends), [0.0] * len(ends), [0.0] * len(ends), [0.0] * len(ends)
        for first, stop in periods:
            folds = slice(fold, fold + stop - first)
            labels[first:stop] = all_labels[folds]
            top1s[first:stop] = all_top1s[folds]
            top2s[first:stop] = all_top2s[folds]
            best_margins[first:stop] = np.maximum.accumulate(margins[folds]).tolist()
            fold = folds.stop
        longest = max((stop - first for first, stop in periods), default=0)
        folded.append(
            FoldedVideo(ends, raws.tolist(), filtered, periods, weights[: longest + 1], labels, top1s, top2s, best_margins)
        )
    return folded


def fold_video(detector: ScoreStream, classifier: ScoreStream, cfg: PipelineConfig) -> FoldedVideo:
    """Gate one video's windows and fold the classifier rows of its active periods: fold_videos of one video."""
    return fold_videos([(detector, classifier)], cfg)[0]


def run_video(folded: FoldedVideo, cfg: PipelineConfig) -> RunTrace:
    """The events of a folded video at cfg's thresholds, at most one per active period.

    The first window of a period whose margin reaches tau_early gives an
    early event; failing that, a period the gate closed gives a late event
    at its deactivation window when its last mean's maximum reaches
    tau_late. A period still open at the end of the stream gives no late
    event. run_video(fold_video(detector, classifier, cfg), cfg) gives what
    a window-by-window replay through gate_step and activation_step gives,
    bit for bit.
    """
    ends, labels, top1s, best = folded.ends, folded.labels, folded.top1s, folded.best_margins
    events: list[ActivationEvent] = []
    for first, stop in folded.periods:
        # the first window whose margin reaches tau_early, where the running best is that margin
        hit = bisect_left(best, cfg.tau_early, first, stop)
        if hit < stop:
            events.append(ActivationEvent(labels[hit], ends[hit], EventKind.EARLY, best[hit]))
        elif stop < len(ends) and top1s[stop - 1] >= cfg.tau_late:
            events.append(ActivationEvent(labels[stop - 1], ends[stop], EventKind.LATE, top1s[stop - 1]))
    return RunTrace(tuple(events), folded)


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


def fold_corpus(corpus: Corpus, cfg: PipelineConfig) -> dict[str, FoldedVideo]:
    """Every annotated video's fold, in id order, from one fold_videos call: the pass run_corpus and sweep score.

    Videos without annotations are skipped with a warning each. A corpus
    with no videos, an annotated video without a detector or a classifier
    stream, and a corpus with no annotated video are errors, raised before
    any video is gated.
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
    for video_id in video_ids:
        if not corpus.segments.get(video_id):
            log.warning("skipping %s: no annotations", video_id)
    if not annotated:
        raise ValueError("no videos with annotations to evaluate")
    return dict(zip(annotated, fold_videos([(corpus.detector[v], corpus.classifier[v]) for v in annotated], cfg)))


def score_runs(traces: dict[str, RunTrace], corpus: Corpus, grace: int) -> CorpusRun:
    """Score every run against its video's annotations; the corpus's videos without a run are skipped.

    The aggregate's run counters sum the runs' folds.
    """
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
    skipped = tuple(v for v in corpus.video_ids() if v not in traces)
    return CorpusRun(videos=runs, skipped=skipped, aggregate=aggregate)


def run_corpus(
    corpus: Corpus,
    cfg: PipelineConfig,
    grace: Optional[int] = None,
) -> CorpusRun:
    """Run and evaluate every annotated video in the corpus.

    Videos without annotations are skipped with a warning and listed in the
    result. The grace window for event/segment matching defaults to the
    classifier window, the span within which a late detection can still
    belong to the gesture that just ended; a negative one is rejected
    before any video runs.
    """
    validate_config(cfg)
    grace = check_grace(cfg.classifier_window if grace is None else grace)
    return score_runs({v: run_video(folded, cfg) for v, folded in fold_corpus(corpus, cfg).items()}, corpus, grace)
