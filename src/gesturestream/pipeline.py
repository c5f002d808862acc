"""End-to-end per-video runs: windowing -> detector -> gate -> classifier -> events.

The events are those of a causal real-time system that processes each video
strictly in stride order with no lookahead, over logical frame time; the
batch kernel reaches them in array passes that check and gate each video
whole and fold the whole corpus at once into read-only numpy columns. The
classifier rows of active windows alone are read, which is the pipeline's
whole economy, yet a classifier stream must score every frame, as on disk.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .activation import ActivationEvent, EventKind, fold_periods, top2_rows
from .core import GESTURE_INDEX, PipelineConfig
from .evaluate import AggregateStats, VideoScore, check_grace, evaluate_corpus
from .gate import gate_periods
from .scoring import Corpus, ScoreStream
from .windows import cursor_for, warn_if_empty

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


@dataclass(frozen=True, slots=True, eq=False)
class FoldedVideo:
    """One video gated and folded: everything a run computes before any threshold.

    Neither the gate nor the weighted means read tau_early or tau_late, so
    the corpus is folded once for every threshold and run_video derives
    each threshold's events from the fold. All but ends and periods are
    read-only numpy arrays, one entry per window: an active window holds its
    mean's top-2, an idle one -1, 0.0 and 0.0. Folds compare by identity.
    """

    ends: range
    raws: np.ndarray
    filtered: np.ndarray
    periods: list[tuple[int, int]]
    labels: np.ndarray
    top1s: np.ndarray
    top2s: np.ndarray


def fold_videos(streams: list[tuple[ScoreStream, ScoreStream]], cfg: PipelineConfig) -> list[FoldedVideo]:
    """Check and gate each video's pair of streams, then fold the classifier rows of every active period at once.

    Per video, in the given order, the pair must meet load_corpus's rule
    before it is gated, whatever the gate reads: a detector of arity 2, a
    classifier of arity cfg.num_classes at least as long as it. Then
    gate_periods finds the active periods from the filtered gesture column
    in one array pass, fold_periods folds the rows of every period of every
    video in one call, top2_rows reads every mean's top-2 at once, and each
    fold lands at its window of corpus-wide columns that the videos slice.
    Each video's fold, error and warning is what folding it alone gives.
    """
    gated, views = [], []
    for detector, classifier in streams:
        if detector.arity != 2:
            raise ValueError(f"arity mismatch: detector of {detector.video_id} has {detector.arity} classes, expected 2")
        if classifier.arity != cfg.num_classes:
            raise ValueError(f"arity mismatch: mean has {cfg.num_classes} classes, scores have {classifier.arity}")
        if classifier.length < detector.length:
            raise ValueError(f"no score for {classifier.video_id}@{classifier.length}")
        ends = cursor_for(detector.length, cfg)
        warn_if_empty(ends, cfg)
        raws = detector.rows[ends.start :: ends.step, GESTURE_INDEX]
        filtered, periods = gate_periods(raws, cfg)
        filtered.flags.writeable = False
        gated.append((ends, raws, filtered, periods))
        views += [classifier.rows[ends.start :: ends.step][first:stop] for first, stop in periods]

    offsets = np.cumsum([0] + [len(ends) for ends, *_ in gated]).tolist()  # each video's first window
    firsts = [o + first for o, (*_, periods) in zip(offsets, gated) for first, _ in periods]
    lengths = [stop - first for *_, periods in gated for first, stop in periods]
    rows = np.concatenate(views) if views else np.empty((0, cfg.num_classes))
    windows, means = fold_periods(rows, firsts, lengths, cfg)
    del rows  # the gathered rows are freed before top2_rows masks the means in place
    columns = np.full(offsets[-1], -1, np.int64), np.zeros(offsets[-1]), np.zeros(offsets[-1])  # labels, top1s, top2s
    for column, values in zip(columns, top2_rows(means)):
        column[windows] = values
        column.flags.writeable = False
    return [FoldedVideo(*video, *own) for video, *own in zip(gated, *(np.split(c, offsets[1:-1]) for c in columns))]


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
    bit for bit, in Python numbers.
    """
    ends, periods = folded.ends, folded.periods
    reached = np.flatnonzero(folded.top1s - folded.top2s >= cfg.tau_early)
    hits = np.append(reached, len(ends))[np.searchsorted(reached, [first for first, _ in periods])].tolist()
    at = [min(hit, stop - 1) for hit, (_, stop) in zip(hits, periods)]  # the window each period's event reads
    labels, top1s, top2s = (column[at].tolist() for column in (folded.labels, folded.top1s, folded.top2s))
    events: list[ActivationEvent] = []
    for hit, (_, stop), label, top1, top2 in zip(hits, periods, labels, top1s, top2s):
        if hit < stop:
            events.append(ActivationEvent(label, ends[hit], EventKind.EARLY, top1 - top2))
        elif stop < len(ends) and top1 >= cfg.tau_late:
            events.append(ActivationEvent(label, ends[stop], EventKind.LATE, top1))
    return RunTrace(tuple(events), folded)


@dataclass(frozen=True, slots=True)
class VideoRun:
    """One video's score against ground truth plus the trace it came from."""

    score: VideoScore
    trace: RunTrace


@dataclass(frozen=True, slots=True)
class CorpusRun:
    """Per-video runs plus the aggregate report for one configuration."""

    videos: dict[str, VideoRun]
    skipped: tuple[str, ...]
    aggregate: AggregateStats


def fold_corpus(corpus: Corpus, cfg: PipelineConfig) -> dict[str, FoldedVideo]:
    """Every annotated video's fold, in id order, from one fold_videos call: the pass run_corpus and sweep score.

    A video either stream scores but no annotation names is skipped with a
    warning. No videos, no annotated video, and an annotated video that
    lacks a stream or has a class outside [0, cfg.num_classes) are errors,
    raised before any video is gated.
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
        for segment in corpus.segments[video_id]:
            if not 0 <= segment.label < cfg.num_classes:
                raise ValueError(f"{video_id}: class {segment.label} outside [0, {cfg.num_classes})")
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
    runs = {v: VideoRun(s, traces[v]) for v, s in scores.items()}
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
    grace = check_grace(cfg.classifier_window if grace is None else grace)
    return score_runs({v: run_video(folded, cfg) for v, folded in fold_corpus(corpus, cfg).items()}, corpus, grace)
