"""Sequence-level scoring of emitted events against ground truth.

Per video, the predicted label sequence (events ordered by emission frame) is
compared to the annotated one with Levenshtein distance, which charges
misclassifications, duplicate detections, and misses alike. Accuracy is
(1 - distance/len(gt)) * 100, deliberately unclamped so floods of spurious
events show up as negative scores rather than zeros.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence

from .activation import ActivationEvent, EventKind
from .core import PipelineConfig
from .scoring import Corpus, GroundTruthSegment


def levenshtein_distance(a: Sequence, b: Sequence) -> int:
    """Edit distance with unit insert/delete/substitute costs.

    Dynamic programming over two rolling rows, O(len(a)*len(b)) time and
    O(min(len)) memory.
    """
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, xa in enumerate(a, 1):
        cur = [i]
        for j, xb in enumerate(b, 1):
            cost = 0 if xa == xb else 1
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost))
        prev = cur
    return prev[-1]


@dataclass(frozen=True, slots=True)
class Match:
    """One event attributed to a segment; correct when the labels agree."""

    event: ActivationEvent
    segment: GroundTruthSegment
    correct: bool

    @property
    def early_frames(self) -> int:
        """Frames before segment end the event fired (negative = after)."""
        return self.segment.end - self.event.emit_frame


@dataclass(frozen=True, slots=True)
class MatchReport:
    """Outcome of attributing a video's events to its segments."""

    matches: tuple[Match, ...]
    duplicates: tuple[ActivationEvent, ...]
    unmatched_events: tuple[ActivationEvent, ...]
    missed_segments: tuple[GroundTruthSegment, ...]


def match_activations(
    events: Sequence[ActivationEvent],
    segments: Sequence[GroundTruthSegment],
    grace: int,
) -> MatchReport:
    """Attribute events to segments within [start, end + grace].

    The grace window admits late detections that legitimately land after a
    gesture ends. Where extended spans overlap, the latest-starting one wins.
    A segment consumes only its first attributed event; later ones are
    flagged as duplicates.
    """
    ordered = sorted(events, key=lambda e: e.emit_frame)
    claimed: set[int] = set()
    matches: list[Match] = []
    duplicates: list[ActivationEvent] = []
    unmatched: list[ActivationEvent] = []
    for event in ordered:
        candidate = None
        candidate_idx = -1
        for idx, seg in enumerate(segments):
            if seg.start <= event.emit_frame <= seg.end + grace:
                if candidate is None or seg.start > candidate.start:
                    candidate, candidate_idx = seg, idx
        if candidate is None:
            unmatched.append(event)
        elif candidate_idx in claimed:
            duplicates.append(event)
        else:
            claimed.add(candidate_idx)
            matches.append(Match(event, candidate, correct=event.label == candidate.label))
    missed = tuple(seg for idx, seg in enumerate(segments) if idx not in claimed)
    return MatchReport(
        matches=tuple(matches),
        duplicates=tuple(duplicates),
        unmatched_events=tuple(unmatched),
        missed_segments=missed,
    )


@dataclass(frozen=True, slots=True)
class EarlyStats:
    """Early-detection frames over correct matches only."""

    mean: float
    median: float
    count: int


def early_detection_stats(matches: Sequence[Match]) -> Optional[EarlyStats]:
    """Mean/median frames-before-segment-end over correct matches.

    Returns None (stats absent, not zero) when nothing was correctly matched.
    """
    frames = [m.early_frames for m in matches if m.correct]
    if not frames:
        return None
    return EarlyStats(
        mean=statistics.fmean(frames), median=float(statistics.median(frames)), count=len(frames)
    )


@dataclass(frozen=True, slots=True)
class VideoScore:
    """One video's events scored against its annotations; accuracy is None for empty gt."""

    events: tuple[ActivationEvent, ...]
    gt_labels: tuple[int, ...]
    pred_labels: tuple[int, ...]
    distance: int
    accuracy: Optional[float]
    matches: MatchReport
    early: Optional[EarlyStats]


def evaluate_video(
    events: Sequence[ActivationEvent],
    segments: Sequence[GroundTruthSegment],
    grace: int,
) -> VideoScore:
    """Score one video's events: Levenshtein distance and accuracy, match report and early-detection stats.

    Accuracy is (1 - distance/len(gt)) * 100, not clamped at zero; a video
    without ground truth gets None and callers leave it out of the mean.
    """
    events = tuple(events)
    ordered_segments = sorted(segments, key=lambda s: s.start)
    gt = tuple(seg.label for seg in ordered_segments)
    pred = tuple(e.label for e in sorted(events, key=lambda e: e.emit_frame))
    distance = levenshtein_distance(gt, pred)
    accuracy = (1.0 - distance / len(gt)) * 100.0 if gt else None
    report = match_activations(events, ordered_segments, grace)
    return VideoScore(events, gt, pred, distance, accuracy, report, early_detection_stats(report.matches))


@dataclass(frozen=True, slots=True)
class AggregateStats:
    """Corpus-level rollup; accuracy is the unweighted mean over videos."""

    video_count: int
    mean_accuracy: Optional[float]
    early: Optional[EarlyStats]
    matched: int
    duplicates: int
    unmatched_events: int
    missed_segments: int
    events_early: int
    events_late: int
    grace: int
    # counted by a run (score_runs) from its folds; events alone do not carry them
    windows_processed: int = 0
    classifier_invocations: int = 0
    open_at_end: int = 0


def check_grace(grace: int) -> int:
    """The event matching grace, rejected when negative."""
    if grace < 0:
        raise ValueError(f"grace must be >= 0, got {grace}")
    return grace


def evaluate_corpus(
    events_by_video: Mapping[str, Sequence[ActivationEvent]],
    segments_by_video: Mapping[str, Sequence[GroundTruthSegment]],
    grace: int,
) -> tuple[dict[str, VideoScore], AggregateStats]:
    """Score every annotated video's events and roll the scores up.

    Videos are scored in sorted order; an annotated video without events
    scores all its segments as missed, and events of unannotated videos are
    ignored. The aggregate's run counters keep their default 0; score_runs
    fills them in from each video's fold.
    """
    check_grace(grace)
    scores = {
        video_id: evaluate_video(events_by_video.get(video_id, ()), segments_by_video[video_id], grace)
        for video_id in sorted(segments_by_video)
    }
    accuracies = [s.accuracy for s in scores.values() if s.accuracy is not None]
    total = 0.0  # left to right, the same bits on every Python version (sum() compensates from 3.12)
    for accuracy in accuracies:
        total += accuracy
    kinds = [e.kind for s in scores.values() for e in s.events]
    aggregate = AggregateStats(
        video_count=len(scores),
        mean_accuracy=total / len(accuracies) if accuracies else None,
        early=early_detection_stats([m for s in scores.values() for m in s.matches.matches]),
        matched=sum(len(s.matches.matches) for s in scores.values()),
        duplicates=sum(len(s.matches.duplicates) for s in scores.values()),
        unmatched_events=sum(len(s.matches.unmatched_events) for s in scores.values()),
        missed_segments=sum(len(s.matches.missed_segments) for s in scores.values()),
        events_early=kinds.count(EventKind.EARLY),
        events_late=kinds.count(EventKind.LATE),
        grace=grace,
    )
    return scores, aggregate


def check_taus(taus: Sequence[float]) -> None:
    """Reject no sweep thresholds at all, thresholds outside [0, 1], naming each one, and repeated thresholds."""
    if not taus:
        raise ValueError("sweep needs at least one threshold")
    bad = [tau for tau in taus if not 0.0 <= tau <= 1.0]
    if bad:
        raise ValueError(f"tau_early must be in [0, 1], got {', '.join(f'{tau:g}' for tau in bad)}")
    if len(set(taus)) != len(taus):
        raise ValueError("sweep thresholds must be distinct")


def sweep(corpus: Corpus, cfg: PipelineConfig, taus: Sequence[float]) -> dict[float, AggregateStats]:
    """run_corpus's aggregate at each early threshold, all else fixed, keyed by threshold.

    The gate and the weighted means never read tau_early, so the corpus is
    folded once, in one fold_corpus call, and run_video derives each
    threshold's events from each video's fold: once per video and
    threshold. Each aggregate equals run_corpus's with that tau_early
    (grace = the classifier window) in every field; keys come in the given
    order. Every threshold is checked before any work.
    """
    from .pipeline import fold_corpus, run_video, score_runs  # local import to avoid a module cycle

    check_taus(taus)
    folds = fold_corpus(corpus, cfg)
    aggregates = {}
    for tau in taus:
        at_tau = replace(cfg, tau_early=tau)
        runs = {v: run_video(folded, at_tau) for v, folded in folds.items()}
        aggregates[tau] = score_runs(runs, corpus, cfg.classifier_window).aggregate
    return aggregates
