"""Sequence-level scoring of emitted events against ground truth.

Per video, the predicted label sequence (events ordered by emission frame) is
compared to the annotated one with Levenshtein distance, which charges
misclassifications, duplicate detections, and misses alike. Accuracy is
(1 - distance/len(gt)) * 100, deliberately unclamped so floods of spurious
events show up as negative scores rather than zeros.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .activation import ActivationEvent, EventKind
from .core import PipelineConfig, validate_config
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


def levenshtein_accuracy(gt: Sequence, pred: Sequence) -> float:
    """Percent closeness of pred to gt: (1 - distance/len(gt)) * 100.

    Not clamped at zero; heavily over-predicting goes negative. Empty ground
    truth is rejected here and excluded from aggregation by callers.
    """
    if len(gt) < 1:
        raise ValueError("levenshtein accuracy needs at least one ground-truth label")
    return (1.0 - levenshtein_distance(gt, pred) / len(gt)) * 100.0


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

    @property
    def correct_matches(self) -> tuple[Match, ...]:
        return tuple(m for m in self.matches if m.correct)


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
class VideoResult:
    """Sequence comparison for one video; accuracy is None for empty gt."""

    video_id: str
    gt_labels: tuple[int, ...]
    pred_labels: tuple[int, ...]
    distance: int
    accuracy: Optional[float]


def evaluate_video(
    video_id: str,
    events: Sequence[ActivationEvent],
    segments: Sequence[GroundTruthSegment],
    grace: int,
) -> tuple[VideoResult, MatchReport]:
    """Score one video's events: Levenshtein result plus the match report."""
    ordered_segments = sorted(segments, key=lambda s: s.start)
    gt = tuple(seg.label for seg in ordered_segments)
    pred = tuple(e.label for e in sorted(events, key=lambda e: e.emit_frame))
    distance = levenshtein_distance(gt, pred)
    accuracy = (1.0 - distance / len(gt)) * 100.0 if gt else None
    report = match_activations(events, ordered_segments, grace)
    return VideoResult(video_id, gt, pred, distance, accuracy), report


@dataclass(frozen=True, slots=True)
class VideoScore:
    """One video's events scored against its annotations."""

    events: tuple[ActivationEvent, ...]
    result: VideoResult
    matches: MatchReport
    early: Optional[EarlyStats]


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
    windows_processed: int
    classifier_invocations: int
    open_at_end: int
    grace: int


def evaluate_corpus(
    events_by_video: Mapping[str, Sequence[ActivationEvent]],
    segments_by_video: Mapping[str, Sequence[GroundTruthSegment]],
    grace: int,
) -> tuple[dict[str, VideoScore], AggregateStats]:
    """Score every annotated video's events and roll the scores up.

    Videos are scored in sorted order; an annotated video without events
    scores all its segments as missed, and events of unannotated videos are
    ignored. The aggregate's run counters (windows, classifier invocations,
    periods open at the end of the stream) stay 0: events do not carry
    them, and run_corpus fills them in from each video's fold.
    """
    if grace < 0:
        raise ValueError(f"grace must be >= 0, got {grace}")
    scores: dict[str, VideoScore] = {}
    for video_id in sorted(segments_by_video):
        events = tuple(events_by_video.get(video_id, ()))
        result, matches = evaluate_video(video_id, events, segments_by_video[video_id], grace)
        scores[video_id] = VideoScore(events, result, matches, early_detection_stats(matches.matches))
    accuracies = [s.result.accuracy for s in scores.values() if s.result.accuracy is not None]
    kinds = [e.kind for s in scores.values() for e in s.events]
    aggregate = AggregateStats(
        video_count=len(scores),
        mean_accuracy=sum(accuracies) / len(accuracies) if accuracies else None,
        early=early_detection_stats([m for s in scores.values() for m in s.matches.matches]),
        matched=sum(len(s.matches.matches) for s in scores.values()),
        duplicates=sum(len(s.matches.duplicates) for s in scores.values()),
        unmatched_events=sum(len(s.matches.unmatched_events) for s in scores.values()),
        missed_segments=sum(len(s.matches.missed_segments) for s in scores.values()),
        events_early=kinds.count(EventKind.EARLY),
        events_late=kinds.count(EventKind.LATE),
        windows_processed=0,
        classifier_invocations=0,
        open_at_end=0,
        grace=grace,
    )
    return scores, aggregate


def check_taus(taus: Sequence[float]) -> None:
    """Reject sweep thresholds outside [0, 1], naming each one, and repeated thresholds."""
    bad = [tau for tau in taus if not 0.0 <= tau <= 1.0]
    if bad:
        raise ValueError(f"tau_early must be in [0, 1], got {', '.join(f'{tau:g}' for tau in bad)}")
    if len(set(taus)) != len(taus):
        raise ValueError("sweep thresholds must be distinct")


def sweep(corpus: Corpus, cfg: PipelineConfig, taus: Sequence[float]) -> dict[float, AggregateStats]:
    """The evaluate_corpus aggregate at each early threshold, all else fixed, keyed by threshold.

    The gate and the weighted means never read tau_early, so every
    annotated video is gated and folded once, and each threshold's events
    are derived from that one pass. Each aggregate equals run_corpus's at
    its threshold (grace = the classifier window) but for the run counters,
    which stay 0 as evaluate_corpus leaves them; keys come in the given
    order. Every threshold is checked before any work.
    """
    from .pipeline import fold_video, over_annotated_videos, video_events  # local import to avoid a module cycle

    check_taus(taus)
    validate_config(cfg)

    def events_per_tau(detector, classifier):
        folded = fold_video(detector, classifier, cfg)  # dropped once its events are derived
        return [video_events(folded, tau, cfg.tau_late) for tau in taus]

    events, _ = over_annotated_videos(corpus, events_per_tau)
    segments = {v: corpus.segments[v] for v in events}
    return {
        tau: evaluate_corpus({v: per_tau[i] for v, per_tau in events.items()}, segments, cfg.classifier_window)[1]
        for i, tau in enumerate(taus)
    }
