import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from gesturestream.activation import ActivationEvent, EventKind
from gesturestream.core import PipelineConfig
from gesturestream.evaluate import (
    early_detection_stats,
    evaluate_corpus,
    evaluate_video,
    levenshtein_distance,
    match_activations,
    sweep,
)
from gesturestream.scoring import GroundTruthSegment, SynthConfig, generate_synthetic


@functools.lru_cache(maxsize=None)
def recursive_distance(a: tuple, b: tuple) -> int:
    """Edit-path oracle: direct recursion on the first elements, memoized."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    return min(
        recursive_distance(a[1:], b) + 1,
        recursive_distance(a, b[1:]) + 1,
        recursive_distance(a[1:], b[1:]) + (0 if a[0] == b[0] else 1),
    )


def late(label, frame, score=0.5):
    return ActivationEvent(label=label, emit_frame=frame, kind=EventKind.LATE, margin_or_score=score)


class TestLevenshteinDistance:
    def test_worked_example(self):
        gt = [1, 2, 3, 4, 5, 6, 7, 8, 9]
        pred = [1, 2, 7, 4, 5, 6, 6, 7, 8, 9]
        assert levenshtein_distance(gt, pred) == 2

    def test_identity(self):
        for seq in ([], [1], [3, 1, 4, 1, 5], list(range(50))):
            assert levenshtein_distance(seq, seq) == 0

    def test_pure_insertions(self):
        assert levenshtein_distance([], [1, 2, 3]) == 3

    def test_shift_by_one(self):
        assert levenshtein_distance([1, 2, 3], [2, 3, 4]) == 2

    def test_matches_recursive_oracle_on_random_pairs(self):
        rng = random.Random(31)
        for _ in range(400):
            a = tuple(rng.randrange(4) for _ in range(rng.randint(0, 7)))
            b = tuple(rng.randrange(4) for _ in range(rng.randint(0, 7)))
            assert levenshtein_distance(a, b) == recursive_distance(a, b)

    @given(
        st.lists(st.integers(0, 3), max_size=10),
        st.lists(st.integers(0, 3), max_size=10),
        st.lists(st.integers(0, 3), max_size=10),
    )
    @settings(max_examples=300)
    def test_metric_axioms(self, a, b, c):
        a, b, c = tuple(a), tuple(b), tuple(c)
        d_ab = levenshtein_distance(a, b)
        assert d_ab == levenshtein_distance(b, a)
        assert (d_ab == 0) == (a == b)
        assert d_ab >= abs(len(a) - len(b))
        assert d_ab <= levenshtein_distance(a, c) + levenshtein_distance(c, b)


def accuracy(gt, pred):
    """evaluate_video's accuracy for a ground-truth and a predicted label sequence."""
    segments = [seg(label, 100 * i, 100 * i + 50) for i, label in enumerate(gt)]
    events = [late(label, 100 * i + 10) for i, label in enumerate(pred)]
    return evaluate_video(events, segments, grace=32).accuracy


class TestLevenshteinAccuracy:
    def test_worked_example_percentage(self):
        gt = [1, 2, 3, 4, 5, 6, 7, 8, 9]
        pred = [1, 2, 7, 4, 5, 6, 6, 7, 8, 9]
        assert accuracy(gt, pred) == pytest.approx(77.78, abs=0.01)

    def test_identical_is_hundred(self):
        assert accuracy([4, 2], [4, 2]) == 100.0

    def test_unclamped_negative(self):
        assert accuracy([1], [2, 3, 4]) == pytest.approx(-200.0)

    def test_empty_gt_rejected(self):
        assert accuracy([], [1]) is None

    def test_hundred_iff_equal(self):
        rng = random.Random(37)
        for _ in range(300):
            gt = [rng.randrange(5) for _ in range(rng.randint(1, 6))]
            pred = [rng.randrange(5) for _ in range(rng.randint(0, 6))]
            acc = accuracy(gt, pred)
            assert (acc == 100.0) == (gt == pred)


def seg(label, start, end, video="v"):
    return GroundTruthSegment(video, label, start, end)


class TestMatchActivations:
    def test_inside_span_same_label(self):
        report = match_activations([late(3, 25)], [seg(3, 10, 40)], grace=32)
        assert len(report.matches) == 1
        assert report.matches[0].correct
        assert not report.duplicates and not report.unmatched_events
        assert not report.missed_segments

    def test_late_event_within_grace(self):
        report = match_activations([late(3, 45)], [seg(3, 10, 40)], grace=32)
        assert len(report.matches) == 1
        assert report.matches[0].segment.start == 10

    def test_beyond_grace_unmatched(self):
        report = match_activations([late(3, 80)], [seg(3, 10, 40)], grace=32)
        assert not report.matches
        assert len(report.unmatched_events) == 1
        assert len(report.missed_segments) == 1

    def test_second_event_on_segment_is_duplicate(self):
        report = match_activations([late(3, 20), late(3, 30)], [seg(3, 10, 40)], grace=32)
        assert len(report.matches) == 1
        assert report.matches[0].event.emit_frame == 20
        assert len(report.duplicates) == 1
        assert report.duplicates[0].emit_frame == 30

    def test_wrong_label_is_incorrect_match(self):
        report = match_activations([late(9, 20)], [seg(3, 10, 40)], grace=32)
        assert len(report.matches) == 1
        assert not report.matches[0].correct
        assert not report.missed_segments

    def test_grace_overlap_prefers_latest_start(self):
        segments = [seg(1, 10, 40), seg(2, 50, 80)]
        # frame 55 is within seg1's grace span [10, 72] and inside seg2
        report = match_activations([late(2, 55)], segments, grace=32)
        assert report.matches[0].segment.label == 2

    def test_before_segment_start_never_matches(self):
        report = match_activations([late(3, 9)], [seg(3, 10, 40)], grace=32)
        assert not report.matches
        assert len(report.unmatched_events) == 1

    @given(
        # starts from a small range, so equal starts and overlapping grace spans are common
        spans=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 8), st.integers(0, 8)), max_size=6),
        marks=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 30)), max_size=8),
        grace=st.integers(0, 10),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_segment_rule(self, spans, marks, grace):
        segments = [seg(label, start, start + length) for label, start, length in spans]
        events = [late(label, frame) for label, frame in marks]
        report = match_activations(events, segments, grace)

        def chosen(event):
            """Index of the segment the rule picks: the latest start that covers the frame, first in order."""
            covering = [i for i, s in enumerate(segments) if s.start <= event.emit_frame <= s.end + grace]
            if not covering:
                return None
            latest = max(segments[i].start for i in covering)
            return next(i for i in covering if segments[i].start == latest)

        placed = [m.event for m in report.matches] + list(report.duplicates) + list(report.unmatched_events)
        assert sorted(map(id, placed)) == sorted(map(id, events))
        claimed = []
        for m in report.matches:
            idx = chosen(m.event)
            assert idx is not None and segments[idx] is m.segment
            assert m.correct == (m.event.label == m.segment.label)
            claimed.append(idx)
        assert len(set(claimed)) == len(claimed)
        for event in report.duplicates:
            assert chosen(event) in claimed
        for event in report.unmatched_events:
            assert chosen(event) is None
        unclaimed = [s for i, s in enumerate(segments) if i not in claimed]
        assert list(map(id, report.missed_segments)) == list(map(id, unclaimed))


class TestEarlyDetectionStats:
    def test_at_segment_end(self):
        report = match_activations([late(1, 40)], [seg(1, 10, 40)], grace=32)
        stats = early_detection_stats(report.matches)
        assert stats.mean == 0.0 and stats.median == 0.0 and stats.count == 1

    def test_twelve_frames_early(self):
        report = match_activations([late(1, 28)], [seg(1, 10, 40)], grace=32)
        assert early_detection_stats(report.matches).mean == 12.0

    def test_negative_after_end(self):
        report = match_activations([late(1, 45)], [seg(1, 10, 40)], grace=32)
        assert early_detection_stats(report.matches).mean == -5.0

    def test_absent_when_no_correct_matches(self):
        report = match_activations([late(9, 20)], [seg(3, 10, 40)], grace=32)
        assert early_detection_stats(report.matches) is None

    def test_incorrect_matches_excluded(self):
        segments = [seg(1, 10, 40), seg(2, 100, 130)]
        events = [late(1, 30), late(9, 110)]
        report = match_activations(events, segments, grace=32)
        stats = early_detection_stats(report.matches)
        assert stats.count == 1
        assert stats.mean == 10.0


class TestEvaluateVideo:
    def test_result_fields(self):
        segments = [seg(1, 10, 40), seg(2, 100, 130)]
        events = [late(1, 35), late(5, 120)]
        score = evaluate_video(events, segments, grace=32)
        assert score.gt_labels == (1, 2)
        assert score.pred_labels == (1, 5)
        assert score.distance == 1
        assert score.accuracy == pytest.approx(50.0)
        assert len(score.matches.matches) == 2

    def test_pred_ordered_by_emit_frame(self):
        segments = [seg(1, 10, 40), seg(2, 100, 130)]
        events = [late(2, 120), late(1, 35)]  # given out of order
        score = evaluate_video(events, segments, grace=32)
        assert score.pred_labels == (1, 2)

    def test_empty_gt_has_no_accuracy(self):
        score = evaluate_video([late(1, 5)], [], grace=32)
        assert score.accuracy is None
        assert score.distance == 1

    def test_distance_bounded_by_longer_sequence(self):
        rng = random.Random(41)
        for _ in range(200):
            segments = [
                seg(rng.randrange(4), i * 100, i * 100 + 30)
                for i in range(rng.randint(1, 5))
            ]
            events = [late(rng.randrange(4), rng.randrange(600)) for _ in range(rng.randint(0, 5))]
            score = evaluate_video(events, segments, grace=16)
            assert score.distance <= max(len(score.gt_labels), len(score.pred_labels))


class TestEvaluateCorpus:
    def test_mean_accuracy_sums_left_to_right(self):
        # gt of 9, 6 and 5 gestures with 1, 1 and 2 hits: accuracies 11.111111111111116,
        # 16.666666666666664 and 40.0; builtin sum()'s compensated sum from Python 3.12
        # on would give a mean of 22.592592592592595
        segments, events = {}, {}
        for video, (count, hits) in {"a": (9, 1), "b": (6, 1), "c": (5, 2)}.items():
            segments[video] = [GroundTruthSegment(video, i, 100 * i, 100 * i + 50) for i in range(count)]
            events[video] = [late(i, 100 * i + 10) for i in range(hits)]
        _, aggregate = evaluate_corpus(events, segments, grace=0)
        assert aggregate.mean_accuracy == 22.59259259259259


class TestSweep:
    def test_noiseless_corpus_full_accuracy_and_falling_earliness(self):
        synth = SynthConfig(
            num_videos=8, gestures_per_video=4, num_classes=10,
            noise_sigma=0.0, prep_ambiguity=0.0, seed=42,
        )
        corpus = generate_synthetic(synth)
        cfg = PipelineConfig(num_classes=10)
        taus = [i / 10 for i in range(2, 11)]
        swept = sweep(corpus, cfg, taus)
        assert list(swept) == taus
        for agg in swept.values():
            assert agg.mean_accuracy == 100.0
        early = [agg.early.mean for agg in swept.values()]
        for a, b in zip(early, early[1:]):
            assert b <= a
        # a moderate threshold fires mid-gesture, strictly earlier than pure late mode
        assert swept[0.3].early.mean > swept[1.0].early.mean

    def test_single_tau_equals_direct_run(self):
        from gesturestream.pipeline import run_corpus

        synth = SynthConfig(num_videos=3, gestures_per_video=3, num_classes=8, seed=6)
        corpus = generate_synthetic(synth)
        cfg = PipelineConfig(num_classes=8)
        (agg,) = sweep(corpus, cfg, [0.4]).values()
        from dataclasses import replace

        assert agg == run_corpus(corpus, replace(cfg, tau_early=0.4)).aggregate
