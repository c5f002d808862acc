import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from gesturestream.activation import ActivationEvent, EventKind
from gesturestream.core import PipelineConfig
from gesturestream.evaluate import (
    early_detection_stats,
    evaluate_video,
    levenshtein_accuracy,
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


class TestLevenshteinAccuracy:
    def test_worked_example_percentage(self):
        gt = [1, 2, 3, 4, 5, 6, 7, 8, 9]
        pred = [1, 2, 7, 4, 5, 6, 6, 7, 8, 9]
        assert levenshtein_accuracy(gt, pred) == pytest.approx(77.78, abs=0.01)

    def test_identical_is_hundred(self):
        assert levenshtein_accuracy([4, 2], [4, 2]) == 100.0

    def test_unclamped_negative(self):
        assert levenshtein_accuracy([1], [2, 3, 4]) == pytest.approx(-200.0)

    def test_empty_gt_rejected(self):
        with pytest.raises(ValueError):
            levenshtein_accuracy([], [1])

    def test_hundred_iff_equal(self):
        rng = random.Random(37)
        for _ in range(300):
            gt = [rng.randrange(5) for _ in range(rng.randint(1, 6))]
            pred = [rng.randrange(5) for _ in range(rng.randint(0, 6))]
            acc = levenshtein_accuracy(gt, pred)
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
        result, report = evaluate_video("v", events, segments, grace=32)
        assert result.gt_labels == (1, 2)
        assert result.pred_labels == (1, 5)
        assert result.distance == 1
        assert result.accuracy == pytest.approx(50.0)
        assert len(report.matches) == 2

    def test_pred_ordered_by_emit_frame(self):
        segments = [seg(1, 10, 40), seg(2, 100, 130)]
        events = [late(2, 120), late(1, 35)]  # given out of order
        result, _ = evaluate_video("v", events, segments, grace=32)
        assert result.pred_labels == (1, 2)

    def test_empty_gt_has_no_accuracy(self):
        result, _ = evaluate_video("v", [late(1, 5)], [], grace=32)
        assert result.accuracy is None
        assert result.distance == 1

    def test_distance_bounded_by_longer_sequence(self):
        rng = random.Random(41)
        for _ in range(200):
            segments = [
                seg(rng.randrange(4), i * 100, i * 100 + 30)
                for i in range(rng.randint(1, 5))
            ]
            events = [late(rng.randrange(4), rng.randrange(600)) for _ in range(rng.randint(0, 5))]
            result, _ = evaluate_video("v", events, segments, grace=16)
            assert result.distance <= max(len(result.gt_labels), len(result.pred_labels))


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

        run = run_corpus(corpus, replace(cfg, tau_early=0.4))
        assert agg == replace(run.aggregate, windows_processed=0, classifier_invocations=0, open_at_end=0)
