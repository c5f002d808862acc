from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gesturestream.activation import ActivationState, activation_step, midpoint, sigmoid_weight
from gesturestream.core import GESTURE_INDEX, FilterKind, PipelineConfig, top2
from gesturestream.gate import GateDecision, GateState, gate_step
from gesturestream.pipeline import RunTrace, TraceRow, run_corpus, run_video
from gesturestream.scoring import Corpus, ScoreStream, SynthConfig, generate_synthetic
from gesturestream.windows import advance, cursor_for

CFG = PipelineConfig(num_classes=10)

SINGLE = SynthConfig(
    num_videos=1, gestures_per_video=1, num_classes=10,
    noise_sigma=0.0, prep_ambiguity=0.0, seed=42,
)


def single_video_corpus():
    return generate_synthetic(SINGLE)


def constant_streams(video_id, length, gesture_prob, num_classes=10):
    det = ScoreStream(video_id, 2, np.tile([1.0 - gesture_prob, gesture_prob], (length, 1)))
    cls = ScoreStream(video_id, num_classes, np.full((length, num_classes), 1.0 / num_classes))
    return det, cls


def mode_transitions(rows):
    activations = deactivations = 0
    prev = "idle"
    for row in rows:
        if prev == "idle" and row.mode == "active":
            activations += 1
        elif prev == "active" and row.mode == "idle":
            deactivations += 1
        prev = row.mode
    return activations, deactivations


class TestRunVideo:
    def test_single_gesture_one_activation_cycle(self):
        corpus = single_video_corpus()
        vid = corpus.video_ids()[0]
        trace = run_video(corpus.detector[vid], corpus.classifier[vid], CFG, collect_trace=True)
        activations, deactivations = mode_transitions(trace.rows)
        assert activations == 1
        assert deactivations == 1
        assert len(trace.events) == 1
        seg = corpus.segments[vid][0]
        assert trace.events[0].label == seg.label

    def test_all_background_never_invokes_classifier(self):
        det, _ = constant_streams("bg", 200, gesture_prob=0.05)
        # an empty classifier stream proves the gate never consults it
        empty_cls = ScoreStream("bg", 10, np.empty((0, 10)))
        trace = run_video(det, empty_cls, CFG)
        assert trace.events == ()
        assert trace.classifier_invocations == 0
        assert trace.windows_processed == 200 - 32 + 1

    def test_stride_two_halves_window_count(self):
        corpus = single_video_corpus()
        vid = corpus.video_ids()[0]
        det, cls = corpus.detector[vid], corpus.classifier[vid]
        one = run_video(det, cls, CFG)
        two = run_video(det, cls, PipelineConfig(num_classes=10, stride=2))
        assert abs(one.windows_processed - 2 * two.windows_processed) <= 1

    def test_missing_score_aborts_with_frame(self):
        det, cls = constant_streams("v", 100, gesture_prob=0.05)
        det.rows[40] = np.nan
        with pytest.raises(ValueError, match="v@40"):
            run_video(det, cls, CFG)

    def test_replay_is_identical(self):
        corpus = single_video_corpus()
        vid = corpus.video_ids()[0]
        a = run_video(corpus.detector[vid], corpus.classifier[vid], CFG, collect_trace=True)
        b = run_video(corpus.detector[vid], corpus.classifier[vid], CFG, collect_trace=True)
        assert a == b

    def test_trace_rows_optional_and_increasing(self):
        corpus = single_video_corpus()
        vid = corpus.video_ids()[0]
        bare = run_video(corpus.detector[vid], corpus.classifier[vid], CFG)
        assert bare.rows == ()
        traced = run_video(corpus.detector[vid], corpus.classifier[vid], CFG, collect_trace=True)
        ts = [row.t for row in traced.rows]
        assert ts == sorted(ts)
        assert len(set(ts)) == len(ts)
        assert len(traced.rows) == traced.windows_processed

    def test_invocations_below_windows_when_idle_exists(self):
        corpus = single_video_corpus()
        vid = corpus.video_ids()[0]
        trace = run_video(corpus.detector[vid], corpus.classifier[vid], CFG, collect_trace=True)
        assert any(row.mode == "idle" for row in trace.rows)
        assert trace.classifier_invocations < trace.windows_processed

    def test_at_most_one_event_per_active_period(self):
        cfg = SynthConfig(num_videos=6, gestures_per_video=5, num_classes=8,
                          noise_sigma=0.08, prep_ambiguity=0.7, seed=13)
        corpus = generate_synthetic(cfg)
        pcfg = PipelineConfig(num_classes=8, tau_early=0.2)
        for vid in corpus.video_ids():
            trace = run_video(corpus.detector[vid], corpus.classifier[vid], pcfg, collect_trace=True)
            # period boundaries: windows where the mode flips idle->active
            period_starts = []
            prev = "idle"
            for row in trace.rows:
                if prev == "idle" and row.mode == "active":
                    period_starts.append(row.t)
                prev = row.mode
            for lo, hi in zip(period_starts, period_starts[1:] + [float("inf")]):
                in_period = [e for e in trace.events if lo <= e.emit_frame < hi]
                assert len(in_period) <= 1


class TestRunCorpus:
    def test_two_video_aggregate_is_mean(self):
        cfg = SynthConfig(num_videos=2, gestures_per_video=3, num_classes=10,
                          noise_sigma=0.0, prep_ambiguity=0.0, seed=42)
        corpus = generate_synthetic(cfg)
        run = run_corpus(corpus, CFG)
        accs = [vr.result.accuracy for vr in run.videos.values()]
        assert run.aggregate.mean_accuracy == pytest.approx(sum(accs) / len(accs))
        assert run.aggregate.video_count == 2

    def test_missing_annotations_skipped_with_warning(self, caplog):
        corpus = single_video_corpus()
        vid = corpus.video_ids()[0]
        det2, cls2 = constant_streams("extra", 120, gesture_prob=0.05)
        merged = Corpus(
            detector={**corpus.detector, "extra": det2},
            classifier={**corpus.classifier, "extra": cls2},
            segments=corpus.segments,
        )
        with caplog.at_level("WARNING"):
            run = run_corpus(merged, CFG)
        assert run.skipped == ("extra",)
        assert "extra" in caplog.text
        assert set(run.videos) == {vid}

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="no videos"):
            run_corpus(Corpus(detector={}, classifier={}, segments={}), CFG)

    def test_deterministic_reports(self):
        cfg = SynthConfig(num_videos=3, gestures_per_video=4, num_classes=10, seed=6)
        corpus = generate_synthetic(cfg)
        assert run_corpus(corpus, CFG) == run_corpus(corpus, CFG)

    def test_grace_defaults_to_classifier_window(self):
        corpus = single_video_corpus()
        run = run_corpus(corpus, CFG)
        assert run.aggregate.grace == CFG.classifier_window


def replay_online(det, cls, cfg):
    """Reference for run_video: the window-by-window replay through the online API."""
    gate = GateState.idle(cfg.filter_size)
    act = ActivationState.inactive(cfg.num_classes)
    t_mid = midpoint(cfg.mean_duration, cfg.stride)
    ends = cursor_for(det.length, cfg)
    events, rows, invocations = [], [], 0
    for window in advance(ends, cfg):
        raw = det.score(window.end).values[GESTURE_INDEX]
        gate, decision, filtered = gate_step(gate, raw, cfg)
        invocations += decision in (GateDecision.ACTIVATE, GateDecision.STAY_ACTIVE)
        act, event = activation_step(act, decision, cls, window, cfg)
        if event is not None:
            events.append(event)
        j = act.mean.count
        if j:
            label, top1, second = top2(act.mean)
            weight = sigmoid_weight(j, t_mid, cfg.sigmoid_slope)
        else:
            label, top1, second, weight = -1, 0.0, 0.0, 0.0
        rows.append(TraceRow(window.end, raw, filtered, gate.mode.value, j, weight, label, top1, second))
    return RunTrace(det.video_id, tuple(events), len(ends), invocations, tuple(rows))


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


# Gesture probabilities around the gate threshold, plus a few exact repeats.
RAW = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0]))


@st.composite
def video_streams(draw):
    classes = draw(st.integers(2, 6))
    length = draw(st.integers(0, 90))
    gesture = draw(st.lists(RAW, min_size=length, max_size=length))
    gesture += [draw(RAW)] * draw(st.integers(0, 12))  # often ends with the gate open
    det = np.column_stack([[1.0 - p for p in gesture], gesture]).reshape(-1, 2)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cls = rng.dirichlet(np.full(classes, draw(st.sampled_from([0.1, 1.0, 10.0]))), size=len(det))
    cls[rng.random(len(det)) < 0.2] = 1.0 / classes  # all-class ties
    tie = rng.random(len(det)) < 0.2
    cls[tie, :2] = cls[tie, :2].mean(axis=1, keepdims=True)  # two-class ties
    fault = draw(st.sampled_from(["none"] * 6 + ["detector-nan", "classifier-nan", "short-classifier"]))
    if fault != "none" and len(det):
        frame = draw(st.integers(0, len(det) - 1))
        if fault == "detector-nan":
            det[frame] = np.nan
        elif fault == "classifier-nan":
            cls[frame] = np.nan
        else:
            cls = cls[:frame]
    cfg = PipelineConfig(
        num_classes=classes,
        classifier_window=draw(st.integers(1, 8)),
        stride=draw(st.integers(1, 3)),
        filter_kind=draw(st.sampled_from(list(FilterKind))),
        filter_size=draw(st.integers(1, 5)),
        gate_on_threshold=draw(st.sampled_from([0.3, 0.5, 0.7])),
        deactivate_count=draw(st.integers(1, 5)),
        tau_early=draw(st.floats(0.0, 1.0)),
        tau_late=draw(st.floats(0.0, 0.5)),
        sigmoid_slope=draw(st.sampled_from([0.05, 0.2, 1.0])),
        mean_duration=draw(st.floats(0.5, 160.0)),
    )
    return ScoreStream("v", 2, det), ScoreStream("v", classes, cls), cfg


class TestKernelMatchesOnlineReplay:
    @given(video_streams())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_events_trace_and_counts_identical(self, streams):
        det, cls, cfg = streams
        want = outcome(replay_online, det, cls, cfg)
        assert outcome(run_video, det, cls, cfg, True) == want
        untraced = want if isinstance(want, str) else replace(want, rows=())
        assert outcome(run_video, det, cls, cfg) == untraced
