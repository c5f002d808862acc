import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gesturestream import cli, pipeline
from gesturestream.activation import ActivationState, EventKind, activation_step, midpoint, sigmoid_weight
from gesturestream.core import GESTURE_INDEX, FilterKind, PipelineConfig, top2
from gesturestream.gate import GateDecision, GateMode, GateState, gate_step
from gesturestream.pipeline import FoldedVideo, RunTrace, run_corpus, run_video
from gesturestream.evaluate import sweep
from gesturestream.scoring import Corpus, GroundTruthSegment, ScoreStream, SynthConfig, generate_synthetic
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


def mode_transitions(folded):
    """Idle-to-active and active-to-idle flips of the gate over a video's windows."""
    activations = len(folded.periods)
    deactivations = sum(stop < len(folded.ends) for _, stop in folded.periods)
    return activations, deactivations


class TestRunVideo:
    def test_single_gesture_one_activation_cycle(self):
        corpus = single_video_corpus()
        vid = corpus.video_ids()[0]
        trace = run_video(corpus.detector[vid], corpus.classifier[vid], CFG)
        activations, deactivations = mode_transitions(trace.folded)
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
        rows = np.tile([0.95, 0.05], (100, 1))
        rows[40] = np.nan
        with pytest.raises(ValueError, match="v@40"):
            ScoreStream("v", 2, rows)

    def test_arity_mismatch_reported_before_missing_frame(self):
        det = ScoreStream("v", 2, np.tile([0.0, 1.0], (100, 1)))
        cls = ScoreStream("v", 3, np.full((50, 3), 1.0 / 3))
        cfg = PipelineConfig(num_classes=4)
        message = "arity mismatch: mean has 4 classes, scores have 3"
        assert outcome(replay_online, det, cls, cfg) == f"ValueError: {message}"
        with pytest.raises(ValueError, match=re.escape(message)):
            run_video(det, cls, cfg)

    def test_gate_closing_at_last_window_is_not_open_at_end(self):
        gesture = np.array([0.9] * 40 + [0.0])
        det = ScoreStream("v", 2, np.column_stack([1.0 - gesture, gesture]))
        cls = ScoreStream("v", 3, np.full((41, 3), 1.0 / 3))
        cfg = PipelineConfig(num_classes=3, classifier_window=1, filter_size=1, deactivate_count=1)
        trace = run_video(det, cls, cfg)
        assert trace.folded.periods == [(0, 40)]
        assert (trace.windows_processed, trace.classifier_invocations, trace.open_at_end) == (41, 40, 0)
        assert replay_online(det, cls, cfg)[1] == (41, 40, 0)

    def test_late_threshold_is_inclusive(self):
        corpus = single_video_corpus()
        vid = corpus.video_ids()[0]
        det, cls = corpus.detector[vid], corpus.classifier[vid]
        folded = run_video(det, cls, CFG).folded
        # the top-1 of the last fold of the first period the gate closes
        stop = next(stop for _, stop in folded.periods if stop < len(folded.ends))
        last_top1 = folded.top1s[stop - 1]
        at = run_video(det, cls, replace(CFG, tau_late=last_top1))
        assert [(e.kind, e.margin_or_score) for e in at.events] == [(EventKind.LATE, last_top1)]
        assert run_video(det, cls, replace(CFG, tau_late=math.nextafter(last_top1, 1.0))).events == ()

    def test_replay_is_identical(self):
        corpus = single_video_corpus()
        vid = corpus.video_ids()[0]
        a = run_video(corpus.detector[vid], corpus.classifier[vid], CFG)
        b = run_video(corpus.detector[vid], corpus.classifier[vid], CFG)
        assert a == b

    def test_trace_kept_and_increasing(self):
        corpus = single_video_corpus()
        vid = corpus.video_ids()[0]
        traced = run_video(corpus.detector[vid], corpus.classifier[vid], CFG)
        ts = list(traced.folded.ends)
        assert ts == sorted(ts)
        assert len(set(ts)) == len(ts)
        assert len(ts) == len(traced.folded.raws) == len(traced.folded.filtered) == traced.windows_processed

    def test_invocations_below_windows_when_idle_exists(self):
        corpus = single_video_corpus()
        vid = corpus.video_ids()[0]
        trace = run_video(corpus.detector[vid], corpus.classifier[vid], CFG)
        assert sum(stop - first for first, stop in trace.folded.periods) < len(trace.folded.ends)
        assert trace.classifier_invocations < trace.windows_processed

    def test_at_most_one_event_per_active_period(self):
        cfg = SynthConfig(num_videos=6, gestures_per_video=5, num_classes=8,
                          noise_sigma=0.08, prep_ambiguity=0.7, seed=13)
        corpus = generate_synthetic(cfg)
        pcfg = PipelineConfig(num_classes=8, tau_early=0.2)
        for vid in corpus.video_ids():
            trace = run_video(corpus.detector[vid], corpus.classifier[vid], pcfg)
            # period boundaries: windows where the mode flips idle->active
            period_starts = [trace.folded.ends[first] for first, _ in trace.folded.periods]
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

    def test_annotated_video_without_streams_rejected_before_any_run(self, monkeypatch):
        corpus = single_video_corpus()
        ghost = [GroundTruthSegment("ghost", 1, 40, 70)]
        merged = Corpus(corpus.detector, corpus.classifier, {**corpus.segments, "ghost": ghost})
        for name in ("run_video", "fold_video"):
            monkeypatch.setattr(pipeline, name, None)  # any video work would fail differently
        with pytest.raises(ValueError, match="no detector stream for ghost"):
            run_corpus(merged, CFG)
        with pytest.raises(ValueError, match="no detector stream for ghost"):
            sweep(merged, CFG, [0.5])

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
    """Reference for run_video: the window-by-window replay through the online API.

    Gives the RunTrace; the run counters (windows, classifier invocations,
    open at end), counted window by window; and one tuple per window holding
    the columns of the --trace TSV.
    """
    gate = GateState.idle(cfg.filter_size)
    act = ActivationState.inactive(cfg.num_classes)
    t_mid = midpoint(cfg.mean_duration, cfg.stride)
    ends = cursor_for(det.length, cfg)
    events, rows, windows, invocations = [], [], 0, 0
    raws, filtered_probs, periods, labels, top1s, top2s, best_margins = [], [], [], [], [], [], []
    for k, window in enumerate(advance(ends, cfg)):
        raw = det.score(window.end).values[GESTURE_INDEX]
        gate, decision, filtered = gate_step(gate, raw, cfg)
        windows += 1
        raws.append(raw)
        filtered_probs.append(filtered)
        if decision is GateDecision.ACTIVATE:
            periods.append([k, k + 1])
        elif decision is GateDecision.STAY_ACTIVE:
            periods[-1][1] = k + 1
        invocations += decision in (GateDecision.ACTIVATE, GateDecision.STAY_ACTIVE)
        act, event = activation_step(act, decision, cls, window, cfg)
        if event is not None:
            events.append(event)
        j = act.mean.count
        if j:
            label, top1, second = top2(act.mean)
            weight = sigmoid_weight(j, t_mid, cfg.sigmoid_slope)
            best = top1 - second if j == 1 else max(best_margins[-1], top1 - second)
        else:
            label, top1, second, weight, best = -1, 0.0, 0.0, 0.0, 0.0
        labels.append(label)
        top1s.append(top1)
        top2s.append(second)
        best_margins.append(best)
        rows.append((window.end, raw, filtered, gate.mode.value, j, weight, label, top1, second))
    longest = max((stop - first for first, stop in periods), default=0)
    weights = [0.0] + [sigmoid_weight(j, t_mid, cfg.sigmoid_slope) for j in range(1, longest + 1)]
    folded = FoldedVideo(
        ends, raws, filtered_probs, [tuple(p) for p in periods], weights, labels, top1s, top2s, best_margins
    )
    counters = (windows, invocations, int(gate.mode is GateMode.ACTIVE))
    return RunTrace(tuple(events), folded), counters, rows


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


# Gesture probabilities around the gate threshold, plus a few exact repeats.
RAW = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0]))


def stream_arrays(draw, classes):
    """Detector and classifier rows of one video, often ending with the gate open."""
    length = draw(st.integers(0, 90))
    gesture = draw(st.lists(RAW, min_size=length, max_size=length))
    gesture += [draw(RAW)] * draw(st.integers(0, 12))  # often ends with the gate open
    det = np.column_stack([[1.0 - p for p in gesture], gesture]).reshape(-1, 2)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cls = rng.dirichlet(np.full(classes, draw(st.sampled_from([0.1, 1.0, 10.0]))), size=len(det))
    cls[rng.random(len(det)) < 0.2] = 1.0 / classes  # all-class ties
    tie = rng.random(len(det)) < 0.2
    cls[tie, :2] = cls[tie, :2].mean(axis=1, keepdims=True)  # two-class ties
    return det, cls


def inject_fault(draw, det, cls, cfg, fault):
    """Cut the classifier stream short, configure a class count it does not have, or both."""
    if "short-classifier" in fault and len(det):
        cls = cls[: draw(st.integers(0, len(det) - 1))]
    if "num-classes" in fault:
        cfg = replace(cfg, num_classes=draw(st.sampled_from([n for n in range(2, 8) if n != cfg.num_classes])))
    return det, cls, cfg


def pipeline_configs(draw, classes):
    return PipelineConfig(
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


FAULTS = ["none"] * 6 + ["short-classifier", "num-classes", "num-classes+short-classifier"]


@st.composite
def video_streams(draw):
    classes = draw(st.integers(2, 6))
    det, cls = stream_arrays(draw, classes)
    det, cls, cfg = inject_fault(draw, det, cls, pipeline_configs(draw, classes), draw(st.sampled_from(FAULTS)))
    return ScoreStream("v", 2, det), ScoreStream("v", classes, cls), cfg


class TestKernelMatchesOnlineReplay:
    @given(video_streams())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_events_trace_and_counts_identical(self, streams):
        det, cls, cfg = streams
        replayed = outcome(replay_online, det, cls, cfg)
        if isinstance(replayed, str):
            assert outcome(run_video, det, cls, cfg) == replayed
            return
        want, counters, rows = replayed
        traced = run_video(det, cls, cfg)
        assert traced == want
        assert (traced.windows_processed, traced.classifier_invocations, traced.open_at_end) == counters
        # repr text also tells -0.0 from 0.0
        header = "\t".join(["t", "raw_prob", "filtered_prob", "mode", "j", "weight", "top_label", "top1", "top2"])
        lines = ["\t".join(x if isinstance(x, str) else repr(x) for x in row) for row in rows]
        assert cli.trace_tsv(traced.folded) == "".join(line + "\n" for line in [header, *lines])


def sweep_by_reruns(corpus, cfg, taus):
    """Reference for sweep: one full run_corpus per threshold, its run counters zeroed."""
    return {
        tau: replace(
            run_corpus(corpus, replace(cfg, tau_early=tau)).aggregate,
            windows_processed=0, classifier_invocations=0, open_at_end=0,
        )
        for tau in taus
    }


@st.composite
def corpora(draw):
    """Up to four videos under one config, some unannotated, one fault draw at most."""
    classes = draw(st.integers(2, 6))
    cfg = pipeline_configs(draw, classes)
    detector, classifier, segments = {}, {}, {}
    fault = draw(st.sampled_from(FAULTS + ["no-classifier-stream"]))
    for k in range(draw(st.integers(1, 4))):
        video = f"v{k}"
        det, cls = stream_arrays(draw, classes)
        if k == 0:
            det, cls, cfg = inject_fault(draw, det, cls, cfg, fault)
        detector[video] = ScoreStream(video, 2, det)
        if not (k == 0 and fault == "no-classifier-stream"):
            classifier[video] = ScoreStream(video, classes, cls)
        if draw(st.sampled_from([True, True, True, False])):
            starts = draw(st.lists(st.integers(0, max(len(det) - 1, 0)), min_size=1, max_size=4))
            segments[video] = [
                GroundTruthSegment(video, draw(st.integers(0, classes - 1)), start, start + draw(st.integers(0, 30)))
                for start in sorted(starts)
            ]
    return Corpus(detector, classifier, segments), cfg


def reached_margins(corpus, cfg):
    """Every top-2 margin the online replay reaches in the corpus's annotated videos."""
    margins = []
    for video in corpus.segments:
        if video in corpus.classifier:
            replayed = outcome(replay_online, corpus.detector[video], corpus.classifier[video], cfg)
            if not isinstance(replayed, str):
                folded = replayed[0].folded
                margins += [
                    folded.top1s[k] - folded.top2s[k] for first, stop in folded.periods for k in range(first, stop)
                ]
    return margins


class TestSweepMatchesReruns:
    @given(corpora(), st.data())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_rows_identical(self, drawn, data):
        corpus, cfg = drawn
        margins = reached_margins(corpus, cfg)
        taus = [0.0, 1.0] + data.draw(st.lists(st.floats(0.0, 1.0), max_size=3))
        if margins:
            taus.append(data.draw(st.sampled_from(margins)))  # ties a margin some fold reaches
        taus = data.draw(st.permutations(list(dict.fromkeys(taus))))
        swept = outcome(sweep, corpus, cfg, taus)
        assert swept == outcome(sweep_by_reruns, corpus, cfg, taus)
        if not isinstance(swept, str):
            assert list(swept) == taus

    def test_period_open_at_end_fires_only_early(self):
        gesture = np.array([0.05] * 60 + [0.9] * 60)
        det = ScoreStream("v", 2, np.column_stack([1.0 - gesture, gesture]))
        probs = np.full((120, 10), 0.05)
        probs[:, 3] = 0.55
        cls = ScoreStream("v", 10, probs)
        corpus = Corpus({"v": det}, {"v": cls}, {"v": [GroundTruthSegment("v", 3, 60, 119)]})
        trace = run_video(det, cls, CFG)
        assert trace.open_at_end == 1 and trace.events == ()
        reached = max(top1 - second for top1, second in zip(trace.folded.top1s, trace.folded.top2s))
        taus = [reached, math.nextafter(reached, 1.0)]
        swept = sweep(corpus, CFG, taus)
        low, high = swept.values()
        assert low.matched == 1 and low.early is not None
        assert high.matched == 0 and high.missed_segments == 1
        assert swept == sweep_by_reruns(corpus, CFG, taus)
        # had the gate closed, the high threshold would have given a late event;
        # uniform scores after the gesture only shrink the margin
        closed = ScoreStream("v", 2, np.vstack([det.rows, np.tile([0.95, 0.05], (20, 1))]))
        closed_cls = ScoreStream("v", 10, np.vstack([probs, np.full((20, 10), 0.1)]))
        late = run_video(closed, closed_cls, replace(CFG, tau_early=taus[1]))
        assert late.open_at_end == 0 and [e.kind for e in late.events] == [EventKind.LATE]

    def test_unannotated_video_warned_once(self, caplog):
        corpus = single_video_corpus()
        det, cls = constant_streams("extra", 120, gesture_prob=0.05)
        merged = Corpus({**corpus.detector, "extra": det}, {**corpus.classifier, "extra": cls}, corpus.segments)
        with caplog.at_level("WARNING"):
            swept = sweep(merged, CFG, [0.3, 0.6, 1.0])
        assert list(swept) == [0.3, 0.6, 1.0]
        assert [r.getMessage() for r in caplog.records].count("skipping extra: no annotations") == 1

    @pytest.mark.parametrize("taus,message", [
        ([0.3, 1.5, -0.2], "tau_early must be in [0, 1], got 1.5, -0.2"),
        ([0.3, float("nan")], "got nan"),
        ([0.3, 0.3], "must be distinct"),
    ])
    def test_bad_thresholds_rejected_before_any_work(self, monkeypatch, taus, message):
        monkeypatch.setattr(pipeline, "fold_video", None)  # any video work would fail differently
        with pytest.raises(ValueError, match=re.escape(message)):
            sweep(single_video_corpus(), CFG, taus)
