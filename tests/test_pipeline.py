import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gesturestream import cli, pipeline
from gesturestream.activation import ActivationState, EventKind, activation_step, midpoint, sigmoid_weight
from gesturestream.core import GESTURE_INDEX, ConfigError, FilterKind, PipelineConfig, top2
from gesturestream.gate import GateDecision, GateMode, GateState, gate_step
from gesturestream.pipeline import FoldedVideo, RunTrace, fold_video, run_corpus, run_video
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
    det = ScoreStream(video_id, np.tile([1.0 - gesture_prob, gesture_prob], (length, 1)))
    cls = ScoreStream(video_id, np.full((length, num_classes), 1.0 / num_classes))
    return det, cls


def one_hot_stream(video_id, length, num_classes=10):
    """Classifier rows all certain of class 3."""
    return ScoreStream(video_id, np.tile(np.eye(num_classes)[3], (length, 1)))


def mode_transitions(folded):
    """Idle-to-active and active-to-idle flips of the gate over a video's windows."""
    activations = len(folded.periods)
    deactivations = sum(stop < len(folded.ends) for _, stop in folded.periods)
    return activations, deactivations


def batch_run(det, cls, cfg):
    """The one-video batch run: fold the whole video, then apply cfg's thresholds."""
    return run_video(fold_video(det, cls, cfg), cfg)


def fold_lists(folded):
    """A fold's columns as plain lists, which compare by value; their repr also tells -0.0 from 0.0."""
    columns = {field.name: getattr(folded, field.name) for field in fields(FoldedVideo)}
    return {name: c.tolist() if isinstance(c, np.ndarray) else c for name, c in columns.items()}


def assert_same_fold(a, b):
    assert fold_lists(a) == fold_lists(b)
    assert repr(fold_lists(a)) == repr(fold_lists(b))


def plain(runs):
    """Runs keyed by video, each as its events and its fold's lists, or an error outcome as it is."""
    return runs if isinstance(runs, str) else {v: (r.events, fold_lists(r.folded)) for v, r in runs.items()}


class TestRunVideo:
    def test_single_gesture_one_activation_cycle(self):
        corpus = single_video_corpus()
        vid = corpus.video_ids()[0]
        trace = batch_run(corpus.detector[vid], corpus.classifier[vid], CFG)
        activations, deactivations = mode_transitions(trace.folded)
        assert activations == 1
        assert deactivations == 1
        assert len(trace.events) == 1
        seg = corpus.segments[vid][0]
        assert trace.events[0].label == seg.label

    def test_all_background_never_invokes_classifier(self):
        det, _ = constant_streams("bg", 200, gesture_prob=0.05)
        cfg = replace(CFG, tau_early=0.0)
        # at tau_early 0 any window that read these rows would give an early event
        trace = batch_run(det, one_hot_stream("bg", 200), cfg)
        assert trace.events == ()
        assert trace.classifier_invocations == 0
        assert trace.windows_processed == 200 - 32 + 1
        active, _ = constant_streams("bg", 200, gesture_prob=0.95)
        assert [e.kind for e in batch_run(active, one_hot_stream("bg", 200), cfg).events] == [EventKind.EARLY]
        # rows that are never read must still cover the detector's frames
        with pytest.raises(ValueError, match="no score for bg@0"):
            batch_run(det, ScoreStream("bg", np.empty((0, 10))), cfg)

    def test_stride_two_halves_window_count(self):
        corpus = single_video_corpus()
        vid = corpus.video_ids()[0]
        det, cls = corpus.detector[vid], corpus.classifier[vid]
        one = batch_run(det, cls, CFG)
        two = batch_run(det, cls, PipelineConfig(num_classes=10, stride=2))
        assert abs(one.windows_processed - 2 * two.windows_processed) <= 1

    def test_missing_score_aborts_with_frame(self):
        rows = np.tile([0.95, 0.05], (100, 1))
        rows[40] = np.nan
        with pytest.raises(ValueError, match="v@40"):
            ScoreStream("v", rows)

    def test_arity_mismatch_reported_before_missing_frame(self):
        det = ScoreStream("v", np.tile([0.0, 1.0], (100, 1)))
        cls = ScoreStream("v", np.full((50, 3), 1.0 / 3))
        cfg = PipelineConfig(num_classes=4)
        message = "arity mismatch: mean has 4 classes, scores have 3"
        assert outcome(replay_online, det, cls, cfg) == f"ValueError: {message}"
        with pytest.raises(ValueError, match=re.escape(message)):
            batch_run(det, cls, cfg)

    def test_gate_closing_at_last_window_is_not_open_at_end(self):
        gesture = np.array([0.9] * 40 + [0.0])
        det = ScoreStream("v", np.column_stack([1.0 - gesture, gesture]))
        cls = ScoreStream("v", np.full((41, 3), 1.0 / 3))
        cfg = PipelineConfig(num_classes=3, classifier_window=1, filter_size=1, deactivate_count=1)
        trace = batch_run(det, cls, cfg)
        assert trace.folded.periods == [(0, 40)]
        assert (trace.windows_processed, trace.classifier_invocations, trace.open_at_end) == (41, 40, 0)
        assert replay_online(det, cls, cfg)[1] == (41, 40, 0)

    def test_late_threshold_is_inclusive(self):
        corpus = single_video_corpus()
        vid = corpus.video_ids()[0]
        det, cls = corpus.detector[vid], corpus.classifier[vid]
        folded = batch_run(det, cls, CFG).folded
        # the top-1 of the last fold of the first period the gate closes
        stop = next(stop for _, stop in folded.periods if stop < len(folded.ends))
        last_top1 = folded.top1s[stop - 1]
        at = batch_run(det, cls, replace(CFG, tau_late=last_top1))
        assert [(e.kind, e.margin_or_score) for e in at.events] == [(EventKind.LATE, last_top1)]
        assert batch_run(det, cls, replace(CFG, tau_late=math.nextafter(last_top1, 1.0))).events == ()

    def test_replay_is_identical(self):
        corpus = single_video_corpus()
        vid = corpus.video_ids()[0]
        a = batch_run(corpus.detector[vid], corpus.classifier[vid], CFG)
        b = batch_run(corpus.detector[vid], corpus.classifier[vid], CFG)
        assert a.events == b.events
        assert_same_fold(a.folded, b.folded)

    def test_trace_kept_and_increasing(self):
        corpus = single_video_corpus()
        vid = corpus.video_ids()[0]
        traced = batch_run(corpus.detector[vid], corpus.classifier[vid], CFG)
        ts = list(traced.folded.ends)
        assert ts == sorted(ts)
        assert len(set(ts)) == len(ts)
        assert len(ts) == len(traced.folded.raws) == len(traced.folded.filtered) == traced.windows_processed

    def test_fold_columns_are_read_only(self):
        corpus = single_video_corpus()
        vid = corpus.video_ids()[0]
        folded = fold_video(corpus.detector[vid], corpus.classifier[vid], CFG)
        for name in ("raws", "filtered", "labels", "top1s", "top2s"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(folded, name)[0] = 0

    def test_invocations_below_windows_when_idle_exists(self):
        corpus = single_video_corpus()
        vid = corpus.video_ids()[0]
        trace = batch_run(corpus.detector[vid], corpus.classifier[vid], CFG)
        assert sum(stop - first for first, stop in trace.folded.periods) < len(trace.folded.ends)
        assert trace.classifier_invocations < trace.windows_processed

    def test_at_most_one_event_per_active_period(self):
        cfg = SynthConfig(num_videos=6, gestures_per_video=5, num_classes=8,
                          noise_sigma=0.08, prep_ambiguity=0.7, seed=13)
        corpus = generate_synthetic(cfg)
        pcfg = PipelineConfig(num_classes=8, tau_early=0.2)
        for vid in corpus.video_ids():
            trace = batch_run(corpus.detector[vid], corpus.classifier[vid], pcfg)
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
        accs = [vr.score.accuracy for vr in run.videos.values()]
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
        for name in ("run_video", "fold_video", "fold_videos"):
            monkeypatch.setattr(pipeline, name, None)  # any video work would fail differently
        with pytest.raises(ValueError, match="no detector stream for ghost"):
            run_corpus(merged, CFG)
        with pytest.raises(ValueError, match="no detector stream for ghost"):
            sweep(merged, CFG, [0.5])

    def test_out_of_range_class_rejected_before_any_video_is_gated(self, monkeypatch):
        corpus = generate_synthetic(SynthConfig(num_videos=2, gestures_per_video=3, num_classes=5, seed=1))
        corpus.segments["v001"][1] = replace(corpus.segments["v001"][1], label=9)
        monkeypatch.setattr(pipeline, "fold_videos", None)  # any video work would fail differently
        cfg = PipelineConfig(num_classes=5)
        with pytest.raises(ValueError, match=re.escape("v001: class 9 outside [0, 5)")):
            run_corpus(corpus, cfg)
        with pytest.raises(ValueError, match=re.escape("v001: class 9 outside [0, 5)")):
            sweep(corpus, cfg, [0.5])

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="no videos"):
            run_corpus(Corpus(detector={}, classifier={}, segments={}), CFG)

    def test_deterministic_reports(self):
        cfg = SynthConfig(num_videos=3, gestures_per_video=4, num_classes=10, seed=6)
        corpus = generate_synthetic(cfg)
        a, b = run_corpus(corpus, CFG), run_corpus(corpus, CFG)
        assert (a.skipped, a.aggregate) == (b.skipped, b.aggregate)
        assert {v: r.score for v, r in a.videos.items()} == {v: r.score for v, r in b.videos.items()}
        assert plain({v: r.trace for v, r in a.videos.items()}) == plain({v: r.trace for v, r in b.videos.items()})

    def test_grace_defaults_to_classifier_window(self):
        corpus = single_video_corpus()
        run = run_corpus(corpus, CFG)
        assert run.aggregate.grace == CFG.classifier_window

    def test_negative_grace_rejected_before_any_run(self, monkeypatch):
        for name in ("run_video", "fold_videos"):
            monkeypatch.setattr(pipeline, name, None)  # any video work would fail differently
        with pytest.raises(ValueError, match="grace must be >= 0, got -1"):
            run_corpus(single_video_corpus(), CFG, grace=-1)


def replay_online(det, cls, cfg):
    """Reference for batch_run: the window-by-window replay through the online API.

    Gives the RunTrace; the run counters (windows, classifier invocations,
    open at end), counted window by window; and one tuple per window holding
    the columns of the --trace TSV.
    """
    gate = GateState.idle(cfg.filter_size)
    act = ActivationState.inactive(cfg.num_classes)
    t_mid = midpoint(cfg.mean_duration, cfg.stride)
    ends = cursor_for(det.length, cfg)
    events, rows, windows, invocations = [], [], 0, 0
    raws, filtered_probs, periods, labels, top1s, top2s = [], [], [], [], [], []
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
        j = act.count
        if j:
            label, top1, second = top2(act.values)
            weight = sigmoid_weight(j, t_mid, cfg.sigmoid_slope)
        else:
            label, top1, second, weight = -1, 0.0, 0.0, 0.0
        labels.append(label)
        top1s.append(top1)
        top2s.append(second)
        rows.append((window.end, raw, filtered, gate.mode.value, j, weight, label, top1, second))
    folded = FoldedVideo(
        ends, np.array(raws, np.float64), np.array(filtered_probs, np.float64), [tuple(p) for p in periods],
        np.array(labels, np.int64), np.array(top1s, np.float64), np.array(top2s, np.float64),
    )
    counters = (windows, invocations, int(gate.mode is GateMode.ACTIVE))
    return RunTrace(tuple(events), folded), counters, rows


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


# Gesture probabilities around the gate threshold, plus a few exact repeats.
# -0.0 and the thresholds' float neighbours are values a uniform draw never gives
RAW = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from(
        [0.0, -0.0, 1.0] + [x for t in (0.3, 0.5, 0.7) for x in (math.nextafter(t, 0.0), t, math.nextafter(t, 1.0))]
    ),
)


def stream_arrays(draw, classes):
    """Detector and classifier rows of one video, often ending with the gate open."""
    length = draw(st.integers(0, 90))
    gesture = draw(st.lists(RAW, min_size=length, max_size=length))
    gesture += [draw(RAW)] * draw(st.integers(0, 12))  # often ends with the gate open
    det = np.column_stack([[1.0 - p for p in gesture], gesture]).reshape(-1, 2)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cls = rng.dirichlet(np.full(classes, draw(st.sampled_from([0.1, 1.0, 10.0]))), size=len(det))
    top = (np.arange(len(det)), cls.argmax(axis=1))
    zeros = rng.random(cls.shape) < 0.15
    zeros[top] = False
    cls[top] = np.minimum(cls[top] + np.where(zeros, cls, 0.0).sum(axis=1), 1.0)  # rows still sum to one
    cls[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)  # exact zeros of either sign
    cls[rng.random(len(det)) < 0.2] = 1.0 / classes  # all-class ties
    tie = rng.random(len(det)) < 0.2
    cls[tie, :2] = cls[tie, :2].mean(axis=1, keepdims=True)  # two-class ties
    return det, cls


def rule_error(det, cls, cfg):
    """The error of a pair of streams that breaks the rule load_corpus holds files to, or None."""
    if det.arity != 2:
        return f"ValueError: arity mismatch: detector of {det.video_id} has {det.arity} classes, expected 2"
    if cls.arity != cfg.num_classes:
        return f"ValueError: arity mismatch: mean has {cfg.num_classes} classes, scores have {cls.arity}"
    if cls.length < det.length:
        return f"ValueError: no score for {cls.video_id}@{cls.length}"
    return None


def inject_fault(draw, det, cls, cfg, fault):
    """Break the pair as the fault names: cut the classifier short, configure another class count, or split the
    detector's no-gesture column in two."""
    if fault == "3-column-detector":
        det = np.column_stack([det[:, 0] / 2, det[:, GESTURE_INDEX], det[:, 0] / 2])
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
        sigmoid_slope=draw(st.sampled_from([0.05, 0.2, 1.0, 100.0])),  # 100.0 underflows early weights to 0.0
        mean_duration=draw(st.floats(0.5, 160.0)),
    )


FAULTS = ["none"] * 6 + ["short-classifier", "num-classes", "num-classes+short-classifier", "3-column-detector"]


@st.composite
def video_streams(draw):
    classes = draw(st.integers(2, 6))
    det, cls = stream_arrays(draw, classes)
    det, cls, cfg = inject_fault(draw, det, cls, pipeline_configs(draw, classes), draw(st.sampled_from(FAULTS)))
    return ScoreStream("v", det), ScoreStream("v", cls), cfg


class TestKernelMatchesOnlineReplay:
    @given(video_streams())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_events_trace_and_counts_identical(self, streams):
        det, cls, cfg = streams
        broken = rule_error(det, cls, cfg)
        if broken:  # whatever the replay, which reads rows lazily, would do
            assert outcome(batch_run, det, cls, cfg) == broken
            return
        assert_matches_replay(batch_run(det, cls, cfg), *replay_online(det, cls, cfg), cfg)

    def test_eighty_three_classes_and_long_gestures(self):
        synth = SynthConfig(num_videos=2, gestures_per_video=4, num_classes=83, duration_mean=90.0, seed=5)
        corpus = generate_synthetic(synth)
        cfg = PipelineConfig(num_classes=83, tau_early=0.3, mean_duration=90.0)
        for video in corpus.video_ids():
            det, cls = corpus.detector[video], corpus.classifier[video]
            traced = batch_run(det, cls, cfg)
            assert max(stop - first for first, stop in traced.folded.periods) >= 80
            assert_matches_replay(traced, *replay_online(det, cls, cfg), cfg)

    @pytest.mark.parametrize("field", ["tau_early", "tau_late"])
    def test_nan_threshold_refused(self, field):
        # so neither run_video nor activation_step ever compares against one
        with pytest.raises(ConfigError, match=re.escape(f"{field} must be in [0, 1]")):
            replace(CFG, **{field: math.nan})


def assert_matches_replay(traced, want, counters, rows, cfg):
    """A batch_run trace equals replay_online's, and so do its counters and its --trace TSV."""
    assert traced.events == want.events
    # a numpy scalar would compare equal here, yet json.dumps refuses it when the events are written
    assert all(
        (type(e.label), type(e.emit_frame), type(e.margin_or_score)) == (int, int, float) for e in traced.events
    )
    assert_same_fold(traced.folded, want.folded)
    assert (traced.windows_processed, traced.classifier_invocations, traced.open_at_end) == counters
    # repr text also tells -0.0 from 0.0
    header = "\t".join(["t", "raw_prob", "filtered_prob", "mode", "j", "weight", "top_label", "top1", "top2"])
    lines = ["\t".join(x if isinstance(x, str) else repr(x) for x in row) for row in rows]
    assert cli.trace_tsv(traced.folded, cfg) == "".join(line + "\n" for line in [header, *lines])


def sweep_by_reruns(corpus, cfg, taus):
    """Reference for sweep: one full run_corpus per threshold."""
    return {tau: run_corpus(corpus, replace(cfg, tau_early=tau)).aggregate for tau in taus}


@st.composite
def corpora(draw, max_videos=4, faults=FAULTS + ["no-classifier-stream"]):
    """Up to max_videos videos under one config, some unannotated, one fault draw at most, in the first video."""
    classes = draw(st.integers(2, 6))
    cfg = pipeline_configs(draw, classes)
    detector, classifier, segments = {}, {}, {}
    fault = draw(st.sampled_from(faults))
    for k in range(draw(st.integers(1, max_videos))):
        video = f"v{k}"
        det, cls = stream_arrays(draw, classes)
        if k == 0:
            det, cls, cfg = inject_fault(draw, det, cls, cfg, fault)
        detector[video] = ScoreStream(video, det)
        if not (k == 0 and fault == "no-classifier-stream"):
            classifier[video] = ScoreStream(video, cls)
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
                reached = (folded.top1s - folded.top2s).tolist()
                margins += [reached[k] for first, stop in folded.periods for k in range(first, stop)]
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
        det = ScoreStream("v", np.column_stack([1.0 - gesture, gesture]))
        probs = np.full((120, 10), 0.05)
        probs[:, 3] = 0.55
        cls = ScoreStream("v", probs)
        corpus = Corpus({"v": det}, {"v": cls}, {"v": [GroundTruthSegment("v", 3, 60, 119)]})
        trace = batch_run(det, cls, CFG)
        assert trace.open_at_end == 1 and trace.events == ()
        reached = max((trace.folded.top1s - trace.folded.top2s).tolist())
        taus = [reached, math.nextafter(reached, 1.0)]
        swept = sweep(corpus, CFG, taus)
        low, high = swept.values()
        assert low.matched == 1 and low.early is not None
        assert high.matched == 0 and high.missed_segments == 1
        assert swept == sweep_by_reruns(corpus, CFG, taus)
        # had the gate closed, the high threshold would have given a late event;
        # uniform scores after the gesture only shrink the margin
        closed = ScoreStream("v", np.vstack([det.rows, np.tile([0.95, 0.05], (20, 1))]))
        closed_cls = ScoreStream("v", np.vstack([probs, np.full((20, 10), 0.1)]))
        late = batch_run(closed, closed_cls, replace(CFG, tau_early=taus[1]))
        assert late.open_at_end == 0 and [e.kind for e in late.events] == [EventKind.LATE]

    @pytest.mark.parametrize("count", [1, 9])
    def test_each_annotated_video_folded_once(self, monkeypatch, count):
        corpus = generate_synthetic(SynthConfig(num_videos=3, gestures_per_video=2, num_classes=10, seed=6))
        det, cls = constant_streams("extra", 120, gesture_prob=0.9)
        merged = Corpus({**corpus.detector, "extra": det}, {**corpus.classifier, "extra": cls}, corpus.segments)
        calls, fold_videos = [], pipeline.fold_videos

        def counted(streams, cfg):
            calls.append([det.video_id for det, _ in streams])
            return fold_videos(streams, cfg)

        monkeypatch.setattr(pipeline, "fold_videos", counted)
        sweep(merged, CFG, [k / 8 for k in range(count)])
        assert calls == [sorted(corpus.segments)]

    @pytest.mark.parametrize("count", [1, 2, 9])
    def test_events_derived_once_per_video_and_threshold(self, monkeypatch, count):
        corpus = generate_synthetic(SynthConfig(num_videos=3, gestures_per_video=2, num_classes=10, seed=6))
        derived, run_video = [], pipeline.run_video

        def counted(folded, cfg):
            derived.append(cfg.tau_early)
            return run_video(folded, cfg)

        monkeypatch.setattr(pipeline, "run_video", counted)
        taus = [k / 8 for k in range(count)]
        sweep(corpus, CFG, taus)
        assert sorted(derived) == sorted(taus * len(corpus.segments))

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
        ([], "at least one threshold"),
    ])
    def test_bad_thresholds_rejected_before_any_work(self, monkeypatch, taus, message):
        for name in ("fold_video", "fold_videos"):
            monkeypatch.setattr(pipeline, name, None)  # any video work would fail differently
        with pytest.raises(ValueError, match=re.escape(message)):
            sweep(single_video_corpus(), CFG, taus)


def kernel_runs(corpus, cfg):
    """Every video's run from one fold_videos call over the whole corpus, in id order."""
    videos = corpus.video_ids()
    folds = pipeline.fold_videos([(corpus.detector[v], corpus.classifier[v]) for v in videos], cfg)
    return {v: run_video(folded, cfg) for v, folded in zip(videos, folds)}


def per_video_runs(corpus, cfg):
    """Reference for kernel_runs: each video folded alone, in id order."""
    return {v: batch_run(corpus.detector[v], corpus.classifier[v], cfg) for v in corpus.video_ids()}


def assert_kernel_matches_per_video(corpus, cfg):
    together, alone = outcome(kernel_runs, corpus, cfg), outcome(per_video_runs, corpus, cfg)
    assert plain(together) == plain(alone)
    assert repr(plain(together)) == repr(plain(alone))  # repr also tells -0.0 from 0.0
    return together


def three_videos(middle_det, middle_cls):
    """Two fully active 100-frame videos, v0 and v2, around the given middle one."""
    streams = {v: constant_streams(v, 100, gesture_prob=0.9) for v in ("v0", "v2")}
    streams["v1"] = (middle_det, middle_cls)
    return Corpus({v: d for v, (d, _) in streams.items()}, {v: c for v, (_, c) in streams.items()}, {})


class TestCorpusFoldMatchesPerVideoFolds:
    @given(corpora(max_videos=6, faults=FAULTS))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_traces_identical(self, drawn):
        assert_kernel_matches_per_video(*drawn)

    @pytest.mark.parametrize("fault,message", [
        ("short-classifier", "no score for v2@60"),
        ("arity", "arity mismatch: mean has 10 classes, scores have 3"),
    ])
    def test_fault_only_in_last_video(self, caplog, fault, message):
        det, cls = constant_streams("v1", 20, gesture_prob=0.9)  # shorter than the classifier window
        corpus = three_videos(det, cls)
        cls = corpus.classifier["v2"]
        rows = cls.rows[:60] if fault == "short-classifier" else np.full((100, 3), 1.0 / 3)
        corpus.classifier["v2"] = ScoreStream("v2", rows)
        with caplog.at_level("WARNING"):
            assert assert_kernel_matches_per_video(corpus, CFG) == f"ValueError: {message}"
        # the short stream ahead of the fault is warned of, once by each of the two runs
        assert [r.getMessage() for r in caplog.records].count(
            "stream of 20 frames is shorter than the classifier window (32); no windows scheduled"
        ) == 2

    def test_video_without_windows(self, caplog):
        corpus = three_videos(*constant_streams("v1", 20, gesture_prob=0.9))
        with caplog.at_level("WARNING"):
            runs = assert_kernel_matches_per_video(corpus, CFG)
        assert len(runs["v1"].folded.ends) == 0
        assert [len(runs[v].folded.periods) for v in ("v0", "v2")] == [1, 1]
        assert "stream of 20 frames is shorter" in caplog.text

    def test_video_without_periods(self):
        det, _ = constant_streams("v1", 200, gesture_prob=0.05)
        cfg = replace(CFG, tau_early=0.0)
        # at tau_early 0 any window that read the idle video's rows would give an early event
        runs = assert_kernel_matches_per_video(three_videos(det, one_hot_stream("v1", 200)), cfg)
        assert runs["v1"].events == () and runs["v1"].classifier_invocations == 0
        idle = runs["v1"].folded
        assert idle.periods == [] and set(idle.labels) == {-1}
        # rows that are never read must still cover the detector's frames
        empty = three_videos(det, ScoreStream("v1", np.empty((0, 10))))
        assert assert_kernel_matches_per_video(empty, cfg) == "ValueError: no score for v1@0"


RULE_FAULTS = ["none", "short-classifier", "num-classes", "3-column-detector", "out-of-range-class"]


@st.composite
def rule_corpora(draw):
    """Up to three annotated videos, the first broken by the fault drawn; no gesture probability reaches 1."""
    classes = draw(st.integers(2, 6))
    cfg = pipeline_configs(draw, classes)
    fault = draw(st.sampled_from(RULE_FAULTS))
    detector, classifier, segments = {}, {}, {}
    for k in range(draw(st.integers(1, 3))):
        video = f"v{k}"
        det, cls = stream_arrays(draw, classes)
        gesture = det[:, GESTURE_INDEX] / 2  # so a gate that opens at 1.0 never opens
        det = np.column_stack([1.0 - gesture, gesture])
        labels = [draw(st.integers(0, classes - 1))]
        if k == 0:
            if fault == "short-classifier" and not len(det):
                det = np.array([[0.5, 0.5]])
            det, cls, cfg = inject_fault(draw, det, cls, cfg, fault)
            if fault == "out-of-range-class":
                labels.append(cfg.num_classes + draw(st.integers(0, 3)))
        detector[video], classifier[video] = ScoreStream(video, det), ScoreStream(video, cls)
        segments[video] = [GroundTruthSegment(video, label, 40 * i, 40 * i + 30) for i, label in enumerate(labels)]
    return Corpus(detector, classifier, segments), cfg, fault


class TestValidityIndependentOfConfig:
    @given(rule_corpora())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_gate_never_open_and_gate_open_throughout_agree(self, drawn):
        corpus, cfg, fault = drawn
        never, always = replace(cfg, gate_on_threshold=1.0), replace(cfg, gate_on_threshold=0.0)
        for fn in (run_corpus, lambda corpus, cfg: sweep(corpus, cfg, [0.0, 1.0])):
            closed, opened = outcome(fn, corpus, never), outcome(fn, corpus, always)
            if fault == "none":
                assert not isinstance(closed, str) and not isinstance(opened, str)
            else:
                assert isinstance(closed, str) and closed == opened
        if fault == "none":  # the two gates are the extremes they are named for
            closed, opened = run_corpus(corpus, never).aggregate, run_corpus(corpus, always).aggregate
            assert closed.classifier_invocations == 0
            assert opened.classifier_invocations == opened.windows_processed
