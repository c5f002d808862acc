import json
import math
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gesturestream import scoring
from gesturestream.core import INGEST_RENORM_TOL, PROB_SUM_TOL, ConfigError, ProbVector, ingest_probs
from gesturestream.scoring import (
    ScoreStream,
    StreamFormatError,
    SynthConfig,
    SynthesisError,
    generate_synthetic,
    load_annotations,
    load_corpus,
    load_score_stream,
    validate_synth_config,
    write_annotation_file,
    write_score_file,
)


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def dense_stream():
    """Frames 0..30 at (0.5, 0.5), frame 31 at (0.1, 0.9)."""
    rows = np.full((32, 2), 0.5)
    rows[31] = (0.1, 0.9)
    return ScoreStream("v01", 2, rows)


class TestScoreStream:
    def test_lookup(self):
        stream = dense_stream()
        assert stream.length == 32
        assert stream.score(31).values == (0.1, 0.9)

    def test_missing_entry_names_video_and_frame(self):
        stream = dense_stream()
        for t in (32, 33, -1):
            with pytest.raises(ValueError, match=rf"no score for v01@{t}"):
                stream.score(t)

    def test_rows_read_only(self):
        stream = dense_stream()
        with pytest.raises(ValueError, match="read-only"):
            stream.rows[0, 0] = 0.2

    def test_out_of_range_row_rejected(self):
        rows = np.full((10, 3), 1.0 / 3.0)
        rows[5] = (5.0, -4.0, 0.0)  # sums to 1
        with pytest.raises(ValueError, match=r"^c@5: probability 5.0 outside \[0, 1\]$"):
            ScoreStream("c", 3, rows)

    @pytest.mark.parametrize("arity,rows", [
        (2, np.full((4, 3), 1.0 / 3.0)),
        (2, np.full(4, 0.5)),
        (1, np.ones((4, 1))),
        (2, np.array([[0, 1], [1, 0]])),
    ], ids=["arity", "1-d", "one-class", "int"])
    def test_bad_shape_rejected(self, arity, rows):
        with pytest.raises(ValueError, match="^v: .* rows of shape"):
            ScoreStream("v", arity, rows)


class TestLoadScoreStream:
    def test_three_line_file(self, tmp_path):
        path = tmp_path / "det.jsonl"
        write_lines(path, [
            json.dumps({"video": "a", "t": 31, "p": [0.1, 0.9]}),
            json.dumps({"video": "a", "t": 32, "p": [0.2, 0.8]}),
            json.dumps({"video": "a", "t": 33, "p": [0.3, 0.7]}),
        ])
        with pytest.raises(StreamFormatError, match=rf"^{re.escape(str(path))}: no score for a@0$"):
            load_score_stream(path, expected_arity=2)
        write_lines(path, [
            json.dumps({"video": "a", "t": 2, "p": [0.3, 0.7]}),
            json.dumps({"video": "a", "t": 0, "p": [0.1, 0.9]}),
            json.dumps({"video": "a", "t": 1, "p": [0.2, 0.8]}),
        ])
        streams = load_score_stream(path, expected_arity=2)
        assert set(streams) == {"a"}
        assert streams["a"].rows.tolist() == [[0.1, 0.9], [0.2, 0.8], [0.3, 0.7]]

    def test_first_gap_named_in_video_order(self, tmp_path):
        path = tmp_path / "det.jsonl"
        write_lines(path, [json.dumps({"video": "b", "t": t, "p": [0.5, 0.5]}) for t in (0, 2)]
                    + [json.dumps({"video": "a", "t": t, "p": [0.5, 0.5]}) for t in (0, 1, 3, 5)])
        with pytest.raises(StreamFormatError, match=r": no score for a@2$"):
            load_score_stream(path)

    def test_duplicate_key_reports_line(self, tmp_path):
        path = tmp_path / "det.jsonl"
        write_lines(path, [
            json.dumps({"video": "a", "t": 31, "p": [0.1, 0.9]}),
            json.dumps({"video": "a", "t": 31, "p": [0.2, 0.8]}),
        ])
        with pytest.raises(StreamFormatError, match=r":2: duplicate entry for a@31"):
            load_score_stream(path)

    @pytest.mark.parametrize("t", [10**15, 10**18])
    def test_frame_index_too_large_to_hold(self, tmp_path, t):
        path = tmp_path / "det.jsonl"
        write_lines(path, [
            json.dumps({"video": "a", "t": 31, "p": [0.1, 0.9]}),
            json.dumps({"video": "a", "t": t, "p": [0.1, 0.9]}),
        ])
        with pytest.raises(StreamFormatError, match=r": no score for a@0$"):
            load_score_stream(path)

    def test_arity_mismatch(self, tmp_path):
        path = tmp_path / "det.jsonl"
        write_lines(path, [json.dumps({"video": "a", "t": 31, "p": [0.2, 0.3, 0.5]})])
        with pytest.raises(StreamFormatError, match="expected 2"):
            load_score_stream(path, expected_arity=2)
        write_lines(path, [json.dumps({"video": "a", "t": 0, "p": [1.0]})])
        with pytest.raises(StreamFormatError, match=":1: probability vector needs >= 2 classes, got 1$"):
            load_score_stream(path)

    def test_inconsistent_arity_across_lines(self, tmp_path):
        path = tmp_path / "cls.jsonl"
        write_lines(path, [
            json.dumps({"video": "a", "t": 31, "p": [0.2, 0.3, 0.5]}),
            json.dumps({"video": "a", "t": 32, "p": [0.5, 0.5]}),
        ])
        with pytest.raises(StreamFormatError, match=":2: expected 3"):
            load_score_stream(path)

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "det.jsonl"
        write_lines(path, [
            json.dumps({"video": "a", "t": 31, "p": [0.1, 0.9]}),
            "{not json",
        ])
        with pytest.raises(StreamFormatError, match=":2: invalid JSON"):
            load_score_stream(path)
        # a blank line is skipped but still counted
        write_lines(path, [json.dumps({"video": "a", "t": 0, "p": [0.1, 0.9]}), "", "[1, 2]"])
        with pytest.raises(StreamFormatError, match=":3: expected a JSON object$"):
            load_score_stream(path)

    def test_near_one_sum_renormalized(self, tmp_path):
        path = tmp_path / "det.jsonl"
        write_lines(path, [json.dumps({"video": "a", "t": 0, "p": [0.4995, 0.5]})])
        vec = load_score_stream(path)["a"].score(0)
        assert abs(math.fsum(vec.values) - 1.0) <= 1e-9

    def test_unknown_fields_ignored_any_order(self, tmp_path):
        path = tmp_path / "det.jsonl"
        write_lines(path, [
            json.dumps({"p": [0.1, 0.9], "extra": "x", "video": "a", "t": 0, "note": 5}),
        ])
        assert load_score_stream(path)["a"].score(0).values == (0.1, 0.9)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "det.jsonl"
        write_lines(path, [json.dumps({"video": "a", "p": [0.1, 0.9]})])
        with pytest.raises(StreamFormatError, match="'t'"):
            load_score_stream(path)
        write_lines(path, [json.dumps({"video": "a", "t": -1, "p": [0.1, 0.9]})])
        with pytest.raises(StreamFormatError, match=":1: negative frame index -1$"):
            load_score_stream(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "det.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(StreamFormatError, match="no score records"):
            load_score_stream(path)


# Values ingest_probs must judge: in and out of range, non-finite, ints, bools,
# null, numeric strings and an int too large for a float.
ODD_VALUES = st.sampled_from([
    0.0, -0.0, 1.0, 1.0000001, 1.001, 1.0011, -1e-300, -0.1, 2.0,
    math.nan, math.inf, -math.inf, 0, 1, 2, -1, True, False, None, "0.5", "x", 10**400,
])


@st.composite
def probability_row(draw, arity, odd_values=ODD_VALUES):
    """A row near a sum tolerance edge, or with an odd value in it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    row = rng.dirichlet(np.ones(arity))
    edge = draw(st.sampled_from([0.0, PROB_SUM_TOL, -PROB_SUM_TOL, INGEST_RENORM_TOL, -INGEST_RENORM_TOL]))
    nudge = draw(st.sampled_from([0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9]))
    row = (row * (1.0 + edge + nudge)).tolist()
    for _ in range(draw(st.sampled_from([0, 0, 0, 0, 1, 2]))):
        row[draw(st.integers(0, arity - 1))] = draw(st.one_of(odd_values, st.floats(-0.1, 1.1)))
    return row


@st.composite
def score_files(draw):
    arity = draw(st.integers(2, 5))
    return draw(st.lists(probability_row(arity), min_size=1, max_size=12))


class TestLoaderMatchesIngestProbs:
    @given(score_files())
    @example(rows=[[0.5, 0.5], [1.0000005, 0.0]])  # sum within tolerance, a value above 1
    @example(rows=[[0.5, 0.5], [0.5, 10**400]])
    @example(rows=[[0.5, 0.5], [0.5, [0.5]]])
    @example(rows=[[[0.5], [0.5]]])  # lists of equal shape stack into a 3-D array
    @example(rows=[[0.5, 0.5]] * 4 + [[0.5, 0.6]])  # rejected in the second chunk
    @example(rows=[[0.5, 0.5], ["0.9", "0.1"]])  # numpy would convert numeric strings
    @example(rows=[[0.5, 0.5], [False, True]])  # and bools
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_same_decisions_and_values(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("scores") / "cls.jsonl"
        write_lines(path, [json.dumps({"video": "a", "t": t, "p": p}) for t, p in enumerate(rows)])
        want = []
        with mock.patch.object(scoring, "CHUNK_RECORDS", 3):  # files span several chunks
            for line, p in enumerate(rows, 1):
                try:
                    want.append(ingest_probs(p).values)
                except (ValueError, OverflowError) as exc:
                    with pytest.raises(StreamFormatError) as got:
                        load_score_stream(path)
                    assert str(got.value) == f"{path}:{line}: {exc}"
                    return
            loaded = load_score_stream(path)["a"].rows
        assert loaded.tobytes() == np.array(want).tobytes()


# Float values a stream row may hold that ProbVector must judge: non-finite,
# signed zero, one ulp either side of 1, and values whose sum overflows.
STREAM_VALUES = st.sampled_from([
    math.nan, math.inf, -math.inf, -0.0, 0.0, 1.0, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0),
    1e308, -1e308, 5.0, -4.0,
])


@st.composite
def stream_rows(draw):
    arity = draw(st.integers(2, 5))
    rows = draw(st.lists(probability_row(arity, STREAM_VALUES), max_size=12))
    return np.array(rows, dtype=np.float64).reshape(-1, arity)


class TestScoreStreamMatchesProbVector:
    @given(stream_rows())
    @example(rows=np.array([[0.5, 0.5], [1e308, 1e308]]))
    @example(rows=np.array([[0.5, 0.5], [math.inf, -math.inf]]))
    @example(rows=np.array([[-0.0, 1.0], [5.0, -4.0]]))
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_accepts_exactly_probvectors(self, rows):
        want = None
        for t, row in enumerate(rows.tolist()):
            try:
                ProbVector(tuple(row))
            except ValueError as exc:
                want = f"v@{t}: {exc}"
                break
        if want is None:
            stream = ScoreStream("v", rows.shape[1], rows)
            assert [stream.score(t).values for t in range(stream.length)] == [tuple(r) for r in rows.tolist()]
        else:
            with pytest.raises(ValueError) as got:
                ScoreStream("v", rows.shape[1], rows)
            assert str(got.value) == want


class TestLoadAnnotations:
    def test_sorted_by_start(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        write_lines(path, [
            json.dumps({"video": "a", "class": 2, "start": 100, "end": 130}),
            json.dumps({"video": "a", "class": 1, "start": 10, "end": 40}),
        ])
        segments = load_annotations(path)["a"]
        assert [s.start for s in segments] == [10, 100]
        assert [s.label for s in segments] == [1, 2]

    def test_overlap_rejected(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        write_lines(path, [
            json.dumps({"video": "a", "class": 1, "start": 10, "end": 40}),
            json.dumps({"video": "a", "class": 2, "start": 40, "end": 60}),
        ])
        with pytest.raises(StreamFormatError, match="overlapping"):
            load_annotations(path)

    def test_inverted_span_rejected(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        write_lines(path, [json.dumps({"video": "a", "class": 1, "start": 40, "end": 10})])
        with pytest.raises(StreamFormatError, match="start"):
            load_annotations(path)

    def test_negative_start_rejected_with_line(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        write_lines(path, [
            json.dumps({"video": "a", "class": 1, "start": 10, "end": 40}),
            json.dumps({"video": "a", "class": 2, "start": -5, "end": 5}),
        ])
        with pytest.raises(StreamFormatError, match=re.escape(f"{path}:2: a: negative segment start -5")):
            load_annotations(path)

    def test_label_range_enforced_when_given(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        write_lines(path, [json.dumps({"video": "a", "class": 7, "start": 1, "end": 5})])
        with pytest.raises(StreamFormatError, match="class 7"):
            load_annotations(path, num_classes=5)
        write_lines(path, [json.dumps({"video": "a", "class": -1, "start": 1, "end": 5})])
        with pytest.raises(StreamFormatError, match=":1: a: negative class label -1$"):
            load_annotations(path)


class TestSynthConfigValidation:
    def test_defaults_valid(self):
        cfg = SynthConfig()
        assert validate_synth_config(cfg) is cfg
        assert cfg.num_classes == 83
        assert cfg.duration_mean == 38.4
        assert cfg.phase_fractions == (0.25, 0.5, 0.25)

    def test_zero_videos_rejected(self):
        with pytest.raises(ConfigError, match="num_videos"):
            validate_synth_config(SynthConfig(num_videos=0))

    def test_bad_fractions_rejected(self):
        with pytest.raises(ConfigError, match="phase_fractions"):
            validate_synth_config(SynthConfig(phase_fractions=(0.5, 0.5, 0.5)))

    def test_all_violations_reported(self):
        with pytest.raises(ConfigError) as exc:
            validate_synth_config(SynthConfig(
                num_videos=0, gestures_per_video=0, num_classes=1, duration_mean=0.0, duration_spread=-1.0,
                gap_mean=-1.0, gap_spread=-1.0, phase_fractions=(-0.5, 1.0, 0.5), detector_base=1.5,
                noise_sigma=-1, prep_ambiguity=2, seed=-1, edge_ramp=0,
            ))
        assert str(exc.value) == "; ".join([
            "num_videos must be >= 1",
            "gestures_per_video must be >= 1",
            "num_classes must be >= 2",
            "duration_mean must be > 0",
            "duration_spread must be >= 0",
            "gap_mean must be >= 0",
            "gap_spread must be >= 0",
            "phase_fractions must be three non-negative reals",
            "detector_base must be in [0, 1]",
            "noise_sigma must be >= 0",
            "prep_ambiguity must be in [0, 1]",
            "seed must be >= 0",
            "edge_ramp must be >= 1",
        ])


NOISELESS = SynthConfig(
    num_videos=4, gestures_per_video=5, num_classes=10,
    noise_sigma=0.0, prep_ambiguity=0.0, seed=42,
)


class TestGenerateSynthetic:
    def test_deterministic_given_seed(self, tmp_path):
        a = generate_synthetic(NOISELESS)
        b = generate_synthetic(NOISELESS)
        for corpus, name in ((a, "a"), (b, "b")):
            write_score_file(tmp_path / f"det_{name}.jsonl", corpus.detector)
            write_score_file(tmp_path / f"cls_{name}.jsonl", corpus.classifier)
            write_annotation_file(tmp_path / f"ann_{name}.jsonl", corpus.segments)
        for stem in ("det", "cls", "ann"):
            assert (tmp_path / f"{stem}_a.jsonl").read_bytes() == (tmp_path / f"{stem}_b.jsonl").read_bytes()

    def test_noiseless_nucleus_argmax_is_true_label(self):
        # 3-frame gestures without a nucleus share: both other phases shrink to one frame, leaving the middle one
        short = replace(
            NOISELESS, duration_mean=3.0, duration_spread=0.0, edge_ramp=3, phase_fractions=(0.5, 0.0, 0.5)
        )
        for corpus in (generate_synthetic(NOISELESS), generate_synthetic(short)):
            for video_id, segments in corpus.segments.items():
                stream = corpus.classifier[video_id]
                for seg in segments:
                    # nucleus occupies the middle half of the segment by default
                    dur = seg.duration
                    nucleus_lo = seg.start + max(1, round(dur * 0.25))
                    nucleus_hi = seg.start + dur - max(1, round(dur * 0.25)) - 1
                    for t in range(nucleus_lo, nucleus_hi + 1):
                        vals = stream.score(t).values
                        assert vals.index(max(vals)) == seg.label

    def test_noiseless_detector_base_on_interior(self):
        cfg = SynthConfig(num_videos=2, gestures_per_video=4, num_classes=5,
                          noise_sigma=0.0, detector_base=0.9, seed=3)
        corpus = generate_synthetic(cfg)
        for video_id, segments in corpus.segments.items():
            stream = corpus.detector[video_id]
            for seg in segments:
                for t in range(seg.start + cfg.edge_ramp - 1, seg.end + 1):
                    assert stream.score(t).values[1] == pytest.approx(0.9)

    def test_segments_never_overlap_and_min_duration(self):
        cfg = SynthConfig(num_videos=6, gestures_per_video=8, num_classes=12, seed=9)
        corpus = generate_synthetic(cfg)
        for segments in corpus.segments.values():
            for seg in segments:
                assert seg.duration >= 3
            for prev, cur in zip(segments, segments[1:]):
                assert cur.start > prev.end

    def test_vectors_pass_strict_invariants(self):
        cfg = SynthConfig(num_videos=2, gestures_per_video=3, num_classes=7,
                          noise_sigma=0.08, prep_ambiguity=0.6, seed=5)
        corpus = generate_synthetic(cfg)
        for streams in (corpus.detector, corpus.classifier):
            for stream in streams.values():
                for t in range(stream.length):
                    # re-running the constructor re-checks range and sum tolerance
                    ProbVector(stream.score(t).values)

    def test_streams_dense_over_all_frames(self):
        corpus = generate_synthetic(NOISELESS)
        for video_id in corpus.video_ids():
            det = corpus.detector[video_id]
            cls = corpus.classifier[video_id]
            assert det.length == cls.length
            assert det.rows.shape == (det.length, 2)
            assert cls.rows.shape == (cls.length, cls.arity)
            assert not np.isnan(det.rows).any()
            assert not np.isnan(cls.rows).any()

    def test_duration_mean_tracks_config(self):
        cfg = SynthConfig(num_videos=12, gestures_per_video=8, num_classes=5, seed=1)
        corpus = generate_synthetic(cfg)
        durations = [seg.duration for segs in corpus.segments.values() for seg in segs]
        mean = sum(durations) / len(durations)
        assert abs(mean - cfg.duration_mean) <= 0.1 * cfg.duration_mean

    def test_infeasible_timing_reported(self):
        cfg = SynthConfig(num_videos=1, gestures_per_video=2, num_classes=5,
                          gap_mean=1.0, gap_spread=0.0, seed=2)
        with pytest.raises(SynthesisError, match="gap|lead-in"):
            generate_synthetic(cfg)

    def test_confusable_differs_from_label(self):
        # with full ambiguity and no noise, prep mass splits between exactly
        # two classes and the confusable is never the true label
        cfg = SynthConfig(num_videos=3, gestures_per_video=6, num_classes=6,
                          noise_sigma=0.0, prep_ambiguity=1.0, seed=8)
        corpus = generate_synthetic(cfg)
        for video_id, segments in corpus.segments.items():
            stream = corpus.classifier[video_id]
            for seg in segments:
                vals = stream.score(seg.start).values
                peak = max(vals)
                assert vals.index(peak) != seg.label


class TestRoundTrip:
    def test_corpus_files_round_trip(self, tmp_path):
        corpus = generate_synthetic(NOISELESS)
        det, cls, ann = tmp_path / "d.jsonl", tmp_path / "c.jsonl", tmp_path / "a.jsonl"
        write_score_file(det, corpus.detector)
        write_score_file(cls, corpus.classifier)
        write_annotation_file(ann, corpus.segments)
        loaded = load_corpus(det, cls, ann)
        assert loaded.video_ids() == corpus.video_ids()
        for video_id in corpus.video_ids():
            orig = corpus.classifier[video_id]
            back = loaded.classifier[video_id]
            assert back.arity == orig.arity
            assert back.rows.shape == orig.rows.shape
            probe = list(range(orig.length))[::97] or [0]
            for t in probe:
                assert back.score(t).values == pytest.approx(orig.score(t).values, abs=1e-12)
        assert loaded.segments == corpus.segments
