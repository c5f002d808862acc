"""Acceptance suite: one test per release criterion, printing a line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines as they complete.
"""

import functools
import itertools
import math
import random
import time
from contextlib import contextmanager

import pytest

from gesturestream.activation import ActivationEvent, ActivationState, EventKind, midpoint, sigmoid_weight, update_mean
from gesturestream.cli import main
from gesturestream.core import FilterKind, PipelineConfig, ProbVector
from gesturestream.evaluate import evaluate_video, levenshtein_distance, sweep
from gesturestream.gate import apply_filter, ewa_weights
from gesturestream.pipeline import run_corpus
from gesturestream.scoring import GroundTruthSegment, SynthConfig, generate_synthetic, load_corpus


def random_probs(rng: random.Random, arity: int) -> ProbVector:
    """A ProbVector of `arity` positive uniform draws, each divided by their exact sum."""
    raw = [rng.random() + 1e-9 for _ in range(arity)]
    total = math.fsum(raw)
    return ProbVector(tuple(x / total for x in raw))


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] {name}: FAIL")
        raise
    print(f"[criterion {number:02d}] {name}: PASS")


def test_criterion_01_worked_metric_example():
    with criterion(1, "worked metric example"):
        gt = [1, 2, 3, 4, 5, 6, 7, 8, 9]
        pred = [1, 2, 7, 4, 5, 6, 6, 7, 8, 9]
        assert levenshtein_distance(gt, pred) == 2
        segments = [GroundTruthSegment("v", label, 100 * i, 100 * i + 50) for i, label in enumerate(gt)]
        events = [ActivationEvent(label, 100 * i + 10, EventKind.LATE, 0.5) for i, label in enumerate(pred)]
        score = evaluate_video(events, segments, grace=32)
        assert score.distance == 2
        assert score.accuracy == pytest.approx(77.78, abs=0.01)


def test_criterion_02_weight_function_anchors():
    with criterion(2, "weight midpoint and half-crossing"):
        t = midpoint(38.4, 1)
        assert t == 9
        assert sigmoid_weight(t, t, 0.2) == 0.5  # exact: exp(0) == 1
        for j in range(1, 201):
            assert (sigmoid_weight(j, t, 0.2) >= 0.5) == (j >= t)


def _brute_filter(items, kind):
    size = len(items)
    if kind is FilterKind.MEAN:
        return math.fsum(items) / size
    if kind is FilterKind.MEDIAN:
        ordered = sorted(items)
        mid = size // 2
        return ordered[mid] if size % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0
    weights = [math.exp(-(1 - (size - i)) / size) for i in range(size)]
    return math.fsum(w * x for w, x in zip(weights, items)) / math.fsum(weights)


def test_criterion_03_filter_oracles():
    with criterion(3, "filter brute-force oracles"):
        rng = random.Random(1234)
        for _ in range(10_000):
            k = rng.randint(1, 8)
            size = rng.randint(1, k)
            items = tuple(rng.random() for _ in range(size))
            for kind in FilterKind:
                got = apply_filter(items, kind)
                want = _brute_filter(items, kind)
                assert abs(got - want) <= 1e-12
        weights = ewa_weights(4)
        assert abs(weights[0] / weights[3] - math.exp(0.75)) <= 1e-12


@functools.lru_cache(maxsize=None)
def _edit_path_distance(a: tuple, b: tuple) -> int:
    if not a:
        return len(b)
    if not b:
        return len(a)
    return min(
        _edit_path_distance(a[1:], b) + 1,
        _edit_path_distance(a, b[1:]) + 1,
        _edit_path_distance(a[1:], b[1:]) + (0 if a[0] == b[0] else 1),
    )


def test_criterion_04_edit_distance_oracle():
    with criterion(4, "edit-distance exhaustive oracle and metric axioms"):
        started = time.perf_counter()
        universe = [
            seq
            for size in range(6)
            for seq in itertools.product(range(3), repeat=size)
        ]
        assert len(universe) == 364
        for a in universe:
            for b in universe:
                assert levenshtein_distance(a, b) == _edit_path_distance(a, b)
        rng = random.Random(99)
        for _ in range(10_000):
            a = tuple(rng.randrange(6) for _ in range(rng.randint(0, 8)))
            b = tuple(rng.randrange(6) for _ in range(rng.randint(0, 8)))
            c = tuple(rng.randrange(6) for _ in range(rng.randint(0, 8)))
            d_ab = levenshtein_distance(a, b)
            assert d_ab == levenshtein_distance(b, a)
            assert (d_ab == 0) == (a == b)
            assert d_ab <= levenshtein_distance(a, c) + levenshtein_distance(c, b)
            assert d_ab >= abs(len(a) - len(b))
        assert time.perf_counter() - started < 60.0


def test_criterion_05_incremental_mean_equivalence():
    with criterion(5, "incremental weighted mean equals batch"):
        rng = random.Random(4321)
        for _ in range(1000):
            arity = rng.randint(2, 8)
            state = ActivationState.inactive(arity)
            scores: list[tuple[float, ...]] = []
            weights: list[float] = []
            for _ in range(rng.randint(1, 40)):
                vec = random_probs(rng, arity)
                weight = rng.uniform(0.01, 1.0)
                scores.append(vec.values)
                weights.append(weight)
                state = update_mean(state, vec.values, weight)
                count = len(scores)
                for i in range(arity):
                    batch = math.fsum(w * s[i] for w, s in zip(weights, scores)) / count
                    assert abs(state.values[i] - batch) <= 1e-12


NOISELESS_CORPUS = SynthConfig(
    num_videos=50, gestures_per_video=8, num_classes=10,
    noise_sigma=0.0, prep_ambiguity=0.0, seed=42,
)


def test_criterion_06_noiseless_end_to_end():
    with criterion(6, "noiseless corpus recovers ground truth exactly"):
        corpus = generate_synthetic(NOISELESS_CORPUS)
        cfg = PipelineConfig(num_classes=10, tau_early=1.0)
        run = run_corpus(corpus, cfg)
        agg = run.aggregate
        total_segments = sum(len(s) for s in corpus.segments.values())
        assert total_segments == 50 * 8
        assert agg.mean_accuracy == 100.0
        assert agg.matched == total_segments
        assert agg.duplicates == 0
        assert agg.unmatched_events == 0
        assert agg.missed_segments == 0
        for video_id, vr in run.videos.items():
            assert len(vr.trace.events) == len(corpus.segments[video_id])
            assert vr.score.accuracy == 100.0


def test_criterion_07_tradeoff_direction():
    with criterion(7, "threshold sweep: earliness falls, accuracy holds"):
        synth = SynthConfig(
            num_videos=40, gestures_per_video=6, num_classes=12,
            noise_sigma=0.05, prep_ambiguity=0.5, seed=42,
        )
        corpus = generate_synthetic(synth)
        cfg = PipelineConfig(num_classes=12)
        taus = [i / 10 for i in range(2, 11)]
        swept = sweep(corpus, cfg, taus)
        assert list(swept) == taus
        assert all(agg.early is not None for agg in swept.values())
        early_means = [agg.early.mean for agg in swept.values()]
        for earlier, later in zip(early_means, early_means[1:]):
            assert later <= earlier + 1e-9
        assert swept[taus[-1]].mean_accuracy >= swept[taus[0]].mean_accuracy


def test_criterion_08_gate_efficiency():
    with criterion(8, "classifier runs only around gestures"):
        synth = SynthConfig(
            num_videos=20, gestures_per_video=6, num_classes=10,
            duration_mean=33, duration_spread=3, gap_mean=66, gap_spread=6,
            noise_sigma=0.0, prep_ambiguity=0.0, seed=7,
        )
        corpus = generate_synthetic(synth)
        total_frames = sum(s.length for s in corpus.detector.values())
        gesture_frames = sum(seg.duration for segs in corpus.segments.values() for seg in segs)
        fraction = gesture_frames / total_frames
        assert 0.28 <= fraction <= 0.32  # the 30%-gesture corpus this criterion assumes
        run = run_corpus(corpus, PipelineConfig(num_classes=10))
        agg = run.aggregate
        assert agg.classifier_invocations <= 0.45 * agg.windows_processed


def test_criterion_09_throughput(tmp_path):
    with criterion(9, "file-backed pipeline processes 100k windows/s"):
        out = tmp_path / "bench"
        assert main([
            "gen", "--out", str(out), "--seed", "11", "--videos", "50",
            "--gestures-per-video", "10", "--num-classes", "10",
            "--duration-mean", "30", "--duration-spread", "3",
            "--gap-mean", "70", "--gap-spread", "7",
        ]) == 0
        corpus = load_corpus(
            out / "detector_scores.jsonl", out / "classifier_scores.jsonl", out / "annotations.jsonl"
        )
        cfg = PipelineConfig(num_classes=10)
        best = 0.0
        for _ in range(3):
            t0 = time.perf_counter()
            run = run_corpus(corpus, cfg)
            elapsed = time.perf_counter() - t0
            best = max(best, run.aggregate.windows_processed / elapsed)
        print(f"  throughput: {best:,.0f} windows/s over {run.aggregate.windows_processed} windows")
        assert best >= 100_000


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "gen -> run -> eval is byte-identical across reruns"):
        artifacts = {}
        for tag in ("first", "second"):
            base = tmp_path / tag
            gen_dir, run_dir, eval_dir = base / "gen", base / "run", base / "eval"
            assert main([
                "gen", "--out", str(gen_dir), "--seed", "42",
                "--videos", "10", "--gestures-per-video", "5", "--num-classes", "8",
            ]) == 0
            assert main(["run", "--data", str(gen_dir), "--out", str(run_dir), "--trace"]) == 0
            assert main([
                "eval", "--events", str(run_dir / "events.jsonl"),
                "--annotations", str(gen_dir / "annotations.jsonl"),
                "--out", str(eval_dir),
            ]) == 0
            blobs = {}
            for path in sorted(base.rglob("*")):
                if path.is_file():
                    blobs[str(path.relative_to(base))] = path.read_bytes()
            artifacts[tag] = blobs
        assert set(artifacts["first"]) == set(artifacts["second"])
        for name in artifacts["first"]:
            assert artifacts["first"][name] == artifacts["second"][name], name
