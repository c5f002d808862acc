"""Score streams and their sources: file-backed loading and synthetic generation.

A scorer stands in for the neural models: given a window-end frame it returns
a probability vector. A stream is one read-only float64 array per video, row
t holding the vector of frame t; every row is a valid ProbVector, checked
when the stream is built. One pair of streams (detector, classifier) covers
every frame of a video, so a stored corpus replays under any window geometry;
the gate alone decides which classifier rows are ever consulted.

Loading parses each file line by line, checking fields, arity and duplicate
frames, and checks the vectors a block of lines at a time with array
operations: range, sum to 1 and renormalisation give the same decisions and
values as ingest_probs on each line. A video must be scored at every frame
from 0 up to its last.

File formats (one JSON object per line, UTF-8, unknown fields ignored):
  score file:      {"video": str, "t": int, "p": [float, ...]}
  annotation file: {"video": str, "class": int, "start": int, "end": int}
Spans are inclusive; detector vectors are [no_gesture, gesture].
"""

from __future__ import annotations

import itertools
import json
import logging
from dataclasses import dataclass

import numpy as np

from .core import PROB_SUM_TOL, ConfigError, ProbVector, ingest_probs

log = logging.getLogger(__name__)

# Frames reserved before the first gesture of every synthetic video, so the
# default 32-frame classifier warm-up completes inside background.
LEAD_IN_MIN = 32
# Probability mass spread uniformly over all classes during the preparation
# phase; the rest is split between the true and the confusable class.
PREP_LEAK = 0.1
# True-class mass during the nucleus phase (before noise).
NUCLEUS_PEAK = 0.9
MAX_DRAW_RETRIES = 100
# Rows summing to within PROB_SUM_TOL - SUM_SLACK of 1 by numpy's summation
# are accepted without the exact math.fsum that ingest_probs takes; the slack
# is far above the rounding error of either summation order.
SUM_SLACK = 1e-9
# Records a loader holds as parsed Python lists before it validates them into
# an array; bounds the memory of the lists, which is several times the array's.
CHUNK_RECORDS = 1024


class StreamFormatError(ValueError):
    """Malformed score or annotation file."""


class SynthesisError(ValueError):
    """Synthetic timing draws could not satisfy the layout constraints."""


@dataclass(frozen=True, slots=True)
class GroundTruthSegment:
    """An annotated gesture span over zero-based frames, inclusive on both ends."""

    video_id: str
    label: int
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"{self.video_id}: negative segment start {self.start}")
        if self.start > self.end:
            raise ValueError(f"{self.video_id}: segment start {self.start} > end {self.end}")
        if self.label < 0:
            raise ValueError(f"{self.video_id}: negative class label {self.label}")

    @property
    def duration(self) -> int:
        return self.end - self.start + 1


def _bulk_valid(rows: np.ndarray) -> np.ndarray:
    """Mask of the rows of a 2-D float64 array that are valid ProbVectors by array operations alone.

    A row is in when every value lies in [0, 1] and numpy's sum is within
    PROB_SUM_TOL - SUM_SLACK of 1. A row left out may still be valid; only
    the scalar check can tell.
    """
    clean = ((rows >= 0.0) & (rows <= 1.0)).all(axis=1)
    # Rows holding inf or values near the float maximum overflow the sum; the
    # range mask above already rejects them, so the warning is noise.
    with np.errstate(over="ignore", invalid="ignore"):
        clean &= np.abs(rows.sum(axis=1) - 1.0) <= PROB_SUM_TOL - SUM_SLACK
    return clean


@dataclass(frozen=True, slots=True, eq=False)
class ScoreStream:
    """Probability vectors for one video: rows[t] holds the vector of frame t.

    `rows` is a float64 array of shape (length, arity), arity >= 2, whose
    every row is a valid ProbVector; construction checks this, naming the
    first bad video@frame, and makes the array read-only.
    """

    video_id: str
    arity: int
    rows: np.ndarray

    def __post_init__(self) -> None:
        rows = self.rows
        if self.arity < 2 or rows.dtype != np.float64 or rows.ndim != 2 or rows.shape[1] != self.arity:
            raise ValueError(
                f"{self.video_id}: {rows.dtype} rows of shape {rows.shape}, "
                f"expected float64 (frames, {self.arity}) with at least 2 classes"
            )
        for t in np.flatnonzero(~_bulk_valid(rows)).tolist():
            try:
                ProbVector(tuple(rows[t].tolist()))
            except ValueError as exc:
                raise ValueError(f"{self.video_id}@{t}: {exc}") from None
        rows.flags.writeable = False

    @property
    def length(self) -> int:
        """One past the last frame index."""
        return len(self.rows)

    def score(self, t: int) -> ProbVector:
        if 0 <= t < len(self.rows):
            return ProbVector.trusted(tuple(self.rows[t].tolist()))
        raise ValueError(f"no score for {self.video_id}@{t}")


@dataclass(frozen=True, slots=True)
class Corpus:
    """Paired detector/classifier streams plus annotations, keyed by video."""

    detector: dict[str, ScoreStream]
    classifier: dict[str, ScoreStream]
    segments: dict[str, list[GroundTruthSegment]]

    def video_ids(self) -> list[str]:
        return sorted(self.detector)


@dataclass(frozen=True, slots=True)
class SynthConfig:
    """Knobs of the synthetic corpus generator.

    Gestures carry the usual three temporal phases: an ambiguous preparation
    (probability mass shared with a confusable class, controlled by
    prep_ambiguity), a discriminative nucleus, and a retraction decaying
    toward uniform. Detector confidence ramps linearly over edge_ramp frames
    at segment boundaries, mimicking a detection window sliding across them.
    """

    num_videos: int = 10
    gestures_per_video: int = 8
    num_classes: int = 83
    duration_mean: float = 38.4
    duration_spread: float = 6.0
    gap_mean: float = 48.0
    gap_spread: float = 12.0
    phase_fractions: tuple[float, float, float] = (0.25, 0.5, 0.25)
    detector_base: float = 0.9
    noise_sigma: float = 0.05
    prep_ambiguity: float = 0.5
    seed: int = 0
    edge_ramp: int = 8


def validate_synth_config(cfg: SynthConfig) -> SynthConfig:
    """Check every SynthConfig invariant; raises ConfigError naming each violation."""
    problems: list[str] = []
    if cfg.num_videos < 1:
        problems.append("num_videos must be >= 1")
    if cfg.gestures_per_video < 1:
        problems.append("gestures_per_video must be >= 1")
    if cfg.num_classes < 2:
        problems.append("num_classes must be >= 2")
    if not cfg.duration_mean > 0:
        problems.append("duration_mean must be > 0")
    if cfg.duration_spread < 0:
        problems.append("duration_spread must be >= 0")
    if cfg.gap_mean < 0:
        problems.append("gap_mean must be >= 0")
    if cfg.gap_spread < 0:
        problems.append("gap_spread must be >= 0")
    if len(cfg.phase_fractions) != 3 or any(f < 0 for f in cfg.phase_fractions):
        problems.append("phase_fractions must be three non-negative reals")
    elif abs(sum(cfg.phase_fractions) - 1.0) > 1e-9:
        problems.append("phase_fractions must sum to 1")
    if not (0.0 <= cfg.detector_base <= 1.0):
        problems.append("detector_base must be in [0, 1]")
    if cfg.noise_sigma < 0:
        problems.append("noise_sigma must be >= 0")
    if not (0.0 <= cfg.prep_ambiguity <= 1.0):
        problems.append("prep_ambiguity must be in [0, 1]")
    if cfg.seed < 0:
        problems.append("seed must be >= 0")
    if cfg.edge_ramp < 1:
        problems.append("edge_ramp must be >= 1")
    if problems:
        raise ConfigError("; ".join(problems))
    return cfg


def _draw_at_least(rng, mean: float, spread: float, floor: int, what: str, video_id: str) -> int:
    """Round a gaussian draw to frames, retrying until it clears the floor."""
    for _ in range(MAX_DRAW_RETRIES):
        value = int(round(rng.normal(mean, spread)))
        if value >= floor:
            return value
    raise SynthesisError(
        f"{video_id}: no {what} draw >= {floor} frames after {MAX_DRAW_RETRIES} tries "
        f"(mean {mean}, spread {spread})"
    )


def _phase_lengths(duration: int, fractions: tuple[float, float, float]) -> tuple[int, int, int]:
    """Split a duration into preparation/nucleus/retraction frames, each >= 1."""
    prep = max(1, int(round(duration * fractions[0])))
    retract = max(1, int(round(duration * fractions[2])))
    nucleus = duration - prep - retract
    while nucleus < 1:
        if prep >= retract and prep > 1:
            prep -= 1
        elif retract > 1:
            retract -= 1
        else:
            raise SynthesisError(f"cannot fit three phases into {duration} frames")
        nucleus = duration - prep - retract
    return prep, nucleus, retract


def _layout_video(video_id: str, cfg: SynthConfig, rng):
    """Draw the gap/gesture layout of one video.

    Returns (segments, confusable labels, stream length). Gaps are floored
    so consecutive gestures keep the gate's activations separate, the lead-in
    covers classifier warm-up, and the tail leaves room for the final
    deactivation.
    """
    min_duration = max(3, cfg.edge_ramp)
    min_gap = 2 * cfg.edge_ramp
    tail_floor = 3 * cfg.edge_ramp

    segments: list[GroundTruthSegment] = []
    confusables: list[int] = []
    pos = _draw_at_least(rng, cfg.gap_mean, cfg.gap_spread, max(min_gap, LEAD_IN_MIN), "lead-in", video_id)
    for _ in range(cfg.gestures_per_video):
        duration = _draw_at_least(rng, cfg.duration_mean, cfg.duration_spread, min_duration, "duration", video_id)
        label = int(rng.integers(cfg.num_classes))
        confusable = int((label + 1 + rng.integers(cfg.num_classes - 1)) % cfg.num_classes)
        segments.append(GroundTruthSegment(video_id, label, pos, pos + duration - 1))
        confusables.append(confusable)
        gap = _draw_at_least(rng, cfg.gap_mean, cfg.gap_spread, min_gap, "gap", video_id)
        pos = segments[-1].end + 1 + gap
    tail = max(pos - segments[-1].end - 1, tail_floor)
    length = segments[-1].end + 1 + tail
    return segments, confusables, length


def _detector_signal(segments, length: int, cfg: SynthConfig) -> np.ndarray:
    """Gesture-class probability per frame: base inside segments, 1-base outside,
    linear ramps of edge_ramp frames at the boundaries."""
    base = cfg.detector_base
    low = 1.0 - base
    ramp = cfg.edge_ramp
    p = np.full(length, low)
    for seg in segments:
        for t in range(seg.start, min(seg.start + ramp, length)):
            p[t] = max(p[t], low + (base - low) * (t - seg.start + 1) / ramp)
        hi = min(seg.end, length - 1)
        if seg.start + ramp - 1 <= hi:
            p[seg.start + ramp - 1 : hi + 1] = base
        for t in range(seg.end + 1, min(seg.end + ramp + 1, length)):
            p[t] = max(p[t], base - (base - low) * (t - seg.end) / ramp)
    return p


def _classifier_signal(segments, confusables, length: int, cfg: SynthConfig) -> np.ndarray:
    """Class-probability row per frame following the three-phase gesture model."""
    count = cfg.num_classes
    rho = cfg.prep_ambiguity
    uniform = 1.0 / count
    rows = np.full((length, count), uniform)
    for seg, confusable in zip(segments, confusables):
        prep, nucleus, retract = _phase_lengths(seg.duration, cfg.phase_fractions)
        prep_vec = np.full(count, PREP_LEAK / count)
        prep_vec[seg.label] += (1.0 - PREP_LEAK) * (1.0 - rho)
        prep_vec[confusable] += (1.0 - PREP_LEAK) * rho
        nuc_vec = np.full(count, (1.0 - NUCLEUS_PEAK) / (count - 1))
        nuc_vec[seg.label] = NUCLEUS_PEAK
        rows[seg.start : seg.start + prep] = prep_vec
        rows[seg.start + prep : seg.start + prep + nucleus] = nuc_vec
        for i in range(retract):
            frac = (i + 1) / retract
            rows[seg.start + prep + nucleus + i] = (1.0 - frac) * nuc_vec + frac * uniform
    return rows


def _add_vector_noise(rows: np.ndarray, sigma: float, rng) -> np.ndarray:
    """Clamped gaussian noise followed by renormalization, per row."""
    noisy = np.clip(rows + rng.normal(0.0, sigma, rows.shape), 0.0, 1.0)
    sums = noisy.sum(axis=1)
    dead = sums <= 0.0
    if dead.any():
        noisy[dead] = 1.0 / rows.shape[1]
        sums[dead] = 1.0
    return noisy / sums[:, None]


def generate_synthetic(cfg: SynthConfig) -> Corpus:
    """Build a seeded corpus of detector/classifier streams plus annotations.

    Deterministic for a given config: video v<i> uses an RNG derived from
    seed XOR i, with layout draws consumed before noise draws.
    """
    validate_synth_config(cfg)
    detector: dict[str, ScoreStream] = {}
    classifier: dict[str, ScoreStream] = {}
    annotations: dict[str, list[GroundTruthSegment]] = {}
    for i in range(cfg.num_videos):
        video_id = f"v{i:03d}"
        rng = np.random.default_rng(cfg.seed ^ i)
        segments, confusables, length = _layout_video(video_id, cfg, rng)

        det = _detector_signal(segments, length, cfg)
        cls = _classifier_signal(segments, confusables, length, cfg)
        if cfg.noise_sigma > 0:
            det = np.clip(det + rng.normal(0.0, cfg.noise_sigma, length), 0.0, 1.0)
            cls = _add_vector_noise(cls, cfg.noise_sigma, rng)

        detector[video_id] = ScoreStream(video_id, 2, np.column_stack((1.0 - det, det)))
        classifier[video_id] = ScoreStream(video_id, cfg.num_classes, cls)
        annotations[video_id] = segments
    return Corpus(detector=detector, classifier=classifier, segments=annotations)


def iter_records(path):
    """Yield (where, record) for each non-blank line of a JSON-lines file.

    `where` is "path:line" for error messages; a line that is not a JSON
    object raises StreamFormatError.
    """
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise StreamFormatError(f"{where}: invalid JSON ({exc.msg})") from None
            if not isinstance(record, dict):
                raise StreamFormatError(f"{where}: expected a JSON object")
            yield where, record


def _require_field(record: dict, name: str, kinds, where: str):
    value = record.get(name)
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise StreamFormatError(f"{where}: missing or invalid field {name!r}")
    return value


def _record_where(path, index: int) -> str:
    """The "path:line" of a file's index-th record, found by reading the file again."""
    return next(itertools.islice(iter_records(path), index, None))[0]


def _ingest(path, index: int, p: list) -> tuple[float, ...]:
    try:
        return ingest_probs(p).values
    except (ValueError, OverflowError) as exc:
        raise StreamFormatError(f"{_record_where(path, index)}: {exc}") from None


def _validated_rows(path, probs: list[list], first: int) -> np.ndarray:
    """Records first, first + 1, ... of a file as a float64 array, each row checked as ingest_probs checks it.

    A row with every value in [0, 1] and a sum clearly within PROB_SUM_TOL of
    1 is accepted as it stands, in bulk. Every other row, one to renormalise,
    near a tolerance edge or invalid, goes through ingest_probs itself, so
    every decision and every renormalised value is the scalar path's. A
    block holding any value that is not an int or a float goes through it
    row by row, since numpy would convert a bool or a numeric string.
    """
    numbers = set(map(type, itertools.chain.from_iterable(probs))) <= {int, float}
    try:
        rows = np.array(probs, dtype=np.float64) if numbers else None
    except OverflowError:  # an int too large for a float
        rows = None
    if rows is None:
        return np.array([_ingest(path, first + i, p) for i, p in enumerate(probs)])
    for i in np.flatnonzero(~_bulk_valid(rows)).tolist():
        rows[i] = _ingest(path, first + i, probs[i])
    return rows


def load_score_stream(path, expected_arity: int | None = None) -> dict[str, ScoreStream]:
    """Load one score file into per-video streams.

    Enforces a single arity across all records (the expected one when given)
    and rejects duplicate (video, t) keys and invalid vectors, reporting
    offending line numbers. A video without a record for some frame below
    its last is rejected, naming the first such frame; videos are visited
    in id order.
    """
    chunks: list[np.ndarray] = []
    pending: list[list] = []
    count = 0
    per_video: dict[str, dict[int, int]] = {}  # video -> {frame: record index}
    arity = expected_arity
    for where, record in iter_records(path):
        video = _require_field(record, "video", str, where)
        t = _require_field(record, "t", int, where)
        p = _require_field(record, "p", list, where)
        if t < 0:
            raise StreamFormatError(f"{where}: negative frame index {t}")
        if arity is None:
            arity = len(p)
        if len(p) != arity:
            raise StreamFormatError(f"{where}: expected {arity} probabilities, got {len(p)}")
        if arity < 2:
            raise StreamFormatError(f"{where}: probability vector needs >= 2 classes, got {arity}")
        frames = per_video.setdefault(video, {})
        if t in frames:
            raise StreamFormatError(f"{where}: duplicate entry for {video}@{t}")
        frames[t] = count
        count += 1
        pending.append(p)
        if len(pending) == CHUNK_RECORDS:
            chunks.append(_validated_rows(path, pending, count - len(pending)))
            pending = []
    if pending:
        chunks.append(_validated_rows(path, pending, count - len(pending)))
    if not chunks:
        raise StreamFormatError(f"{path}: no score records")
    rows = np.concatenate(chunks)
    chunks.clear()
    streams = {}
    for video in sorted(per_video):
        frames = per_video[video]
        if max(frames) >= len(frames):  # distinct non-negative frames are dense exactly when max < count
            gap = next(t for t in itertools.count() if t not in frames)
            raise StreamFormatError(f"{path}: no score for {video}@{gap}")
        order = np.empty(len(frames), dtype=np.intp)
        order[list(frames)] = list(frames.values())
        streams[video] = ScoreStream(video, arity, rows[order])
    log.info("loaded %d score entries for %d videos from %s", count, len(streams), path)
    return streams


def load_annotations(path, num_classes: int | None = None) -> dict[str, list[GroundTruthSegment]]:
    """Load ground-truth segments, sorted by start and checked for overlap."""
    per_video: dict[str, list[GroundTruthSegment]] = {}
    for where, record in iter_records(path):
        video = _require_field(record, "video", str, where)
        label = _require_field(record, "class", int, where)
        start = _require_field(record, "start", int, where)
        end = _require_field(record, "end", int, where)
        if num_classes is not None and not (0 <= label < num_classes):
            raise StreamFormatError(f"{where}: class {label} outside [0, {num_classes})")
        try:
            segment = GroundTruthSegment(video, label, start, end)
        except ValueError as exc:
            raise StreamFormatError(f"{where}: {exc}") from None
        per_video.setdefault(video, []).append(segment)
    for video, segments in per_video.items():
        segments.sort(key=lambda s: s.start)
        for prev, cur in zip(segments, segments[1:]):
            if cur.start <= prev.end:
                raise StreamFormatError(
                    f"{path}: overlapping segments in {video}: "
                    f"[{prev.start}, {prev.end}] and [{cur.start}, {cur.end}]"
                )
    return per_video


def load_corpus(detector_path, classifier_path, annotation_path) -> Corpus:
    """Assemble a corpus from its three files; detector arity is fixed at 2.

    No classifier stream may be shorter than its detector's, and no
    annotation may name a class the classifier cannot output, whatever the
    config.
    """
    detector = load_score_stream(detector_path, expected_arity=2)
    classifier = load_score_stream(classifier_path)
    for video in sorted(classifier):
        length = classifier[video].length
        if video in detector and length < detector[video].length:
            raise StreamFormatError(f"{classifier_path}: no score for {video}@{length}")
    arity = next(iter(classifier.values())).arity  # one arity across the file
    segments = load_annotations(annotation_path, num_classes=arity)
    return Corpus(detector=detector, classifier=classifier, segments=segments)


def write_score_file(path, streams: dict[str, ScoreStream]) -> int:
    """Write streams as line-delimited records, sorted by video then frame."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for video in sorted(streams):
            for t, row in enumerate(streams[video].rows.tolist()):
                fh.write(json.dumps({"video": video, "t": t, "p": row}) + "\n")
            count += streams[video].length
    return count


def write_annotation_file(path, segments: dict[str, list[GroundTruthSegment]]) -> int:
    """Write annotations as line-delimited records, sorted by video then start."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for video in sorted(segments):
            for seg in sorted(segments[video], key=lambda s: s.start):
                record = {"video": video, "class": seg.label, "start": seg.start, "end": seg.end}
                fh.write(json.dumps(record) + "\n")
                count += 1
    return count
