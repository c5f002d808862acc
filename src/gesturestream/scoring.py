"""Score streams and their sources: file-backed loading and synthetic generation.

A scorer stands in for the neural models: given a window-end frame it returns
a probability vector. A stream is one read-only float64 array per video, row
t holding the vector of frame t; every row is a valid ProbVector, checked
when the stream is built. One pair of streams (detector, classifier) covers
every frame of a video, so a stored corpus replays under any window geometry;
the gate alone decides which classifier rows are ever consulted.

Loading decodes each line stripped of JSON's whitespace with orjson. A line
orjson refuses, and a line where the two decoders could differ, goes to
json.loads instead: an object holding a nested object, a list of anything
but numbers, a float of magnitude 2**62 or more, or a list holding a number
that large. So every record, and every error, is exactly what json.loads
gives; a line nested too deep to decode is a format error too, and so is a
line padded with other whitespace, such as U+00A0. Files are read with
errors="surrogateescape", so a byte that is not UTF-8 reaches its line,
which orjson refuses, and one pass names the first line that fails to decode
either way. Each record's fields, arity and frame are checked as it is read,
and the vectors a block of lines at a time with array operations: range, sum
to 1 and renormalisation give the same decisions and values as ingest_probs
on each line. Every error names its "file:line". A video must be scored at
every frame from 0 up to its last, and its id must be usable as a file name
(see check_video_id), whichever file names it.

Writing serialises a block of rows at a time with orjson, which writes 0.0
and every value in [1e-4, 1] as float.__repr__ does, and writes the values
in (0, 1e-4) with repr itself, so each line is the bytes json.dumps gives.

File formats (one JSON object per line, UTF-8, unknown fields ignored):
  score file:      {"video": str, "t": int, "p": [float, ...]}
  annotation file: {"video": str, "class": int, "start": int, "end": int}
Spans are inclusive; detector vectors are [no_gesture, gesture].
"""

from __future__ import annotations

import itertools
import json
import logging
import math
from dataclasses import dataclass

import numpy as np
import orjson

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
# are accepted without ProbVector's exact sum (math.fsum); the slack is far
# above numpy's rounding error, so their exact sum is within PROB_SUM_TOL.
SUM_SLACK = 1e-9
# The longest video id in UTF-8 bytes: the temp name a trace is written under
# adds about 34 bytes to "<id>.tsv", which must stay within NAME_MAX (255).
VIDEO_ID_MAX_BYTES = 200
# Records a loader holds as parsed Python lists before it validates them into
# an array, and rows the writer serialises at once; bounds the memory of the
# lists and the text, each several times the array's.
CHUNK_RECORDS = 1024
# A float of this magnitude or more may be an integer orjson decoded to a
# float where json.loads keeps an int; a record holding one goes to json.loads.
ORJSON_EXACT_MAX = 2.0**62
# From here up to 1e16, orjson writes a float as float.__repr__ does; below it,
# down to the smallest non-zero float, orjson writes 0.00001 where repr writes 1e-05.
REPR_MIN = 1e-4


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
    PROB_SUM_TOL - SUM_SLACK of 1, which puts ProbVector's exact sum within
    PROB_SUM_TOL: a strict subset of its rule. A row left out may still be
    valid; only the scalar check can tell.
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
    rows: np.ndarray

    def __post_init__(self) -> None:
        rows = self.rows
        if rows.dtype != np.float64 or rows.ndim != 2 or rows.shape[1] < 2:
            raise ValueError(
                f"{self.video_id}: {rows.dtype} rows of shape {rows.shape}, "
                f"expected float64 (frames, classes) with at least 2 classes"
            )
        for t in np.flatnonzero(~_bulk_valid(rows)).tolist():
            try:
                ProbVector(tuple(rows[t].tolist()))
            except ValueError as exc:
                raise ValueError(f"{self.video_id}@{t}: {exc}") from None
        rows.flags.writeable = False

    @property
    def arity(self) -> int:
        """The class count, one per column."""
        return self.rows.shape[1]

    @property
    def length(self) -> int:
        """One past the last frame index."""
        return len(self.rows)

    def row(self, t: int) -> np.ndarray:
        """Frame t's vector as a read-only view of rows[t], with no copy."""
        if 0 <= t < len(self.rows):
            return self.rows[t]
        raise ValueError(f"no score for {self.video_id}@{t}")

    def score(self, t: int) -> ProbVector:
        """Frame t's vector as a ProbVector of Python floats, checked as every ProbVector is."""
        return ProbVector(tuple(self.row(t).tolist()))


@dataclass(frozen=True, slots=True)
class Corpus:
    """Paired detector/classifier streams plus annotations, keyed by video."""

    detector: dict[str, ScoreStream]
    classifier: dict[str, ScoreStream]
    segments: dict[str, list[GroundTruthSegment]]

    def video_ids(self) -> list[str]:
        """Every video either stream scores, in id order."""
        return sorted(self.detector.keys() | self.classifier.keys())


@dataclass(frozen=True, slots=True)
class SynthConfig:
    """Knobs of the synthetic corpus generator.

    Gestures carry the usual three temporal phases: an ambiguous preparation
    (probability mass shared with a confusable class, controlled by
    prep_ambiguity), a discriminative nucleus, and a retraction decaying
    toward uniform. Detector confidence ramps linearly over edge_ramp frames
    at segment boundaries, mimicking a detection window sliding across them.
    Building or replacing a config that breaks an invariant raises one
    ConfigError naming every offending field, so no invalid config exists.
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

    def __post_init__(self) -> None:
        problems: list[str] = []
        if self.num_videos < 1:
            problems.append("num_videos must be >= 1")
        if self.gestures_per_video < 1:
            problems.append("gestures_per_video must be >= 1")
        if self.num_classes < 2:
            problems.append("num_classes must be >= 2")
        if not self.duration_mean > 0:
            problems.append("duration_mean must be > 0")
        if self.duration_spread < 0:
            problems.append("duration_spread must be >= 0")
        if self.gap_mean < 0:
            problems.append("gap_mean must be >= 0")
        if self.gap_spread < 0:
            problems.append("gap_spread must be >= 0")
        if len(self.phase_fractions) != 3 or not all(0 <= f < math.inf for f in self.phase_fractions):
            problems.append("phase_fractions must be three non-negative reals")
        elif abs(sum(self.phase_fractions) - 1.0) > 1e-9:
            problems.append("phase_fractions must sum to 1")
        if not (0.0 <= self.detector_base <= 1.0):
            problems.append("detector_base must be in [0, 1]")
        if self.noise_sigma < 0:
            problems.append("noise_sigma must be >= 0")
        for name in ("duration_mean", "duration_spread", "gap_mean", "gap_spread", "noise_sigma"):
            if not math.isfinite(getattr(self, name)):
                problems.append(f"{name} must be finite")
        if not (0.0 <= self.prep_ambiguity <= 1.0):
            problems.append("prep_ambiguity must be in [0, 1]")
        if self.seed < 0:
            problems.append("seed must be >= 0")
        if self.edge_ramp < 1:
            problems.append("edge_ramp must be >= 1")
        if problems:
            raise ConfigError("; ".join(problems))


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
    """Split a duration of >= 3 frames into preparation/nucleus/retraction frames, each >= 1.

    Where the rounded edge phases leave no nucleus, the longer one gives up
    frames first, the preparation on ties, until the nucleus is one frame.
    """
    prep = max(1, int(round(duration * fractions[0])))
    retract = max(1, int(round(duration * fractions[2])))
    edges = min(prep + retract, duration - 1)
    prep = min(prep, max(edges - retract, edges // 2))
    return prep, duration - edges, edges - prep


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

        detector[video_id] = ScoreStream(video_id, np.column_stack((1.0 - det, det)))
        classifier[video_id] = ScoreStream(video_id, cls)
        annotations[video_id] = segments
    return Corpus(detector=detector, classifier=classifier, segments=annotations)


def check_utf8(raw: str, where: str, error=StreamFormatError) -> None:
    """Raise error naming where if a line read with errors="surrogateescape" held a byte that is not UTF-8.

    The line's own bytes are decoded again, strictly, so the reason is the
    one text mode gives for them.
    """
    try:
        raw.encode("utf-8", "surrogateescape").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{where}: invalid UTF-8 ({exc.reason})") from None


def check_video_id(video: str, where: str) -> None:
    """Raise StreamFormatError naming where unless video can name a file of its own in a directory.

    The id must be non-empty, must not start with "." (no hidden file, no
    "." or ".."), and must not hold "/", "\\" or NUL, so that traces/<id>.tsv
    stays inside traces/ on every platform. It must encode to UTF-8 (no lone
    surrogate) in at most VIDEO_ID_MAX_BYTES bytes, so that the name of the
    trace's temp file fits a file system's 255-byte name limit.
    """
    try:
        size = len(video.encode("utf-8"))
    except UnicodeEncodeError:  # a lone surrogate, which json.loads decodes from a \ud800 escape
        size = 0
    if not 0 < size <= VIDEO_ID_MAX_BYTES or video[0] == "." or "/" in video or "\\" in video or "\0" in video:
        raise StreamFormatError(
            f"{where}: video id {video!r} must be non-empty UTF-8 of at most {VIDEO_ID_MAX_BYTES} bytes, "
            f"must not start with '.' and must not hold '/', '\\' or NUL"
        )


def _orjson_exact(record: dict) -> bool:
    """Whether an object orjson decoded from a line is certainly what json.loads gives for it.

    Where orjson accepts a line, it differs from json.loads in two known
    ways: it decodes an integer outside [-2**63, 2**64) to a float of
    magnitude 2**63 or more, where json keeps an int, and it decodes
    nesting too deep for json's recursion limit. An object whose values are
    scalars, with every float below ORJSON_EXACT_MAX in magnitude, or lists
    of such numbers, shows neither. math.hypot bounds a list's largest
    magnitude in one C call: ORJSON_EXACT_MAX's margin below 2**63 covers
    its rounding, and it raises TypeError on an item that is not a number.
    """
    for value in record.values():
        kind = type(value)
        if kind is float:
            if not -ORJSON_EXACT_MAX < value < ORJSON_EXACT_MAX:
                return False
        elif kind is list:
            try:
                if not math.hypot(*value) < ORJSON_EXACT_MAX:
                    return False
            except TypeError:
                return False
        elif kind is dict:
            return False
    return True


def _json_record(path, lineno: int, line: str) -> dict:
    """A stripped line decoded by json.loads, with every failure a StreamFormatError naming "path:line"."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise StreamFormatError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from None
    except ValueError as exc:  # an integer past Python's int-string digit limit
        raise StreamFormatError(f"{path}:{lineno}: invalid JSON ({exc})") from None
    except RecursionError:
        raise StreamFormatError(f"{path}:{lineno}: invalid JSON (nesting too deep)") from None
    if type(record) is not dict:
        raise StreamFormatError(f"{path}:{lineno}: expected a JSON object")
    return record


def iter_records(path):
    """Yield (line number, record) for each non-blank line of a JSON-lines file.

    Each line stripped of space, tab, CR and LF is decoded by orjson; a line
    orjson refuses, or whose orjson object could differ from json's (see
    _orjson_exact), is decoded by json.loads instead. Either way the record
    is the one json.loads gives. A line that is not one JSON object, nests
    too deep to decode, holds an integer too long to convert, or is not
    UTF-8 raises StreamFormatError naming "path:line", as json.loads would
    fail on it; the first bad line is the one named.
    """
    loads = orjson.loads
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip(" \t\r\n")  # JSON's whitespace; str.strip() would also take U+00A0 and others
            if not line:
                continue
            try:
                record = loads(line)
            except orjson.JSONDecodeError:
                check_utf8(raw, f"{path}:{lineno}")
                record = None
            if type(record) is not dict or not _orjson_exact(record):
                record = _json_record(path, lineno, line)
            yield lineno, record


def _require_field(record: dict, name: str, kinds, where: str):
    value = record.get(name)
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise StreamFormatError(f"{where}: missing or invalid field {name!r}")
    return value


def _ingest(path, lineno: int, p: list) -> tuple[float, ...]:
    try:
        return ingest_probs(p).values
    except (ValueError, OverflowError) as exc:
        raise StreamFormatError(f"{path}:{lineno}: {exc}") from None


def _validated_rows(path, probs: list[list], linenos: list[int]) -> np.ndarray:
    """Probability lists read from a file's lines `linenos` as a float64 array, each row checked as ingest_probs checks it.

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
        return np.array([_ingest(path, lineno, p) for lineno, p in zip(linenos, probs)])
    for i in np.flatnonzero(~_bulk_valid(rows)).tolist():
        rows[i] = _ingest(path, linenos[i], probs[i])
    return rows


def load_score_stream(path, expected_arity: int | None = None) -> dict[str, ScoreStream]:
    """Load one score file into per-video streams.

    Enforces a single arity across all records (the expected one when given)
    and rejects duplicate (video, t) keys and invalid vectors, naming the
    first offending line. A video without a record for some frame below
    its last is rejected, naming the first such frame; videos are visited
    in id order.
    """
    chunks: list[np.ndarray] = []
    pending: list[list] = []  # probability lists awaiting validation
    pending_lines: list[int] = []  # the line each was read from
    count = 0
    per_video: dict[str, dict[int, int]] = {}  # video -> {frame: record index}
    arity = expected_arity
    try:
        for lineno, record in iter_records(path):
            video = record.get("video")
            t = record.get("t")
            p = record.get("p")
            # JSON decodes to exact types, so these match _require_field's checks
            if type(video) is not str or type(t) is not int or type(p) is not list:
                where = f"{path}:{lineno}"
                _require_field(record, "video", str, where)
                _require_field(record, "t", int, where)
                _require_field(record, "p", list, where)
            if t < 0:
                raise StreamFormatError(f"{path}:{lineno}: negative frame index {t}")
            if arity is None:
                arity = len(p)
            if len(p) != arity:
                raise StreamFormatError(f"{path}:{lineno}: expected {arity} probabilities, got {len(p)}")
            if arity < 2:
                raise StreamFormatError(f"{path}:{lineno}: probability vector needs >= 2 classes, got {arity}")
            frames = per_video.get(video)
            if frames is None:  # the first record of this video
                check_video_id(video, f"{path}:{lineno}")
                frames = per_video[video] = {}
            if t in frames:
                raise StreamFormatError(f"{path}:{lineno}: duplicate entry for {video}@{t}")
            frames[t] = count
            count += 1
            pending.append(p)
            pending_lines.append(lineno)
            if len(pending) == CHUNK_RECORDS:
                chunks.append(_validated_rows(path, pending, pending_lines))
                pending, pending_lines = [], []
    except StreamFormatError:
        if pending:  # rows not yet checked lie on earlier lines
            _validated_rows(path, pending, pending_lines)
        raise
    if pending:
        chunks.append(_validated_rows(path, pending, pending_lines))
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
        streams[video] = ScoreStream(video, rows[order])
    log.info("loaded %d score entries for %d videos from %s", count, len(streams), path)
    return streams


def load_annotations(path, num_classes: int | None = None) -> dict[str, list[GroundTruthSegment]]:
    """Load ground-truth segments, sorted by start and checked for overlap; a file with no record is an error."""
    per_video: dict[str, list[GroundTruthSegment]] = {}
    for lineno, record in iter_records(path):
        where = f"{path}:{lineno}"
        video = _require_field(record, "video", str, where)
        label = _require_field(record, "class", int, where)
        start = _require_field(record, "start", int, where)
        end = _require_field(record, "end", int, where)
        check_video_id(video, where)
        if num_classes is not None and not (0 <= label < num_classes):
            raise StreamFormatError(f"{where}: class {label} outside [0, {num_classes})")
        try:
            segment = GroundTruthSegment(video, label, start, end)
        except ValueError as exc:
            raise StreamFormatError(f"{where}: {exc}") from None
        per_video.setdefault(video, []).append(segment)
    if not per_video:
        raise StreamFormatError(f"{path}: no annotation records")
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
    config. Every video the annotation file annotates must have both streams.
    """
    detector = load_score_stream(detector_path, expected_arity=2)
    classifier = load_score_stream(classifier_path)
    for video in sorted(classifier):
        length = classifier[video].length
        if video in detector and length < detector[video].length:
            raise StreamFormatError(f"{classifier_path}: no score for {video}@{length}")
    arity = next(iter(classifier.values())).arity  # one arity across the file
    segments = load_annotations(annotation_path, num_classes=arity)
    for video in sorted(segments):
        for kind, streams in (("detector", detector), ("classifier", classifier)):
            if video not in streams:
                raise StreamFormatError(f"{annotation_path}: no {kind} stream for {video}")
    return Corpus(detector=detector, classifier=classifier, segments=segments)


def write_score_file(path, streams: dict[str, ScoreStream]) -> int:
    """Write streams as line-delimited records, sorted by video then frame.

    Each line is the bytes json.dumps({"video": ..., "t": ..., "p": ...})
    gives. Rows go through orjson a block at a time: for 0.0 and every value
    in [REPR_MIN, 1], orjson writes the text float.__repr__ (and so json)
    writes, and each value in (0, REPR_MIN) is written with repr itself.
    """
    count = 0
    with open(path, "wb") as fh:
        for video in sorted(streams):
            rows = streams[video].rows
            head = b'{"video": %s, "t": ' % json.dumps(video).encode()
            for start in range(0, len(rows), CHUNK_RECORDS):
                block = np.ascontiguousarray(rows[start : start + CHUNK_RECORDS])
                tiny = (block > 0.0) & (block < REPR_MIN)
                patched = np.flatnonzero(tiny.any(axis=1)).tolist()
                marked = np.where(tiny, np.nan, block) if patched else block  # orjson writes each NaN as null
                text = orjson.dumps(marked, option=orjson.OPT_SERIALIZE_NUMPY)  # [[a,b],[c,d]]
                texts = text[2:-2].replace(b",", b", ").split(b"], [")
                for i in patched:  # each null takes the repr of its value: bytes' %a writes ascii(x)
                    texts[i] = texts[i].replace(b"null", b"%a") % tuple(block[i, tiny[i]].tolist())
                fh.write(b"".join([b'%s%d, "p": [%s]}\n' % (head, t, row) for t, row in enumerate(texts, start)]))
            count += len(rows)
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
