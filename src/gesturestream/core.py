"""Shared value types: probability vectors, running weighted means, pipeline config.

Every type here is an immutable value object; instances are safe to share
across concurrently running evaluation jobs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

# Sum-to-one tolerance a ProbVector must satisfy once constructed.
PROB_SUM_TOL = 1e-6
# Ingested vectors off by at most this much are renormalized silently;
# larger deviations are treated as corrupt input.
INGEST_RENORM_TOL = 1e-3

# Detector vectors are [no_gesture, gesture]; the gate reads index 1.
GESTURE_INDEX = 1


class ConfigError(ValueError):
    """Raised when a configuration violates one or more invariants."""


class FilterKind(str, enum.Enum):
    """Smoothing filter applied to the detector probability queue."""

    MEAN = "mean"
    MEDIAN = "median"
    EWA = "ewa"


@dataclass(frozen=True, slots=True)
class ProbVector:
    """A normalized probability distribution over classes.

    Detector vectors have length 2, classifier vectors length C >= 2.
    Elements must lie in [0, 1] and sum to 1 within PROB_SUM_TOL.
    """

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) < 2:
            raise ValueError(f"probability vector needs >= 2 classes, got {len(self.values)}")
        total = 0.0
        for x in self.values:
            if not (0.0 <= x <= 1.0):
                raise ValueError(f"probability {x!r} outside [0, 1]")
            total += x
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, expected 1 within {PROB_SUM_TOL}")

    @classmethod
    def trusted(cls, values: tuple[float, ...]) -> ProbVector:
        """Wrap values already checked against these invariants, without checking them again."""
        vec = object.__new__(cls)
        object.__setattr__(vec, "values", values)
        return vec

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> float:
        return self.values[i]

    def __iter__(self):
        return iter(self.values)


@dataclass(frozen=True, slots=True)
class WeightedMean:
    """Running weighted average of probability vectors with its update count.

    The values are not re-normalized: each summand is a probability scaled by
    a weight <= 1 and averaged, so elements stay in [0, 1] but the vector may
    sum to less than 1.
    """

    values: tuple[float, ...]
    count: int = 0

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("update count must be >= 0")
        if self.count == 0 and any(self.values):
            raise ValueError("zero-count mean must be all zeros")

    @classmethod
    def zeros(cls, arity: int) -> WeightedMean:
        return cls(values=(0.0,) * arity, count=0)


@dataclass(frozen=True, slots=True)
class PipelineConfig:
    """All tunables of the streaming recognizer.

    Defaults are the operating point used throughout the bundled tests:
    a 32-frame classifier window, stride 1, median filtering over the
    last 4 detector scores, and a late-decision threshold of 0.15.
    """

    num_classes: int
    classifier_window: int = 32
    stride: int = 1
    filter_kind: FilterKind = FilterKind.MEDIAN
    filter_size: int = 4
    gate_on_threshold: float = 0.5
    deactivate_count: int = 4
    tau_early: float = 1.0
    tau_late: float = 0.15
    mean_duration: float = 38.4
    sigmoid_slope: float = 0.2


def validate_config(cfg: PipelineConfig) -> PipelineConfig:
    """Check every PipelineConfig invariant, reporting all violations at once.

    Returns the config unchanged when valid; raises ConfigError naming each
    offending field otherwise.
    """
    problems: list[str] = []
    if cfg.classifier_window < 1:
        problems.append("classifier_window must be >= 1")
    if cfg.stride < 1:
        problems.append("stride must be >= 1")
    if cfg.filter_size < 1:
        problems.append("filter_size must be >= 1")
    if cfg.deactivate_count < 1:
        problems.append("deactivate_count must be >= 1")
    if cfg.num_classes < 2:
        problems.append("num_classes must be >= 2")
    if not (0.0 <= cfg.gate_on_threshold <= 1.0):
        problems.append("gate_on_threshold must be in [0, 1]")
    if not (0.0 <= cfg.tau_early <= 1.0):
        problems.append("tau_early must be in [0, 1]")
    if not (0.0 <= cfg.tau_late <= 1.0):
        problems.append("tau_late must be in [0, 1]")
    if not cfg.mean_duration > 0:
        problems.append("mean_duration must be > 0")
    if not cfg.sigmoid_slope > 0:
        problems.append("sigmoid_slope must be > 0")
    if not isinstance(cfg.filter_kind, FilterKind):
        problems.append(f"filter_kind must be one of {[k.value for k in FilterKind]}")
    if problems:
        raise ConfigError("; ".join(problems))
    return cfg


def normalize(raw) -> ProbVector:
    """Scale a sequence of non-negative reals so it sums to one.

    Proportions are preserved; all-zero or negative input is rejected.
    """
    values = tuple(float(x) for x in raw)
    for x in values:
        if x < 0.0:
            raise ValueError(f"cannot normalize: negative element {x!r}")
    total = math.fsum(values)
    if total <= 0.0:
        raise ValueError("cannot normalize an all-zero vector")
    return ProbVector(tuple(x / total for x in values))


def ingest_probs(raw) -> ProbVector:
    """Validate a probability vector arriving from an external source.

    raw is a sequence of ints and floats; a bool or any other value is an
    error, not converted. Vectors whose sum misses 1 by at most
    INGEST_RENORM_TOL are renormalized silently (float serialization loss);
    anything worse is an error.
    """
    for x in raw:
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise ValueError(f"probability {x!r} is not a number")
    values = tuple(float(x) for x in raw)
    if len(values) < 2:
        raise ValueError(f"probability vector needs >= 2 classes, got {len(values)}")
    for x in values:
        if x < 0.0 or x > 1.0 + INGEST_RENORM_TOL:
            raise ValueError(f"probability {x!r} outside [0, 1]")
    total = math.fsum(values)
    if abs(total - 1.0) <= PROB_SUM_TOL:
        return ProbVector(values)
    if abs(total - 1.0) <= INGEST_RENORM_TOL:
        return normalize(values)
    raise ValueError(f"probabilities sum to {total!r}, expected 1 within {INGEST_RENORM_TOL}")


def top2(v) -> tuple[int, float, float]:
    """Return (argmax class, largest value, second largest value).

    Accepts a ProbVector, WeightedMean, or any sequence of length >= 2.
    Ties are broken toward the lowest class index.
    """
    vals = getattr(v, "values", v)
    if len(vals) < 2:
        raise ValueError(f"top2 needs >= 2 classes, got {len(vals)}")
    if vals[0] >= vals[1]:
        best_i, best, second = 0, vals[0], vals[1]
    else:
        best_i, best, second = 1, vals[1], vals[0]
    for i in range(2, len(vals)):
        x = vals[i]
        if x > best:
            best_i, second, best = i, best, x
        elif x > second:
            second = x
    return best_i, best, second


def top2_rows(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """top2 of every row of a 2-D array: (argmax classes, largest values, second largest).

    The same numbers top2 gives row by row: argmax picks the lowest index
    among equal maxima, and partitioning selects the values themselves.
    """
    ordered = np.partition(values, -2, axis=1)
    return values.argmax(axis=1), ordered[:, -1], ordered[:, -2]
