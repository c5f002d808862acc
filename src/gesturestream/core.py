"""Shared value types: probability vectors and the pipeline config.

Every type here is an immutable value object; instances are safe to share
across concurrently running evaluation jobs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

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


def _checked_sum(values, high: float, tol: float) -> float:
    """The exact sum (math.fsum) of at least 2 values in [0, high] when it is within tol of 1; else ValueError."""
    if len(values) < 2:
        raise ValueError(f"probability vector needs >= 2 classes, got {len(values)}")
    for x in values:
        if not 0.0 <= x <= high:
            raise ValueError(f"probability {x!r} outside [0, {high:g}]")
    total = math.fsum(values)
    if abs(total - 1.0) > tol:
        raise ValueError(f"probabilities sum to {total!r}, expected 1 within {tol}")
    return total


@dataclass(frozen=True, slots=True)
class ProbVector:
    """A normalized probability distribution over classes.

    Detector vectors have length 2, classifier vectors length C >= 2.
    Elements must lie in [0, 1] and their exact sum within PROB_SUM_TOL of 1.
    """

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        _checked_sum(self.values, 1.0, PROB_SUM_TOL)

    @classmethod
    def trusted(cls, values: tuple[float, ...]) -> ProbVector:
        """Wrap values already checked against these invariants, without checking them again."""
        vec = object.__new__(cls)
        object.__setattr__(vec, "values", values)
        return vec


@dataclass(frozen=True, slots=True)
class PipelineConfig:
    """All tunables of the streaming recognizer.

    Defaults are the operating point used throughout the bundled tests:
    a 32-frame classifier window, stride 1, median filtering over the
    last 4 detector scores, and a late-decision threshold of 0.15.
    Building or replacing a config that breaks an invariant raises one
    ConfigError naming every offending field, so no invalid config exists.
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

    def __post_init__(self) -> None:
        problems: list[str] = []
        if self.classifier_window < 1:
            problems.append("classifier_window must be >= 1")
        if self.stride < 1:
            problems.append("stride must be >= 1")
        if self.filter_size < 1:
            problems.append("filter_size must be >= 1")
        if self.deactivate_count < 1:
            problems.append("deactivate_count must be >= 1")
        if self.num_classes < 2:
            problems.append("num_classes must be >= 2")
        if not (0.0 <= self.gate_on_threshold <= 1.0):
            problems.append("gate_on_threshold must be in [0, 1]")
        if not (0.0 <= self.tau_early <= 1.0):
            problems.append("tau_early must be in [0, 1]")
        if not (0.0 <= self.tau_late <= 1.0):
            problems.append("tau_late must be in [0, 1]")
        if not 0 < self.mean_duration < math.inf:
            problems.append("mean_duration must be finite and > 0")
        if not 0 < self.sigmoid_slope < math.inf:
            problems.append("sigmoid_slope must be finite and > 0")
        if not isinstance(self.filter_kind, FilterKind):
            problems.append(f"filter_kind must be one of {[k.value for k in FilterKind]}")
        if problems:
            raise ConfigError("; ".join(problems))


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
    error, not converted. Values up to 1 + INGEST_RENORM_TOL whose exact sum is
    within INGEST_RENORM_TOL of 1 (float serialization loss) are kept when they
    make a ProbVector and divided by that sum otherwise; anything worse is an error.
    """
    for x in raw:
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise ValueError(f"probability {x!r} is not a number")
    values = tuple(float(x) for x in raw)
    total = _checked_sum(values, 1.0 + INGEST_RENORM_TOL, INGEST_RENORM_TOL)
    if max(values) <= 1.0 and abs(total - 1.0) <= PROB_SUM_TOL:  # ProbVector's own rule, just proven
        return ProbVector.trusted(values)
    return normalize(values)


def top2(vals) -> tuple[int, float, float]:
    """Return (argmax class, largest value, second largest value) of a sequence of length >= 2.

    Ties are broken toward the lowest class index.
    """
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
