"""Single-time activation: sigmoid-weighted score averaging with one event per gesture.

While the gate is open, classifier scores are folded into a running weighted
mean whose weights follow a sigmoid over the active-iteration index. The
weights sit below 0.5 before the midpoint and above it after, which discounts
the ambiguous opening phase of a gesture. An early event fires as soon as the
top-2 margin of the mean reaches tau_early; otherwise a late event fires at
gate deactivation when the maximum clears tau_late. Each active period emits
at most one event. activation_step advances one stream by one window and
applies both rules, folding each classifier row into a read-only float64
mean with numpy; as no mean is negative, the margin never exceeds top-1, so
the full top2 is read only once top-1 reaches tau_early. fold_periods folds
many stored periods at once with update_mean's arithmetic, placing each
mean at its window, and top2_rows reads top2 of all the means at once.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import PipelineConfig, top2
from .gate import GateDecision
from .windows import Window


class EventKind(str, enum.Enum):
    EARLY = "early"
    LATE = "late"


@dataclass(frozen=True, slots=True)
class ActivationEvent:
    """A single-time recognition: one label emitted at one window end.

    margin_or_score holds the top-2 margin for early events and the maximum
    of the weighted mean for late events.
    """

    label: int
    emit_frame: int
    kind: EventKind
    margin_or_score: float


@dataclass(frozen=True, slots=True, eq=False)
class ActivationState:
    """Classifier-side accumulator threaded through activation_step.

    values is the active period's running weighted mean and count its number
    of updates, 0 while idle. Each summand is a probability scaled by a weight
    <= 1, so elements stay in [0, 1] but may sum to less than 1. Any float
    sequence is accepted; the states update_mean returns hold read-only
    float64 rows. As == on rows has no single truth value, states compare by
    identity.
    """

    values: np.ndarray | Sequence[float]
    count: int = 0
    early_fired: bool = False

    @property
    def active(self) -> bool:
        return self.count > 0

    @classmethod
    def inactive(cls, arity: int) -> ActivationState:
        return cls(_zero_row(arity))


@functools.lru_cache(maxsize=64)
def _zero_row(arity: int) -> np.ndarray:
    """One shared read-only row of zeros per arity, the mean of every idle state."""
    row = np.zeros(arity)
    row.setflags(write=False)
    return row


def midpoint(mean_duration: float, stride: int) -> int:
    """Sigmoid midpoint in active iterations: floor(mean_duration / (4 * stride)).

    Anchors the weight function so iterations past roughly the first quarter
    of an average gesture carry weight >= 0.5.
    """
    if mean_duration <= 0:
        raise ValueError("mean_duration must be > 0")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    return math.floor(mean_duration / (4.0 * stride))


def sigmoid_weight(j: int, t: int, slope: float) -> float:
    """Weight for the j-th active iteration: 1 / (1 + exp(-slope * (j - t)))."""
    try:
        return 1.0 / (1.0 + math.exp(-slope * (j - t)))
    except OverflowError:  # exp past the float range: 1 / (1 + inf) rounds to 0.0
        return 0.0


def update_mean(state: ActivationState, row: np.ndarray | Sequence[float], weight: float) -> ActivationState:
    """Fold one weighted classifier row into the running mean.

    With j the new update count, the mean becomes
    (previous_mean * (j - 1) + weight * row) / j elementwise, which keeps
    it equal to the batch average of all weighted scores so far. numpy
    applies these IEEE operations per element in the same order as
    fold_periods, and the new mean is a read-only float64 row.
    """
    old = state.values
    if len(old) != len(row):
        raise ValueError(f"arity mismatch: mean has {len(old)} classes, scores have {len(row)}")
    j = state.count + 1
    # float() of a count is exact: the conversion float * int makes per element
    values = (np.multiply(old, float(j - 1)) + np.multiply(row, weight)) / float(j)
    values.setflags(write=False)
    return ActivationState(values, j, state.early_fired)


def fold_periods(scores: np.ndarray, firsts, lengths, cfg: PipelineConfig) -> tuple[np.ndarray, np.ndarray]:
    """The running weighted means of many active periods, each with the window it belongs to: (windows, means).

    `scores` holds the classifier rows of every period's fold windows, period
    after period, lengths[p] rows for period p, whose first window is
    firsts[p]; it is left unchanged. One gather lays the rows out fold index
    major: fold 1 of every period, then fold 2 of the periods still open,
    and so on, longest period first, so each fold index j is one contiguous
    block whose periods' previous means are the first rows of the block
    before it. Each row becomes (mean * (j - 1) + w_j * score) / j, w_j
    being the sigmoid weight of cfg's midpoint and slope, with the same IEEE
    operations as update_mean, so the means are update_mean's bit for bit.
    means[i] is the mean just after folding the row of windows[i].
    """
    sizes = np.asarray(lengths, np.intp)
    folds = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)  # each row's j - 1
    rows = np.lexsort((-np.repeat(sizes, sizes), folds))  # by fold index, then longest period first
    windows = (np.repeat(np.asarray(firsts, np.intp), sizes) + folds).take(rows)
    means = scores.take(rows, axis=0)
    counts = np.bincount(folds, minlength=1).tolist()  # the periods still open at each fold index; [0] for none
    t_mid = midpoint(cfg.mean_duration, cfg.stride)
    weights = [sigmoid_weight(j, t_mid, cfg.sigmoid_slope) for j in range(1, len(counts) + 1)]
    means *= np.repeat(weights, counts)[:, None]
    prev, start = means[: counts[0]], counts[0]
    prev += 0.0  # update_mean's first fold is 0.0 * 0 + w * score, which turns -0.0 into 0.0
    spare = np.empty_like(prev)
    for j, k in enumerate(counts[1:], start=2):
        block = means[start : start + k]
        block += np.multiply(prev[:k], j - 1, out=spare[:k])
        block /= j
        prev, start = block, start + k
    return windows, means


def top2_rows(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """top2 of every row of a 2-D array: (argmax classes, largest values, second largest).

    The same numbers top2 gives row by row: argmax picks the lowest index
    among equal maxima, that entry is the largest value, and the second is
    read at the argmax once that one entry is masked to -inf, so a maximum
    that appears twice is also the second and 0.0 and -0.0 come out as top2
    gives them (max may give either). The mask is written into `values`
    itself, which is copied nowhere.
    """
    rows = np.arange(len(values))
    labels = values.argmax(axis=1)
    top1s = values[rows, labels]
    values[rows, labels] = -np.inf
    return labels, top1s, values[rows, values.argmax(axis=1)]


def activation_step(
    state: ActivationState,
    decision: GateDecision,
    classifier,
    window: Window,
    cfg: PipelineConfig,
) -> tuple[ActivationState, Optional[ActivationEvent]]:
    """Advance the activation machine by one window given the gate's decision.

    The classifier's row(t) is read only on Activate/StayActive windows;
    while the gate is idle it is never touched. Activate restarts the
    iteration index at 1, so gestures separated by an idle period are
    independent activations. After each fold an early event fires once the
    top-2 margin of the mean reaches tau_early, at most once per period; the
    state keeps accumulating afterwards. Deactivate emits a late event when
    no early event fired and the mean's maximum clears tau_late (anything
    lower is dismissed as noise), and always resets the accumulator.
    """
    if decision is GateDecision.STAY_IDLE:
        return state, None
    if decision is GateDecision.DEACTIVATE:
        if not state.active:
            raise RuntimeError("deactivate without a preceding active period")
        event: Optional[ActivationEvent] = None
        if not state.early_fired:
            label, max1, _ = top2(np.asarray(state.values).tolist())
            if max1 >= cfg.tau_late:
                event = ActivationEvent(label, window.end, EventKind.LATE, max1)
        return ActivationState.inactive(len(state.values)), event
    if decision is GateDecision.ACTIVATE:
        state = ActivationState.inactive(cfg.num_classes)
    elif not state.active:
        raise RuntimeError("stay-active decision while the activation state is inactive")
    row = classifier.row(window.end)
    t_mid = midpoint(cfg.mean_duration, cfg.stride)
    weight = sigmoid_weight(state.count + 1, t_mid, cfg.sigmoid_slope)
    state = update_mean(state, row, weight)
    if state.early_fired:
        return state, None
    values = state.values
    if values[values.argmax()] < cfg.tau_early:  # the margin max1 - max2 is at most top-1, as no mean is negative
        return state, None
    label, max1, max2 = top2(values.tolist())
    margin = max1 - max2
    if margin >= cfg.tau_early:
        event = ActivationEvent(label, window.end, EventKind.EARLY, margin)
        return ActivationState(state.values, state.count, True), event
    return state, None
