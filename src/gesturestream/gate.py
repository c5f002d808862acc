"""Detector-side gating: probability smoothing plus Idle/Active hysteresis.

Raw gesture probabilities are pushed into a bounded queue and smoothed with
a mean, median, or exponentially-weighted average filter. The gate opens
when the filtered value crosses the on-threshold and closes only after a
configured run of consecutive sub-threshold values, so a single noisy dip
never deactivates the classifier.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

from .core import FilterKind, PipelineConfig


class GateMode(str, enum.Enum):
    IDLE = "idle"
    ACTIVE = "active"


class GateDecision(enum.Enum):
    STAY_IDLE = "stay_idle"
    ACTIVATE = "activate"
    STAY_ACTIVE = "stay_active"
    DEACTIVATE = "deactivate"


@dataclass(frozen=True, slots=True)
class FilterQueue:
    """The last <= capacity raw gesture probabilities, newest first."""

    items: tuple[float, ...]
    capacity: int

    @classmethod
    def empty(cls, capacity: int) -> FilterQueue:
        if capacity < 1:
            raise ValueError("filter queue capacity must be >= 1")
        return cls(items=(), capacity=capacity)

    def push(self, x: float) -> FilterQueue:
        """Prepend a sample, evicting the oldest beyond capacity."""
        return FilterQueue(items=(x,) + self.items[: self.capacity - 1], capacity=self.capacity)


@functools.lru_cache(maxsize=64)
def ewa_weights(length: int) -> tuple[float, ...]:
    """Exponential weights for a queue of the given length, newest first.

    w_i = exp(-(1 - (length - i)) / length) for the i-th previous sample,
    so the newest sample carries the largest weight and the oldest exactly 1.
    During queue warm-up the weights are those of the current length. The
    result is cached per length, since the filter reads it on every window.
    """
    if length < 1:
        raise ValueError("weights need a length >= 1")
    return tuple(math.exp((length - i - 1) / length) for i in range(length))


def apply_filter(items: tuple[float, ...], kind: FilterKind) -> float:
    """Smooth a queue's items, newest first, down to one probability."""
    size = len(items)
    if size == 0:
        raise ValueError("cannot filter an empty queue")
    if kind is FilterKind.MEAN:
        return sum(items) / size
    if kind is FilterKind.MEDIAN:
        ordered = sorted(items)
        mid = size // 2
        if size % 2:
            return ordered[mid]
        return (ordered[mid - 1] + ordered[mid]) / 2.0
    if kind is FilterKind.EWA:
        weights = ewa_weights(size)
        num = 0.0
        den = 0.0
        for w, x in zip(weights, items):
            num += w * x
            den += w
        return num / den
    raise ValueError(f"unknown filter kind {kind!r}")


@dataclass(frozen=True, slots=True)
class GateState:
    """Hysteresis state threaded through gate_step, one per stream."""

    mode: GateMode
    queue: FilterQueue
    nogesture_run: int = 0

    @classmethod
    def idle(cls, filter_size: int) -> GateState:
        return cls(mode=GateMode.IDLE, queue=FilterQueue.empty(filter_size), nogesture_run=0)


class GateStepResult(NamedTuple):
    state: GateState
    decision: GateDecision
    filtered: float


def gate_step(state: GateState, raw_gesture_prob: float, cfg: PipelineConfig) -> GateStepResult:
    """Advance the gate by one window.

    Pushes the raw probability, filters, then applies the hysteresis rule:
    Idle opens on filtered >= gate_on_threshold; Active closes only once
    deactivate_count consecutive filtered values fall below it. Pure
    function of (state, input, cfg).
    """
    if not (0.0 <= raw_gesture_prob <= 1.0):
        raise ValueError(f"raw gesture probability {raw_gesture_prob!r} outside [0, 1]")
    queue = state.queue.push(raw_gesture_prob)
    filtered = apply_filter(queue.items, cfg.filter_kind)
    on = filtered >= cfg.gate_on_threshold

    if state.mode is GateMode.IDLE:
        if on:
            return GateStepResult(
                GateState(GateMode.ACTIVE, queue, 0), GateDecision.ACTIVATE, filtered
            )
        return GateStepResult(GateState(GateMode.IDLE, queue, 0), GateDecision.STAY_IDLE, filtered)

    if on:
        return GateStepResult(
            GateState(GateMode.ACTIVE, queue, 0), GateDecision.STAY_ACTIVE, filtered
        )
    run = state.nogesture_run + 1
    if run >= cfg.deactivate_count:
        return GateStepResult(GateState(GateMode.IDLE, queue, 0), GateDecision.DEACTIVATE, filtered)
    return GateStepResult(GateState(GateMode.ACTIVE, queue, run), GateDecision.STAY_ACTIVE, filtered)


def gate_periods(raws: list[float], cfg: PipelineConfig) -> tuple[list[float], list[tuple[int, int]]]:
    """Run the gate over a whole sequence of raw gesture probabilities.

    The batch form of gate_step, with the same queue, filter and hysteresis
    rule, for values already known to lie in [0, 1]. Returns the filtered
    value of every window and the active periods as (first, stop) window
    indices: first is the ACTIVATE window and stop the DEACTIVATE window, or
    len(raws) when the gate is still open at the end.
    """
    capacity, kind = cfg.filter_size, cfg.filter_kind
    threshold, deactivate_count = cfg.gate_on_threshold, cfg.deactivate_count
    items: tuple[float, ...] = ()
    filtered: list[float] = []
    periods: list[tuple[int, int]] = []
    first = -1  # window that opened the current period, -1 while idle
    run = 0
    for k, raw in enumerate(raws):
        items = (raw,) + items[: capacity - 1]
        value = apply_filter(items, kind)
        filtered.append(value)
        if value >= threshold:
            if first < 0:
                first = k
            run = 0
        elif first >= 0:
            run += 1
            if run >= deactivate_count:
                periods.append((first, k))
                first, run = -1, 0
    if first >= 0:
        periods.append((first, len(raws)))
    return filtered, periods
