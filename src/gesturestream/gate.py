"""Detector-side gating: probability smoothing plus Idle/Active hysteresis.

Raw gesture probabilities are pushed into a GateState's queue, which keeps
the config's filter_size newest, and smoothed with a mean, median, or
exponentially-weighted average filter. The gate opens when the filtered
value crosses the on-threshold and closes only after a configured run of
consecutive sub-threshold values, so a single noisy dip never deactivates
the classifier. gate_step advances one stream by one window, as scores
arrive, and returns a plain (state, decision, filtered) tuple; gate_periods
gates a stored video in array passes, filtering every window at once and
walking only the on/off run boundaries, with the same results bit for bit.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import FilterKind, PipelineConfig


class GateMode(str, enum.Enum):
    IDLE = "idle"
    ACTIVE = "active"


class GateDecision(enum.Enum):
    STAY_IDLE = "stay_idle"
    ACTIVATE = "activate"
    STAY_ACTIVE = "stay_active"
    DEACTIVATE = "deactivate"


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


def apply_filter(items: tuple[float, ...] | np.ndarray, kind: FilterKind) -> float | np.ndarray:
    """Smooth a queue's items, newest first, down to one probability.

    items is a tuple, or a 2-D array whose row i holds the i-th newest item of
    many queues, one column per queue, which all filter to one value each with
    the tuple's arithmetic: the mean and the EWA sum rows in tuple order, and
    the median sorts each column stably.
    """
    size = len(items)
    if size == 0:
        raise ValueError("cannot filter an empty queue")
    if kind is FilterKind.MEAN:
        total = 0.0  # left to right, the same bits on every Python version
        for x in items:
            total += x
        return total / size
    if kind is FilterKind.MEDIAN:
        # an array's queues sort along their contiguous axis, which is the faster sort
        ordered = sorted(items) if isinstance(items, tuple) else np.sort(items.T, axis=1, kind="stable").T
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
    """Hysteresis state threaded through gate_step, one per stream.

    queue holds the last <= cfg.filter_size raw gesture probabilities, newest first.
    """

    mode: GateMode
    queue: tuple[float, ...]
    nogesture_run: int = 0

    @classmethod
    def idle(cls, filter_size: int) -> GateState:
        """The state before the first window; filter_size is only checked to be >= 1."""
        if filter_size < 1:
            raise ValueError("filter_size must be >= 1")
        return cls(GateMode.IDLE, ())


def gate_step(state: GateState, raw_gesture_prob: float, cfg: PipelineConfig) -> tuple[GateState, GateDecision, float]:
    """Advance the gate by one window, returning (state, decision, filtered).

    Pushes the raw probability, filters, then applies the hysteresis rule:
    Idle opens on filtered >= gate_on_threshold; Active closes only once
    deactivate_count consecutive filtered values fall below it. Pure
    function of (state, input, cfg); the queue keeps cfg.filter_size raws,
    the size gate_periods filters over.
    """
    if not (0.0 <= raw_gesture_prob <= 1.0):
        raise ValueError(f"raw gesture probability {raw_gesture_prob!r} outside [0, 1]")
    queue = (raw_gesture_prob,) + state.queue[: cfg.filter_size - 1]
    filtered = apply_filter(queue, cfg.filter_kind)
    on = filtered >= cfg.gate_on_threshold

    if state.mode is GateMode.IDLE:
        if on:
            return GateState(GateMode.ACTIVE, queue), GateDecision.ACTIVATE, filtered
        return GateState(GateMode.IDLE, queue), GateDecision.STAY_IDLE, filtered

    if on:
        return GateState(GateMode.ACTIVE, queue), GateDecision.STAY_ACTIVE, filtered
    run = state.nogesture_run + 1
    if run >= cfg.deactivate_count:
        return GateState(GateMode.IDLE, queue), GateDecision.DEACTIVATE, filtered
    return GateState(GateMode.ACTIVE, queue, run), GateDecision.STAY_ACTIVE, filtered


def gate_periods(raws: np.ndarray, cfg: PipelineConfig) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Run the gate over a whole video's raw gesture probabilities at once.

    The batch form of gate_step for values already known to lie in [0, 1],
    bit for bit. Every window pushes to the filter queue whatever the gate's
    mode, so the full queues are the columns of one sliding-window view of
    raws, newest first, which apply_filter filters in one call; the
    filter_size - 1 warm-up windows go through it one tuple each. The
    hysteresis then walks only the run boundaries of filtered >=
    gate_on_threshold: an on-run opens a period while idle, and the first
    off-run of deactivate_count windows or more closes it at its
    deactivate_count-th window. Returns the float64 array of every window's
    filtered value and the active periods as (first, stop) window indices:
    first is the ACTIVATE window and stop the DEACTIVATE window, or
    len(raws) when the gate is still open at the end.
    """
    size, kind, count = cfg.filter_size, cfg.filter_kind, len(raws)
    head = raws[: size - 1].tolist()
    values = np.array([apply_filter(tuple(head[k::-1]), kind) for k in range(len(head))])
    if count >= size:
        values = np.concatenate([values, apply_filter(sliding_window_view(raws, size)[:, ::-1].T, kind)])
    on = values >= cfg.gate_on_threshold
    starts = np.flatnonzero(np.diff(on, prepend=~on[:1])).tolist()  # first window of each on- or off-run
    periods: list[tuple[int, int]] = []
    first = -1  # window that opened the current period, -1 while idle
    for a, b in zip(starts, starts[1:] + [count]):
        if first < 0:
            first = a if on[a] else -1
        elif not on[a] and b - a >= cfg.deactivate_count:
            periods.append((first, a + cfg.deactivate_count - 1))
            first = -1
    if first >= 0:
        periods.append((first, count))
    return values, periods
