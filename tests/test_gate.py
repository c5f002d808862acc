import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gesturestream.core import FilterKind, PipelineConfig
from gesturestream.gate import (
    GateDecision,
    GateMode,
    GateState,
    apply_filter,
    ewa_weights,
    gate_periods,
    gate_step,
)

CFG = PipelineConfig(num_classes=10)  # median filter, k=4, threshold 0.5, c=4


def filled_queue(values):
    """The queue gate_step leaves in a GateState after pushing values, oldest first."""
    state = GateState.idle(CFG.filter_size)
    for x in values:
        state, _, _ = gate_step(state, x, CFG)
    return state.queue


def brute_force_filter(items, kind):
    """Independent recomputation of each filter on a newest-first sample list."""
    size = len(items)
    if kind is FilterKind.MEAN:
        return math.fsum(items) / size
    if kind is FilterKind.MEDIAN:
        ordered = sorted(items)
        mid = size // 2
        return ordered[mid] if size % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0
    weights = [math.exp(-(1 - (size - i)) / size) for i in range(size)]
    return math.fsum(w * x for w, x in zip(weights, items)) / math.fsum(weights)


# -0.0 beside 0.0, and a few values drawn often enough to tie
QUEUE_ITEM = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]))


class TestFilterQueue:
    def test_evicts_oldest(self):
        assert filled_queue([0.1, 0.2, 0.3, 0.4, 0.5]) == (0.5, 0.4, 0.3, 0.2)

    def test_newest_first_ordering(self):
        assert filled_queue([0.1, 0.9]) == (0.9, 0.1)

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            GateState.idle(0)


class TestFilters:
    def test_median_of_constants(self):
        assert apply_filter(filled_queue([0.8, 0.8, 0.8, 0.8]), FilterKind.MEDIAN) == 0.8

    def test_mean_symmetric(self):
        assert apply_filter(filled_queue([0.2, 0.4, 0.6, 0.8]), FilterKind.MEAN) == pytest.approx(0.5)

    def test_mean_sums_left_to_right(self):
        # ((0.0 + 0.1) + 0.2) + 0.3 rounds to 0.6000000000000001; a compensated sum gives 0.6
        assert apply_filter((0.1, 0.2, 0.3), FilterKind.MEAN).hex() == (0.6000000000000001 / 3).hex()

    def test_even_median_mid_mean(self):
        q = filled_queue([0.2, 0.9, 0.8, 0.85])
        assert apply_filter(q, FilterKind.MEDIAN) == pytest.approx(0.825)

    def test_ewa_single_spike(self):
        # newest sample 1, three zeros behind it
        q = filled_queue([0, 0, 0, 1])
        expected = math.exp(0.75) / (math.exp(0.75) + math.exp(0.5) + math.exp(0.25) + 1)
        got = apply_filter(q, FilterKind.EWA)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.3499, abs=1e-4)

    def test_ewa_constant_passthrough(self):
        for c in (0.0, 0.3, 1.0):
            q = filled_queue([c] * 4)
            assert apply_filter(q, FilterKind.EWA) == pytest.approx(c, abs=1e-12)

    def test_empty_queue_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            apply_filter((), FilterKind.MEAN)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown filter kind 'median'"):
            apply_filter((0.5,), "median")

    def test_warmup_uses_current_length(self):
        # length-2 queue: weights e^{1/2}, 1 over newest, oldest
        q = filled_queue([0.0, 1.0])
        expected = math.exp(0.5) / (math.exp(0.5) + 1.0)
        assert apply_filter(q, FilterKind.EWA) == pytest.approx(expected, abs=1e-12)

    def test_matches_brute_force(self):
        rng = random.Random(21)
        for _ in range(500):
            k = rng.randint(1, 8)
            size = rng.randint(1, k)
            items = [rng.random() for _ in range(size)]
            for kind in FilterKind:
                assert apply_filter(tuple(items), kind) == pytest.approx(
                    brute_force_filter(items, kind), abs=1e-12
                )

    def test_output_within_queue_bounds(self):
        rng = random.Random(23)
        for _ in range(300):
            items = [rng.random() for _ in range(rng.randint(1, 8))]
            for kind in FilterKind:
                out = apply_filter(tuple(items), kind)
                assert min(items) - 1e-12 <= out <= max(items) + 1e-12

    @given(
        kind=st.sampled_from(list(FilterKind)),
        queues=st.integers(1, 9).flatmap(
            lambda size: st.lists(st.lists(QUEUE_ITEM, min_size=size, max_size=size), min_size=1, max_size=20)
        ),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_columns_match_tuples(self, kind, queues):
        # one queue per column, newest item in row 0; float.hex also tells -0.0 from 0.0
        got = apply_filter(np.array(queues).T, kind)
        assert [x.hex() for x in got.tolist()] == [apply_filter(tuple(q), kind).hex() for q in queues]


class TestEwaWeights:
    def test_strictly_decreasing_newest_to_oldest(self):
        for length in range(1, 9):
            w = ewa_weights(length)
            assert all(a > b for a, b in zip(w, w[1:]))

    def test_oldest_weight_exactly_one(self):
        for length in range(1, 9):
            assert ewa_weights(length)[-1] == 1.0

    def test_empty_length_rejected(self):
        with pytest.raises(ValueError, match="weights need a length >= 1"):
            ewa_weights(0)

    def test_k4_ratio(self):
        w = ewa_weights(4)
        assert w[0] / w[3] == pytest.approx(math.exp(0.75), abs=1e-12)


class TestGateStep:
    def test_activates_on_threshold(self):
        state = GateState.idle(4)
        state, decision, filtered = gate_step(state, 0.7, CFG)
        assert decision is GateDecision.ACTIVATE
        assert state.mode is GateMode.ACTIVE
        assert state.nogesture_run == 0
        assert filtered == pytest.approx(0.7)

    def test_stays_idle_below_threshold(self):
        state = GateState.idle(4)
        state, decision, _ = gate_step(state, 0.2, CFG)
        assert decision is GateDecision.STAY_IDLE
        assert state.mode is GateMode.IDLE
        assert state.nogesture_run == 0

    def test_counter_below_limit_stays_active(self):
        # filter_size 1 makes filtered == raw, isolating the counter logic
        cfg = PipelineConfig(num_classes=10, filter_size=1, deactivate_count=4)
        state = GateState.idle(1)
        state, _, _ = gate_step(state, 0.9, cfg)
        assert state.mode is GateMode.ACTIVE
        for i in range(3):
            state, decision, filtered = gate_step(state, 0.0, cfg)
            assert filtered < cfg.gate_on_threshold
            assert decision is GateDecision.STAY_ACTIVE
            assert state.nogesture_run == i + 1

    def test_fourth_consecutive_low_deactivates(self):
        cfg = PipelineConfig(num_classes=10, filter_size=1, deactivate_count=4)
        state = GateState.idle(1)
        state, _, _ = gate_step(state, 0.9, cfg)
        decisions = []
        for _ in range(4):
            state, decision, _ = gate_step(state, 0.0, cfg)
            decisions.append(decision)
        assert decisions[:3] == [GateDecision.STAY_ACTIVE] * 3
        assert decisions[3] is GateDecision.DEACTIVATE
        assert state.mode is GateMode.IDLE
        assert state.nogesture_run == 0

    def test_median_filter_absorbs_single_low_raw(self):
        # a lone raw 0 inside a run of 0.9s never even drops the filtered value
        state = GateState.idle(4)
        for _ in range(4):
            state, _, _ = gate_step(state, 0.9, CFG)
        state, decision, filtered = gate_step(state, 0.0, CFG)
        assert filtered == pytest.approx(0.9)
        assert decision is GateDecision.STAY_ACTIVE
        assert state.nogesture_run == 0

    def test_isolated_dip_never_deactivates(self):
        cfg = PipelineConfig(num_classes=10, filter_kind=FilterKind.MEAN, deactivate_count=3)
        state = GateState.idle(4)
        for _ in range(4):
            state, _, _ = gate_step(state, 1.0, cfg)
        state, decision, _ = gate_step(state, 0.0, cfg)  # mean dips to 0.75, still on
        assert decision is GateDecision.STAY_ACTIVE
        state, decision, _ = gate_step(state, 1.0, cfg)
        assert decision is GateDecision.STAY_ACTIVE
        assert state.mode is GateMode.ACTIVE

    def test_counter_resets_on_recovery(self):
        state = GateState.idle(1)
        cfg = PipelineConfig(num_classes=10, filter_size=1, deactivate_count=4)
        state, _, _ = gate_step(state, 0.9, cfg)
        for _ in range(3):
            state, _, _ = gate_step(state, 0.1, cfg)
        assert state.nogesture_run == 3
        state, decision, _ = gate_step(state, 0.9, cfg)
        assert decision is GateDecision.STAY_ACTIVE
        assert state.nogesture_run == 0

    def test_pure_function(self):
        state = GateState.idle(4)
        for x in [0.2, 0.6, 0.8]:
            state, _, _ = gate_step(state, x, CFG)
        a = gate_step(state, 0.4, CFG)
        b = gate_step(state, 0.4, CFG)
        assert a == b

    def test_rejects_out_of_range_input(self):
        with pytest.raises(ValueError, match="outside"):
            gate_step(GateState.idle(4), 1.5, CFG)


THRESHOLDS = [0.3, 0.5, 0.7]
# -0.0, the thresholds and their float neighbours on top of uniform draws
EDGE_RAWS = [0.0, -0.0, 1.0] + [x for t in THRESHOLDS for x in (math.nextafter(t, 0.0), t, math.nextafter(t, 1.0))]


@st.composite
def gated_streams(draw):
    cfg = PipelineConfig(
        num_classes=10,
        filter_kind=draw(st.sampled_from(list(FilterKind))),
        filter_size=draw(st.integers(1, 8)),
        gate_on_threshold=draw(st.sampled_from(THRESHOLDS)),
        deactivate_count=draw(st.integers(1, 5)),
    )
    raw = st.one_of(st.floats(0.0, 1.0), st.sampled_from(EDGE_RAWS))
    return draw(st.lists(raw, max_size=cfg.filter_size + 10)), cfg


def replay_periods(raws, cfg, state=None):
    """Filtered values and (first, stop) periods of a gate_step replay, from an idle state by default."""
    state = GateState.idle(cfg.filter_size) if state is None else state
    filtered, periods, first = [], [], -1
    for k, raw in enumerate(raws):
        state, decision, value = gate_step(state, raw, cfg)
        filtered.append(value)
        if decision is GateDecision.ACTIVATE:
            first = k
        elif decision is GateDecision.DEACTIVATE:
            periods.append((first, k))
    if state.mode is GateMode.ACTIVE:
        periods.append((first, len(raws)))
    return filtered, periods


class TestGatePeriods:
    @given(gated_streams())
    @settings(max_examples=500, deadline=None, derandomize=True)
    def test_matches_gate_step_replay(self, stream):
        raws, cfg = stream
        filtered, periods = gate_periods(np.array(raws, dtype=float), cfg)
        want_filtered, want_periods = replay_periods(raws, cfg)
        assert periods == want_periods
        assert filtered.dtype == np.float64
        assert [x.hex() for x in filtered.tolist()] == [x.hex() for x in want_filtered]

    @given(gated_streams(), st.integers(1, 8))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_idle_state_of_any_size_replays_as_gate_periods(self, stream, size):
        # the queue keeps cfg.filter_size raws, whatever size the idle state was made with
        raws, cfg = stream
        filtered, periods = gate_periods(np.array(raws, dtype=float), cfg)
        got_filtered, got_periods = replay_periods(raws, cfg, GateState.idle(size))
        assert got_periods == periods
        assert [x.hex() for x in got_filtered] == [x.hex() for x in filtered.tolist()]
