import math
import random
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gesturestream.activation import (
    ActivationEvent,
    ActivationState,
    EventKind,
    activation_step,
    fold_periods,
    midpoint,
    sigmoid_weight,
    update_mean,
)
from gesturestream.core import ConfigError, PipelineConfig, ProbVector, top2
from gesturestream.gate import GateDecision
from gesturestream.windows import Window


def random_probs(rng: random.Random, arity: int) -> ProbVector:
    """A ProbVector of `arity` positive uniform draws, each divided by their exact sum."""
    raw = [rng.random() + 1e-9 for _ in range(arity)]
    total = math.fsum(raw)
    return ProbVector(tuple(x / total for x in raw))


class TestMidpoint:
    def test_default_duration_stride_one(self):
        assert midpoint(38.4, 1) == 9

    def test_exact_division(self):
        assert midpoint(40, 1) == 10

    def test_stride_two(self):
        assert midpoint(38.4, 2) == 4

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            midpoint(0, 1)
        with pytest.raises(ValueError):
            midpoint(38.4, 0)

    def test_mean_duration_reaches_every_midpoint(self):
        # any midpoint m comes from a mean_duration in [4*s*m, 4*s*(m+1))
        for s in range(1, 4):
            for m in range(13):
                assert midpoint(4 * s * m + 2 * s, s) == m


class TestSigmoidWeight:
    def test_half_at_midpoint(self):
        assert sigmoid_weight(9, 9, 0.2) == 0.5

    def test_first_iteration(self):
        expected = 1.0 / (1.0 + math.exp(1.6))
        assert sigmoid_weight(1, 9, 0.2) == pytest.approx(expected, abs=1e-12)
        assert sigmoid_weight(1, 9, 0.2) == pytest.approx(0.1680, abs=1e-4)
        # far enough before the midpoint exp overflows, and 1 / (1 + inf) is 0.0
        assert sigmoid_weight(1, 3750, 0.2) == 0.0
        assert sigmoid_weight(1, 9, 100.0) == 0.0

    def test_late_iteration(self):
        assert sigmoid_weight(32, 9, 0.2) == pytest.approx(0.9900, abs=1e-4)

    def test_strictly_increasing_and_bounded(self):
        prev = 0.0
        for j in range(1, 100):
            w = sigmoid_weight(j, 9, 0.2)
            assert 0.0 < w < 1.0
            assert w > prev
            prev = w
        # far past the midpoint doubles saturate toward 1.0; still non-decreasing
        for j in range(100, 400):
            w = sigmoid_weight(j, 9, 0.2)
            assert prev <= w <= 1.0
            prev = w

    def test_half_threshold_matches_midpoint(self):
        for t in (1, 5, 9, 40):
            for j in range(1, 201):
                assert (sigmoid_weight(j, t, 0.2) >= 0.5) == (j >= t)


def batch_mean(scores, weights):
    """Independent oracle: recompute the weighted running mean from scratch."""
    count = len(scores)
    arity = len(scores[0])
    return [
        math.fsum(w * s[i] for w, s in zip(weights, scores)) / count for i in range(arity)
    ]


class TestUpdateMean:
    def test_first_update_is_weighted_score(self):
        state = ActivationState.inactive(3)
        probs = ProbVector((0.2, 0.5, 0.3))
        out = update_mean(state, probs.values, 0.4)
        assert out.count == 1
        assert out.values == pytest.approx((0.08, 0.2, 0.12), abs=1e-15)

    def test_matches_batch_recomputation(self):
        rng = random.Random(3)
        for _ in range(50):
            arity = rng.randint(2, 8)
            state = ActivationState.inactive(arity)
            scores, weights = [], []
            for _ in range(rng.randint(1, 40)):
                vec = random_probs(rng, arity)
                w = rng.uniform(0.01, 1.0)
                scores.append(vec.values)
                weights.append(w)
                state = update_mean(state, vec.values, w)
                expected = batch_mean(scores, weights)
                assert state.values == pytest.approx(expected, abs=1e-12)
                assert all(0.0 <= x <= 1.0 for x in state.values)

    def test_one_hot_approaches_one_monotonically(self):
        # all weights near 1 when the midpoint is 0, so the mean of class a rises toward 1
        state = ActivationState.inactive(4)
        probs = ProbVector((0.0, 1.0, 0.0, 0.0))
        prev = 0.0
        for j in range(1, 201):
            state = update_mean(state, probs.values, sigmoid_weight(j, 0, 0.2))
            assert state.values[1] > prev
            prev = state.values[1]
        assert prev > 0.95

    def test_arity_mismatch(self):
        state = ActivationState.inactive(3)
        with pytest.raises(ValueError, match="arity"):
            update_mean(state, (0.5, 0.5), 0.5)


@st.composite
def period_scores(draw):
    """Classifier rows of 0-30 active periods, period after period, each period's first window, and a config.

    Lengths repeat, one long period often sits among short ones, exact 0.0
    and -0.0 entries appear, and idle windows lie between the periods.
    """
    classes = draw(st.integers(2, 83))
    pool = draw(st.lists(st.integers(1, 20), min_size=1, max_size=4))
    lengths = draw(st.lists(st.sampled_from(pool), max_size=29))
    if draw(st.booleans()):
        lengths.insert(draw(st.integers(0, len(lengths))), draw(st.integers(1, 150)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scores = rng.dirichlet(np.full(classes, draw(st.sampled_from([0.1, 1.0]))), size=sum(lengths))
    zeros = rng.random(scores.shape)
    scores[zeros < 0.1] = 0.0
    scores[zeros > 0.9] = -0.0
    gaps = rng.integers(1, 4, len(lengths))  # the idle windows before each period
    firsts = (np.cumsum(gaps) + np.cumsum([0] + lengths[:-1])).tolist()
    t, stride = draw(st.integers(0, 40)), draw(st.integers(1, 3))
    cfg = PipelineConfig(
        num_classes=classes,
        stride=stride,
        mean_duration=4 * stride * t + 2 * stride,  # midpoint t
        sigmoid_slope=draw(st.sampled_from([0.05, 0.2, 1.0])),
    )
    return scores, firsts, lengths, cfg


class TestFoldPeriods:
    @given(period_scores())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_matches_chained_update_mean(self, drawn):
        scores, firsts, lengths, cfg = drawn
        t_mid = midpoint(cfg.mean_duration, cfg.stride)
        want, rows = {}, iter(scores.tolist())
        for first, length in zip(firsts, lengths):
            state = ActivationState.inactive(scores.shape[1])
            for j in range(1, length + 1):
                weight = sigmoid_weight(j, t_mid, cfg.sigmoid_slope)
                state = update_mean(state, next(rows), weight)
                want[first + j - 1] = [x.hex() for x in state.values]
        before = scores.tobytes()
        windows, means = fold_periods(scores, firsts, lengths, cfg)
        assert scores.tobytes() == before
        # every fold row once, at its window; float.hex also tells -0.0 from 0.0
        assert sorted(windows.tolist()) == sorted(want)
        assert dict(zip(windows.tolist(), ([x.hex() for x in row] for row in means.tolist()))) == want

    def test_first_fold_of_negative_zero_is_zero(self):
        scores = np.array([[-0.0, 1.0], [0.5, 0.5], [-0.0, 1.0]])
        cfg = PipelineConfig(num_classes=2)
        windows, means = fold_periods(scores, [0, 5], [2, 1], cfg)
        weight = [sigmoid_weight(j, midpoint(cfg.mean_duration, cfg.stride), cfg.sigmoid_slope) for j in (1, 2)]
        column = dict(zip(windows.tolist(), means[:, 0].tolist()))
        assert [column[w].hex() for w in (0, 1, 5)] == [(0.0).hex(), (0.5 * weight[1] / 2).hex(), (0.0).hex()]


class StubScorer:
    """Classifier stand-in that counts lookups."""

    def __init__(self, probs):
        self.probs = probs
        self.lookups = 0

    def row(self, t):
        self.lookups += 1
        return self.probs.values


class TestActivationStep:
    CFG = PipelineConfig(num_classes=3, tau_early=0.3)

    def window(self, t):
        return Window(t)

    def test_idle_never_touches_classifier(self):
        scorer = StubScorer(ProbVector((0.5, 0.3, 0.2)))
        state = ActivationState.inactive(3)
        for t in range(31, 131):
            state, event = activation_step(state, GateDecision.STAY_IDLE, scorer, self.window(t), self.CFG)
            assert event is None
        assert scorer.lookups == 0

    def test_stay_active_while_inactive_rejected(self):
        scorer = StubScorer(ProbVector((0.5, 0.3, 0.2)))
        with pytest.raises(RuntimeError, match="stay-active decision while the activation state is inactive"):
            activation_step(ActivationState.inactive(3), GateDecision.STAY_ACTIVE, scorer, self.window(31), self.CFG)
        assert scorer.lookups == 0

    def test_zero_tau_fires_on_first_active_window(self):
        cfg = PipelineConfig(num_classes=3, tau_early=0.0)
        scorer = StubScorer(ProbVector((0.5, 0.3, 0.2)))
        state = ActivationState.inactive(3)
        state, event = activation_step(state, GateDecision.ACTIVATE, scorer, self.window(31), cfg)
        assert event is not None and event.kind is EventKind.EARLY
        assert event.emit_frame == 31
        # the first fold's weight scales every class alike, so the margin is (0.5 - 0.3) * weight
        weight = sigmoid_weight(1, midpoint(cfg.mean_duration, cfg.stride), cfg.sigmoid_slope)
        assert event.label == 0
        assert event.margin_or_score == pytest.approx(0.2 * weight)
        assert state.early_fired and state.count == 1
        assert scorer.lookups == 1

    def test_never_fires_above_one(self):
        rng = random.Random(17)
        # the mean of weighted rows whose entries are all > 0 has a margin below 1
        cfg = PipelineConfig(num_classes=5, tau_early=1.0, mean_duration=4.0)
        for _ in range(100):
            state = ActivationState.inactive(5)
            decision = GateDecision.ACTIVATE
            for t in range(31, 31 + rng.randint(1, 40)):
                scorer = StubScorer(random_probs(rng, 5))
                state, event = activation_step(state, decision, scorer, self.window(t), cfg)
                assert event is None
                decision = GateDecision.STAY_ACTIVE
        for tau in (1.000001, math.nan):  # a threshold above one, or NaN, is refused before any step
            with pytest.raises(ConfigError, match="tau_early must be in"):
                replace(cfg, tau_early=tau)

    def test_deactivate_emits_late_and_resets(self):
        cfg = PipelineConfig(num_classes=3, tau_early=1.0, mean_duration=2.0)
        scorer = StubScorer(ProbVector((0.1, 0.8, 0.1)))
        state = ActivationState.inactive(3)
        state, event = activation_step(state, GateDecision.ACTIVATE, scorer, self.window(31), cfg)
        assert event is None
        for t in range(32, 40):
            state, event = activation_step(state, GateDecision.STAY_ACTIVE, scorer, self.window(t), cfg)
            assert event is None
        before = state
        state, event = activation_step(state, GateDecision.DEACTIVATE, scorer, self.window(40), cfg)
        assert event is not None and event.kind is EventKind.LATE
        assert event.label == 1
        assert event.emit_frame == 40
        assert event.margin_or_score == pytest.approx(before.values[1])  # the closing mean's maximum
        assert state.count == 0 and not state.active and not state.early_fired
        assert scorer.lookups == 9  # activate + 8 stay-active; none on deactivate

    def test_late_suppressed_after_early(self):
        scorer = StubScorer(ProbVector((0.5, 0.3, 0.2)))
        state = ActivationState((0.9, 0.0, 0.0), count=5, early_fired=True)
        reset, event = activation_step(state, GateDecision.DEACTIVATE, scorer, self.window(90), self.CFG)
        assert event is None
        assert reset.count == 0 and not reset.early_fired
        assert scorer.lookups == 0

    def test_noise_floor_rejected(self):
        scorer = StubScorer(ProbVector((0.5, 0.3, 0.2)))
        state = ActivationState((0.10, 0.02, 0.01), count=5)
        reset, event = activation_step(state, GateDecision.DEACTIVATE, scorer, self.window(90), self.CFG)
        assert event is None  # the maximum 0.10 is below tau_late 0.15
        assert not reset.active
        at_floor = ActivationState((0.15, 0.02, 0.01), count=5)  # tau_late itself is not noise
        _, event = activation_step(at_floor, GateDecision.DEACTIVATE, scorer, self.window(90), self.CFG)
        assert event is not None and event.kind is EventKind.LATE and event.margin_or_score == 0.15

    def test_deactivate_without_active_period_is_error(self):
        scorer = StubScorer(ProbVector((0.5, 0.3, 0.2)))
        with pytest.raises(RuntimeError):
            activation_step(
                ActivationState.inactive(3), GateDecision.DEACTIVATE, scorer, self.window(31), self.CFG
            )

    def test_scoring_continues_after_early_emission(self):
        cfg = PipelineConfig(num_classes=3, tau_early=0.0)
        scorer = StubScorer(ProbVector((0.6, 0.3, 0.1)))
        state = ActivationState.inactive(3)
        state, first = activation_step(state, GateDecision.ACTIVATE, scorer, self.window(31), cfg)
        assert first is not None
        events = []
        for t in range(32, 50):
            state, event = activation_step(state, GateDecision.STAY_ACTIVE, scorer, self.window(t), cfg)
            events.append(event)
        assert all(e is None for e in events)  # single-time contract
        assert scorer.lookups == 19  # state kept current for diagnostics
        assert state.count == 19 and state.early_fired


class TestStateAndEventTypes:
    def test_values_refuse_writes(self):
        idle = ActivationState.inactive(3)
        assert idle.values is ActivationState.inactive(3).values  # one shared zero row per arity
        scorer = StubScorer(ProbVector((0.5, 0.3, 0.2)))
        stepped, _ = activation_step(idle, GateDecision.ACTIVATE, scorer, Window(31), PipelineConfig(num_classes=3))
        for values in (idle.values, stepped.values):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 1.0
        assert idle.values.tolist() == [0.0, 0.0, 0.0]
        assert ActivationState((0.1, 0.2)) != ActivationState((0.1, 0.2))  # states compare by identity

    def test_events_carry_python_numbers(self):
        scorer = StubScorer(ProbVector((0.1, 0.8, 0.1)))
        early_cfg = PipelineConfig(num_classes=3, tau_early=0.0)
        _, early = activation_step(ActivationState.inactive(3), GateDecision.ACTIVATE, scorer, Window(31), early_cfg)
        cfg = PipelineConfig(num_classes=3, mean_duration=2.0)
        state, _ = activation_step(ActivationState.inactive(3), GateDecision.ACTIVATE, scorer, Window(31), cfg)
        _, late = activation_step(state, GateDecision.DEACTIVATE, scorer, Window(32), cfg)
        assert (early.kind, late.kind) == (EventKind.EARLY, EventKind.LATE)
        for event in (early, late):
            # a numpy scalar would print as np.float64(...) in any repr
            assert type(event.label) is int and type(event.margin_or_score) is float


@st.composite
def one_period(draw):
    """One active period's classifier rows and a config whose tau_early is 0, 1, random, or reached exactly.

    Exact 0.0 and -0.0 entries appear, as in period_scores. A prefix of
    rows may be one-hot on one class, so the mean's top-2 stays 0 there and
    its top-1 is its margin; a reached tau_early is the top-1 of one of
    those folds, so the margin equals tau_early exactly.
    """
    classes, length = draw(st.integers(2, 83)), draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.dirichlet(np.full(classes, draw(st.sampled_from([0.1, 1.0]))), size=length)
    zeros = rng.random(rows.shape)
    rows[zeros < 0.1] = 0.0
    rows[zeros > 0.9] = -0.0
    hot = draw(st.integers(0, length))
    rows[:hot] = np.where(zeros[:hot] < 0.5, 0.0, -0.0)
    rows[:hot, draw(st.integers(0, classes - 1))] = 1.0
    t = draw(st.integers(0, 20))
    cfg = PipelineConfig(num_classes=classes, mean_duration=4 * t + 2)  # midpoint t
    tau = draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)))
    if hot and draw(st.booleans()):
        state = ActivationState.inactive(classes)
        for j in range(1, draw(st.integers(1, hot)) + 1):
            state = update_mean(state, rows[j - 1], sigmoid_weight(j, t, cfg.sigmoid_slope))
        tau = max(state.values.tolist())
    return rows, replace(cfg, tau_early=tau)


def unbounded_period(rows, cfg):
    """The early rule with no top-1 bound: top2 of the whole mean after every fold, each window's (state, event)."""
    t_mid = midpoint(cfg.mean_duration, cfg.stride)
    state, steps = ActivationState.inactive(cfg.num_classes), []
    for t, row in enumerate(rows):
        state, event = update_mean(state, row, sigmoid_weight(t + 1, t_mid, cfg.sigmoid_slope)), None
        if not state.early_fired:
            label, max1, max2 = top2(state.values.tolist())
            if max1 - max2 >= cfg.tau_early:
                event = ActivationEvent(label, t, EventKind.EARLY, max1 - max2)
                state = ActivationState(state.values, state.count, True)
        steps.append((state, event))
    return steps


def state_bits(state):
    return [x.hex() for x in state.values.tolist()], state.count, state.early_fired


def event_bits(event):
    if event is None:
        return None
    score = event.margin_or_score
    return event.label, type(event.label), event.emit_frame, event.kind, score.hex(), type(score)


class TestTopOneBound:
    """activation_step reads the full top2 only once top-1 reaches tau_early."""

    @given(one_period())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_never_changes_an_outcome(self, drawn):
        rows, cfg = drawn
        scorer = SimpleNamespace(row=rows.__getitem__)
        state, decision = ActivationState.inactive(cfg.num_classes), GateDecision.ACTIVATE
        for t, (want_state, want_event) in enumerate(unbounded_period(rows, cfg)):
            state, event = activation_step(state, decision, scorer, Window(t), cfg)
            decision = GateDecision.STAY_ACTIVE
            assert state_bits(state) == state_bits(want_state)
            assert event_bits(event) == event_bits(want_event)


class TestTryEarly:
    """The early rule as activation_step applies it after each fold."""

    def test_emits_on_margin(self):
        # midpoint(16, 1) == 4, so the fourth fold carries weight exactly 0.5
        cfg = PipelineConfig(num_classes=3, tau_early=0.4, mean_duration=16.0)
        scorer = StubScorer(ProbVector((1.0, 0.0, 0.0)))
        state = ActivationState((0.6, 0.1, 0.05), count=3)
        state, event = activation_step(state, GateDecision.STAY_ACTIVE, scorer, Window(77), cfg)
        # the mean becomes ((1.8 + 0.5) / 4, 0.3 / 4, 0.15 / 4) = (0.575, 0.075, 0.0375)
        assert event is not None
        assert event.kind is EventKind.EARLY
        assert event.label == 0
        assert event.margin_or_score == pytest.approx(0.5)
        assert event.emit_frame == 77
        assert state.early_fired

    def test_single_emission_contract(self):
        cfg = PipelineConfig(num_classes=2, tau_early=0.1)
        scorer = StubScorer(ProbVector((1.0, 0.0)))
        state = ActivationState((0.9, 0.0), count=1, early_fired=True)
        after, event = activation_step(state, GateDecision.STAY_ACTIVE, scorer, Window(5), cfg)
        assert event is None  # the margin clears 0.1, but this period already fired
        assert after.early_fired and after.count == 2
        assert scorer.lookups == 1


class TestFinalizeLate:
    """The late rule as activation_step applies it on deactivation."""

    def test_fires_above_tau_late(self):
        cfg = PipelineConfig(num_classes=2, tau_late=0.15)
        scorer = StubScorer(ProbVector((0.5, 0.5)))
        state = ActivationState((0.4, 0.1), count=5)
        reset, event = activation_step(state, GateDecision.DEACTIVATE, scorer, Window(90), cfg)
        assert event is not None
        assert event.kind is EventKind.LATE
        assert event.label == 0
        assert event.margin_or_score == pytest.approx(0.4)
        assert event.emit_frame == 90
        assert reset.count == 0
        assert not reset.active and not reset.early_fired
        assert scorer.lookups == 0


def emission_index(margins, tau):
    """First iteration whose top-2 margin reaches tau, or None (late)."""
    for i, margin in enumerate(margins):
        if margin >= tau:
            return i
    return None


class TestEmissionMonotonicity:
    def test_emission_never_earlier_for_higher_tau(self):
        rng = random.Random(29)
        cfg_base = PipelineConfig(num_classes=5)
        for _ in range(200):
            # simulate one active period and record the margin trajectory
            state = ActivationState.inactive(5)
            margins = []
            for j in range(1, rng.randint(5, 45)):
                vec = random_probs(rng, 5)
                w = sigmoid_weight(j, 9, cfg_base.sigmoid_slope)
                state = update_mean(state, vec.values, w)
                vals = sorted(state.values, reverse=True)
                margins.append(vals[0] - vals[1])
            taus = [0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0]
            indices = [emission_index(margins, tau) for tau in taus]
            fired = [i for i in indices if i is not None]
            assert fired == sorted(fired)
            # once a tau stops firing, all higher taus stop too
            seen_none = False
            for i in indices:
                if i is None:
                    seen_none = True
                else:
                    assert not seen_none
