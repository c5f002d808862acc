import math
import random
import re
import subprocess
import sys
from dataclasses import fields, replace
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gesturestream import core
from gesturestream.activation import top2_rows
from gesturestream.core import (
    ConfigError,
    PipelineConfig,
    ProbVector,
    ingest_probs,
    top2,
)
from gesturestream.scoring import SynthConfig


class TestValidateConfig:
    def test_accepts_default_operating_point(self):
        cfg = PipelineConfig(num_classes=83)
        assert cfg.classifier_window == 32
        assert cfg.stride == 1
        assert cfg.filter_size == 4

    def test_all_violations_reported_together(self):
        with pytest.raises(ConfigError) as exc:
            PipelineConfig(num_classes=1, classifier_window=0, stride=0, filter_size=0, tau_late=1.5)
        message = str(exc.value)
        for fragment in ("classifier_window", "stride", "filter_size", "num_classes", "tau_late"):
            assert fragment in message

    @pytest.mark.parametrize("field,value", [
        ("gate_on_threshold", -0.1),
        ("gate_on_threshold", 1.1),
        ("tau_early", 2.0),
        ("mean_duration", 0.0),
        ("mean_duration", math.inf),
        ("deactivate_count", 0),
        ("sigmoid_slope", 0.0),
        ("sigmoid_slope", math.nan),
        ("filter_kind", "median"),  # the string, not the FilterKind
    ])
    def test_single_field_violations(self, field, value):
        with pytest.raises(ConfigError, match=field):
            PipelineConfig(**{"num_classes": 10, field: value})


# One out-of-range value per field of each config.
BAD_VALUES = {
    PipelineConfig: {
        "num_classes": 1,
        "classifier_window": 0,
        "stride": 0,
        "filter_kind": "median",
        "filter_size": 0,
        "gate_on_threshold": 1.5,
        "deactivate_count": 0,  # on it, gate_step and gate_periods would close a period at different windows
        "tau_early": -0.1,
        "tau_late": 2.0,
        "mean_duration": -1.0,
        "sigmoid_slope": -1.0,
    },
    SynthConfig: {
        "num_videos": 0,
        "gestures_per_video": 0,
        "num_classes": 1,
        "duration_mean": 0.0,
        "duration_spread": -1.0,
        "gap_mean": -1.0,
        "gap_spread": -1.0,
        "phase_fractions": (0.5, 0.5, 0.5),
        "detector_base": 1.5,
        "noise_sigma": -1.0,
        "prep_ambiguity": 1.5,
        "seed": -1,
        "edge_ramp": 0,
    },
}
VALID = {PipelineConfig: PipelineConfig(num_classes=10), SynthConfig: SynthConfig()}
NON_FINITE = (math.nan, math.inf, -math.inf)


def bad_cases():
    """(config class, field, value): BAD_VALUES, then NaN and both infinities in every float field."""
    for cls, bad in BAD_VALUES.items():
        hints = get_type_hints(cls)
        for field, value in bad.items():
            yield cls, field, value
            if hints[field] is float:
                yield from ((cls, field, x) for x in NON_FINITE)
    yield from ((SynthConfig, "phase_fractions", (x, 0.5, 0.5)) for x in NON_FINITE)


class TestConfigsCheckThemselves:
    def test_table_names_every_field(self):
        for cls, bad in BAD_VALUES.items():
            assert list(bad) == [f.name for f in fields(cls)]

    @pytest.mark.parametrize(
        "cls,field,value", list(bad_cases()), ids=lambda x: x.__name__ if isinstance(x, type) else str(x)
    )
    def test_constructor_and_replace_refuse(self, cls, field, value):
        required = {"num_classes": 10} if cls is PipelineConfig else {}
        for build in (lambda: cls(**{**required, field: value}), lambda: replace(VALID[cls], **{field: value})):
            with pytest.raises(ConfigError) as exc:
                build()
            assert all(problem.startswith(f"{field} ") for problem in str(exc.value).split("; "))

    def test_every_problem_in_order(self):
        want = "; ".join([
            "classifier_window must be >= 1",
            "stride must be >= 1",
            "filter_size must be >= 1",
            "deactivate_count must be >= 1",
            "num_classes must be >= 2",
            "gate_on_threshold must be in [0, 1]",
            "tau_early must be in [0, 1]",
            "tau_late must be in [0, 1]",
            "mean_duration must be finite and > 0",
            "sigmoid_slope must be finite and > 0",
            "filter_kind must be one of ['mean', 'median', 'ewa']",
        ])
        bad = BAD_VALUES[PipelineConfig]
        for build in (lambda: PipelineConfig(**bad), lambda: replace(VALID[PipelineConfig], **bad)):
            with pytest.raises(ConfigError) as exc:
                build()
            assert str(exc.value) == want


class TestIngestProbs:
    def test_exact_vector_kept(self):
        assert ingest_probs([0.1, 0.9]).values == (0.1, 0.9)

    def test_one_hot_kept(self):
        assert ingest_probs([1, 0, 0]).values == (1.0, 0.0, 0.0)

    def test_small_slack_renormalized(self):
        vec = ingest_probs([0.4995, 0.5])  # sums to 0.9995
        assert abs(math.fsum(vec.values) - 1.0) <= 1e-9

    def test_renormalized_rows_sum_to_one(self):
        rng = random.Random(7)
        for _ in range(200):
            draws = [rng.random() for _ in range(rng.randint(2, 30))]
            target = 1.0 + rng.choice((-1, 1)) * rng.uniform(1e-5, 9e-4)  # off by more than ProbVector allows
            raw = [x * target / math.fsum(draws) for x in draws]
            with pytest.raises(ValueError):
                ProbVector(tuple(raw))
            assert abs(math.fsum(ingest_probs(raw).values) - 1.0) <= 1e-9

    def test_own_output_kept(self):
        rng = random.Random(11)
        for _ in range(200):
            draws = [rng.random() for _ in range(rng.randint(2, 12))]
            target = 1.0 + rng.uniform(-9e-4, 9e-4)
            once = ingest_probs([x * target / math.fsum(draws) for x in draws])
            assert ingest_probs(once.values).values == once.values

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError, match=re.escape("probability -0.1 outside [0, 1.001]")):
            ingest_probs([0.5, -0.1])

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match=re.escape("probabilities sum to 0.0, expected 1 within 0.001")):
            ingest_probs([0.0, 0.0])

    def test_single_value_rejected(self):
        with pytest.raises(ValueError, match="probability vector needs >= 2 classes, got 1"):
            ingest_probs([1.0])

    def test_large_deviation_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            ingest_probs([0.4, 0.5])

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_fails_the_range_test(self, value):
        with pytest.raises(ValueError, match=re.escape(f"probability {value!r} outside [0, 1.001]")):
            ingest_probs([0.5, value])

    @pytest.mark.parametrize("value", [True, False, "0.5", None, [0.5]])
    def test_non_number_rejected(self, value):
        with pytest.raises(ValueError, match=re.escape(f"probability {value!r} is not a number")):
            ingest_probs([0.5, value])


def near(x: float):
    """x and the floats a few of its ulps either side."""
    return st.integers(-3, 3).map(lambda k: x + k * math.ulp(x))


@st.composite
def edge_rows(draw):
    """Rows of 2-6 values in [0, 1 + 2e-3] at the edges of the row rule.

    One value lies at 1, 1 + 1e-6 or 1 + 1e-3, give or take a few ulps, or
    anywhere in [0, 1]. The rest bring the sum to within a few ulps of 1,
    1 +- 1e-6 or 1 +- 1e-3, or anywhere in 1 +- 2e-3, where that value allows.
    """
    big = draw(st.one_of(near(1.0), near(1.0 + 1e-6), near(1.0 + 1e-3), st.floats(0.0, 1.0)))
    target = draw(st.one_of(*(near(1.0 + d) for d in (0.0, -1e-6, 1e-6, -1e-3, 1e-3)), st.floats(1 - 2e-3, 1 + 2e-3)))
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5))
    rest, scale = max(target - big, 0.0), math.fsum(weights) or 1.0
    others = [rest * w / scale for w in weights[:-1]]
    others.append(max(rest - math.fsum(others), 0.0))  # the sum lands within a few ulps of the target
    others.insert(draw(st.integers(0, len(others))), big)
    return others


class TestOneRowRule:
    @given(edge_rows())
    @example([0.369955, 0.630045, 1.0000000000287557e-06])  # exact sum within 1e-6 of 1, left-to-right sum not
    @example([1.0000005, 0.0])  # sum within 1e-6 of 1, a value above 1
    @example([1.0011, 0.0])  # rejected: outside [0, 1.001]
    @example([0.4, 0.5])  # rejected: sum to 0.9
    @example([1.0])  # rejected: needs >= 2 classes
    @settings(max_examples=1000, deadline=None, derandomize=True)
    def test_ingest_accepts_exactly_the_documented_rows(self, row):
        total = math.fsum(row)
        if len(row) < 2 or not (all(0.0 <= x <= 1.0 + 1e-3 for x in row) and abs(total - 1.0) <= 1e-3):
            # the file rule's own message, never ProbVector's [0, 1] one
            with pytest.raises(ValueError) as want:
                core._checked_sum(row, 1 + 1e-3, 1e-3)
            with pytest.raises(ValueError) as got:
                ingest_probs(row)
            assert str(got.value) == str(want.value)
            return
        kept = max(row) <= 1.0 and abs(total - 1.0) <= 1e-6
        want = row if kept else tuple(x / total for x in row)
        assert [x.hex() for x in ingest_probs(row).values] == [x.hex() for x in want]
        # ProbVector takes exactly the rows ingest_probs keeps as they stand
        if kept:
            assert ProbVector(tuple(row)).values == tuple(row)
        else:
            with pytest.raises(ValueError):
                ProbVector(tuple(row))


class TestProbVector:
    def test_rejects_short_vector(self):
        with pytest.raises(ValueError, match=">= 2"):
            ProbVector((1.0,))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            ProbVector((1.2, -0.2))


class TestTop2:
    def test_direct_readoff(self):
        assert top2([0.1, 0.7, 0.2]) == (1, 0.7, 0.2)

    def test_tie_breaks_lowest_index(self):
        assert top2([0.5, 0.5]) == (0, 0.5, 0.5)

    def test_second_best_scan(self):
        assert top2([0.25, 0.25, 0.3, 0.2]) == (2, 0.3, 0.25)

    def test_rejects_short_input(self):
        with pytest.raises(ValueError, match=">= 2"):
            top2([1.0])

    def test_agrees_with_sort_on_random_vectors(self):
        rng = random.Random(42)
        for _ in range(1000):
            vals = [rng.random() for _ in range(rng.randint(2, 40))]
            label, max1, max2 = top2(vals)
            ordered = sorted(vals, reverse=True)
            assert max1 == ordered[0]
            assert max2 == ordered[1]
            assert vals[label] == max1
            assert label == vals.index(max1)  # lowest index among ties

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=20))
    def test_ordering_invariant(self, vals):
        label, max1, max2 = top2(vals)
        assert max1 >= max2
        assert 0 <= label < len(vals)
        assert vals[label] == max1


@st.composite
def score_rows(draw):
    """Rows of 2-83 values in [0, 1], each of one shape.

    Random, with its maximum twice, all equal, with its maximum last, or
    0.0 and -0.0 around at most one positive value.
    """
    classes = draw(st.integers(2, 83))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.random((draw(st.integers(0, 12)), classes)) * 0.5
    for row in rows:
        shape = draw(st.sampled_from(["random", "max-twice", "all-equal", "max-last", "signed-zeros"]))
        if shape == "max-twice":
            row[rng.choice(classes, 2, replace=False)] = draw(st.sampled_from([0.5, 1.0]))
        elif shape == "all-equal":
            row[:] = draw(st.sampled_from([0.0, 1.0 / classes, 1.0]))
        elif shape == "max-last":
            row[-1] = 1.0
        elif shape == "signed-zeros":
            row[:] = rng.choice([0.0, -0.0], classes)
            row[rng.integers(classes)] = draw(st.sampled_from([0.0, -0.0, 0.5]))
    return rows


class TestTop2Rows:
    @given(score_rows())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_matches_top2_row_by_row_and_keeps_its_argument(self, rows):
        before = rows.copy()
        want = [(label, a.hex(), b.hex()) for label, a, b in map(top2, rows.tolist())]
        labels, top1s, top2s = top2_rows(rows)
        got = [(label, a.hex(), b.hex()) for label, a, b in zip(labels.tolist(), top1s.tolist(), top2s.tolist())]
        assert got == want
        # the argument is kept, and masked in place: each row's argmax, and it alone, is now -inf
        before[np.arange(len(before)), [label for label, *_ in want]] = -np.inf
        assert rows.tobytes() == before.tobytes()


class TestNoNumpy:
    def test_core_loads_without_numpy(self):
        """core.py, run from its own file in a fresh interpreter, imports no numpy."""
        script = (
            "import importlib.util, sys\n"
            "spec = importlib.util.spec_from_file_location('core', sys.argv[1])\n"
            "module = sys.modules['core'] = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(module)\n"
            "module.PipelineConfig(num_classes=2)\n"
            "print('numpy' in sys.modules)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script, core.__file__], capture_output=True, text=True, check=True
        )
        assert done.stdout == "False\n"
