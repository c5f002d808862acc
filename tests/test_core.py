import math
import random
import re

import pytest
from hypothesis import given, strategies as st

from gesturestream.core import (
    ConfigError,
    PipelineConfig,
    ProbVector,
    WeightedMean,
    ingest_probs,
    normalize,
    top2,
    validate_config,
)


class TestValidateConfig:
    def test_accepts_default_operating_point(self):
        cfg = PipelineConfig(num_classes=83)
        assert validate_config(cfg) is cfg
        assert cfg.classifier_window == 32
        assert cfg.stride == 1
        assert cfg.filter_size == 4

    def test_all_violations_reported_together(self):
        bad = PipelineConfig(
            num_classes=1, classifier_window=0, stride=0, filter_size=0, tau_late=1.5
        )
        with pytest.raises(ConfigError) as exc:
            validate_config(bad)
        message = str(exc.value)
        for fragment in ("classifier_window", "stride", "filter_size", "num_classes", "tau_late"):
            assert fragment in message

    @pytest.mark.parametrize("field,value", [
        ("gate_on_threshold", -0.1),
        ("gate_on_threshold", 1.1),
        ("tau_early", 2.0),
        ("mean_duration", 0.0),
        ("deactivate_count", 0),
        ("sigmoid_slope", 0.0),
    ])
    def test_single_field_violations(self, field, value):
        cfg = PipelineConfig(**{"num_classes": 10, field: value})
        with pytest.raises(ConfigError, match=field):
            validate_config(cfg)


class TestNormalize:
    def test_symmetric_pair(self):
        assert normalize([2, 2]).values == (0.5, 0.5)

    def test_identity_one_hot(self):
        assert normalize([1, 0, 0]).values == (1.0, 0.0, 0.0)

    def test_proportions(self):
        assert normalize([1, 3]).values == (0.25, 0.75)

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError, match="all-zero"):
            normalize([0.0, 0.0])

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            normalize([0.5, -0.1])

    def test_output_sums_to_one(self):
        rng = random.Random(7)
        for _ in range(200):
            raw = [rng.random() * 10 for _ in range(rng.randint(2, 30))]
            assert abs(math.fsum(normalize(raw).values) - 1.0) <= 1e-9

    def test_idempotent(self):
        rng = random.Random(11)
        for _ in range(200):
            raw = [rng.random() for _ in range(rng.randint(2, 12))]
            once = normalize(raw)
            twice = normalize(once.values)
            assert all(abs(a - b) <= 1e-12 for a, b in zip(once.values, twice.values))

    def test_positive_scaling_invariant(self):
        rng = random.Random(13)
        for _ in range(200):
            raw = [rng.random() for _ in range(rng.randint(2, 12))]
            scale = rng.uniform(1e-6, 1e6)
            plain = normalize(raw)
            scaled = normalize([scale * x for x in raw])
            assert all(abs(a - b) <= 1e-12 for a, b in zip(plain.values, scaled.values))


class TestIngestProbs:
    def test_exact_vector_kept(self):
        assert ingest_probs([0.1, 0.9]).values == (0.1, 0.9)

    def test_small_slack_renormalized(self):
        vec = ingest_probs([0.4995, 0.5])  # sums to 0.9995
        assert abs(math.fsum(vec.values) - 1.0) <= 1e-9

    def test_large_deviation_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            ingest_probs([0.4, 0.5])

    @pytest.mark.parametrize("value", [True, False, "0.5", None, [0.5]])
    def test_non_number_rejected(self, value):
        with pytest.raises(ValueError, match=re.escape(f"probability {value!r} is not a number")):
            ingest_probs([0.5, value])


class TestProbVector:
    def test_rejects_short_vector(self):
        with pytest.raises(ValueError, match=">= 2"):
            ProbVector((1.0,))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            ProbVector((1.2, -0.2))

    def test_sequence_protocol(self):
        vec = ProbVector((0.25, 0.75))
        assert len(vec) == 2
        assert vec[1] == 0.75
        assert list(vec) == [0.25, 0.75]


class TestWeightedMean:
    def test_zeros_constructor(self):
        mean = WeightedMean.zeros(5)
        assert mean.count == 0
        assert mean.values == (0.0,) * 5

    def test_zero_count_requires_zero_values(self):
        with pytest.raises(ValueError, match="all zeros"):
            WeightedMean(values=(0.1, 0.0), count=0)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            WeightedMean(values=(0.0, 0.0), count=-1)


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

    def test_accepts_wrapped_types(self):
        assert top2(ProbVector((0.2, 0.8))) == (1, 0.8, 0.2)
        assert top2(WeightedMean((0.3, 0.1), count=2)) == (0, 0.3, 0.1)

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
