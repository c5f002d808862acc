import random

from gesturestream.core import PipelineConfig
from gesturestream.windows import advance, cursor_for, window_count

CFG = PipelineConfig(num_classes=10)  # m=32, s=1


def ends(length, cfg):
    return [w.end for w in advance(cursor_for(length, cfg), cfg)]


class TestAdvance:
    def test_three_trailing_frames(self):
        assert ends(34, CFG) == [31, 32, 33]

    def test_single_window(self):
        assert ends(32, CFG) == [31]

    def test_stride_four(self):
        cfg = PipelineConfig(num_classes=10, stride=4)
        got = ends(100, cfg)
        assert len(got) == 18  # floor((100-32)/4) + 1
        assert got == list(range(31, 100, 4))

    def test_short_stream_yields_nothing(self, caplog):
        with caplog.at_level("WARNING"):
            assert ends(31, CFG) == []
        assert "shorter than the classifier window" in caplog.text

    def test_window_count_formula(self):
        rng = random.Random(5)
        for _ in range(300):
            m = rng.randint(2, 64)
            s = rng.randint(1, 8)
            length = rng.randint(0, 400)
            cfg = PipelineConfig(num_classes=10, classifier_window=m, stride=s)
            got = ends(length, cfg)
            if length >= m:
                assert len(got) == (length - m) // s + 1
            else:
                assert got == []
            assert len(got) == window_count(length, cfg)

    def test_all_frames_in_stream(self):
        rng = random.Random(9)
        for _ in range(100):
            m = rng.randint(2, 48)
            s = rng.randint(1, 5)
            length = rng.randint(m, 300)
            cfg = PipelineConfig(num_classes=10, classifier_window=m, stride=s)
            for t in ends(length, cfg):
                assert m - 1 <= t < length
