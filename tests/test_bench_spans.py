"""The benchmark's tracer must still find every package function it wraps.

A renamed function would silently drop out of the benchmark's per-layer
metrics; this test names it instead.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_traced_boundary_exists():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    patches, missing = spans.install(spans.Tracer())
    try:
        assert missing == []
        assert patches
    finally:
        spans.uninstall(patches)
