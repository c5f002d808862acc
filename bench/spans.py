"""In-memory span recorder for the traced benchmark run.

Spans are taken from outside the package. The benchmark opens one root span
per operation, and `install` wraps each function in BOUNDARIES, in every
gesturestream module namespace that refers to it, so calls the CLI and the
library make into those functions are recorded with their real nesting.
The per-window calls of the online replay are recorded by the replay itself
through `Tracer.leaf`, because wrapping them everywhere would also trace the
nine engine reruns of a sweep.

A span is a tuple (parent, op, name, start, end); its id is its index in
`Tracer.spans` and an operation's root span has parent -1.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from gesturestream.cli import DETECTOR_FILE

PACKAGE = "gesturestream"


def _load_stream_name(args, kwargs) -> str:
    path = args[0] if args else kwargs.get("path", "")
    if Path(path).name == DETECTOR_FILE:
        return "scoring.load_detector"
    return "scoring.load_classifier"


# (module, public function, span name or a function of the call's arguments).
# A later change that renames one of these functions must update this table;
# `install` reports every entry it cannot find.
BOUNDARIES = (
    ("scoring", "generate_synthetic", "scoring.generate"),
    ("scoring", "write_score_file", "scoring.write"),
    ("scoring", "write_annotation_file", "scoring.write"),
    ("scoring", "load_corpus", "scoring.load_corpus"),
    ("scoring", "load_score_stream", _load_stream_name),
    ("scoring", "load_annotations", "scoring.load_annotations"),
    ("pipeline", "run_corpus", "pipeline.run_corpus"),
    ("pipeline", "run_video", "pipeline.run_video"),
    ("evaluate", "sweep", "evaluate.sweep"),
    ("evaluate", "evaluate_video", "evaluate.evaluate_video"),
    ("evaluate", "levenshtein_distance", "evaluate.levenshtein"),
    ("evaluate", "match_activations", "evaluate.match"),
    ("cli", "write_events_file", "cli.write_events"),
    ("cli", "build_run_report", "cli.build_report"),
    ("cli", "build_eval_report", "cli.build_report"),
    ("cli", "load_events_file", "cli.load_events"),
)


class Tracer:
    """Spans of one benchmark run, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list = []
        self.ops: list[tuple[str, int]] = []  # (operation name, root span id)
        self.observed: list[tuple[int, str, object]] = []  # (op, span name, summary)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        op = len(self.ops) - 1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (parent, op, name, start, end)

    @contextmanager
    def op(self, name: str):
        """Root span of one benchmark operation; every span inside belongs to it."""
        if self._stack:
            raise RuntimeError(f"operation {name!r} opened inside another span")
        self.ops.append((name, len(self.spans)))
        with self.span(f"bench.{name}"):
            yield

    def leaf(self, name: str, start: float, end: float) -> None:
        """Record a span the caller timed itself, under the current span."""
        self.spans.append((self._stack[-1], len(self.ops) - 1, name, start, end))

    def wrap(self, name, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            with self.span(label):
                result = fn(*args, **kwargs)
            if observe is not None:
                self.observed.append((len(self.ops) - 1, label, observe(args, kwargs, result)))
            return result

        return traced


def install(tracer: Tracer, observe=None) -> tuple[list, list[str]]:
    """Wrap every BOUNDARIES function wherever the package refers to it.

    Returns the patches to undo with `uninstall` and the table entries that
    were not found. `observe` maps a "module.function" to a function of
    (args, kwargs, result) whose small summary of each call is kept in
    `tracer.observed`; summaries, not arguments, so no corpus stays alive.
    """
    observe = observe or {}
    modules = [m for n, m in sorted(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
    patches: list = []
    missing: list[str] = []
    for module_name, fn_name, name in BOUNDARIES:
        original = getattr(importlib.import_module(f"{PACKAGE}.{module_name}"), fn_name, None)
        if original is None:
            missing.append(f"{module_name}.{fn_name}")
            continue
        wrapper = tracer.wrap(name, original, observe.get(f"{module_name}.{fn_name}"))
        for module in modules:
            if module.__dict__.get(fn_name) is original:
                patches.append((module, fn_name, original))
                setattr(module, fn_name, wrapper)
    return patches, missing


def uninstall(patches: list) -> None:
    for module, fn_name, original in reversed(patches):
        setattr(module, fn_name, original)


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans nest strictly (one thread, stack discipline), so the children of a
    span never overlap and their durations can simply be subtracted.
    """
    own = [end - start for _, _, _, start, end in spans]
    for parent, _, _, start, end in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def check_self_times_add_up(tracer: Tracer, own: list[float]) -> None:
    """The self times of an operation's spans must sum to its root's wall time."""
    total = [0.0] * len(tracer.ops)
    for (_, op, _, _, _), t in zip(tracer.spans, own):
        total[op] += t
    for (name, root), summed in zip(tracer.ops, total):
        _, _, _, start, end = tracer.spans[root]
        wall = end - start
        if abs(summed - wall) > 1e-6 * max(1.0, wall):
            raise RuntimeError(f"{name}: self times sum to {summed!r}s, wall time is {wall!r}s")


def write_spans(path: Path, tracer: Tracer, own: list[float]) -> None:
    """Write every span as a TSV row: id, parent, op id, op name, name, start, end, self."""
    t0 = tracer.spans[0][3] if tracer.spans else 0.0
    lines = ["id\tparent\top\top_name\tname\tstart_s\tend_s\tself_s\n"]
    for idx, ((parent, op, name, start, end), t) in enumerate(zip(tracer.spans, own)):
        lines.append(
            f"{idx}\t{parent}\t{op}\t{tracer.ops[op][0]}\t{name}\t{start - t0:.9f}\t{end - t0:.9f}\t{t:.9f}\n"
        )
    path.write_text("".join(lines), encoding="utf-8")
