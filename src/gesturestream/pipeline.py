"""End-to-end per-video runs: windowing -> detector -> gate -> classifier -> events.

Each video is processed strictly in stride order with no lookahead, modeling
a causal real-time system over logical frame time. The classifier stream is
consulted only while the gate holds the classifier active, which is the
pipeline's whole economy: idle stretches cost one detector lookup per window.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Optional

from .activation import ActivationEvent, ActivationState, activation_step, effective_midpoint, sigmoid_weight
from .core import GESTURE_INDEX, PipelineConfig, top2, validate_config
from .evaluate import AggregateStats, VideoScore, evaluate_corpus
from .gate import GateDecision, GateMode, GateState, gate_step
from .scoring import Corpus, ScoreStream
from .windows import advance, cursor_for

log = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
class TraceRow:
    """Per-window diagnostics mirroring the signals a live dashboard would plot."""

    t: int
    raw_prob: float
    filtered_prob: float
    mode: str
    j: int
    weight: float
    top_label: int
    top1: float
    top2: float


@dataclass(frozen=True, slots=True)
class RunTrace:
    """Everything one video run produced: events, counters, optional rows."""

    video_id: str
    events: tuple[ActivationEvent, ...]
    windows_processed: int
    classifier_invocations: int
    rows: tuple[TraceRow, ...] = ()


def run_video(
    detector: ScoreStream,
    classifier: ScoreStream,
    cfg: PipelineConfig,
    length: Optional[int] = None,
    collect_trace: bool = False,
) -> RunTrace:
    """Run the full pipeline over one video's score streams.

    The schedule is derived from the stream length (detector stream extent by
    default); a missing score entry for any scheduled window aborts with the
    offending frame. Trace rows are built only on request since full traces
    dwarf the event log.
    """
    validate_config(cfg)
    if length is None:
        length = detector.length
    gate = GateState.idle(cfg.filter_size)
    act = ActivationState.inactive(cfg.num_classes)
    t_mid = effective_midpoint(cfg)

    events: list[ActivationEvent] = []
    rows: list[TraceRow] = []
    windows = 0
    invocations = 0
    for window in advance(cursor_for(length, cfg), cfg):
        t = window.end
        raw = detector.score(t).values[GESTURE_INDEX]
        gate, decision, filtered = gate_step(gate, raw, cfg)
        if decision is GateDecision.ACTIVATE or decision is GateDecision.STAY_ACTIVE:
            invocations += 1
        act, event = activation_step(act, decision, classifier, window, cfg)
        if event is not None:
            events.append(event)
        windows += 1
        if collect_trace:
            j = act.mean.count
            if j > 0:
                label, top1, top2_val = top2(act.mean)
                weight = sigmoid_weight(j, t_mid, cfg.sigmoid_slope)
            else:
                label, top1, top2_val, weight = -1, 0.0, 0.0, 0.0
            rows.append(
                TraceRow(
                    t=t,
                    raw_prob=raw,
                    filtered_prob=filtered,
                    mode=gate.mode.value,
                    j=j,
                    weight=weight,
                    top_label=label,
                    top1=top1,
                    top2=top2_val,
                )
            )
    if gate.mode is GateMode.ACTIVE:
        log.debug("%s: stream ended while the gate was active; no event flushed", detector.video_id)
    return RunTrace(
        video_id=detector.video_id,
        events=tuple(events),
        windows_processed=windows,
        classifier_invocations=invocations,
        rows=tuple(rows),
    )


@dataclass(frozen=True, slots=True)
class VideoRun(VideoScore):
    """One video's evaluation against ground truth plus the trace it came from."""

    trace: RunTrace


@dataclass(frozen=True, slots=True)
class CorpusRun:
    """Per-video runs plus the aggregate report for one configuration."""

    videos: dict[str, VideoRun]
    skipped: tuple[str, ...]
    aggregate: AggregateStats


def run_corpus(
    corpus: Corpus,
    cfg: PipelineConfig,
    grace: Optional[int] = None,
    collect_trace: bool = False,
) -> CorpusRun:
    """Run and evaluate every annotated video in the corpus.

    Videos without annotations are skipped with a warning and listed in the
    result. The grace window for event/segment matching defaults to the
    classifier window, the span within which a late detection can still
    belong to the gesture that just ended.
    """
    validate_config(cfg)
    if grace is None:
        grace = cfg.classifier_window
    video_ids = corpus.video_ids()
    if not video_ids:
        raise ValueError("no videos in corpus")

    traces: dict[str, RunTrace] = {}
    skipped: list[str] = []
    for video_id in video_ids:
        segments = corpus.segments.get(video_id)
        if not segments:
            log.warning("skipping %s: no annotations", video_id)
            skipped.append(video_id)
            continue
        if video_id not in corpus.classifier:
            raise ValueError(f"no classifier stream for {video_id}")
        traces[video_id] = run_video(
            corpus.detector[video_id], corpus.classifier[video_id], cfg, collect_trace=collect_trace
        )
    if not traces:
        raise ValueError("no videos with annotations to evaluate")

    scores, aggregate = evaluate_corpus(
        {v: trace.events for v, trace in traces.items()},
        {v: corpus.segments[v] for v in traces},
        grace,
    )
    runs = {v: VideoRun(s.events, s.result, s.matches, s.early, traces[v]) for v, s in scores.items()}
    aggregate = replace(
        aggregate,
        windows_processed=sum(t.windows_processed for t in traces.values()),
        classifier_invocations=sum(t.classifier_invocations for t in traces.values()),
    )
    return CorpusRun(videos=runs, skipped=tuple(skipped), aggregate=aggregate)
