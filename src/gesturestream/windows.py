"""Sliding-window scheduling: one window end frame per stride step.

No frame data is touched here. No window is emitted until a full classifier
window exists, so the first end frame is always classifier_window - 1. Both
streams are read at the window end.
"""

from __future__ import annotations

import logging
from typing import Iterator, NamedTuple

from .core import PipelineConfig

log = logging.getLogger(__name__)


class Window(NamedTuple):
    """One stride step of the schedule."""

    end: int  # the classifier window's last frame


def cursor_for(length: int, cfg: PipelineConfig) -> range:
    """End frames m-1, m-1+s, ... of the schedule over a stream, while they fit inside it."""
    return range(cfg.classifier_window - 1, length, cfg.stride)


def warn_if_empty(cursor: range, cfg: PipelineConfig) -> None:
    """Warn that a stream shorter than the classifier window schedules no windows, if the cursor is empty."""
    if not cursor:
        log.warning(
            "stream of %d frames is shorter than the classifier window (%d); no windows scheduled",
            cursor.stop,
            cfg.classifier_window,
        )


def advance(cursor: range, cfg: PipelineConfig) -> Iterator[Window]:
    """Yield one Window per end frame of the cursor.

    A stream shorter than the classifier window yields nothing (warm-up only).
    """
    warn_if_empty(cursor, cfg)
    for t in cursor:
        yield Window(t)


def window_count(length: int, cfg: PipelineConfig) -> int:
    """Number of stride steps the schedule yields for a stream."""
    return len(cursor_for(length, cfg))
