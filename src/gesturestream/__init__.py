"""Streaming two-stage gesture recognition over probability-score streams.

A lightweight detector stream gates a heavyweight classifier stream: detector
probabilities are smoothed and drive an Idle/Active hysteresis switch, the
classifier's scores are folded into a sigmoid-weighted running mean while the
switch is on, and each active period emits at most one recognition event,
either early (top-2 margin) or late (at deactivation). Event sequences are
scored against ground truth with Levenshtein accuracy.

The package root exports the documented API; every other name is imported
from its own module.
"""

from .activation import ActivationState, activation_step
from .core import PipelineConfig
from .evaluate import sweep
from .gate import GateState, gate_step
from .pipeline import fold_video, run_corpus, run_video
from .scoring import ScoreStream

__version__ = "0.1.0"
