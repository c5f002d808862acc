"""Streaming two-stage gesture recognition over probability-score streams.

A lightweight detector stream gates a heavyweight classifier stream: detector
probabilities are smoothed and drive an Idle/Active hysteresis switch, the
classifier's scores are folded into a sigmoid-weighted running mean while the
switch is on, and each active period emits at most one recognition event,
either early (top-2 margin) or late (at deactivation). Event sequences are
scored against ground truth with Levenshtein accuracy.
"""

from .activation import (
    ActivationEvent,
    ActivationState,
    EventKind,
    activation_step,
    finalize_late,
    midpoint,
    sigmoid_weight,
    try_early,
    update_mean,
)
from .core import (
    ConfigError,
    FilterKind,
    GestureLabel,
    PipelineConfig,
    ProbVector,
    WeightedMean,
    ingest_probs,
    normalize,
    top2,
    validate_config,
)
from .evaluate import (
    AggregateStats,
    EarlyStats,
    Match,
    MatchReport,
    SweepRow,
    VideoResult,
    VideoScore,
    early_detection_stats,
    evaluate_corpus,
    evaluate_video,
    levenshtein_accuracy,
    levenshtein_distance,
    match_activations,
    sweep,
)
from .gate import (
    FilterQueue,
    GateDecision,
    GateMode,
    GateState,
    apply_filter,
    ewa_weights,
    gate_step,
)
from .pipeline import CorpusRun, RunTrace, TraceRow, VideoRun, run_corpus, run_video
from .scoring import (
    Corpus,
    GroundTruthSegment,
    ScoreStream,
    StreamFormatError,
    SynthConfig,
    SynthesisError,
    generate_synthetic,
    load_annotations,
    load_corpus,
    load_score_stream,
    validate_synth_config,
    write_annotation_file,
    write_score_file,
)
from .windows import Window, advance, cursor_for, window_count

__version__ = "0.1.0"
