"""Command-line harness: generate corpora, run the pipeline, evaluate, sweep.

Every command is a pure function of its input files, flags, and seed, and all
output files are written atomically (write-then-rename), so repeated
invocations produce byte-identical artifacts. Reports are machine-readable
JSON/CSV; a short human summary goes to stderr.

Exit codes: 0 success, 1 validation error, 2 I/O error, 3 internal error.
"""

from __future__ import annotations

import argparse
import enum
import json
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path
from typing import Mapping, Optional, Sequence, get_type_hints

from .activation import ActivationEvent, EventKind
from .core import ConfigError, PipelineConfig, validate_config
from .evaluate import AggregateStats, EarlyStats, VideoScore, check_taus, evaluate_corpus, sweep
from .pipeline import CorpusRun, FoldedVideo, run_corpus
from .scoring import (
    Corpus,
    StreamFormatError,
    SynthConfig,
    _require_field,
    generate_synthetic,
    iter_records,
    load_annotations,
    load_corpus,
    validate_synth_config,
    write_annotation_file,
    write_score_file,
)

DETECTOR_FILE = "detector_scores.jsonl"
CLASSIFIER_FILE = "classifier_scores.jsonl"
ANNOTATION_FILE = "annotations.jsonl"
MANIFEST_FILE = "manifest.json"
EVENTS_FILE = "events.jsonl"
REPORT_FILE = "report.json"
SWEEP_FILE = "sweep.csv"

DEFAULT_TAUS = tuple(i / 10 for i in range(2, 11))  # 0.2 .. 1.0 in 0.1 steps
DEFAULT_GRACE = 32


def _parse_fractions(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(","))


def _coercers(config_cls) -> dict:
    """Each field of a config dataclass mapped to the callable that parses its text value.

    A field's type is its parser, apart from the comma-separated phase_fractions.
    """
    hints = get_type_hints(config_cls)
    return {
        f.name: _parse_fractions if f.name == "phase_fractions" else hints[f.name]
        for f in fields(config_cls)
    }


_PIPELINE_COERCERS = _coercers(PipelineConfig)
_SYNTH_COERCERS = _coercers(SynthConfig)


def parse_flat_config(path) -> dict[str, str]:
    """Read a flat `key = value` config file; # starts a comment."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def _coerced_overrides(args, coercers, config_path) -> dict:
    """Merge config-file values and CLI flags (flags win) into typed overrides."""
    overrides: dict = {}
    if config_path:
        for key, text in parse_flat_config(config_path).items():
            if key not in coercers:
                raise ConfigError(f"{config_path}: unknown config key {key!r}")
            try:
                overrides[key] = coercers[key](text)
            except (TypeError, ValueError):
                raise ConfigError(f"{config_path}: bad value for {key}: {text!r}") from None
    for key in coercers:
        flag = getattr(args, key, None)
        if flag is not None:
            overrides[key] = flag
    return overrides


def _build_synth_config(args) -> SynthConfig:
    overrides = _coerced_overrides(args, _SYNTH_COERCERS, args.config)
    return validate_synth_config(SynthConfig(**overrides))


def _build_pipeline_config(args, inferred_classes: int) -> PipelineConfig:
    overrides = _coerced_overrides(args, _PIPELINE_COERCERS, args.config)
    declared = overrides.pop("num_classes", None)
    if declared is not None and declared != inferred_classes:
        raise ConfigError(
            f"num_classes {declared} does not match classifier stream arity {inferred_classes}"
        )
    return validate_config(PipelineConfig(num_classes=inferred_classes, **overrides))


def _atomic_write_with(path: Path, writer):
    """Run a path-taking writer against a temp file, then rename into place.

    The temp file sits beside `path` under a name no other writer uses, so
    concurrent runs into one directory never share it, and it is removed
    when the writer or the rename fails.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(8).hex()}.tmp")
    try:
        result = writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return result


def _atomic_write_text(path: Path, text: str) -> None:
    _atomic_write_with(path, lambda tmp: tmp.write_text(text, encoding="utf-8"))


def _say(message: str) -> None:
    print(message, file=sys.stderr)


def write_events_file(path, run: CorpusRun) -> int:
    """Persist emitted events as line-delimited video/class/frame/kind/score records."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for video_id in sorted(run.videos):
            for event in run.videos[video_id].trace.events:
                record = {
                    "video": video_id,
                    "class": event.label,
                    "frame": event.emit_frame,
                    "kind": event.kind.value,
                    "score": event.margin_or_score,
                }
                fh.write(json.dumps(record) + "\n")
                count += 1
    return count


def load_events_file(path) -> dict[str, list[ActivationEvent]]:
    """Load an events file back into per-video event lists."""
    per_video: dict[str, list[ActivationEvent]] = {}
    for where, record in iter_records(path):
        video = _require_field(record, "video", str, where)
        label = _require_field(record, "class", int, where)
        frame = _require_field(record, "frame", int, where)
        kind = _require_field(record, "kind", str, where)
        score = _require_field(record, "score", (int, float), where)
        if label < 0 or frame < 0:
            raise StreamFormatError(f"{where}: class and frame must be >= 0")
        try:
            event = ActivationEvent(label, frame, EventKind(kind), float(score))
        except (ValueError, OverflowError) as exc:
            raise StreamFormatError(f"{where}: bad event record ({exc})") from None
        per_video.setdefault(video, []).append(event)
    return per_video


def _early_dict(early: Optional[EarlyStats]):
    if early is None:
        return None
    return {"mean": early.mean, "median": early.median, "count": early.count}


def _scores_report(scores: Mapping[str, VideoScore], agg: AggregateStats) -> dict:
    """Per-video records and the aggregate block that run and eval reports share."""
    videos = [
        {
            "video": video_id,
            "gt": list(score.result.gt_labels),
            "pred": list(score.result.pred_labels),
            "distance": score.result.distance,
            "accuracy": score.result.accuracy,
            "events": {
                "early": sum(1 for e in score.events if e.kind is EventKind.EARLY),
                "late": sum(1 for e in score.events if e.kind is EventKind.LATE),
            },
            "matched": len(score.matches.matches),
            "correct": len(score.matches.correct_matches),
            "duplicates": len(score.matches.duplicates),
            "unmatched_events": len(score.matches.unmatched_events),
            "missed_segments": len(score.matches.missed_segments),
            "early_frames": _early_dict(score.early),
        }
        for video_id, score in scores.items()
    ]
    return {
        "grace": agg.grace,
        "aggregate": {
            "videos": agg.video_count,
            "mean_levenshtein_accuracy": agg.mean_accuracy,
            "events": {"early": agg.events_early, "late": agg.events_late},
            "matched": agg.matched,
            "duplicates": agg.duplicates,
            "unmatched_events": agg.unmatched_events,
            "missed_segments": agg.missed_segments,
            "early_frames": _early_dict(agg.early),
        },
        "negative_accuracy_videos": [
            v["video"] for v in videos if v["accuracy"] is not None and v["accuracy"] < 0
        ],
        "videos": videos,
    }


def build_run_report(run: CorpusRun, cfg: PipelineConfig) -> dict:
    """Serialize a corpus run into the stable report layout."""
    report = _scores_report(run.videos, run.aggregate)
    report["config"] = asdict(cfg)
    report["aggregate"]["windows_processed"] = run.aggregate.windows_processed
    report["aggregate"]["classifier_invocations"] = run.aggregate.classifier_invocations
    report["aggregate"]["open_at_end"] = run.aggregate.open_at_end
    report["skipped_missing_annotations"] = list(run.skipped)
    return report


def build_eval_report(events_by_video, segments_by_video, grace: int) -> dict:
    """Re-score stored events against annotations, without rerunning the pipeline."""
    report = _scores_report(*evaluate_corpus(events_by_video, segments_by_video, grace))
    report["unknown_videos"] = sorted(set(events_by_video) - set(segments_by_video))
    return report


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def trace_tsv(folded: FoldedVideo) -> str:
    """One video's trace: a header, then one tab-separated line per window.

    Idle windows carry j = 0, weight 0.0, top_label -1 and top-1/top-2 of 0.0.
    """
    js = [0] * len(folded.ends)
    for first, stop in folded.periods:
        js[first:stop] = range(1, stop - first + 1)
    weights = folded.weights
    columns = zip(folded.ends, folded.raws, folded.filtered, js, folded.labels, folded.top1s, folded.top2s)
    return "t\traw_prob\tfiltered_prob\tmode\tj\tweight\ttop_label\ttop1\ttop2\n" + "".join(
        f"{t}\t{raw!r}\t{filtered!r}\t{'active' if j else 'idle'}\t{j}\t{weights[j]!r}\t{label}\t{top1!r}\t{top2!r}\n"
        for t, raw, filtered, j, label, top1, top2 in columns
    )


def _write_trace_files(out_dir: Path, run: CorpusRun) -> None:
    trace_dir = out_dir / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    for video_id in sorted(run.videos):
        _atomic_write_text(trace_dir / f"{video_id}.tsv", trace_tsv(run.videos[video_id].trace.folded))


def _format_sweep_csv(aggregates: Mapping[float, AggregateStats]) -> str:
    def num(x) -> str:
        return "" if x is None else f"{x:.6f}"

    lines = ["tau_early,levenshtein_accuracy,mean_early_frames,median_early_frames,matched,duplicates,misses\n"]
    for tau, agg in aggregates.items():
        mean, median = (agg.early.mean, agg.early.median) if agg.early else (None, None)
        lines.append(
            f"{tau:g},{num(agg.mean_accuracy)},{num(mean)},{num(median)},"
            f"{agg.matched},{agg.duplicates},{agg.missed_segments}\n"
        )
    return "".join(lines)


def _load_data_dir(data: str) -> Corpus:
    base = Path(data)
    return load_corpus(base / DETECTOR_FILE, base / CLASSIFIER_FILE, base / ANNOTATION_FILE)


def _classifier_arity(corpus: Corpus) -> int:
    first = next(iter(sorted(corpus.classifier)))
    return corpus.classifier[first].arity


def cmd_gen(args) -> int:
    cfg = _build_synth_config(args)
    corpus = generate_synthetic(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    counts = {
        "detector": _atomic_write_with(out / DETECTOR_FILE, lambda p: write_score_file(p, corpus.detector)),
        "classifier": _atomic_write_with(out / CLASSIFIER_FILE, lambda p: write_score_file(p, corpus.classifier)),
        "annotations": _atomic_write_with(out / ANNOTATION_FILE, lambda p: write_annotation_file(p, corpus.segments)),
    }
    manifest = {
        "format": "gesturestream-corpus/1",
        "synth_config": asdict(cfg),
        "files": {
            "detector": DETECTOR_FILE,
            "classifier": CLASSIFIER_FILE,
            "annotations": ANNOTATION_FILE,
        },
        "videos": corpus.video_ids(),
        "entry_counts": counts,
    }
    _atomic_write_text(out / MANIFEST_FILE, _dump_json(manifest))
    _say(
        f"gen: {cfg.num_videos} videos x {cfg.gestures_per_video} gestures "
        f"(C={cfg.num_classes}, seed={cfg.seed}) -> {out}"
    )
    return 0


def cmd_run(args) -> int:
    corpus = _load_data_dir(args.data)
    cfg = _build_pipeline_config(args, _classifier_arity(corpus))
    run = run_corpus(corpus, cfg, grace=args.grace)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _atomic_write_with(out / EVENTS_FILE, lambda p: write_events_file(p, run))
    report = build_run_report(run, cfg)
    _atomic_write_text(out / REPORT_FILE, _dump_json(report))
    if args.trace:
        _write_trace_files(out, run)
    agg = run.aggregate
    acc = "n/a" if agg.mean_accuracy is None else f"{agg.mean_accuracy:.2f}%"
    _say(
        f"run: {agg.video_count} videos, accuracy {acc}, "
        f"events {agg.events_early} early / {agg.events_late} late, "
        f"classifier active {agg.classifier_invocations}/{agg.windows_processed} windows -> {out}"
    )
    return 0


def cmd_eval(args) -> int:
    events = load_events_file(args.events)
    segments = load_annotations(args.annotations)
    report = build_eval_report(events, segments, args.grace)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _atomic_write_text(out / REPORT_FILE, _dump_json(report))
    agg = report["aggregate"]
    acc = "n/a" if agg["mean_levenshtein_accuracy"] is None else f"{agg['mean_levenshtein_accuracy']:.2f}%"
    _say(f"eval: {agg['videos']} videos, accuracy {acc} -> {out / REPORT_FILE}")
    if report["unknown_videos"]:
        _say(f"eval: events reference unannotated videos: {', '.join(report['unknown_videos'])}")
    return 0


def cmd_sweep(args) -> int:
    taus = list(args.taus) if args.taus else list(DEFAULT_TAUS)
    check_taus(taus)
    corpus = _load_data_dir(args.data)
    cfg = _build_pipeline_config(args, _classifier_arity(corpus))
    aggregates = sweep(corpus, cfg, taus)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _atomic_write_text(out / SWEEP_FILE, _format_sweep_csv(aggregates))

    def brief(tau: float) -> str:
        agg = aggregates[tau]
        acc = "n/a" if agg.mean_accuracy is None else f"{agg.mean_accuracy:.2f}%"
        early = "n/a" if agg.early is None else f"{agg.early.mean:.1f}"
        return f"tau={tau:g}: accuracy {acc}, mean early {early} frames"

    _say(f"sweep: {len(aggregates)} thresholds -> {out / SWEEP_FILE}")
    _say(f"sweep: {brief(taus[0])}  |  {brief(taus[-1])}")
    _say("sweep: higher thresholds trade earliness for accuracy")
    return 0


def _add_config_flags(parser, coercers) -> None:
    """Add --config plus one --field-name flag per config field."""
    parser.add_argument("--config", help="flat key = value config file; flags take precedence")
    for name, coerce in coercers.items():
        flag = "--" + name.replace("_", "-")
        names = ("--videos", flag) if name == "num_videos" else (flag,)
        choices = [member.value for member in coerce] if isinstance(coerce, enum.EnumMeta) else None
        parser.add_argument(*names, dest=name, type=coerce, choices=choices)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gesturestream",
        description="Streaming two-stage gesture recognition over probability-score streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a seeded synthetic corpus")
    gen.add_argument("--out", required=True, help="output directory")
    _add_config_flags(gen, _SYNTH_COERCERS)
    gen.set_defaults(func=cmd_gen)

    run = sub.add_parser("run", help="run the pipeline over a corpus and evaluate")
    run.add_argument("--data", required=True, help="directory holding a generated/loaded corpus")
    run.add_argument("--out", required=True)
    _add_config_flags(run, _PIPELINE_COERCERS)
    run.add_argument("--grace", type=int, default=None, help="event matching grace (frames)")
    run.add_argument("--trace", action="store_true", help="also write per-video trace files")
    run.set_defaults(func=cmd_run)

    ev = sub.add_parser("eval", help="re-score a stored events file against annotations")
    ev.add_argument("--events", required=True)
    ev.add_argument("--annotations", required=True)
    ev.add_argument("--out", required=True)
    ev.add_argument("--grace", type=int, default=DEFAULT_GRACE)
    ev.set_defaults(func=cmd_eval)

    sw = sub.add_parser("sweep", help="gate and fold once, then tabulate the tradeoff across early thresholds")
    sw.add_argument("--data", required=True)
    sw.add_argument("--out", required=True)
    _add_config_flags(sw, _PIPELINE_COERCERS)
    sw.add_argument("--taus", nargs="+", type=float, help="early thresholds to sweep")
    sw.set_defaults(func=cmd_sweep)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors; remap to validation
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except ValueError as exc:
        _say(f"error: {exc}")
        return 1
    except OSError as exc:
        _say(f"i/o error: {exc}")
        return 2
    except Exception as exc:  # internal invariant violation
        _say(f"internal error: {exc!r}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
