"""Workloads and the operations one benchmark run performs on them.

Every workload is replayed in one process and one thread as a closed loop
over logical frame time: each window is processed only after the previous
one finished, and each operation starts after the previous one ended. The
program sees only the corpus files that `gen` writes from the seed.

One cycle of operations is: CLI `gen` again from the seed, an online-API
replay, library replays, CLI `run`, CLI `eval` and CLI `sweep`. Cycles
repeat until the run's seconds are used up; every timing is a median over
all its samples in the run, so the corpora are kept small enough for many
cycles: on a shared machine single samples scatter by 20% and more.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from gesturestream import cli
from gesturestream.activation import ActivationState, activation_step
from gesturestream.core import GESTURE_INDEX, PipelineConfig, ingest_probs
from gesturestream.gate import GateDecision, GateMode, GateState, gate_step
from gesturestream.pipeline import run_corpus
from gesturestream.scoring import load_corpus
from gesturestream.windows import advance, cursor_for, window_count

import checks
from checks import CheckFailed
from spans import Tracer, install, uninstall

# Short operations repeat within a cycle so that their medians rest on more samples.
EVAL_REPEATS = 5
LIBRARY_REPEATS = 2
SWEEP_EARLY_TAU = 0.2  # the most eager default threshold; early_frames_mean is read from its row
PROBE_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Workload:
    """A seeded synthetic corpus shape plus how its run is invoked."""

    name: str
    why: str
    videos: int
    gestures: int
    classes: int
    duration: tuple[float, float]  # mean, spread in frames
    gap: tuple[float, float]
    trace_files: bool = False  # pass --trace to CLI run

    def gen_argv(self, seed: int, out: Path) -> list[str]:
        return [
            "gen", "--out", str(out), "--seed", str(seed),
            "--videos", str(self.videos), "--gestures-per-video", str(self.gestures),
            "--num-classes", str(self.classes),
            "--duration-mean", str(self.duration[0]), "--duration-spread", str(self.duration[1]),
            "--gap-mean", str(self.gap[0]), "--gap-spread", str(self.gap[1]),
            "--noise-sigma", "0.05", "--prep-ambiguity", "0.5",
        ]


# Video counts are scaled down from the shapes they are named after so that a
# run fits its time budget; class count, active fraction and gestures per
# video are kept, because those decide which layers do the work.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "idle-c10",
            "criterion-9 shape: ~32% of windows reach the classifier, so the idle gate and window loop dominate",
            videos=6, gestures=10, classes=10, duration=(30.0, 3.0), gap=(70.0, 7.0),
        ),
        Workload(
            "active-c83",
            "EgoGesture's 83 classes, ~74% of windows active: the 83-wide fold and parsing 83-float lines dominate",
            videos=3, gestures=10, classes=83, duration=(90.0, 8.0), gap=(36.0, 3.0),
        ),
        Workload(
            "sweep-c12",
            "criterion-7 shape at 40 gestures per video: early events fire up to tau 0.5, run writes traces",
            videos=2, gestures=40, classes=12, duration=(38.4, 6.0), gap=(48.0, 12.0),
            trace_files=True,
        ),
    )
}


def corpus_sha256(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def tree_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def event_tuples(events) -> list[tuple[int, int, str, float]]:
    return [(e.label, e.emit_frame, e.kind.value, e.margin_or_score) for e in events]


class Ledger:
    """Counts attempted and failed operations; a failure never stops the run."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []

    def attempt(self, op: str, fn):
        self.attempted += 1
        try:
            return fn()
        except CheckFailed as exc:
            self.failures.append(f"{self.workload}/{op}: {exc}")
        except Exception:  # an operation that crashes is a failed operation, not a dead run
            self.failures.append(f"{self.workload}/{op}: {traceback.format_exc(limit=4)}")
        return None


class Replay:
    """State and operations of one benchmark run of one workload."""

    def __init__(self, workload: Workload, seed: int, work: Path, src: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.src = src
        self.corpus_dir = work / "corpus"
        self.cfg = PipelineConfig(num_classes=workload.classes)
        self.ledger = Ledger(workload.name)
        self.trace_log = Tracer()
        self.tracer: Tracer | None = None  # trace_log while a traced cycle runs
        self.missing_boundaries: list[str] = []
        self.samples: dict[str, list[float]] = {}  # untraced operation timings
        self.window_s: list[list[float]] = []  # per online replay, each window's gate_step + activation_step time
        self.cycle_s: dict[bool, list[float]] = {False: [], True: []}  # summed op times per cycle
        self._cycle_s = 0.0
        self.traced_cycles: list[range] = []  # op ids of each traced cycle
        self.corpus = None
        self.corpus_sha = ""
        self.corpus_records = 0  # records in the three corpus files, read by one load
        self.corpus_bytes = 0
        self.reference = None  # events of the first online replay
        self.online_counts: dict[str, int] = {}
        self.run_report = None
        self.run_events = b""
        self.run_bytes = 0
        self.eval_report = None
        self.library_invocations_per_window = 0.0
        self.sweep_early_frames = None
        self.ingest_calls = 0
        self.peak_rss_mb = None

    # -- plumbing ---------------------------------------------------------

    def _timed(self, name: str, fn):
        """Run fn as one operation: under its root span when tracing."""
        gc.collect()
        scope = self.tracer.op(name) if self.tracer else contextlib.nullcontext()
        with scope:
            t0 = time.perf_counter()
            result = fn()
            elapsed = time.perf_counter() - t0
        if self.tracer is None:
            self.samples.setdefault(name, []).append(elapsed)
        if name != "ingest":
            self._cycle_s += elapsed
        return result, elapsed

    def _cli(self, name: str, argv: list[str]) -> None:
        stderr = io.StringIO()

        def call():
            with contextlib.redirect_stderr(stderr):
                if self.tracer is None:
                    return cli.main(argv)
                with self.tracer.span("cli.main"):
                    return cli.main(argv)

        code, _ = self._timed(name, call)
        if code != 0:
            raise CheckFailed(f"exit {code}: {stderr.getvalue().strip()[-500:]}")

    # -- set-up -----------------------------------------------------------

    def setup(self) -> None:
        """Generate the corpus, load it, and warm the engine up once."""
        self._cli("gen", self.workload.gen_argv(self.seed, self.corpus_dir))
        self.corpus_sha = corpus_sha256(self.corpus_dir)
        base = self.corpus_dir
        for name in (cli.DETECTOR_FILE, cli.CLASSIFIER_FILE, cli.ANNOTATION_FILE):
            data = (base / name).read_bytes()
            self.corpus_bytes += len(data)
            self.corpus_records += sum(1 for line in data.splitlines() if line.strip())
        self.corpus = load_corpus(
            base / cli.DETECTOR_FILE, base / cli.CLASSIFIER_FILE, base / cli.ANNOTATION_FILE
        )
        run_corpus(self.corpus, self.cfg)  # warm-up

    # -- operations -------------------------------------------------------

    def op_gen(self) -> None:
        """Regenerate the corpus from the seed (setup_s); it must be byte-identical."""
        out = self.work / "gen"
        self._cli("gen", self.workload.gen_argv(self.seed, out))
        if corpus_sha256(out) != self.corpus_sha:
            raise CheckFailed("gen: corpus differs from the set-up corpus")

    def op_online(self) -> None:
        """Replay every video through gate_step and activation_step."""
        result, _ = self._timed("online", self._online_replay)
        events, counts, window_s = result
        if self.tracer is None:
            self.window_s.append(window_s)
        if counts["windows"] != counts["scheduled"]:
            raise CheckFailed(f"online: {counts['windows']} windows replayed, window_count gives {counts['scheduled']}")
        if self.reference is None:
            self.reference, self.online_counts = events, counts
        else:
            checks.check_events_equal(self.reference, events, "online replay")

    def _online_replay(self):
        pc = time.perf_counter
        corpus, cfg, tracer = self.corpus, self.cfg, self.tracer
        events: dict[str, list] = {}
        window_s: list[float] = []
        counts = dict.fromkeys(
            ("windows", "scheduled", "activations", "folds", "early", "late", "dismissed", "open_at_end"), 0
        )
        for video in corpus.video_ids():
            detector, classifier = corpus.detector[video], corpus.classifier[video]
            counts["scheduled"] += window_count(detector.length, cfg)
            gate = GateState.idle(cfg.filter_size)
            act = ActivationState.inactive(cfg.num_classes)
            period_events = 0
            for window in advance(cursor_for(detector.length, cfg), cfg):
                raw = detector.score(window.end).values[GESTURE_INDEX]
                t0 = pc()
                gate, decision, _ = gate_step(gate, raw, cfg)
                t1 = pc()
                act, event = activation_step(act, decision, classifier, window, cfg)
                t2 = pc()
                window_s.append(t2 - t0)
                if tracer is not None:
                    tracer.leaf("gate.step", t0, t1)
                    tracer.leaf("activation.step", t1, t2)
                counts["windows"] += 1
                if decision is GateDecision.ACTIVATE:
                    counts["activations"] += 1
                    period_events = 0
                if decision is GateDecision.ACTIVATE or decision is GateDecision.STAY_ACTIVE:
                    counts["folds"] += 1
                if event is not None:
                    events.setdefault(video, []).append(event)
                    counts[event.kind.value] += 1
                    period_events += 1
                if decision is GateDecision.DEACTIVATE and period_events == 0:
                    counts["dismissed"] += 1
            if gate.mode is GateMode.ACTIVE:
                counts["open_at_end"] += 1
        return {v: event_tuples(e) for v, e in events.items()}, counts, window_s

    def op_library(self) -> None:
        """run_corpus on the already-loaded corpus (windows_per_s)."""
        run, elapsed = self._timed("library", lambda: run_corpus(self.corpus, self.cfg))
        agg = run.aggregate
        if self.tracer is None:
            self.samples.setdefault("windows_per_s", []).append(agg.windows_processed / elapsed)
        self.library_invocations_per_window = agg.classifier_invocations / agg.windows_processed
        events = {v: event_tuples(r.trace.events) for v, r in run.videos.items() if r.trace.events}
        if self.reference is not None:
            checks.check_events_equal(self.reference, events, "library run_corpus vs online API")
        if self.run_report is not None:
            want = self.run_report["aggregate"]
            checks.check_counts(
                "library run_corpus vs CLI run",
                {
                    "mean_levenshtein_accuracy": agg.mean_accuracy,
                    "matched": agg.matched,
                    "missed_segments": agg.missed_segments,
                    "windows_processed": agg.windows_processed,
                    "classifier_invocations": agg.classifier_invocations,
                },
                {k: want[k] for k in ("mean_levenshtein_accuracy", "matched", "missed_segments",
                                      "windows_processed", "classifier_invocations")},
            )

    def op_run(self) -> None:
        out = self.work / "run"
        argv = ["run", "--data", str(self.corpus_dir), "--out", str(out)]
        if self.workload.trace_files:
            argv.append("--trace")
        self._cli("run", argv)
        self.run_events = (out / cli.EVENTS_FILE).read_bytes()
        self.run_report = json.loads((out / cli.REPORT_FILE).read_text(encoding="utf-8"))
        self.run_bytes = tree_bytes(out)
        events = checks.read_events(self.run_events.decode("utf-8"))
        if self.reference is None:
            raise CheckFailed("run: no online replay to compare with")
        checks.check_events_equal(self.reference, events, "run events.jsonl vs online API")
        agg = self.run_report["aggregate"]
        checks.check_counts(
            "run report vs online API",
            {"windows_processed": agg.get("windows_processed"), "classifier_invocations": agg.get("classifier_invocations")},
            {"windows_processed": self.online_counts["windows"], "classifier_invocations": self.online_counts["folds"]},
        )

    def op_eval(self) -> None:
        out = self.work / "eval"
        self._cli("eval", [
            "eval", "--events", str(self.work / "run" / cli.EVENTS_FILE),
            "--annotations", str(self.corpus_dir / cli.ANNOTATION_FILE), "--out", str(out),
        ])
        self.eval_report = json.loads((out / cli.REPORT_FILE).read_text(encoding="utf-8"))
        if self.run_report is None:
            raise CheckFailed("eval: no run report to compare with")
        checks.check_eval_matches_run(self.run_report, self.eval_report)

    def op_sweep(self) -> None:
        out = self.work / "sweep"
        self._cli("sweep", ["sweep", "--data", str(self.corpus_dir), "--out", str(out)])
        rows = checks.sweep_rows((out / cli.SWEEP_FILE).read_text(encoding="utf-8"))
        if self.run_report is None:
            raise CheckFailed("sweep: no run report to compare with")
        checks.check_sweep_matches_run(rows, self.run_report)
        eager = rows.get(SWEEP_EARLY_TAU, {}).get("mean_early_frames", "")
        if not eager:
            raise CheckFailed(f"sweep: no correct detections at tau {SWEEP_EARLY_TAU}")
        self.sweep_early_frames = float(eager)

    def op_ingest(self) -> None:
        """Validate the corpus's probability vectors with core.ingest_probs, outside the loader."""

        def ingest():
            vectors = []
            for name in (cli.DETECTOR_FILE, cli.CLASSIFIER_FILE):
                with open(self.corpus_dir / name, encoding="utf-8") as fh:
                    vectors.extend(json.loads(line)["p"] for line in fh)
            with self.tracer.span("core.ingest_probs"):
                for p in vectors:
                    ingest_probs(p)
            return len(vectors)

        self.ingest_calls, _ = self._timed("ingest", ingest)

    def op_peak_rss(self) -> None:
        """CLI run in a fresh process; its peak RSS, and its events must match."""
        out = self.work / "rss"
        env = dict(os.environ, PYTHONPATH=str(self.src))
        argv = [sys.executable, "-m", "gesturestream", "run", "--data", str(self.corpus_dir), "--out", str(out)]
        if self.workload.trace_files:
            argv.append("--trace")
        with open(self.work / "rss.stderr", "wb") as err:
            proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err)
        deadline = time.monotonic() + PROBE_TIMEOUT_S
        pid = 0
        while pid == 0:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid == 0:
                if time.monotonic() > deadline:
                    proc.kill()
                    pid, status, usage = os.wait4(proc.pid, 0)
                    proc.returncode = os.waitstatus_to_exitcode(status)
                    raise CheckFailed(f"peak_rss: fresh-process run exceeded {PROBE_TIMEOUT_S}s")
                time.sleep(0.01)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise CheckFailed(f"peak_rss: fresh-process run exited {proc.returncode}")
        if (out / cli.EVENTS_FILE).read_bytes() != self.run_events:
            raise CheckFailed("peak_rss: fresh-process events.jsonl differs from the in-process run")
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB

    # -- cycles -----------------------------------------------------------

    def cycle(self, traced: bool) -> None:
        """One pass over every operation; a traced pass records spans."""
        ops = [("gen", self.op_gen), ("online", self.op_online)]
        ops += [("library", self.op_library)] * LIBRARY_REPEATS
        ops.append(("run", self.op_run))
        ops += [("eval", self.op_eval)] * EVAL_REPEATS
        ops.append(("sweep", self.op_sweep))
        patches: list = []
        if traced:
            self.tracer = self.trace_log
            first = len(self.tracer.ops)
            patches, self.missing_boundaries = install(self.tracer, OBSERVE)
        self._cycle_s = 0.0
        try:
            for name, op in ops:
                self.ledger.attempt(name, op)
            self.cycle_s[traced].append(self._cycle_s)
            if traced:
                self.ledger.attempt("ingest", self.op_ingest)
        finally:
            uninstall(patches)
            self.tracer = None
        if traced:
            self.traced_cycles.append(range(first, len(self.trace_log.ops)))


# Per-call summaries kept while tracing: the early events of each engine run
# and the tau_early it ran with, to find the highest swept tau with early events.
OBSERVE = {
    "pipeline.run_corpus": lambda args, kwargs, result: (
        (args[1] if len(args) > 1 else kwargs["cfg"]).tau_early,
        result.aggregate.events_early,
    ),
}


def execute(workload: Workload, seed: int, seconds: float, trace: bool, root: Path) -> Replay:
    """Set up, then run cycles until `seconds` have passed, then probe peak RSS.

    Without tracing every cycle is measured. With tracing, untraced and
    traced cycles alternate so that their difference is the tracing overhead.
    """
    work = root / ".bench_work" / f"{workload.name}-s{seed}-p{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    replay = Replay(workload, seed, work, root / "src")
    try:
        replay.ledger.attempt("gen", replay.setup)
        if replay.corpus is None:
            return replay
        start = time.perf_counter()
        while True:
            replay.cycle(traced=False)
            if trace:
                replay.cycle(traced=True)
            if time.perf_counter() - start >= seconds:
                break
        replay.ledger.attempt("peak_rss", replay.op_peak_rss)
        return replay
    finally:
        replay.corpus = None
        shutil.rmtree(work, ignore_errors=True)
