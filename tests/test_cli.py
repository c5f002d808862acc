import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import gesturestream
from gesturestream import cli
from gesturestream.cli import _atomic_write_text, _atomic_write_with, main
from gesturestream.core import PipelineConfig
from gesturestream.scoring import SynthConfig, load_score_stream

GEN_SMALL = [
    "gen", "--seed", "42", "--videos", "4", "--gestures-per-video", "3",
    "--num-classes", "6", "--noise-sigma", "0", "--prep-ambiguity", "0",
]

CORPUS_FILES = ["detector_scores.jsonl", "classifier_scores.jsonl", "annotations.jsonl", "manifest.json"]


def refuse(*args, **kwargs):
    raise AssertionError("refused: read a file")


def read_tree(base, names):
    return {name: (base / name).read_bytes() for name in names}


@pytest.fixture
def corpus_dir(tmp_path):
    out = tmp_path / "corpus"
    assert main(GEN_SMALL + ["--out", str(out)]) == 0
    return out


class TestGen:
    def test_writes_four_files(self, corpus_dir):
        for name in CORPUS_FILES:
            assert (corpus_dir / name).is_file()
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        assert manifest["synth_config"]["seed"] == 42
        assert manifest["synth_config"]["num_videos"] == 4
        assert manifest["videos"] == ["v000", "v001", "v002", "v003"]

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(GEN_SMALL + ["--out", str(a)]) == 0
        assert main(GEN_SMALL + ["--out", str(b)]) == 0
        assert read_tree(a, CORPUS_FILES) == read_tree(b, CORPUS_FILES)

    def test_zero_videos_is_config_error(self, tmp_path):
        assert main(["gen", "--out", str(tmp_path / "x"), "--videos", "0"]) == 1

    def test_default_duration_mean(self, tmp_path):
        out = tmp_path / "default"
        code = main(["gen", "--out", str(out), "--seed", "1", "--num-classes", "10"])
        assert code == 0
        durations = []
        for line in (out / "annotations.jsonl").read_text().splitlines():
            record = json.loads(line)
            durations.append(record["end"] - record["start"] + 1)
        mean = sum(durations) / len(durations)
        assert abs(mean - 38.4) <= 0.1 * 38.4

    def test_config_file_with_flag_precedence(self, tmp_path):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("# a comment line\nnum_videos = 2\nseed = 7  # overridden below\nnum_classes = 5\n")
        out = tmp_path / "cfgout"
        assert main(["gen", "--out", str(out), "--config", str(cfg), "--seed", "9"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["synth_config"]["num_videos"] == 2
        assert manifest["synth_config"]["num_classes"] == 5
        assert manifest["synth_config"]["seed"] == 9

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "synth.cfg"
        for text, message in [
            ("frobnicate = 3\n", "unknown config key 'frobnicate'"),
            ("seed = 1\nnum_videos 3\n", f"{cfg}:2: expected key = value, got 'num_videos 3'"),
            ("num_videos = three\n", "bad value for num_videos: 'three'"),
        ]:
            cfg.write_text(text)
            assert main(["gen", "--out", str(tmp_path / "x"), "--config", str(cfg)]) == 1
            assert message in capsys.readouterr().err

    def test_manifest_suffices_to_regenerate(self, corpus_dir, tmp_path):
        from gesturestream.scoring import SynthConfig, generate_synthetic, write_annotation_file, write_score_file

        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        synth = dict(manifest["synth_config"])
        synth["phase_fractions"] = tuple(synth["phase_fractions"])
        corpus = generate_synthetic(SynthConfig(**synth))
        redo = tmp_path / "redo"
        redo.mkdir()
        write_score_file(redo / "detector_scores.jsonl", corpus.detector)
        write_score_file(redo / "classifier_scores.jsonl", corpus.classifier)
        write_annotation_file(redo / "annotations.jsonl", corpus.segments)
        for name in ["detector_scores.jsonl", "classifier_scores.jsonl", "annotations.jsonl"]:
            assert (redo / name).read_bytes() == (corpus_dir / name).read_bytes()

    # The two gated benchmark workload shapes (idle-c10, active-c83) at seed 1.
    @pytest.mark.parametrize("flags,digests", [
        (
            ["--videos", "6", "--gestures-per-video", "10", "--num-classes", "10", "--duration-mean", "30.0",
             "--duration-spread", "3.0", "--gap-mean", "70.0", "--gap-spread", "7.0"],
            {
                "annotations.jsonl": "1adc80f8aa1df90c76c63dc6508e4083fb380f1a623ae9936007297ea7d5f1eb",
                "classifier_scores.jsonl": "df9fff624f03bcd88a3560ed6cc494208c3b1b64e11215212ff1e527e577ede9",
                "detector_scores.jsonl": "e150433ea06d890bf6ea0454c888b003b63adb2e1f6a732901f6a6d82b217a6d",
                "manifest.json": "0971083e26211bd75b19ca5ec12869cf0e3c7402448b076fbef6ea94c21f7c6f",
            },
        ),
        (
            ["--videos", "3", "--gestures-per-video", "10", "--num-classes", "83", "--duration-mean", "90.0",
             "--duration-spread", "8.0", "--gap-mean", "36.0", "--gap-spread", "3.0"],
            {
                "annotations.jsonl": "4be0e6d5b893e18abd4fde73ba30140a0a2364e6a7aecc3eaefc0edd2b2558c3",
                "classifier_scores.jsonl": "81fdcb009e09beb8a9e6c8080c6c6563f3472c94bd690ddae5713c2f9c6c0852",
                "detector_scores.jsonl": "ec345f5dfc3d2d2ff385dc4c22314b942de96a5e292b76c175cf652f4b1aa24a",
                "manifest.json": "c3b63c7d26457dcde3c67b7e930123bc65b456f4d1188d7203b352d85b632c83",
            },
        ),
    ], ids=["idle-c10", "active-c83"])
    def test_benchmark_shapes_keep_their_bytes(self, tmp_path, flags, digests):
        out = tmp_path / "corpus"
        argv = ["gen", "--out", str(out), "--seed", "1", "--noise-sigma", "0.05", "--prep-ambiguity", "0.5"]
        assert main(argv + flags) == 0
        assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in CORPUS_FILES} == digests


class TestRun:
    def test_report_and_events_written(self, corpus_dir, tmp_path):
        out = tmp_path / "run"
        assert main(["run", "--data", str(corpus_dir), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["aggregate"]["mean_levenshtein_accuracy"] == pytest.approx(100.0)
        assert report["aggregate"]["videos"] == 4
        assert (out / "events.jsonl").is_file()
        events = [json.loads(l) for l in (out / "events.jsonl").read_text().splitlines()]
        assert len(events) == 12  # 4 videos x 3 gestures, noiseless
        assert set(events[0]) == {"video", "class", "frame", "kind", "score"}

    def test_trace_flag_writes_per_video_files(self, corpus_dir, tmp_path):
        frames = {}
        for line in (corpus_dir / "detector_scores.jsonl").read_text().splitlines():
            video = json.loads(line)["video"]
            frames[video] = frames.get(video, 0) + 1
        for flags in ([], ["--stride", "3"]):
            out = tmp_path / "run"
            assert main(["run", "--data", str(corpus_dir), "--out", str(out), "--trace"] + flags) == 0
            traces = sorted(p.name for p in (out / "traces").iterdir())
            assert traces == ["v000.tsv", "v001.tsv", "v002.tsv", "v003.tsv"]
            report = json.loads((out / "report.json").read_text())
            window, stride = report["config"]["classifier_window"], report["config"]["stride"]
            windows = active = 0
            for video, length in frames.items():
                tsv = (out / "traces" / f"{video}.tsv").read_text()
                header, *rows = [line.split("\t") for line in tsv.splitlines()]
                assert header == [
                    "t", "raw_prob", "filtered_prob", "mode", "j", "weight", "top_label", "top1", "top2",
                ]
                assert [int(row[0]) for row in rows] == list(range(window - 1, length, stride))
                windows += len(rows)
                active += sum(row[3] == "active" for row in rows)
            # each video's rows and active rows are its shares of the report's counters
            assert windows == report["aggregate"]["windows_processed"]
            assert active == report["aggregate"]["classifier_invocations"]

    @pytest.mark.parametrize(
        "video_id",
        ["../x", "../../x", "ABSOLUTE", "a\\b", "a\0b", "", ".x", "a" * 300, "\ud800x"],
        ids=["parent", "grandparent", "absolute", "backslash", "nul", "empty", "hidden", "too-long", "lone-surrogate"],
    )
    def test_trace_refuses_video_id_that_names_no_trace_file(self, corpus_dir, tmp_path, capsys, video_id):
        # an absolute id under tmp_path, so that a trace written to it would show in the tree compared below
        video_id = str(tmp_path / "x") if video_id == "ABSOLUTE" else video_id
        for name in ("detector_scores.jsonl", "classifier_scores.jsonl", "annotations.jsonl"):
            path = corpus_dir / name
            path.write_text(path.read_text().replace('"v001"', json.dumps(video_id)))
        detector = corpus_dir / "detector_scores.jsonl"
        lines = detector.read_text().splitlines()
        lineno = next(i for i, line in enumerate(lines, 1) if json.loads(line)["video"] == video_id)
        before = sorted(tmp_path.rglob("*"))
        argv = ["run", "--data", str(corpus_dir), "--out", str(tmp_path / "out" / "run")]
        for flags in (["--trace"], []):  # the loader refuses the id, whatever the flags
            assert main(argv + flags) == 1
            assert f"error: {detector}:{lineno}: video id {video_id!r} must be non-empty" in capsys.readouterr().err
            assert sorted(tmp_path.rglob("*")) == before  # no events.jsonl, no report, no directory

    def test_video_id_bound_counts_utf8_bytes(self, corpus_dir, tmp_path, capsys):
        longest = "\u00e9" * 100  # 100 characters, 200 bytes of UTF-8
        for name in ("detector_scores.jsonl", "classifier_scores.jsonl", "annotations.jsonl"):
            path = corpus_dir / name
            path.write_text(path.read_text().replace('"v001"', json.dumps(longest)))
        out = tmp_path / "run"
        assert main(["run", "--data", str(corpus_dir), "--out", str(out), "--trace"]) == 0
        assert (out / "traces" / f"{longest}.tsv").is_file()  # its temp file's name fit too
        annotations = corpus_dir / "annotations.jsonl"
        annotations.write_text(annotations.read_text().replace(json.dumps(longest), json.dumps(longest + "a")))
        assert main(["run", "--data", str(corpus_dir), "--out", str(tmp_path / "o"), "--trace"]) == 1
        assert f"video id {longest + 'a'!r} must be non-empty UTF-8 of at most 200 bytes" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_rerun_byte_identical(self, corpus_dir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["run", "--data", str(corpus_dir), "--out", str(out)]) == 0
        names = ["events.jsonl", "report.json"]
        assert read_tree(a, names) == read_tree(b, names)

    def test_stream_ending_mid_gesture_counted(self, corpus_dir, tmp_path):
        out = tmp_path / "run"
        assert main(["run", "--data", str(corpus_dir), "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["aggregate"]["open_at_end"] == 0
        # cut v000's score streams off in the middle of its last gesture
        last = [json.loads(l) for l in (corpus_dir / "annotations.jsonl").read_text().splitlines()
                if json.loads(l)["video"] == "v000"][-1]
        cut = (last["start"] + last["end"]) // 2
        for name in ("detector_scores.jsonl", "classifier_scores.jsonl"):
            path = corpus_dir / name
            records = [json.loads(l) for l in path.read_text().splitlines()]
            path.write_text("".join(json.dumps(r) + "\n" for r in records if r["video"] != "v000" or r["t"] <= cut))
        assert main(["run", "--data", str(corpus_dir), "--out", str(out)]) == 0
        agg = json.loads((out / "report.json").read_text())["aggregate"]
        assert agg["open_at_end"] == 1
        assert agg["missed_segments"] == 1

    @pytest.mark.parametrize("stream", ["detector_scores.jsonl", "classifier_scores.jsonl"])
    def test_unannotated_video_with_one_stream_skipped_and_listed(self, corpus_dir, tmp_path, caplog, stream):
        arity = 2 if stream == "detector_scores.jsonl" else 6
        with open(corpus_dir / stream, "a", encoding="utf-8") as fh:
            fh.writelines(json.dumps({"video": "zz", "t": t, "p": [1.0 / arity] * arity}) + "\n" for t in range(50))
        out = tmp_path / "run"
        with caplog.at_level("WARNING"):
            assert main(["run", "--data", str(corpus_dir), "--out", str(out)]) == 0
        assert "skipping zz: no annotations" in caplog.messages
        assert json.loads((out / "report.json").read_text())["skipped_missing_annotations"] == ["zz"]

    def test_missing_data_dir_is_io_error(self, tmp_path):
        code = main(["run", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_num_classes_mismatch_rejected(self, corpus_dir, tmp_path):
        code = main([
            "run", "--data", str(corpus_dir), "--out", str(tmp_path / "o"),
            "--num-classes", "9",
        ])
        assert code == 1

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_class_count_is_the_classifier_arity(self, corpus_dir, tmp_path, capsys, command):
        base = [command, "--data", str(corpus_dir), "--out", str(tmp_path / "o")]
        assert main(base + ["--num-classes", "6"]) == 1  # not an option, even at the arity
        assert "--num-classes" in capsys.readouterr().err
        cfg = tmp_path / "pipeline.cfg"
        cfg.write_text("num_classes = 6\n")
        assert main(base + ["--config", str(cfg)]) == 1
        assert "unknown config key 'num_classes'" in capsys.readouterr().err
        assert main(base) == 0
        if command == "run":
            assert json.loads((tmp_path / "o" / "report.json").read_text())["config"]["num_classes"] == 6

    def test_pipeline_flag_reaches_config(self, corpus_dir, tmp_path):
        out = tmp_path / "run"
        assert main([
            "run", "--data", str(corpus_dir), "--out", str(out),
            "--tau-early", "0.3", "--filter-kind", "ewa",
        ]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["tau_early"] == 0.3
        assert report["config"]["filter_kind"] == "ewa"


class TestEval:
    def test_matches_run_report(self, corpus_dir, tmp_path):
        run_out = tmp_path / "run"
        assert main([
            "run", "--data", str(corpus_dir), "--out", str(run_out), "--tau-early", "0.2", "--grace", "20",
        ]) == 0
        eval_out = tmp_path / "eval"
        assert main([
            "eval", "--events", str(run_out / "events.jsonl"),
            "--annotations", str(corpus_dir / "annotations.jsonl"),
            "--out", str(eval_out), "--grace", "20",
        ]) == 0
        run_report = json.loads((run_out / "report.json").read_text())
        eval_report = json.loads((eval_out / "report.json").read_text())
        run_agg, eval_agg = run_report["aggregate"], eval_report["aggregate"]
        assert run_agg["events"]["early"] > 0 and run_agg["early_frames"] is not None
        assert set(run_agg) - set(eval_agg) == {"windows_processed", "classifier_invocations", "open_at_end"}
        assert eval_agg == {key: run_agg[key] for key in eval_agg}
        assert eval_report["videos"] == run_report["videos"]
        assert eval_report["grace"] == run_report["grace"] == 20

    def test_default_grace_is_runs_default_window_not_the_runs_grace(self, tmp_path):
        corpus, run_out = tmp_path / "corpus", tmp_path / "run"
        assert main(["gen", "--out", str(corpus), "--videos", "2", "--gestures-per-video", "3",
                     "--num-classes", "6", "--seed", "1"]) == 0
        assert main(["run", "--data", str(corpus), "--out", str(run_out), "--classifier-window", "8"]) == 0
        run_report = json.loads((run_out / "report.json").read_text())
        keys = ["mean_levenshtein_accuracy", "matched", "duplicates", "unmatched_events", "missed_segments",
                "events", "early_frames"]

        def rescore(*flags):
            out = tmp_path / f"eval{len(flags)}"
            assert main(["eval", "--events", str(run_out / "events.jsonl"),
                         "--annotations", str(corpus / "annotations.jsonl"), "--out", str(out), *flags]) == 0
            report = json.loads((out / "report.json").read_text())
            return report["grace"], {key: report["aggregate"][key] for key in keys}

        run_agg = {key: run_report["aggregate"][key] for key in keys}
        assert (run_report["grace"], run_agg["matched"], run_agg["unmatched_events"]) == (8, 0, 6)
        # the default grace, 32, is run's default classifier window, not this run's grace
        grace, default_agg = rescore()
        assert grace == 32 and default_agg["matched"] == 6 and default_agg != run_agg
        assert rescore("--grace", str(run_report["grace"])) == (8, run_agg)

    @pytest.mark.parametrize("field,value", [
        ("class", 1.7), ("frame", "40"), ("score", True), ("class", -3), ("kind", "soon"),
    ])
    def test_bad_event_field_rejected_with_line(self, corpus_dir, tmp_path, capsys, field, value):
        good = {"video": "v000", "class": 1, "frame": 40, "kind": "late", "score": 0.5}
        events = tmp_path / "events.jsonl"
        events.write_text(json.dumps(good) + "\n" + json.dumps({**good, field: value}) + "\n")
        assert main([
            "eval", "--events", str(events),
            "--annotations", str(corpus_dir / "annotations.jsonl"),
            "--out", str(tmp_path / "eval"),
        ]) == 1
        assert f"{events}:2:" in capsys.readouterr().err

    def test_reproduces_worked_metric_example(self, tmp_path):
        # one video: ground truth 1..9, predictions 1,2,7,4,5,6,6,7,8,9
        ann = tmp_path / "ann.jsonl"
        ann.write_text("".join(
            json.dumps({"video": "v", "class": c, "start": i * 100, "end": i * 100 + 50}) + "\n"
            for i, c in enumerate(range(1, 10))
        ))
        pred = [1, 2, 7, 4, 5, 6, 6, 7, 8, 9]
        events = tmp_path / "events.jsonl"
        events.write_text("".join(
            json.dumps({"video": "v", "class": c, "frame": 10 + i * 80, "kind": "late", "score": 0.5}) + "\n"
            for i, c in enumerate(pred)
        ))
        out = tmp_path / "eval"
        assert main(["eval", "--events", str(events), "--annotations", str(ann), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        video = report["videos"][0]
        assert video["distance"] == 2
        assert video["accuracy"] == pytest.approx(77.78, abs=0.01)

    def test_empty_events_scores_all_deletions(self, corpus_dir, tmp_path):
        events = tmp_path / "empty.jsonl"
        events.write_text("")
        out = tmp_path / "eval"
        assert main([
            "eval", "--events", str(events),
            "--annotations", str(corpus_dir / "annotations.jsonl"),
            "--out", str(out),
        ]) == 0
        report = json.loads((out / "report.json").read_text())
        for video in report["videos"]:
            assert video["accuracy"] == 0.0
            assert video["distance"] == len(video["gt"])

    def test_negative_accuracy_flagged(self, tmp_path):
        ann = tmp_path / "ann.jsonl"
        ann.write_text(json.dumps({"video": "v", "class": 1, "start": 0, "end": 40}) + "\n")
        events = tmp_path / "events.jsonl"
        events.write_text("".join(
            json.dumps({"video": "v", "class": c, "frame": 5 + i, "kind": "late", "score": 0.5}) + "\n"
            for i, c in enumerate([2, 3, 4])
        ))
        out = tmp_path / "eval"
        assert main(["eval", "--events", str(events), "--annotations", str(ann), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["videos"][0]["accuracy"] == pytest.approx(-200.0)
        assert report["negative_accuracy_videos"] == ["v"]

    def test_unknown_video_reported(self, corpus_dir, tmp_path):
        events = tmp_path / "events.jsonl"
        events.write_text(json.dumps(
            {"video": "ghost", "class": 1, "frame": 50, "kind": "late", "score": 0.4}
        ) + "\n")
        out = tmp_path / "eval"
        assert main([
            "eval", "--events", str(events),
            "--annotations", str(corpus_dir / "annotations.jsonl"),
            "--out", str(out),
        ]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["unknown_videos"] == ["ghost"]

    @pytest.mark.parametrize("text", ["", "\n \r\n\t\n"], ids=["empty", "blank"])
    def test_annotation_file_without_records_is_named(self, tmp_path, capsys, text):
        events = tmp_path / "events.jsonl"
        events.write_text(json.dumps({"video": "v000", "class": 1, "frame": 50, "kind": "late", "score": 0.4}) + "\n")
        annotations = tmp_path / "annotations.jsonl"
        annotations.write_text(text, encoding="utf-8")
        out = tmp_path / "eval"
        assert main(["eval", "--events", str(events), "--annotations", str(annotations), "--out", str(out)]) == 1
        assert f"error: {annotations}: no annotation records" in capsys.readouterr().err
        assert not out.exists()


class TestSweep:
    def test_default_nine_rows(self, corpus_dir, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", "--data", str(corpus_dir), "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == (
            "tau_early,levenshtein_accuracy,mean_early_frames,median_early_frames,"
            "matched,duplicates,misses"
        )
        assert len(lines) == 10  # header + 9 thresholds
        assert [l.split(",")[0] for l in lines[1:]] == [
            "0.2", "0.3", "0.4", "0.5", "0.6", "0.7", "0.8", "0.9", "1",
        ]

    def test_single_tau_matches_direct_run(self, corpus_dir, tmp_path):
        sweep_out = tmp_path / "sweep"
        assert main(["sweep", "--data", str(corpus_dir), "--out", str(sweep_out), "--taus", "0.4"]) == 0
        lines = (sweep_out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 2
        run_out = tmp_path / "run"
        assert main(["run", "--data", str(corpus_dir), "--out", str(run_out), "--tau-early", "0.4"]) == 0
        report = json.loads((run_out / "report.json").read_text())
        sweep_acc = float(lines[1].split(",")[1])
        assert sweep_acc == pytest.approx(report["aggregate"]["mean_levenshtein_accuracy"], abs=1e-6)

    def test_rerun_byte_identical(self, corpus_dir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["sweep", "--data", str(corpus_dir), "--out", str(out), "--taus", "0.3", "0.8"]) == 0
        assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()

    def test_tau_early_is_a_config_key_not_a_flag(self, corpus_dir, tmp_path, capsys):
        # each threshold comes from --taus; a run config file still works with sweep
        base = ["sweep", "--data", str(corpus_dir), "--out", str(tmp_path / "s"), "--taus", "0.4"]
        assert main(base + ["--tau-early", "0.3"]) == 1
        assert "--tau-early" in capsys.readouterr().err
        cfg = tmp_path / "pipeline.cfg"
        cfg.write_text("tau_early = 0.3\n")
        assert main(base + ["--config", str(cfg)]) == 0

    def test_thresholds_sharing_a_label_rejected_before_loading(self, corpus_dir, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "load_corpus", refuse)
        out = tmp_path / "sweep"
        assert main(["sweep", "--data", str(corpus_dir), "--out", str(out), "--taus", "0.3", "0.5", "0.3000001"]) == 1
        assert "sweep.csv labels must be distinct, got 0.3 more than once" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_thresholds_named_before_any_output(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main(["sweep", "--data", str(corpus_dir), "--out", str(out), "--taus", "0.3", "0.5", "1.5"]) == 1
        assert "1.5" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()
        # checked before the corpus is read: a missing data directory is not reached
        assert main(["sweep", "--data", str(tmp_path / "nope"), "--out", str(out), "--taus", "1.5"]) == 1


class TestExitCodes:
    def test_usage_error_is_one(self):
        assert main(["run"]) == 1  # missing required flags

    @pytest.mark.parametrize("argv", [
        ["run", "--filter-size", "0"],
        ["run", "--grace", "-1"],
        ["run", "--config", "BAD_CONFIG"],
        ["sweep", "--filter-size", "0"],
        ["sweep", "--config", "BAD_CONFIG"],
        ["eval", "--events", "events.jsonl", "--annotations", "annotations.jsonl", "--grace", "-1"],
    ], ids=["run-flag", "run-grace", "run-config", "sweep-flag", "sweep-config", "eval-grace"])
    def test_flags_checked_before_any_file_is_read(self, tmp_path, capsys, monkeypatch, argv):
        for name in ("load_corpus", "load_events_file", "load_annotations"):
            monkeypatch.setattr(cli, name, refuse)
        cfg = tmp_path / "pipeline.cfg"
        cfg.write_text("stride = 0\n")
        argv = [str(cfg) if arg == "BAD_CONFIG" else arg for arg in argv]
        data = [] if argv[0] == "eval" else ["--data", str(tmp_path / "missing")]
        assert main(argv + data + ["--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "must be >= " in err and "refused" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("crlf", [False, True], ids=["lf", "crlf"])
    @pytest.mark.parametrize("name,line", [
        ("detector_scores.jsonl", 200),
        ("classifier_scores.jsonl", 6),
        ("classifier_scores.jsonl", 100),
        ("annotations.jsonl", 5),
        ("events.jsonl", 150),
        ("pipeline.cfg", 300),
    ])
    def test_invalid_utf8_names_file_and_line(self, corpus_dir, tmp_path, capsys, name, line, crlf):
        # most of these lines lie past the first 8 KiB, which text mode decodes before it yields line 1
        argv = ["run", "--data", str(corpus_dir)]
        if name == "events.jsonl":
            path = tmp_path / name
            event = {"video": "v000", "class": 1, "frame": 40, "kind": "late", "score": 0.5}
            path.write_text("".join(json.dumps({**event, "frame": f}) + "\n" for f in range(200)))
            argv = ["eval", "--events", str(path), "--annotations", str(corpus_dir / "annotations.jsonl")]
        elif name == "pipeline.cfg":
            path = tmp_path / name
            path.write_text("# a comment line\n" * 299 + "stride = 2\n")
            argv += ["--config", str(path)]
        else:
            path = corpus_dir / name
        lines = path.read_bytes().split(b"\n")
        lines[line - 1] = lines[line - 1][:12] + b"\xff" + lines[line - 1][12:]
        path.write_bytes((b"\r\n" if crlf else b"\n").join(lines))
        assert main(argv + ["--out", str(tmp_path / "o")]) == 1
        assert f"{path}:{line}: invalid UTF-8 (invalid start byte)" in capsys.readouterr().err

    def test_config_bad_byte_names_its_line_in_line_order(self, corpus_dir, tmp_path, capsys):
        path = tmp_path / "pipeline.cfg"
        argv = ["run", "--data", str(corpus_dir), "--config", str(path), "--out", str(tmp_path / "o")]
        path.write_bytes(b"stride = 2\r\n\n# note\nfilter_size = 4\xe2\x82\nstride\n")
        assert main(argv) == 1
        assert f"{path}:4: invalid UTF-8 (invalid continuation byte)" in capsys.readouterr().err
        path.write_bytes(b"stride = 2\nstride\nfilter_size = 4\xff\n")
        assert main(argv) == 1
        assert f"{path}:2: expected key = value, got 'stride'" in capsys.readouterr().err

    def test_config_byte_order_mark_is_skipped(self, corpus_dir, tmp_path, capsys):
        plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
        plain.write_bytes(b"stride = 2\n")
        bom.write_bytes(b"\xef\xbb\xbfstride = 2\n")
        for path in (plain, bom):
            assert main(["run", "--data", str(corpus_dir), "--config", str(path), "--out", str(tmp_path / path.stem)]) == 0
        names = ["events.jsonl", "report.json"]
        assert read_tree(tmp_path / "bom", names) == read_tree(tmp_path / "plain", names)
        assert json.loads((tmp_path / "bom" / "report.json").read_text())["config"]["stride"] == 2
        bom.write_bytes(b"\xef\xbb\xbfstride = 2\nfilter_size = 4\xff\n")  # a bad byte after the mark still fails
        assert main(["run", "--data", str(corpus_dir), "--config", str(bom), "--out", str(tmp_path / "o")]) == 1
        assert f"{bom}:2: invalid UTF-8 (invalid start byte)" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("video_id", ["", ".x", "a/b", "a\\b", "a\0b", "a" * 300, "\ud800x"],
                             ids=["empty", "hidden", "slash", "backslash", "nul", "too-long", "lone-surrogate"])
    def test_video_id_rule_names_file_and_line_for_every_command(self, corpus_dir, tmp_path, capsys, video_id):
        events = tmp_path / "run" / "events.jsonl"
        assert main(["run", "--data", str(corpus_dir), "--out", str(events.parent)]) == 0
        annotations, classifier = corpus_dir / "annotations.jsonl", corpus_dir / "classifier_scores.jsonl"
        run_argv = ["run", "--data", str(corpus_dir), "--out", str(tmp_path / "rerun")]
        sweep_argv = ["sweep", "--data", str(corpus_dir), "--out", str(tmp_path / "sweep")]
        eval_argv = ["eval", "--events", str(events), "--annotations", str(annotations), "--out", str(tmp_path / "eval")]
        for path, argv in [
            (classifier, run_argv),
            (classifier, run_argv + ["--trace"]),
            (classifier, sweep_argv),
            (annotations, run_argv + ["--trace"]),
            (annotations, sweep_argv),
            (annotations, eval_argv),
            (events, eval_argv),
        ]:
            original = path.read_text()
            lines = original.splitlines(keepends=True)
            k = next(i for i, line in enumerate(lines) if json.loads(line)["video"] == "v001")
            lines[k] = lines[k].replace('"v001"', json.dumps(video_id))  # one record of a new video
            path.write_text("".join(lines))
            before = sorted(tmp_path.rglob("*"))
            assert main(argv) == 1
            assert f"error: {path}:{k + 1}: video id {video_id!r} must be non-empty" in capsys.readouterr().err
            assert sorted(tmp_path.rglob("*")) == before
            path.write_text(original)

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_unexpected_exception_is_internal_error(self, tmp_path, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("broken invariant")

        monkeypatch.setattr(cli, "cmd_run", broken)
        assert main(["run", "--data", str(tmp_path), "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == "internal error: RuntimeError('broken invariant')\n"

    @pytest.mark.parametrize("grace,code", [("-1", 1), ("0", 0)])
    def test_grace_must_be_non_negative(self, corpus_dir, tmp_path, grace, code):
        events = tmp_path / "events.jsonl"
        events.write_text("")
        assert main(["run", "--data", str(corpus_dir), "--out", str(tmp_path / "run"), "--grace", grace]) == code
        assert main([
            "eval", "--events", str(events), "--annotations", str(corpus_dir / "annotations.jsonl"),
            "--out", str(tmp_path / "eval"), "--grace", grace,
        ]) == code

    @pytest.mark.parametrize(
        "key,value", [("alignment", "newest"), ("detector_window", "8"), ("sigmoid_midpoint", "3")]
    )
    def test_removed_window_knobs_rejected(self, corpus_dir, tmp_path, capsys, key, value):
        base = ["run", "--data", str(corpus_dir), "--out", str(tmp_path / "o")]
        flag = "--" + key.replace("_", "-")
        assert main(base + [flag, value]) == 1
        assert flag in capsys.readouterr().err
        cfg = tmp_path / "pipeline.cfg"
        cfg.write_text(f"{key} = {value}\n")
        assert main(base + ["--config", str(cfg)]) == 1
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("name,drop", [
        ("detector_scores.jsonl", lambda t, mid: t == mid),
        ("classifier_scores.jsonl", lambda t, mid: t == mid),
        ("classifier_scores.jsonl", lambda t, mid: t >= mid),
    ], ids=["detector-frame", "classifier-frame", "short-classifier"])
    def test_missing_frame_is_validation_error(self, corpus_dir, tmp_path, capsys, name, drop):
        # the frame sits in the middle of the first gesture, where the gate is open
        seg = json.loads((corpus_dir / "annotations.jsonl").read_text().splitlines()[0])
        mid = (seg["start"] + seg["end"]) // 2
        path = corpus_dir / name
        records = [json.loads(line) for line in path.read_text().splitlines()]
        path.write_text("".join(
            json.dumps(r) + "\n" for r in records if not (r["video"] == seg["video"] and drop(r["t"], mid))
        ))
        assert main(["run", "--data", str(corpus_dir), "--out", str(tmp_path / "o")]) == 1
        assert f"no score for {seg['video']}@{mid}" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [[], ["--gate-on-threshold", "0.0"]], ids=["default", "gate-always-on"])
    @pytest.mark.parametrize("name,frame,drop", [
        ("classifier_scores.jsonl", 40, lambda t: t == 40),
        ("classifier_scores.jsonl", 275, lambda t: t >= 275),
        ("detector_scores.jsonl", 10, lambda t: t == 10),
    ], ids=["classifier-idle-gap", "classifier-short-in-idle-tail", "detector-before-first-window"])
    def test_score_gap_fails_at_load_under_any_config(self, corpus_dir, tmp_path, capsys, name, frame, drop, flags):
        # v000 idles before its first gesture at 52 and after its last one ends at 256;
        # the first window ends at frame 31
        segments = [json.loads(line) for line in (corpus_dir / "annotations.jsonl").read_text().splitlines()]
        v000 = [seg for seg in segments if seg["video"] == "v000"]
        assert (v000[0]["start"], v000[-1]["end"]) == (52, 256)
        path = corpus_dir / name
        records = [json.loads(line) for line in path.read_text().splitlines()]
        path.write_text("".join(
            json.dumps(r) + "\n" for r in records if not (r["video"] == "v000" and drop(r["t"]))
        ))
        out = tmp_path / "o"
        assert main(["run", "--data", str(corpus_dir), "--out", str(out)] + flags) == 1
        assert f"{path}: no score for v000@{frame}" in capsys.readouterr().err
        assert not out.exists()  # failed at load, before the run made its output directory

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_filter_kind_help_lists_values(self, capsys, command):
        assert main([command, "--help"]) == 0
        text = capsys.readouterr().out
        assert "{mean,median,ewa}" in text
        assert "FilterKind." not in text

    @pytest.mark.parametrize(
        "p",
        ["[0.5, 0.6]", "[null, 1.0]", "[0.5, 1" + "0" * 400 + "]", '["0.9", "0.1"]', "[false, true]"],
        ids=["sum", "null", "huge-int", "strings", "bools"],
    )
    def test_bad_probability_row_is_validation_error(self, corpus_dir, tmp_path, capsys, p):
        path = corpus_dir / "detector_scores.jsonl"
        lines = path.read_text().splitlines()
        lines[2] = '{"video": "v000", "t": 2, "p": ' + p + "}"
        path.write_text("\n".join(lines) + "\n")
        assert main(["run", "--data", str(corpus_dir), "--out", str(tmp_path / "o")]) == 1
        assert f"{path}:3: " in capsys.readouterr().err

    def test_rows_inside_the_renormalisation_tolerance_run(self, tmp_path):
        corpus = tmp_path / "corpus"
        assert main(["gen", "--out", str(corpus), "--videos", "1", "--gestures-per-video", "2",
                     "--num-classes", "3", "--seed", "1"]) == 0
        # a value above 1 within the tolerance, and a row whose exact sum is within 1e-6 of 1
        # though its left-to-right sum is not
        edge = {
            "detector_scores.jsonl": [0.0, 1.0000005],
            "classifier_scores.jsonl": [0.369955, 0.630045, 1.0000000000287557e-06],
        }
        for name, p in edge.items():
            path = corpus / name
            lines = path.read_text().splitlines(keepends=True)
            lines[0] = json.dumps({"video": "v000", "t": 0, "p": p}) + "\n"
            path.write_text("".join(lines))
        assert main(["run", "--data", str(corpus), "--out", str(tmp_path / "run")]) == 0
        detector = load_score_stream(corpus / "detector_scores.jsonl")["v000"].rows
        classifier = load_score_stream(corpus / "classifier_scores.jsonl")["v000"].rows
        assert detector[0].tolist() == [0.0, 1.0]
        assert [x.hex() for x in classifier[0].tolist()] == [x.hex() for x in edge["classifier_scores.jsonl"]]

    def test_range_error_names_the_range_a_file_value_may_take(self, corpus_dir, tmp_path, capsys):
        path = corpus_dir / "detector_scores.jsonl"
        lines = path.read_text().splitlines()
        lines[2] = '{"video": "v000", "t": 2, "p": [1.002, 0.0]}'
        path.write_text("\n".join(lines) + "\n")
        assert main(["run", "--data", str(corpus_dir), "--out", str(tmp_path / "o")]) == 1
        assert f"{path}:3: probability 1.002 outside [0, 1.001]" in capsys.readouterr().err

    @pytest.mark.parametrize("p", ["[1e308, 1e308]", "[Infinity, -Infinity]"], ids=["overflow", "inf"])
    def test_overflowing_row_fails_without_numpy_warning(self, corpus_dir, tmp_path, capsys, p):
        path = corpus_dir / "detector_scores.jsonl"
        lines = path.read_text().splitlines()
        lines[2] = '{"video": "v000", "t": 2, "p": ' + p + "}"
        path.write_text("\n".join(lines) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would end the command with exit 3
            assert main(["run", "--data", str(corpus_dir), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert f"{path}:3: probability " in err
        assert "RuntimeWarning" not in err

    @pytest.mark.parametrize("name", ["detector_scores.jsonl", "classifier_scores.jsonl", "annotations.jsonl", "events"])
    def test_deep_nesting_is_validation_error(self, corpus_dir, tmp_path, capsys, name):
        if name == "events":
            path = tmp_path / "events.jsonl"
            argv = ["eval", "--events", str(path), "--annotations", str(corpus_dir / "annotations.jsonl")]
            path.write_text(json.dumps({"video": "v000", "class": 1, "frame": 40, "kind": "late", "score": 0.5}) + "\n")
        else:
            path = corpus_dir / name
            argv = ["run", "--data", str(corpus_dir)]
        lines = path.read_text().splitlines()
        lines.insert(1, "[" * 200_000)
        path.write_text("\n".join(lines) + "\n")
        assert main(argv + ["--out", str(tmp_path / "o")]) == 1
        assert f"{path}:2: invalid JSON (nesting too deep)" in capsys.readouterr().err

    @pytest.mark.parametrize("side", ["before", "after"])
    @pytest.mark.parametrize("name", ["detector_scores.jsonl", "classifier_scores.jsonl", "annotations.jsonl", "events"])
    def test_whitespace_json_does_not_allow_is_validation_error(self, corpus_dir, tmp_path, capsys, name, side):
        if name == "events":
            path = tmp_path / "events.jsonl"
            argv = ["eval", "--events", str(path), "--annotations", str(corpus_dir / "annotations.jsonl")]
            event = {"video": "v000", "class": 1, "frame": 40, "kind": "late", "score": 0.5}
            path.write_text("".join(json.dumps({**event, "frame": f}) + "\n" for f in (40, 80)))
        else:
            path = corpus_dir / name
            argv = ["run", "--data", str(corpus_dir)]
        lines = path.read_text().split("\n")
        out = tmp_path / "o"
        for char in NON_JSON_WHITESPACE:
            line = char + lines[1] if side == "before" else lines[1] + char
            with pytest.raises(json.JSONDecodeError) as refused:
                json.loads(line)
            path.write_text("\n".join([lines[0], line, *lines[2:]]))
            assert main(argv + ["--out", str(out)]) == 1
            assert f"{path}:2: invalid JSON ({refused.value.msg})" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("name", ["detector_scores.jsonl", "classifier_scores.jsonl", "annotations.jsonl"])
    def test_overlong_integer_is_validation_error(self, corpus_dir, tmp_path, capsys, name):
        path = corpus_dir / name
        lines = path.read_text().splitlines()
        lines.insert(1, LONG_INT_LINE)
        path.write_text("\n".join(lines) + "\n")
        assert main(["run", "--data", str(corpus_dir), "--out", str(tmp_path / "o")]) == 1
        assert f"{path}:2: invalid JSON (Exceeds the limit (4300 digits)" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("scored_by_detector", [False, True], ids=["no-stream", "detector-only"])
    def test_annotated_video_without_streams_is_validation_error(
        self, corpus_dir, tmp_path, capsys, command, scored_by_detector
    ):
        annotations = corpus_dir / "annotations.jsonl"
        with open(annotations, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"video": "ghost", "class": 1, "start": 40, "end": 70}) + "\n")
        if scored_by_detector:
            with open(corpus_dir / "detector_scores.jsonl", "a", encoding="utf-8") as fh:
                fh.writelines(json.dumps({"video": "ghost", "t": t, "p": [0.5, 0.5]}) + "\n" for t in range(100))
        out = tmp_path / "o"
        assert main([command, "--data", str(corpus_dir), "--out", str(out)]) == 1
        missing = "classifier" if scored_by_detector else "detector"
        assert f"error: {annotations}: no {missing} stream for ghost" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("text", ["", "\n \r\n\t\n"], ids=["empty", "blank"])
    def test_annotation_file_without_records_is_named(self, corpus_dir, tmp_path, capsys, command, text):
        annotations = corpus_dir / "annotations.jsonl"
        annotations.write_text(text, encoding="utf-8")
        out = tmp_path / "o"
        assert main([command, "--data", str(corpus_dir), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"error: {annotations}: no annotation records" in err
        assert "skipping" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize(
        "field,value,message",
        [("class", 99, "class 99 outside [0, 6)"), ("start", -5, "v000: negative segment start -5")],
        ids=["class-beyond-classifier", "negative-start"],
    )
    def test_bad_annotation_is_validation_error(self, corpus_dir, tmp_path, capsys, command, field, value, message):
        path = corpus_dir / "annotations.jsonl"
        lines = path.read_text().splitlines()
        record = json.loads(lines[0])
        record[field] = value
        lines[0] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        assert main([command, "--data", str(corpus_dir), "--out", str(out)]) == 1
        assert f"{path}:1: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_tau_is_validation_error(self, corpus_dir, tmp_path):
        code = main([
            "sweep", "--data", str(corpus_dir), "--out", str(tmp_path / "s"), "--taus", "-0.5",
        ])
        assert code == 1


# A valid value for every config field, its text form and what the JSON holds.
PIPELINE_VALUES = {
    "classifier_window": ("16", 16),
    "stride": ("2", 2),
    "filter_kind": ("ewa", "ewa"),
    "filter_size": ("3", 3),
    "gate_on_threshold": ("0.6", 0.6),
    "deactivate_count": ("2", 2),
    "tau_early": ("0.3", 0.3),
    "tau_late": ("0.2", 0.2),
    "mean_duration": ("20.5", 20.5),
    "sigmoid_slope": ("0.5", 0.5),
}
SYNTH_VALUES = {
    "num_videos": ("2", 2),
    "gestures_per_video": ("2", 2),
    "num_classes": ("4", 4),
    "duration_mean": ("30.5", 30.5),
    "duration_spread": ("2.5", 2.5),
    "gap_mean": ("40.5", 40.5),
    "gap_spread": ("3.5", 3.5),
    "phase_fractions": ("0.2,0.6,0.2", [0.2, 0.6, 0.2]),
    "detector_base": ("0.8", 0.8),
    "noise_sigma": ("0.01", 0.01),
    "prep_ambiguity": ("0.25", 0.25),
    "seed": ("5", 5),
    "edge_ramp": ("4", 4),
}
# Keeps generated corpora small; a field's own line or flag comes later and wins.
SMALL_SYNTH = "num_videos = 1\ngestures_per_video = 1\nnum_classes = 3\n"



@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("small") / "corpus"
    assert main(GEN_SMALL + ["--out", str(out)]) == 0
    return out


# Whitespace that str.strip removes and json.loads refuses around a value.
NON_JSON_WHITESPACE = ["\xa0", "\x85", "\u2028", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f"]
# A 5,001-digit integer, past Python's int-string conversion limit.
LONG_INT_LINE = '{"video": "v000", "t": 1' + "0" * 5_000 + ', "p": [0.5, 0.5]}'
# Replacement lines at the edges of the decoder and the loaders: deep nesting,
# numbers out of every range, non-finite tokens, surrogates, a BOM, two objects.
NASTY_LINES = [
    "[" * 200_000,
    '{"video": "v000", "t": 0, "p": ' + "[" * 100_000 + "}",
    LONG_INT_LINE,
    '{"video": "v000", "t": 10000000000000000000000, "p": [0.5, 0.5]}',
    '{"video": "v000", "t": 0, "p": [1e400, -1e400]}',
    '{"video": "v000", "t": 0, "p": [NaN, Infinity]}',
    '{"video": "\\ud800", "t": 0, "p": [0.5, 0.5]}',
    '\ufeff{"video": "v000", "t": 0, "p": [0.5, 0.5]}',
    '{"video": "v000", "t": 0, "p": [0.5, 0.5]} {}',
    '{"video": "v000", "class": 1e400, "start": 0, "end": 10}',
    '{"video": "v000", "class": 0, "start": 0, "end": 100000000000000000000}',
]


class TestBadInputNeverInternalError:
    @given(
        name=st.sampled_from(["detector_scores.jsonl", "classifier_scores.jsonl", "annotations.jsonl"]),
        index=st.integers(0, 10**6),
        text=st.one_of(st.sampled_from(NASTY_LINES), st.text()),
    )
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_run_exits_zero_or_one(self, small_corpus, name, index, text):
        with tempfile.TemporaryDirectory() as tmp:
            data = Path(tmp) / "corpus"
            shutil.copytree(small_corpus, data)
            lines = (data / name).read_text(encoding="utf-8").splitlines()
            lines[index % len(lines)] = text
            (data / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
            assert main(["run", "--data", str(data), "--out", str(Path(tmp) / "out")]) in (0, 1)


HOSTILE_CONFIG = b"# three keys\nstride = 1\ntau_late = 0.4\nfilter_kind = ewa\n"
# The input files a draw may mutate, each with the commands that read it.
HOSTILE_TARGETS = {
    "detector_scores.jsonl": ("run", "sweep"),
    "classifier_scores.jsonl": ("run", "sweep"),
    "annotations.jsonl": ("run", "sweep", "eval"),
    "events.jsonl": ("eval",),
    "run.cfg": ("run", "sweep"),
}


@pytest.fixture(scope="module")
def hostile_inputs(tmp_path_factory):
    """A 2-video corpus, its run's events and a 3-key config file, as bytes keyed by file name."""
    base = tmp_path_factory.mktemp("hostile")
    gen = ["gen", "--videos", "2", "--gestures-per-video", "2", "--num-classes", "3", "--seed", "1"]
    assert main(gen + ["--out", str(base / "corpus")]) == 0
    assert main(["run", "--data", str(base / "corpus"), "--out", str(base / "run")]) == 0
    files = {name: (base / "corpus" / name).read_bytes() for name in CORPUS_FILES if name != "manifest.json"}
    return {**files, "events.jsonl": (base / "run" / "events.jsonl").read_bytes(), "run.cfg": HOSTILE_CONFIG}


@st.composite
def mutated(draw, data: bytes) -> bytes:
    """data with one drawn fault: a flipped or inserted byte, a cut, a BOM or NUL, mixed line ends, or a moved line."""
    kind = draw(st.sampled_from(["flip", "insert", "truncate", "empty", "bom", "nul", "newlines", "dup", "swap"]))
    at = draw(st.integers(0, len(data) - (kind == "flip")))
    if kind == "flip":
        return data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1 :]
    if kind in ("insert", "bom", "nul"):
        mark = {"insert": bytes([draw(st.integers(0, 255))]), "bom": b"\xef\xbb\xbf", "nul": b"\x00"}[kind]
        return data[:at] + mark + data[at:]
    if kind == "truncate":
        return data[:at]
    if kind == "empty":
        return b""
    if kind == "newlines":
        ends = draw(st.lists(st.sampled_from([b"\n", b"\r\n", b"\r"]), min_size=data.count(b"\n"),
                             max_size=data.count(b"\n")))
        pieces = data.split(b"\n")
        return b"".join(piece + end for piece, end in zip(pieces, ends)) + pieces[-1]
    lines = data.splitlines(keepends=True)
    if not lines:
        return data
    i, j = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, len(lines) - 1))
    if kind == "dup":
        lines.insert(i, lines[i])
    else:
        lines[i], lines[j] = lines[j], lines[i]
    return b"".join(lines)


PIPELINE_FIELDS = tuple(f.name for f in fields(PipelineConfig))


class TestHostileBytes:
    @given(data=st.data())
    @settings(max_examples=600, deadline=None, derandomize=True)
    def test_exit_is_zero_or_one_and_names_the_file(self, hostile_inputs, data):
        target = data.draw(st.sampled_from(sorted(HOSTILE_TARGETS)), label="target")
        command = data.draw(st.sampled_from(HOSTILE_TARGETS[target]), label="command")
        content = data.draw(mutated(hostile_inputs[target]), label="content")
        with tempfile.TemporaryDirectory() as tmp:
            base = Path(tmp)
            paths = {name: base / name for name in hostile_inputs}
            for name, path in paths.items():
                path.write_bytes(content if name == target else hostile_inputs[name])
            if command == "eval":
                argv = ["eval", "--events", str(paths["events.jsonl"]),
                        "--annotations", str(paths["annotations.jsonl"])]
            else:
                argv = [command, "--data", str(base), "--config", str(paths["run.cfg"])]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(argv + ["--out", str(base / "out")])
            assert code in (0, 1), err.getvalue()
            if code == 1:
                assert not (base / "out").exists()
                message = next(line for line in err.getvalue().splitlines() if line.startswith("error: "))[7:]
                if target == "run.cfg" and message.startswith(PIPELINE_FIELDS):
                    return  # a value out of range, named by its field
                named = next((p for p in paths.values() if message.startswith(f"{p}:")), None)
                assert named is not None, message
                line = re.match(r":(\d+): ", message[len(str(named)) :])
                if line:
                    with open(named, encoding="utf-8", errors="surrogateescape") as fh:
                        assert 1 <= int(line[1]) <= len(fh.readlines()), message
                return
            with contextlib.redirect_stderr(io.StringIO()):
                assert main(argv + ["--out", str(base / "again")]) == 0
            assert tree(base / "out") == tree(base / "again")


def float_flags(command):
    """The --flags of a command that parse floats, phase_fractions' three included."""
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    return [a.option_strings[-1] for a in commands[command]._actions if a.type in (float, cli._parse_fractions)]


# Huge finite values are left out for gen, which sizes its arrays by its durations and gaps.
EXTREME_FLOATS = {"run": ["inf", "-inf", "nan", "1e308", "1e-308", "100.0"], "gen": ["inf", "-inf", "nan"]}
EXTREME_FLOATS["sweep"] = EXTREME_FLOATS["run"]
SMALL_GEN = ["--videos", "1", "--gestures-per-video", "1", "--num-classes", "2"]


class TestExtremeFloatFlags:
    @pytest.mark.parametrize("command,flag,text", [
        (command, flag, text)
        for command in ("run", "sweep", "gen") for flag in float_flags(command) for text in EXTREME_FLOATS[command]
    ])
    def test_exits_zero_or_one(self, small_corpus, tmp_path, capsys, monkeypatch, command, flag, text):
        loads = []
        load_corpus = cli.load_corpus
        monkeypatch.setattr(cli, "load_corpus", lambda *paths: loads.append(paths) or load_corpus(*paths))
        value = ",".join([text] * 3) if flag == "--phase-fractions" else text
        out = tmp_path / "out"
        inputs = SMALL_GEN if command == "gen" else ["--data", str(small_corpus)]
        code = main([command, "--out", str(out), f"{flag}={value}"] + inputs)  # = lets a value start with -
        assert code in (0, 1)
        if code == 1:
            field = "tau_early" if flag == "--taus" else flag[2:].replace("-", "_")
            assert field in capsys.readouterr().err
            assert not loads and not out.exists()
        else:
            assert all("NaN" not in p.read_text() and "Infinity" not in p.read_text() for p in out.iterdir())


class TestConfigFields:
    """Every config field is a --field-name flag and a field_name config key, bar the class count."""

    @pytest.mark.parametrize("name", [f.name for f in fields(PipelineConfig) if f.name != "num_classes"])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_pipeline_field_reaches_report(self, corpus_dir, tmp_path, name, via):
        text, want = PIPELINE_VALUES[name]
        cfg = tmp_path / "pipeline.cfg"
        cfg.write_text(f"{name} = {text}\n")
        out = tmp_path / "run"
        setting = ["--" + name.replace("_", "-"), text] if via == "flag" else ["--config", str(cfg)]
        assert main(["run", "--data", str(corpus_dir), "--out", str(out)] + setting) == 0
        config = json.loads((out / "report.json").read_text())["config"]
        assert config[name] == want
        assert set(config) == {f.name for f in fields(PipelineConfig)}

    @pytest.mark.parametrize("name", [f.name for f in fields(SynthConfig)])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_synth_field_reaches_manifest(self, tmp_path, name, via):
        text, want = SYNTH_VALUES[name]
        cfg = tmp_path / "synth.cfg"
        own_line = f"{name} = {text}\n" if via == "config" else ""
        cfg.write_text(SMALL_SYNTH + own_line)
        out = tmp_path / "gen"
        flag = ["--" + name.replace("_", "-"), text] if via == "flag" else []
        assert main(["gen", "--out", str(out), "--config", str(cfg)] + flag) == 0
        synth = json.loads((out / "manifest.json").read_text())["synth_config"]
        assert synth[name] == want
        assert set(synth) == {f.name for f in fields(SynthConfig)}


class TestAtomicWrite:
    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        def writer(tmp):
            tmp.write_text("partial")
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            _atomic_write_with(tmp_path / "events.jsonl", writer)
        with pytest.raises(UnicodeEncodeError):
            _atomic_write_text(tmp_path / "report.json", "\ud800")
        assert list(tmp_path.iterdir()) == []

    def test_writers_never_share_a_temp_file(self, tmp_path):
        names = []

        def writer(tmp):
            names.append(tmp.name)
            tmp.write_text("x")

        _atomic_write_with(tmp_path / "report.json", writer)
        _atomic_write_with(tmp_path / "report.json", writer)
        assert names[0] != names[1]
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def tree(base: Path) -> dict:
    """Every file under base, keyed by its path relative to base; {} when base does not exist."""
    return {str(p.relative_to(base)): p.read_bytes() for p in sorted(base.rglob("*")) if p.is_file()}


def fresh_main(argv) -> subprocess.CompletedProcess:
    """`python -m gesturestream argv` in a new interpreter that imports this same package."""
    env = {**os.environ, "PYTHONPATH": str(Path(gesturestream.__file__).resolve().parent.parent), "COLUMNS": "80"}
    return subprocess.run(
        [sys.executable, "-m", "gesturestream", *argv], env=env, capture_output=True, text=True, timeout=300
    )


@pytest.fixture(scope="module")
def small_events(small_corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("small_run")
    assert main(["run", "--data", str(small_corpus), "--out", str(out)]) == 0
    return out / "events.jsonl"


EVAL_ARGS = ["eval", "--events", "{events}", "--annotations", "{annotations}", "--out", "{out}"]
# Two calls made in one process, in this order: the second must not see the first's flags.
REUSE_SEQUENCES = {
    "trace-then-plain-run": [
        (["run", "--data", "{data}", "--out", "{out}", "--trace"], 0),
        (["run", "--data", "{data}", "--out", "{out}"], 0),
    ],
    "taus-then-default-sweep": [
        (["sweep", "--data", "{data}", "--out", "{out}", "--taus", "0.3"], 0),
        (["sweep", "--data", "{data}", "--out", "{out}"], 0),
    ],
    "grace-then-default-eval": [(EVAL_ARGS + ["--grace", "0"], 0), (EVAL_ARGS, 0)],
    "usage-error-then-run": [
        (["run", "--data", "{data}"], 1),
        (["run", "--data", "{data}", "--out", "{out}"], 0),
    ],
}


class TestParserReuse:
    @pytest.mark.parametrize("sequence", list(REUSE_SEQUENCES))
    def test_each_call_writes_what_a_fresh_interpreter_writes(self, small_corpus, small_events, tmp_path, sequence):
        def argv_for(template, out):
            paths = {"data": small_corpus, "events": small_events,
                     "annotations": small_corpus / "annotations.jsonl", "out": out}
            return [arg.format(**paths) for arg in template]

        steps = REUSE_SEQUENCES[sequence]
        for i, (template, code) in enumerate(steps):
            assert main(argv_for(template, tmp_path / "in" / str(i))) == code
        second = tmp_path / "in" / "1"
        if sequence == "trace-then-plain-run":
            assert (tmp_path / "in" / "0" / "traces").is_dir() and not (second / "traces").exists()
        elif sequence == "taus-then-default-sweep":
            assert len((second / "sweep.csv").read_text().splitlines()) == 1 + 9
        elif sequence == "grace-then-default-eval":
            assert json.loads((second / "report.json").read_text())["grace"] == 32
        for i, (template, code) in enumerate(steps):
            assert fresh_main(argv_for(template, tmp_path / "fresh" / str(i))).returncode == code
            assert tree(tmp_path / "in" / str(i)) == tree(tmp_path / "fresh" / str(i))

    def test_later_calls_build_no_parser(self, small_corpus, small_events, tmp_path, capsys, monkeypatch):
        assert main(["run"]) == 1  # the warm-up call
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        data = ["--data", str(small_corpus)]
        assert main(GEN_SMALL + ["--out", str(tmp_path / "gen")]) == 0
        assert main(["run", *data, "--out", str(tmp_path / "run")]) == 0
        assert main(["eval", "--events", str(small_events), "--annotations", str(small_corpus / "annotations.jsonl"),
                     "--out", str(tmp_path / "eval")]) == 0
        assert main(["sweep", *data, "--out", str(tmp_path / "sweep")]) == 0
        assert main(["sweep", *data]) == 1
        assert main(["--help"]) == 0
        assert built == []
        assert cli.build_parser() is cli.build_parser()

    def test_command_looked_up_when_called(self, tmp_path, monkeypatch):
        assert main(["run"]) == 1  # the parser exists before the patch
        seen = []
        monkeypatch.setattr(cli, "cmd_eval", lambda args: seen.append(args.grace) or 7)
        argv = ["eval", "--events", "e.jsonl", "--annotations", "a.jsonl", "--out", str(tmp_path), "--grace", "3"]
        assert main(argv) == 7
        assert seen == [3]


class TestFreshProcess:
    def test_module_entry_point_matches_in_process_main(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # as fresh_main sets it, so both wrap help text alike

        def commands(base):
            corpus, run = base / "corpus", base / "run"
            return [
                GEN_SMALL + ["--out", str(corpus)],
                ["run", "--data", str(corpus), "--out", str(run)],
                ["eval", "--events", str(run / "events.jsonl"), "--annotations", str(corpus / "annotations.jsonl"),
                 "--out", str(base / "eval")],
                ["sweep", "--data", str(corpus), "--out", str(base / "sweep")],
            ]

        for argv in commands(tmp_path / "in"):
            assert main(argv) == 0
        for argv in commands(tmp_path / "fresh"):
            proc = fresh_main(argv)
            assert proc.returncode == 0, proc.stderr
        assert tree(tmp_path / "in") == tree(tmp_path / "fresh")
        assert len(tree(tmp_path / "in")) == len(CORPUS_FILES) + 2 + 1 + 1

        capsys.readouterr()
        assert main(["--help"]) == 0
        proc = fresh_main(["--help"])
        assert proc.returncode == 0
        assert proc.stdout == capsys.readouterr().out
