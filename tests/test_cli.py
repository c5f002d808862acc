import json
import warnings
from dataclasses import fields

import pytest

from gesturestream.cli import _atomic_write_text, _atomic_write_with, main
from gesturestream.core import PipelineConfig
from gesturestream.scoring import SynthConfig

GEN_SMALL = [
    "gen", "--seed", "42", "--videos", "4", "--gestures-per-video", "3",
    "--num-classes", "6", "--noise-sigma", "0", "--prep-ambiguity", "0",
]

CORPUS_FILES = ["detector_scores.jsonl", "classifier_scores.jsonl", "annotations.jsonl", "manifest.json"]


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

    def test_missing_data_dir_is_io_error(self, tmp_path):
        code = main(["run", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_num_classes_mismatch_rejected(self, corpus_dir, tmp_path):
        code = main([
            "run", "--data", str(corpus_dir), "--out", str(tmp_path / "o"),
            "--num-classes", "9",
        ])
        assert code == 1

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

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

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

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_annotated_video_without_streams_is_validation_error(self, corpus_dir, tmp_path, capsys, command):
        with open(corpus_dir / "annotations.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"video": "ghost", "class": 1, "start": 40, "end": 70}) + "\n")
        out = tmp_path / "o"
        assert main([command, "--data", str(corpus_dir), "--out", str(out)]) == 1
        assert "no detector stream for ghost" in capsys.readouterr().err
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
    "num_classes": ("6", 6),  # must match the classifier arity
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


class TestConfigFields:
    """Every config field is a --field-name flag and a field_name config key."""

    @pytest.mark.parametrize("name", [f.name for f in fields(PipelineConfig)])
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
