import json
import math
import re
import struct
from dataclasses import replace
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings, strategies as st

from gesturestream import scoring
from gesturestream.cli import load_events_file, write_events_file
from gesturestream.core import INGEST_RENORM_TOL, PROB_SUM_TOL, ConfigError, PipelineConfig, ProbVector, ingest_probs
from gesturestream.pipeline import run_corpus
from gesturestream.scoring import (
    ScoreStream,
    StreamFormatError,
    SynthConfig,
    SynthesisError,
    generate_synthetic,
    iter_records,
    load_annotations,
    load_corpus,
    load_score_stream,
    write_annotation_file,
    write_score_file,
)


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def dense_stream():
    """Frames 0..30 at (0.5, 0.5), frame 31 at (0.1, 0.9)."""
    rows = np.full((32, 2), 0.5)
    rows[31] = (0.1, 0.9)
    return ScoreStream("v01", rows)


class TestScoreStream:
    def test_lookup(self):
        stream = dense_stream()
        assert stream.length == 32
        assert stream.score(31).values == (0.1, 0.9)

    def test_missing_entry_names_video_and_frame(self):
        stream = dense_stream()
        for t in (32, 33, -1):
            with pytest.raises(ValueError, match=rf"no score for v01@{t}"):
                stream.score(t)

    def test_rows_read_only(self):
        stream = dense_stream()
        with pytest.raises(ValueError, match="read-only"):
            stream.rows[0, 0] = 0.2

    def test_out_of_range_row_rejected(self):
        rows = np.full((10, 3), 1.0 / 3.0)
        rows[5] = (5.0, -4.0, 0.0)  # sums to 1
        with pytest.raises(ValueError, match=r"^c@5: probability 5.0 outside \[0, 1\]$"):
            ScoreStream("c", rows)

    @pytest.mark.parametrize("rows", [
        np.full(4, 0.5),
        np.ones((4, 1)),
        np.array([[0, 1], [1, 0]]),
    ], ids=["1-d", "one-class", "int"])
    def test_bad_shape_rejected(self, rows):
        with pytest.raises(ValueError, match="^v: .* rows of shape"):
            ScoreStream("v", rows)

    @pytest.mark.parametrize("shape", [(0, 2), (4, 3), (1, 83)])
    def test_arity_is_the_column_count(self, shape):
        rows = np.full(shape, 1.0 / shape[1])
        assert ScoreStream("v", rows).arity == rows.shape[1]


class TestLoadScoreStream:
    def test_three_line_file(self, tmp_path):
        path = tmp_path / "det.jsonl"
        write_lines(path, [
            json.dumps({"video": "a", "t": 31, "p": [0.1, 0.9]}),
            json.dumps({"video": "a", "t": 32, "p": [0.2, 0.8]}),
            json.dumps({"video": "a", "t": 33, "p": [0.3, 0.7]}),
        ])
        with pytest.raises(StreamFormatError, match=rf"^{re.escape(str(path))}: no score for a@0$"):
            load_score_stream(path, expected_arity=2)
        write_lines(path, [
            json.dumps({"video": "a", "t": 2, "p": [0.3, 0.7]}),
            json.dumps({"video": "a", "t": 0, "p": [0.1, 0.9]}),
            json.dumps({"video": "a", "t": 1, "p": [0.2, 0.8]}),
        ])
        streams = load_score_stream(path, expected_arity=2)
        assert set(streams) == {"a"}
        assert streams["a"].rows.tolist() == [[0.1, 0.9], [0.2, 0.8], [0.3, 0.7]]

    def test_first_gap_named_in_video_order(self, tmp_path):
        path = tmp_path / "det.jsonl"
        write_lines(path, [json.dumps({"video": "b", "t": t, "p": [0.5, 0.5]}) for t in (0, 2)]
                    + [json.dumps({"video": "a", "t": t, "p": [0.5, 0.5]}) for t in (0, 1, 3, 5)])
        with pytest.raises(StreamFormatError, match=r": no score for a@2$"):
            load_score_stream(path)

    def test_duplicate_key_reports_line(self, tmp_path):
        path = tmp_path / "det.jsonl"
        write_lines(path, [
            json.dumps({"video": "a", "t": 31, "p": [0.1, 0.9]}),
            json.dumps({"video": "a", "t": 31, "p": [0.2, 0.8]}),
        ])
        with pytest.raises(StreamFormatError, match=r":2: duplicate entry for a@31"):
            load_score_stream(path)

    @pytest.mark.parametrize("t", [10**15, 10**18])
    def test_frame_index_too_large_to_hold(self, tmp_path, t):
        path = tmp_path / "det.jsonl"
        write_lines(path, [
            json.dumps({"video": "a", "t": 31, "p": [0.1, 0.9]}),
            json.dumps({"video": "a", "t": t, "p": [0.1, 0.9]}),
        ])
        with pytest.raises(StreamFormatError, match=r": no score for a@0$"):
            load_score_stream(path)

    def test_arity_mismatch(self, tmp_path):
        path = tmp_path / "det.jsonl"
        write_lines(path, [json.dumps({"video": "a", "t": 31, "p": [0.2, 0.3, 0.5]})])
        with pytest.raises(StreamFormatError, match="expected 2"):
            load_score_stream(path, expected_arity=2)
        write_lines(path, [json.dumps({"video": "a", "t": 0, "p": [1.0]})])
        with pytest.raises(StreamFormatError, match=":1: probability vector needs >= 2 classes, got 1$"):
            load_score_stream(path)

    def test_inconsistent_arity_across_lines(self, tmp_path):
        path = tmp_path / "cls.jsonl"
        write_lines(path, [
            json.dumps({"video": "a", "t": 31, "p": [0.2, 0.3, 0.5]}),
            json.dumps({"video": "a", "t": 32, "p": [0.5, 0.5]}),
        ])
        with pytest.raises(StreamFormatError, match=":2: expected 3"):
            load_score_stream(path)

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "det.jsonl"
        write_lines(path, [
            json.dumps({"video": "a", "t": 31, "p": [0.1, 0.9]}),
            "{not json",
        ])
        with pytest.raises(StreamFormatError, match=":2: invalid JSON"):
            load_score_stream(path)
        # a blank line is skipped but still counted
        write_lines(path, [json.dumps({"video": "a", "t": 0, "p": [0.1, 0.9]}), "", "[1, 2]"])
        with pytest.raises(StreamFormatError, match=":3: expected a JSON object$"):
            load_score_stream(path)

    def test_near_one_sum_renormalized(self, tmp_path):
        path = tmp_path / "det.jsonl"
        write_lines(path, [json.dumps({"video": "a", "t": 0, "p": [0.4995, 0.5]})])
        vec = load_score_stream(path)["a"].score(0)
        assert abs(math.fsum(vec.values) - 1.0) <= 1e-9

    def test_unknown_fields_ignored_any_order(self, tmp_path):
        path = tmp_path / "det.jsonl"
        write_lines(path, [
            json.dumps({"p": [0.1, 0.9], "extra": "x", "video": "a", "t": 0, "note": 5}),
        ])
        assert load_score_stream(path)["a"].score(0).values == (0.1, 0.9)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "det.jsonl"
        write_lines(path, [json.dumps({"video": "a", "p": [0.1, 0.9]})])
        with pytest.raises(StreamFormatError, match="'t'"):
            load_score_stream(path)
        write_lines(path, [json.dumps({"video": "a", "t": -1, "p": [0.1, 0.9]})])
        with pytest.raises(StreamFormatError, match=":1: negative frame index -1$"):
            load_score_stream(path)
        write_lines(path, [
            json.dumps({"video": "a", "t": 0, "p": [0.1, 0.9]}),
            json.dumps({"video": "a", "t": 1, "p": 0.9}),
        ])
        with pytest.raises(StreamFormatError, match=":2: missing or invalid field 'p'$"):
            load_score_stream(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "det.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(StreamFormatError, match="no score records"):
            load_score_stream(path)

    def test_bad_row_names_its_line_past_blank_lines(self, tmp_path):
        path = tmp_path / "det.jsonl"
        good = [json.dumps({"video": "a", "t": t, "p": [0.5, 0.5]}) for t in range(5)]
        write_lines(path, good[:2] + ["", "  "] + good[2:] + ["", json.dumps({"video": "a", "t": 5, "p": [0.5, 0.6]})])
        with mock.patch.object(scoring, "CHUNK_RECORDS", 2):
            with pytest.raises(StreamFormatError, match=r":9: probabilities sum to 1\.1, "):
                load_score_stream(path)

    @pytest.mark.parametrize("lineno,line", [
        (901, json.dumps({"video": "v", "t": 0, "p": [0.5, 0.5]})),  # a duplicate, in line 5's block of 1,024
        (901, '{"video": "v", "t": 900'),  # a line that fails to decode, in the same block
        (1101, json.dumps({"video": "v", "t": -1, "p": [0.5, 0.5]})),  # a negative frame, in the next block
    ], ids=["duplicate", "undecodable", "negative-frame"])
    def test_first_bad_line_named_wherever_the_block_ends(self, tmp_path, lineno, line):
        path = tmp_path / "s.jsonl"
        lines = [json.dumps({"video": "v", "t": t, "p": [0.5, 0.6] if t == 4 else [0.5, 0.5]}) for t in range(1500)]
        lines[lineno - 1] = line
        write_lines(path, lines)
        with pytest.raises(StreamFormatError, match=r"s\.jsonl:5: probabilities sum to 1\.1, "):
            load_score_stream(path)

    def test_deep_nesting_is_format_error(self, tmp_path):
        path = tmp_path / "det.jsonl"
        for line in ["[" * 200_000, "[" * 5_000 + "]" * 5_000, '{"p": ' + "[" * 5_000 + "]" * 5_000 + "}"]:
            write_lines(path, [json.dumps({"video": "a", "t": 0, "p": [0.5, 0.5]}), line])
            with pytest.raises(StreamFormatError, match=r"^.*det\.jsonl:2: invalid JSON \(nesting too deep\)$"):
                load_score_stream(path)


def reference_records(path):
    """The per-line json.loads reader that iter_records must match record for record and error for error."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip(" \t\r\n")  # JSON's whitespace; json.loads refuses any other around a value
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise StreamFormatError(f"{where}: invalid JSON ({exc.msg})") from None
            except ValueError as exc:  # an integer of too many digits for int()
                raise StreamFormatError(f"{where}: invalid JSON ({exc})") from None
            except RecursionError:
                raise StreamFormatError(f"{where}: invalid JSON (nesting too deep)") from None
            if not isinstance(record, dict):
                raise StreamFormatError(f"{where}: expected a JSON object")
            yield lineno, record


def read_outcome(reader, path) -> list:
    """Every (line, record) a reader yields, then the type and text of the error that stopped it, if any."""
    out = []
    try:
        for lineno, record in reader(path):
            out.append((lineno, repr(record)))  # repr, so that NaN compares equal to NaN
    except ValueError as exc:  # StreamFormatError, or any other ValueError a reader lets escape
        out.append((type(exc), str(exc)))
    return out


# Characters str.strip removes: JSON whitespace, which a line may be padded with, and whitespace JSON does not allow.
STRIPPED = [" ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2000", "\u2028", "\u3000"]
JSON_LINES = [
    '{"video": "a", "t": 0, "p": [0.5, 0.5]}',
    "{}",
    "{} {}",
    '{"a": 1}{"b": 2}',
    '{"a": 1} x',
    '{"a": 1},',
    "\ufeff{}",
    '{"p": [NaN, Infinity, -Infinity]}',
    '{"p": NaN}',
    '{"p": nan}',
    '{"s": "\\ud800"}',
    '{"s": "\\udc00\\ud800x"}',
    '{"s": "\\ud8"}',
    '{"n": ' + "9" * 400 + "}",
    '{"n": ' + "9" * 5_000 + "}",
    '{"n": -0, "m": 1e400, "k": 1E-400}',
    "[" * 200_000,
    '{"a": ' + "[" * 3_000 + "]" * 3_000 + "}",
    '{"a": ' + "[" * 500 + "]" * 500 + "}",
    "[1, 2]",
    '"text"',
    "null",
    '{"a": 1',
    '{"a" 1}',
    "{'a': 1}",
    '{"a": "tab\there"}',
    '{"a":\t1 ,\n"b" : 2}',
    # integers outside [-2**63, 2**64), which orjson decodes to floats
    '{"t": 18446744073709551616}',
    '{"t": -9223372036854775809}',
    '{"p": [0.5, 18446744073709551616]}',
    '{"p": [-9223372036854775809, 0.5]}',
    '{"s": "[{"}',
    # nesting json always rejects and orjson decodes
    '{"a": ' + "[" * 1_000 + "]" * 1_000 + "}",
    '{"a": ' + "[" * 1_024 + "]" * 1_024 + "}",
    '{"a": ' + "[" * 5_000 + "]" * 5_000 + "}",
    '{"a": ' * 1_024 + "1" + "}" * 1_024,
    '{"p": [2.4703282292062328e-324, 5e-324, 1e-400, -1e-400]}',
]
ENDINGS = ["\n", "\r\n", "\r", ""]


@st.composite
def jsonl_text(draw):
    """A file's text: lines from JSON_LINES, arbitrary JSON or arbitrary text, each padded and ended at random."""
    values = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
        max_leaves=6,
    )
    line = st.one_of(
        st.sampled_from(JSON_LINES),
        st.dictionaries(st.text(max_size=3), values, max_size=3).map(json.dumps),
        st.text(max_size=20),
    )
    pad = st.text(st.sampled_from(STRIPPED), max_size=2)
    parts = []
    for _ in range(draw(st.integers(1, 6))):
        parts.append(draw(pad) + draw(line) + draw(pad) + draw(st.sampled_from(ENDINGS)))
    return "".join(parts)


class TestReaderMatchesJsonLoads:
    @given(jsonl_text())
    @example(text="{}\n{} {}\n")
    @example(text='{"a": 1}\r{"b": 2}\r\n\ufeff{}\n')
    @example(text='\x0b{"p": [NaN]}\x1c\u3000\n' + "[" * 200_000 + "\n")
    @example(text='{"s": "\\ud800"}\n{"n": ' + "9" * 5_000 + "}\n")
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_same_records_and_errors(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("jsonl") / "records.jsonl"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        assert read_outcome(iter_records, path) == read_outcome(reference_records, path)

    @pytest.mark.parametrize("index", range(len(JSON_LINES)))
    def test_every_listed_line(self, tmp_path, index):
        """The property draws from JSON_LINES at random; this checks each line, after a valid one."""
        path = tmp_path / "records.jsonl"
        write_lines(path, ["{}", JSON_LINES[index]])
        assert read_outcome(iter_records, path) == read_outcome(reference_records, path)


# Whitespace str.strip removes and json.loads refuses around a value; CR and LF only end a line.
NON_JSON_WHITESPACE = [
    "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u1680", "\u2000", "\u2028", "\u2029", "\u3000",
]
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.floats()  # json.dumps writes NaN, Infinity and -Infinity for the non-finite ones
    | st.integers()
    | st.integers(2**62, 2**80)
    | st.integers(-(2**80), -(2**62))
    | st.text(max_size=4)
    | st.sampled_from(["\ud800", "x\udc00", "\udc00\ud800"]),  # written as \ud800-style escapes
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


class TestDecodingContract:
    """A line decodes to json.loads of it stripped of JSON's whitespace, or fails where json.loads fails."""

    @given(
        before=st.text(st.sampled_from([" ", "\t", *NON_JSON_WHITESPACE]), max_size=3),
        body=st.one_of(
            st.dictionaries(st.text(max_size=3), JSON_VALUES, max_size=4).map(json.dumps),
            JSON_VALUES.map(json.dumps),
            st.just(""),
        ),
        after=st.text(st.sampled_from([" ", "\t", *NON_JSON_WHITESPACE]), max_size=3),
        ending=st.sampled_from(["\n", "\r\n", "\r", ""]),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_record_is_json_loads_of_the_stripped_line(self, tmp_path_factory, before, body, after, ending):
        path = tmp_path_factory.mktemp("contract") / "records.jsonl"
        line = before + body + after
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(line + ending)
        stripped = line.strip(" \t")
        want = []
        if stripped:
            try:
                value = json.loads(stripped)
            except json.JSONDecodeError as exc:
                want = [(StreamFormatError, f"{path}:1: invalid JSON ({exc.msg})")]
            else:
                want = [(1, repr(value)) if type(value) is dict else (StreamFormatError, f"{path}:1: expected a JSON object")]
        assert read_outcome(iter_records, path) == want


def utf8_error(data: bytes, path) -> str | None:
    """The error a strict whole-file decode finds in data, named as "path:line" with lines counted as text mode counts them."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start].decode("utf-8")
        lineno = head.replace("\r\n", "\n").replace("\r", "\n").count("\n") + 1
        return f"{path}:{lineno}: invalid UTF-8 ({exc.reason})"
    return None


@st.composite
def undecodable_files(draw):
    """Score lines with bytes of 0x80-0xff spliced into some video ids, ended by LF, CR LF or a lone CR, the last maybe by none."""
    high = st.binary(min_size=1, max_size=4).map(lambda b: bytes(x | 0x80 for x in b))
    parts = []
    for t in range(draw(st.integers(1, 8))):
        video = b"v" + (draw(high) if draw(st.booleans()) else b"")
        parts.append(b'{"video": "%s", "t": %d, "p": [0.5, 0.5]}' % (video, t))
        parts.append(draw(st.sampled_from([b"\n", b"\r\n", b"\r"])))
    if draw(st.booleans()):
        parts.pop()
    return b"".join(parts)


class TestUndecodableBytes:
    """A byte that is not UTF-8 is named by its line, in line order, with the reason text mode gives."""

    @given(undecodable_files())
    @example(data=b'{"video": "v", "t": 0}\n{"video": "v\xff"}\n')  # invalid start byte
    @example(data=b'{"video": "v", "t": 0}\n{"video": "v\xc3("}\n')  # invalid continuation byte
    @example(data=b'{"video": "v", "t": 0}\n{"video": "v\xe2\x82\r\n')  # the same: the line's CR breaks the sequence
    @example(data=b'{"video": "v", "t": 0}\r{"video": "v\xe2\x82')  # unexpected end of data
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_line_and_reason_as_a_strict_decode_gives(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("utf8") / "records.jsonl"
        path.write_bytes(data)
        want = utf8_error(data, path)
        if want is None:
            list(iter_records(path))
        else:
            with pytest.raises(StreamFormatError) as got:
                list(iter_records(path))
            assert str(got.value) == want

    def test_earlier_bad_line_in_the_same_block_reported_first(self, tmp_path):
        # both lines lie in the first 8 KB decode block, where a bad byte used to be found before line 5 was read
        path = tmp_path / "det.jsonl"
        lines = [b'{"video": "a", "t": %d, "p": [0.5, 0.5]}' % t for t in range(8)]
        lines[4] = b'{"video": "a", "t": 4, "p": [0.5, 0.5]'
        lines[6] = lines[6].replace(b'"a"', b'"a\xff"')
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(StreamFormatError, match=r"det\.jsonl:5: invalid JSON \("):
            load_score_stream(path)

    def test_file_opened_once(self, tmp_path, monkeypatch):
        path = tmp_path / "det.jsonl"
        path.write_bytes(b"".join(b'{"video": "a", "t": %d, "p": [0.5, 0.5]}\n' % t for t in range(300)) + b'{"video": "\xff"}\n')
        opened = []
        real_open = open
        monkeypatch.setattr("builtins.open", lambda *args, **kw: opened.append(args[0]) or real_open(*args, **kw))
        with pytest.raises(StreamFormatError, match=r"det\.jsonl:301: invalid UTF-8 \(invalid start byte\)"):
            load_score_stream(path)
        assert opened == [path]


@st.composite
def decimal_numbers(draw):
    """A JSON number of 1-30 digits, with or without a fraction and an exponent in -340..320."""
    digits = draw(st.text("0123456789", min_size=1, max_size=30))
    point = draw(st.integers(1, len(digits)))
    whole, fraction = digits[:point], digits[point:]
    if len(whole) > 1:
        whole = whole.lstrip("0") or "0"  # JSON allows no leading zero
    sign = draw(st.sampled_from(["", "-"]))
    exponent = draw(st.none() | st.integers(-340, 320))
    return f"{sign}{whole}{'.' + fraction if fraction else ''}{'' if exponent is None else f'e{exponent}'}"


class TestNumbersMatchJsonLoads:
    """Numbers decode to json.loads' value, compared by repr, as a field and as a list item."""

    def check(self, path, numbers):
        write_lines(path, [f'{{"x": {n}, "p": [{n}, 0.5]}}' for n in numbers])
        assert read_outcome(iter_records, path) == read_outcome(reference_records, path)

    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_float_bit_patterns(self, tmp_path_factory, patterns):
        values = [struct.unpack("<d", struct.pack("<Q", bits))[0] for bits in patterns]
        self.check(tmp_path_factory.mktemp("bits") / "records.jsonl", [json.dumps(v) for v in values])

    @given(st.lists(decimal_numbers(), min_size=1, max_size=50))
    @example(numbers=["2.4703282292062328e-324", "1.7976931348623158e308", "9223372036854775808e0"])
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_decimal_strings(self, tmp_path_factory, numbers):
        self.check(tmp_path_factory.mktemp("decimals") / "records.jsonl", numbers)


class TestFastPath:
    def test_generated_corpus_and_events_decoded_by_orjson_alone(self, tmp_path, monkeypatch):
        corpus = generate_synthetic(SynthConfig(num_videos=2, gestures_per_video=3, num_classes=12, seed=4))
        run = run_corpus(corpus, PipelineConfig(num_classes=12, tau_early=0.3))
        files = [tmp_path / "det.jsonl", tmp_path / "cls.jsonl", tmp_path / "ann.jsonl", tmp_path / "events.jsonl"]
        lines = write_score_file(files[0], corpus.detector) + write_score_file(files[1], corpus.classifier)
        lines += write_annotation_file(files[2], corpus.segments) + write_events_file(files[3], run)
        decoded, fallback = [], []
        loads = scoring.orjson.loads
        monkeypatch.setattr(scoring.orjson, "loads", lambda line: decoded.append(line) or loads(line))
        monkeypatch.setattr(json, "loads", lambda line, **kw: fallback.append(line))
        loaded = load_corpus(*files[:3])
        events = load_events_file(files[3])
        assert (len(decoded), fallback) == (lines, [])
        assert loaded.segments == corpus.segments
        for video in corpus.video_ids():
            assert np.array_equal(loaded.classifier[video].rows, corpus.classifier[video].rows)
        assert events == {v: list(r.trace.events) for v, r in run.videos.items() if r.trace.events}
        assert sum(map(len, events.values())) > 0


# Values ingest_probs must judge: in and out of range, non-finite, ints, bools,
# null, numeric strings and an int too large for a float.
ODD_VALUES = st.sampled_from([
    0.0, -0.0, 1.0, 1.0000001, 1.001, 1.0011, -1e-300, -0.1, 2.0,
    math.nan, math.inf, -math.inf, 0, 1, 2, -1, True, False, None, "0.5", "x", 10**400,
])


@st.composite
def probability_row(draw, arity, odd_values=ODD_VALUES):
    """A row near a sum tolerance edge, or with an odd value in it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    row = rng.dirichlet(np.ones(arity))
    edge = draw(st.sampled_from([0.0, PROB_SUM_TOL, -PROB_SUM_TOL, INGEST_RENORM_TOL, -INGEST_RENORM_TOL]))
    nudge = draw(st.sampled_from([0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9]))
    row = (row * (1.0 + edge + nudge)).tolist()
    for _ in range(draw(st.sampled_from([0, 0, 0, 0, 1, 2]))):
        row[draw(st.integers(0, arity - 1))] = draw(st.one_of(odd_values, st.floats(-0.1, 1.1)))
    return row


@st.composite
def score_files(draw):
    arity = draw(st.integers(2, 5))
    return draw(st.lists(probability_row(arity), min_size=1, max_size=12))


class TestLoaderMatchesIngestProbs:
    @given(score_files())
    @example(rows=[[0.5, 0.5], [1.0000005, 0.0]])  # sum within tolerance, a value above 1
    @example(rows=[[0.2, 0.3, 0.5], [0.369955, 0.630045, 1.0000000000287557e-06]])  # exact sum within 1e-6, numpy's not
    @example(rows=[[0.5, 0.5], [0.5, 10**400]])
    @example(rows=[[0.5, 0.5], [0.5, [0.5]]])
    @example(rows=[[[0.5], [0.5]]])  # lists of equal shape stack into a 3-D array
    @example(rows=[[0.5, 0.5]] * 4 + [[0.5, 0.6]])  # rejected in the second chunk
    @example(rows=[[0.5, 0.5], ["0.9", "0.1"]])  # numpy would convert numeric strings
    @example(rows=[[0.5, 0.5], [False, True]])  # and bools
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_same_decisions_and_values(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("scores") / "cls.jsonl"
        write_lines(path, [json.dumps({"video": "a", "t": t, "p": p}) for t, p in enumerate(rows)])
        want = []
        with mock.patch.object(scoring, "CHUNK_RECORDS", 3):  # files span several chunks
            for line, p in enumerate(rows, 1):
                try:
                    want.append(ingest_probs(p).values)
                except (ValueError, OverflowError) as exc:
                    with pytest.raises(StreamFormatError) as got:
                        load_score_stream(path)
                    assert str(got.value) == f"{path}:{line}: {exc}"
                    return
            loaded = load_score_stream(path)["a"].rows
        assert loaded.tobytes() == np.array(want).tobytes()


# Float values a stream row may hold that ProbVector must judge: non-finite,
# signed zero, one ulp either side of 1, and values whose sum overflows.
STREAM_VALUES = st.sampled_from([
    math.nan, math.inf, -math.inf, -0.0, 0.0, 1.0, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0),
    1e308, -1e308, 5.0, -4.0,
])


@st.composite
def stream_rows(draw):
    arity = draw(st.integers(2, 5))
    rows = draw(st.lists(probability_row(arity, STREAM_VALUES), max_size=12))
    return np.array(rows, dtype=np.float64).reshape(-1, arity)


class TestScoreStreamMatchesProbVector:
    @given(stream_rows())
    @example(rows=np.array([[0.5, 0.5], [1e308, 1e308]]))
    @example(rows=np.array([[0.5, 0.5], [math.inf, -math.inf]]))
    @example(rows=np.array([[-0.0, 1.0], [5.0, -4.0]]))
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_accepts_exactly_probvectors(self, rows):
        want = None
        for t, row in enumerate(rows.tolist()):
            try:
                ProbVector(tuple(row))
            except ValueError as exc:
                want = f"v@{t}: {exc}"
                break
        if want is None:
            stream = ScoreStream("v", rows)
            assert [stream.score(t).values for t in range(stream.length)] == [tuple(r) for r in rows.tolist()]
        else:
            with pytest.raises(ValueError) as got:
                ScoreStream("v", rows)
            assert str(got.value) == want


class TestLoadAnnotations:
    def test_sorted_by_start(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        write_lines(path, [
            json.dumps({"video": "a", "class": 2, "start": 100, "end": 130}),
            json.dumps({"video": "a", "class": 1, "start": 10, "end": 40}),
        ])
        segments = load_annotations(path)["a"]
        assert [s.start for s in segments] == [10, 100]
        assert [s.label for s in segments] == [1, 2]

    def test_overlap_rejected(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        write_lines(path, [
            json.dumps({"video": "a", "class": 1, "start": 10, "end": 40}),
            json.dumps({"video": "a", "class": 2, "start": 40, "end": 60}),
        ])
        with pytest.raises(StreamFormatError, match="overlapping"):
            load_annotations(path)

    def test_inverted_span_rejected(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        write_lines(path, [json.dumps({"video": "a", "class": 1, "start": 40, "end": 10})])
        with pytest.raises(StreamFormatError, match="start"):
            load_annotations(path)

    def test_negative_start_rejected_with_line(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        write_lines(path, [
            json.dumps({"video": "a", "class": 1, "start": 10, "end": 40}),
            json.dumps({"video": "a", "class": 2, "start": -5, "end": 5}),
        ])
        with pytest.raises(StreamFormatError, match=re.escape(f"{path}:2: a: negative segment start -5")):
            load_annotations(path)

    def test_label_range_enforced_when_given(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        write_lines(path, [json.dumps({"video": "a", "class": 7, "start": 1, "end": 5})])
        with pytest.raises(StreamFormatError, match="class 7"):
            load_annotations(path, num_classes=5)
        write_lines(path, [json.dumps({"video": "a", "class": -1, "start": 1, "end": 5})])
        with pytest.raises(StreamFormatError, match=":1: a: negative class label -1$"):
            load_annotations(path)


class TestSynthConfigValidation:
    def test_defaults_valid(self):
        cfg = SynthConfig()
        assert cfg.num_classes == 83
        assert cfg.duration_mean == 38.4
        assert cfg.phase_fractions == (0.25, 0.5, 0.25)

    def test_zero_videos_rejected(self):
        with pytest.raises(ConfigError, match="num_videos"):
            SynthConfig(num_videos=0)

    def test_bad_fractions_rejected(self):
        with pytest.raises(ConfigError, match="phase_fractions"):
            SynthConfig(phase_fractions=(0.5, 0.5, 0.5))

    def test_all_violations_reported(self):
        with pytest.raises(ConfigError) as exc:
            SynthConfig(
                num_videos=0, gestures_per_video=0, num_classes=1, duration_mean=0.0, duration_spread=-1.0,
                gap_mean=-1.0, gap_spread=-1.0, phase_fractions=(-0.5, 1.0, 0.5), detector_base=1.5,
                noise_sigma=-1, prep_ambiguity=2, seed=-1, edge_ramp=0,
            )
        assert str(exc.value) == "; ".join([
            "num_videos must be >= 1",
            "gestures_per_video must be >= 1",
            "num_classes must be >= 2",
            "duration_mean must be > 0",
            "duration_spread must be >= 0",
            "gap_mean must be >= 0",
            "gap_spread must be >= 0",
            "phase_fractions must be three non-negative reals",
            "detector_base must be in [0, 1]",
            "noise_sigma must be >= 0",
            "prep_ambiguity must be in [0, 1]",
            "seed must be >= 0",
            "edge_ramp must be >= 1",
        ])


NOISELESS = SynthConfig(
    num_videos=4, gestures_per_video=5, num_classes=10,
    noise_sigma=0.0, prep_ambiguity=0.0, seed=42,
)


class FixedNoise:
    """Stands in for a generator's rng: every normal draw is the given array."""

    def __init__(self, noise):
        self.noise = noise

    def normal(self, loc, scale, size):
        return self.noise


class TestGenerateSynthetic:
    def test_noise_that_zeroes_a_row_gives_a_uniform_row(self):
        rows = np.array([[0.2, 0.3, 0.5], [0.2, 0.3, 0.5]])
        noisy = scoring._add_vector_noise(rows, 0.05, FixedNoise(np.array([[-1.0, -1.0, -1.0], [0.0, 0.0, 0.0]])))
        assert noisy.tolist() == [[1 / 3, 1 / 3, 1 / 3], [0.2, 0.3, 0.5]]

    def test_deterministic_given_seed(self, tmp_path):
        a = generate_synthetic(NOISELESS)
        b = generate_synthetic(NOISELESS)
        for corpus, name in ((a, "a"), (b, "b")):
            write_score_file(tmp_path / f"det_{name}.jsonl", corpus.detector)
            write_score_file(tmp_path / f"cls_{name}.jsonl", corpus.classifier)
            write_annotation_file(tmp_path / f"ann_{name}.jsonl", corpus.segments)
        for stem in ("det", "cls", "ann"):
            assert (tmp_path / f"{stem}_a.jsonl").read_bytes() == (tmp_path / f"{stem}_b.jsonl").read_bytes()

    def test_noiseless_nucleus_argmax_is_true_label(self):
        # 3-frame gestures without a nucleus share: both other phases shrink to one frame, leaving the middle one
        short = replace(
            NOISELESS, duration_mean=3.0, duration_spread=0.0, edge_ramp=3, phase_fractions=(0.5, 0.0, 0.5)
        )
        for corpus in (generate_synthetic(NOISELESS), generate_synthetic(short)):
            for video_id, segments in corpus.segments.items():
                stream = corpus.classifier[video_id]
                for seg in segments:
                    # nucleus occupies the middle half of the segment by default
                    dur = seg.duration
                    nucleus_lo = seg.start + max(1, round(dur * 0.25))
                    nucleus_hi = seg.start + dur - max(1, round(dur * 0.25)) - 1
                    for t in range(nucleus_lo, nucleus_hi + 1):
                        vals = stream.score(t).values
                        assert vals.index(max(vals)) == seg.label

    def test_noiseless_detector_base_on_interior(self):
        cfg = SynthConfig(num_videos=2, gestures_per_video=4, num_classes=5,
                          noise_sigma=0.0, detector_base=0.9, seed=3)
        corpus = generate_synthetic(cfg)
        for video_id, segments in corpus.segments.items():
            stream = corpus.detector[video_id]
            for seg in segments:
                for t in range(seg.start + cfg.edge_ramp - 1, seg.end + 1):
                    assert stream.score(t).values[1] == pytest.approx(0.9)

    def test_segments_never_overlap_and_min_duration(self):
        cfg = SynthConfig(num_videos=6, gestures_per_video=8, num_classes=12, seed=9)
        corpus = generate_synthetic(cfg)
        for segments in corpus.segments.values():
            for seg in segments:
                assert seg.duration >= 3
            for prev, cur in zip(segments, segments[1:]):
                assert cur.start > prev.end

    def test_vectors_pass_strict_invariants(self):
        cfg = SynthConfig(num_videos=2, gestures_per_video=3, num_classes=7,
                          noise_sigma=0.08, prep_ambiguity=0.6, seed=5)
        corpus = generate_synthetic(cfg)
        for streams in (corpus.detector, corpus.classifier):
            for stream in streams.values():
                for t in range(stream.length):
                    # re-running the constructor re-checks range and sum tolerance
                    ProbVector(stream.score(t).values)

    def test_streams_dense_over_all_frames(self):
        corpus = generate_synthetic(NOISELESS)
        for video_id in corpus.video_ids():
            det = corpus.detector[video_id]
            cls = corpus.classifier[video_id]
            assert det.length == cls.length
            assert det.rows.shape == (det.length, 2)
            assert cls.rows.shape == (cls.length, cls.arity)
            assert not np.isnan(det.rows).any()
            assert not np.isnan(cls.rows).any()

    def test_duration_mean_tracks_config(self):
        cfg = SynthConfig(num_videos=12, gestures_per_video=8, num_classes=5, seed=1)
        corpus = generate_synthetic(cfg)
        durations = [seg.duration for segs in corpus.segments.values() for seg in segs]
        mean = sum(durations) / len(durations)
        assert abs(mean - cfg.duration_mean) <= 0.1 * cfg.duration_mean

    def test_infeasible_timing_reported(self):
        cfg = SynthConfig(num_videos=1, gestures_per_video=2, num_classes=5,
                          gap_mean=1.0, gap_spread=0.0, seed=2)
        with pytest.raises(SynthesisError, match="gap|lead-in"):
            generate_synthetic(cfg)

    def test_confusable_differs_from_label(self):
        # with full ambiguity and no noise, prep mass splits between exactly
        # two classes and the confusable is never the true label
        cfg = SynthConfig(num_videos=3, gestures_per_video=6, num_classes=6,
                          noise_sigma=0.0, prep_ambiguity=1.0, seed=8)
        corpus = generate_synthetic(cfg)
        for video_id, segments in corpus.segments.items():
            stream = corpus.classifier[video_id]
            for seg in segments:
                vals = stream.score(seg.start).values
                peak = max(vals)
                assert vals.index(peak) != seg.label


class TestRoundTrip:
    def test_corpus_files_round_trip(self, tmp_path):
        corpus = generate_synthetic(NOISELESS)
        det, cls, ann = tmp_path / "d.jsonl", tmp_path / "c.jsonl", tmp_path / "a.jsonl"
        write_score_file(det, corpus.detector)
        write_score_file(cls, corpus.classifier)
        write_annotation_file(ann, corpus.segments)
        loaded = load_corpus(det, cls, ann)
        assert loaded.video_ids() == corpus.video_ids()
        for video_id in corpus.video_ids():
            orig = corpus.classifier[video_id]
            back = loaded.classifier[video_id]
            assert back.arity == orig.arity
            assert back.rows.shape == orig.rows.shape
            probe = list(range(orig.length))[::97] or [0]
            for t in probe:
                assert back.score(t).values == pytest.approx(orig.score(t).values, abs=1e-12)
        assert loaded.segments == corpus.segments


def reference_write(path, streams) -> None:
    """The json.dumps writer that write_score_file must match byte for byte."""
    with open(path, "w", encoding="utf-8") as fh:
        for video in sorted(streams):
            for t, row in enumerate(streams[video].rows.tolist()):
                fh.write(json.dumps({"video": video, "t": t, "p": row}) + "\n")


VIDEO_IDS = st.one_of(
    st.text(st.characters(exclude_categories=()), max_size=6),  # surrogates and control characters included
    st.sampled_from(['"', "\\", 'a"b\\c', "\x00\x1f\x7f", "\n\r\t", "é", "ü€😀", "\u2028", "\ud800"]),
)
# REPR_MIN and its neighbours, values below it (the ones orjson and repr write
# differently), a subnormal, and the edges of [0, 1]
EDGE_PROBABILITIES = [
    5e-324, 2.5e-310, 1.234e-06, 1e-07, 1e-05, 9.99e-05, float(np.nextafter(1e-4, 0)), 1e-4,
    float(np.nextafter(1e-4, 1)), 0.1 + 0.2, 1.0, 0.0, -0.0,
]
PROBABILITIES = st.one_of(st.floats(0.0, 1.0), st.sampled_from(EDGE_PROBABILITIES))


@st.composite
def stream_sets(draw):
    """Streams whose rows hold x and 1 - x in two drawn columns and zeros elsewhere, one arity across the set."""
    arity = draw(st.integers(2, 4))
    streams = {}
    for video in draw(st.lists(VIDEO_IDS, min_size=1, max_size=3, unique=True)):
        xs = draw(st.lists(PROBABILITIES, min_size=1, max_size=5))
        rows = np.zeros((len(xs), arity))
        for row, x in zip(rows, xs):
            first, second = draw(st.permutations(range(arity)))[:2]
            row[first], row[second] = x, 1.0 - x
        streams[video] = ScoreStream(video, rows)
    return streams


def written_bytes(tmp_path, streams) -> tuple[bytes, bytes]:
    """The bytes write_score_file writes for streams, and the bytes reference_write writes."""
    write_score_file(tmp_path / "new.jsonl", streams)
    reference_write(tmp_path / "old.jsonl", streams)
    return (tmp_path / "new.jsonl").read_bytes(), (tmp_path / "old.jsonl").read_bytes()


def float_bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


# values write_score_file leaves to orjson: 0.0, -0.0, and [REPR_MIN, 1] drawn both by value and by
# bit pattern, so that each exponent is drawn as often as the next
FAST_PATH_FLOATS = st.one_of(
    st.integers(float_bits(scoring.REPR_MIN), float_bits(1.0)).map(
        lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]
    ),
    st.floats(scoring.REPR_MIN, 1.0),
    st.sampled_from([x for x in EDGE_PROBABILITIES if x == 0.0 or x >= scoring.REPR_MIN]),
)


class TestWriterMatchesJsonDumps:
    @given(stream_sets())
    @example(streams={"v": ScoreStream("v", np.array([[5e-324, 1.0, 0.0], [1e-07, 1 - 1e-07, 0.0], [0.1 + 0.2, 0.7, 0.0]]))})
    @example(streams={"v": ScoreStream("v", np.array([
        [0.5, 1e-05, 0.5 - 1e-05 - 1.234e-06, 1.234e-06],
        [0.0, 2.5e-310, 9.99e-05, 1 - 9.99e-05],
    ]))})
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_same_bytes(self, tmp_path_factory, streams):
        base = tmp_path_factory.mktemp("written")
        count = write_score_file(base / "new.jsonl", streams)
        reference_write(base / "old.jsonl", streams)
        assert (base / "new.jsonl").read_bytes() == (base / "old.jsonl").read_bytes()
        assert count == sum(stream.length for stream in streams.values())

    @given(FAST_PATH_FLOATS)
    @settings(max_examples=2000, deadline=None, derandomize=True)
    def test_orjson_writes_repr_from_repr_min_up(self, x):
        assert orjson.dumps(x) == repr(x).encode()

    def test_strided_and_fortran_views(self, tmp_path):
        rng = np.random.default_rng(3)
        rows = rng.random((2 * scoring.CHUNK_RECORDS + 5, 4))
        rows[rng.random(rows.shape) < 0.2] = 1e-05
        rows /= rows.sum(axis=1, keepdims=True)
        views = {
            "fortran": np.asfortranarray(rows),
            "strided": np.repeat(rows, 2, axis=1)[:, ::2],
            "every-other-row": rows[::2],
            "reversed": rows[::-1],
        }
        assert not any(view.flags.c_contiguous for view in views.values())
        new, old = written_bytes(tmp_path, {name: ScoreStream(name, view) for name, view in views.items()})
        assert new == old

    def test_default_corpus_takes_both_paths(self, tmp_path):
        corpus = generate_synthetic(SynthConfig())
        tiny_rows = [((s.rows > 0.0) & (s.rows < scoring.REPR_MIN)).any(axis=1) for s in corpus.classifier.values()]
        assert any(rows.any() for rows in tiny_rows)  # some rows are patched with repr
        assert not all(rows.all() for rows in tiny_rows)  # and some are orjson's text alone
        for streams in (corpus.detector, corpus.classifier):
            new, old = written_bytes(tmp_path, streams)
            assert new == old
