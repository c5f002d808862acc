"""Pinned bytes of every run, eval and sweep artifact on a small hand-built corpus.

The corpus is arithmetic, with no random draws, so the digests below must
hold on every Python and numpy version the package supports. A change that
moves one byte of an events file, a report, a trace or a sweep row fails
here, on whichever version it shows.
"""

import hashlib
import json

import pytest

from gesturestream.cli import main

CLASSES = 5
# video -> (frames, [(start, end, label, confusable mass at the start, at the end)]);
# "d" has no annotations, "b" ends inside its last gesture
LAYOUT = {
    "a": (400, [(40, 100, 2, 0.50, 0.02), (140, 200, 4, 0.50, 0.02), (260, 300, 1, 0.45, 0.02)]),
    "b": (300, [(36, 110, 1, 0.50, 0.02), (150, 215, 3, 0.40, 0.01), (250, 299, 0, 0.50, 0.02)]),
    "c": (260, [(50, 72, 0, 0.50, 0.02), (100, 170, 2, 0.64, 0.02), (200, 240, 3, 0.55, 0.02)]),
    "d": (80, []),
}
DIP = ("a", range(165, 172))  # the detector drops inside a's second gesture: the gate closes and reopens
BLIP = ("a", range(340, 356), 0)  # an unannotated gesture-like stretch, class 0


def gesture_prob(video, t, segments):
    for start, end, *_ in segments:
        if start <= t <= end and not (video == DIP[0] and t in DIP[1]):
            return (0.45, 0.55, 0.7)[t - start] if t - start < 3 else 0.85 + (t * 7 % 5) * 0.02
    if video == BLIP[0] and t in BLIP[1]:
        return 0.8
    return 0.1 + (t * 3 % 7) * 0.01


def class_row(video, t, segments):
    for start, end, label, conf_start, conf_end in segments:
        if start <= t <= end:
            f = (t - start) / (end - start)
            true, conf = 0.3 + 0.65 * f, conf_start + (conf_end - conf_start) * f
            rest = (1.0 - true - conf) / (CLASSES - 2)
            row = [rest] * CLASSES
            row[label], row[(label + 1) % CLASSES] = true, conf
            return row
    if video == BLIP[0] and t in BLIP[1]:
        return [0.7] + [0.075] * (CLASSES - 1)
    return [0.2 + ((t + k) % 5 - 2) * 0.01 for k in range(CLASSES)]


def write_corpus(out):
    out.mkdir()
    det, cls, ann = [], [], []
    for video, (frames, segments) in LAYOUT.items():
        for t in range(frames):
            g = gesture_prob(video, t, segments)
            det.append({"video": video, "t": t, "p": [1.0 - g, g]})
            cls.append({"video": video, "t": t, "p": class_row(video, t, segments)})
        ann.extend({"video": video, "class": label, "start": start, "end": end}
                   for start, end, label, *_ in segments)
    for name, records in [("detector_scores.jsonl", det), ("classifier_scores.jsonl", cls), ("annotations.jsonl", ann)]:
        (out / name).write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


# sha256 of each artifact; a change that moves one must say why and pin the new digest
DIGESTS = {
    "mean": {
        "run/events.jsonl": "bebeccab6cf14edd18056faec7f329abfc643b2fdd71437ff536f5aac83f41a4",
        "run/report.json": "c56ef3d7ac2ee0ac045f6daafdd2054bbf34e17f92a49aa58c6d5e421b884037",
        "run/traces/a.tsv": "2ba35b5f11e5707461ea36198c88976693cd378c28bd64388194cb96108fde89",
        "run/traces/b.tsv": "f2f1940473d1eab7b9fd5973bf37dab11c9cc7cbad1b926a5d599f4f90339e8c",
        "run/traces/c.tsv": "9ea2fc6aa4121a3b00ceec106a7e7005680f897f8396b4c9ac28f3c3352c432b",
        "eval/report.json": "99f0428f8b8802b8e8884e3aa56c57f7de74634292c9817efa0c0430ffe40545",
        "sweep/sweep.csv": "6b0c3f982c46310f2bc751a59f5f442e0b5b9f039870527a2fb86e209cd67f67",
    },
    "median": {
        "run/events.jsonl": "7682d2fb36e5aae45d88e55fe247d31836e5abf908054235f533668f039299ed",
        "run/report.json": "8d8fb116154a9cc8526d0aa04e09b0124aa9859aa818dec17cba191322c86380",
        "run/traces/a.tsv": "debe4826a2fd82ba24e1b963e9afc3236e9a9eb05e1d73512669bd6c78352f58",
        "run/traces/b.tsv": "4adb565fc2de3dff0062306a3e369088acaeddfaa57c2d836fdc2ca79c85b992",
        "run/traces/c.tsv": "567d21cef12fdef593be883eed7859ded8bc4f8827553956716ac7a2ffa0cf58",
        "eval/report.json": "47fdce3829e936474f91bfa5f4bae1a4690f3a282152c6585b116f7bbaaafa71",
        "sweep/sweep.csv": "a358b9c888a7f22555a64d3d86d19a768aff5a95e27d6d8f5dbfe0dd45f70e5b",
    },
    "ewa": {
        "run/events.jsonl": "e75ad803bce9b6d8d558781dcadd8e56db3e4941af9f453a6952bde70bcb20d9",
        "run/report.json": "7d349820dc4cd1ff458d9d8af14e2330e26216c8eda76822dbfdb0a78753dcb8",
        "run/traces/a.tsv": "120d67af823b2faef6cefaf7bf5755c576df66bb0e414516ac57582726e28408",
        "run/traces/b.tsv": "773598e2388638f8550c2b8348d31b78adbe0ebddeddf625642abf9d5fd435e7",
        "run/traces/c.tsv": "4a557bde689c16927c4949315d27904facda772bb02c358183fc9694e51dd48a",
        "eval/report.json": "e32dfc6b63a82536c55ad340a48aad17f2801d0442c1952ff55744dce0beff60",
        "sweep/sweep.csv": "a9aacb587d6e87097d3529fcee41a60f44c6b3bc224d6b4e9e2dca03eaab6bc4",
    },
}


@pytest.mark.parametrize("kind", ["mean", "median", "ewa"])
def test_artifacts_keep_their_bytes(tmp_path, kind):
    data = tmp_path / "corpus"
    write_corpus(data)
    flags = ["--filter-kind", kind]
    assert main(["run", "--data", str(data), "--out", str(tmp_path / "run"), "--trace", "--tau-early", "0.4"] + flags) == 0
    assert main([
        "eval", "--events", str(tmp_path / "run" / "events.jsonl"),
        "--annotations", str(data / "annotations.jsonl"), "--out", str(tmp_path / "eval"),
    ]) == 0
    assert main(["sweep", "--data", str(data), "--out", str(tmp_path / "sweep")] + flags) == 0
    assert sorted(p.name for p in (tmp_path / "run" / "traces").iterdir()) == ["a.tsv", "b.tsv", "c.tsv"]
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in DIGESTS[kind]}
    assert digests == DIGESTS[kind]
