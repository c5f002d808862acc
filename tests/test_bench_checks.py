"""The benchmark's sweep-row check, run on real outputs.

bench/selftest.py's sweep mutation fails before this check is reached, so
here the check is given the rows of a real `sweep` and a real `run`, then
one row with a count off by one.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from gesturestream import cli

CHECKS = Path(__file__).resolve().parent.parent / "bench" / "checks.py"


def test_sweep_row_check_passes_real_rows_and_catches_a_changed_count(tmp_path):
    spec = importlib.util.spec_from_file_location("bench_checks", CHECKS)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    corpus, run, sweep = tmp_path / "corpus", tmp_path / "run", tmp_path / "sweep"
    # the corpus that the console-script CI job makes
    assert cli.main(["gen", "--out", str(corpus), "--videos", "2", "--gestures-per-video", "3",
                     "--num-classes", "6", "--seed", "1"]) == 0
    assert cli.main(["run", "--data", str(corpus), "--out", str(run)]) == 0
    assert cli.main(["sweep", "--data", str(corpus), "--out", str(sweep)]) == 0
    report = json.loads((run / cli.REPORT_FILE).read_text(encoding="utf-8"))
    rows = checks.sweep_rows((sweep / cli.SWEEP_FILE).read_text(encoding="utf-8"))

    checks.check_sweep_matches_run(rows, report)
    rows[1.0]["matched"] = str(int(rows[1.0]["matched"]) - 1)
    with pytest.raises(checks.CheckFailed, match="matched"):
        checks.check_sweep_matches_run(rows, report)
