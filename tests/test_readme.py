"""README's library example must keep running as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_example_runs():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, f"{README}:Library use", "exec"), {})
    run_line, *sweep_lines = printed.getvalue().splitlines()
    assert [line.split()[0] for line in sweep_lines] == ["0.4", "0.7", "1.0"]
    # the sweep at the run's threshold reports the run's accuracy and earliness
    assert sweep_lines[0] == f"0.4 {run_line}"
