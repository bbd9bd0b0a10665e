"""README's Quick start block runs as written and prints the figures its
comments quote."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    text = README.read_text()
    section = text[text.index("## Quick start"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_runs_and_prints_quoted_figures():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_quick_start(), str(README), "exec"), {})
    (e_n, e_d_bound), (residual,), (_, r_m_bound, _) = (
        [float(v) for v in line.split()] for line in out.getvalue().splitlines())
    assert f"{e_n:.17f}".startswith("0.209")
    assert f"{e_d_bound:.17f}".startswith("9.746")
    assert f"{r_m_bound:.17f}".startswith("0.45")
    assert residual < 1e-9
