"""README's Quick start block runs as written and prints the figures its
comments quote, and its command-line table lists the keys each command
reads."""

import contextlib
import io
import pathlib
import re

from distcost.cli import _COMMAND_OPTIONS, _FLAG_HELP

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


def test_command_table_matches_command_options():
    # the table's header names the commands; a nonempty cell means the
    # command reads the row's key, whose flag, if it has one, is --key
    # with "_" as "-"
    text = README.read_text()
    section = text[text.index("## Command line"):text.index("## Determinism")]
    table = [ln for ln in section.splitlines() if ln.startswith("| key | flag |")
             or (ln.startswith("| `") and ln.count("|") == 8)]
    rows = [[cell.strip() for cell in ln.strip("|").split("|")] for ln in table]
    commands = [c.strip("`") for c in rows[0][2:]]
    reads = {c: [] for c in commands}
    for key, flag, *cells in rows[1:]:
        key = key.strip("`")
        assert flag == (f"`--{key.replace('_', '-')}`" if key in _FLAG_HELP else ""), key
        for command, cell in zip(commands, cells):
            if cell:
                reads[command].append(key)
    assert {c: tuple(keys) for c, keys in reads.items()} == _COMMAND_OPTIONS
