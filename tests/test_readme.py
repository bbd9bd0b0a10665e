"""README's Quick start block runs as written and prints the figures its
comments quote, its command-line table lists the keys each command reads
with their defaults, and its run-key table lists each disturbance kind's
keys."""

import contextlib
import io
import pathlib
import re

from distcost.cli import _COMMAND_OPTIONS, _KEYS
from distcost.signals import KIND_PARAMETERS

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
        assert flag == (f"`--{key.replace('_', '-')}`" if _KEYS[key][1] else ""), key
        for command, cell in zip(commands, cells):
            if cell:
                reads[command].append(key)
    assert {c: tuple(keys) for c, keys in reads.items()} == _COMMAND_OPTIONS


def _command_line_table(header: str, columns: int) -> list:
    # the rows, as lists of stripped cells, of the table in README's
    # "Command line" section whose header row starts with header
    text = README.read_text()
    section = text[text.index("## Command line"):text.index("## Determinism")]
    table = [ln for ln in section.splitlines() if ln.startswith(header)
             or (ln.startswith("| `") and ln.count("|") == columns + 1)]
    return [[cell.strip() for cell in ln.strip("|").split("|")] for ln in table]


def _option_table():
    # (commands, {key: (flag cell, {command: nonempty default cell})})
    header, *rows = _command_line_table("| key | flag |", 7)
    commands = [c.strip("`") for c in header[2:]]
    return commands, {key.strip("`"): (flag, {c: cell for c, cell in zip(commands, cells) if cell})
                      for key, flag, *cells in rows}


# the cells that state a default in words, not as a value
WORDING = {
    ("cells", "stabilize"): "`1000` if `steps` is a multiple of 1000, else `steps`",
    ("disturbances", "stabilize"): "one run per disturbance class",
}


def test_command_table_states_the_defaults():
    # a number, number list or name in backticks is the default as the
    # key's resolver reads it; a default in words is the one WORDING holds
    _, table = _option_table()
    for key, (_, cells) in table.items():
        resolve, _, defaults = _KEYS[key]
        for command, cell in cells.items():
            default = defaults[command]
            if (key, command) in WORDING:
                assert cell == WORDING[key, command], (key, command)
            else:
                assert re.fullmatch(r"`[^`]+`", cell), (key, command, cell)
                assert resolve(cell.strip("`")) == resolve(default), (key, command, cell)
    cells = _KEYS["cells"][2]["stabilize"]
    for steps in (1, 300, 999, 1000, 1500, 5000, 10000):
        assert cells({"steps": steps}) == (1000 if steps % 1000 == 0 else steps)
    runs = _KEYS["disturbances"][2]["stabilize"]
    assert sorted(run["kind"] for run in runs) == sorted(set(KIND_PARAMETERS) - {"zero"})


def test_run_key_table_matches_kind_parameters():
    # one row per kind; its backticked keys are the kind's parameters,
    # bar horizon, which a run may not set
    header, *rows = _command_line_table("| `kind` | keys |", 3)
    assert header[:2] == ["`kind`", "keys"]
    kinds = {kind.strip("`"): set(re.findall(r"`(\w+)`", keys)) for kind, keys, _ in rows}
    assert [kind.strip("`") for kind, *_ in rows] == list(KIND_PARAMETERS)
    for kind, params in KIND_PARAMETERS.items():
        assert kinds[kind] == set(params) - {"horizon"}, kind
