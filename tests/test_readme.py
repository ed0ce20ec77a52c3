"""The README's examples run as written."""

import csv
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from jointbus.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_dist_file_example_gives_threshold(tmp_path, capsys):
    spec = json.loads(re.search(r'`(\{"L": .*?\})` via\s+`--dist-file`', README).group(1))
    path = tmp_path / "dist.json"
    path.write_text(json.dumps(spec))
    assert main(["de", "--dist-file", str(path), "--threshold"]) == 0
    value = float(capsys.readouterr().out.split()[1])
    assert abs(value - 0.2261) < 1e-3


def test_readme_library_example_runs():
    block = re.search(r"## Library example\s+```python\n(.*?)```", README, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})


def _waterfall():
    """The README's waterfall commands, and its pe table: one header cell
    per bus width, and per eps the row of pe values."""
    section = README.split("## Finite-length waterfall", 1)[1].split("\n## ", 1)[0]
    commands = re.findall(r"^jointbus (simulate .*)$", section, re.M)
    lines = [line.strip("|").split("|") for line in section.splitlines() if line.startswith("|")]
    header = [cell.strip() for cell in lines[0][1:]]
    rows = {cells[0].strip(): [c.strip() for c in cells[1:]] for cells in lines[2:]}
    return commands, header, rows


@pytest.mark.parametrize("column", [0, 1], ids=["N=10^3", "N=10^4"])
def test_readme_waterfall_table_is_what_simulate_prints(column, capsys):
    # the N = 10^5 column is left to the reader: its sweep alone would add
    # about 4 s to the tier-1 run
    commands, header, rows = _waterfall()
    argv = shlex.split(commands[column])
    exp, trials = re.fullmatch(r"N = 10\^(\d) \((\d+) trials\)", header[column]).groups()
    assert argv[argv.index("--blocklen") + 1] == str(10 ** int(exp))
    assert argv[argv.index("--trials") + 1] == trials
    assert main(argv) == 0
    printed = {row["eps"]: row["pe"] for row in csv.DictReader(io.StringIO(capsys.readouterr().out))}
    assert printed == {eps: cells[column] for eps, cells in rows.items()}
