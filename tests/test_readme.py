"""The README's examples run as written."""

import json
import re
from pathlib import Path

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
