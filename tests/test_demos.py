"""Each narrative demo, and the README's library quick start, runs standalone
and exits 0, and so does each line of the README's command-line block."""
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from polyshot.cli import main
from polyshot.poly import write_samples

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _quick_start() -> str:
    """The python block under the README's "Library quick start" heading."""
    section = (ROOT / "README.md").read_text().split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


SCRIPTS = {d.name: [str(d)] for d in DEMOS}
SCRIPTS["README.md"] = ["-c", _quick_start()]


@pytest.mark.parametrize("demo", list(SCRIPTS))
def test_demo_exits_zero(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, *SCRIPTS[demo]], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr


def _command_lines() -> list[list[str]]:
    """The argv of each `polyshot ...` line of the README's "Command line" block."""
    section = (ROOT / "README.md").read_text().split("## Command line", 1)[1]
    block = section.split("```\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("polyshot ")]


def test_readme_command_lines_exit_zero(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_samples([(x / 10.0, 0.5 * x / 10.0 - (x / 10.0) ** 3) for x in range(-10, 11)], "xy.csv")
    lines = _command_lines()
    assert len(lines) == 9
    for argv in lines:
        assert main(argv) == 0, argv
