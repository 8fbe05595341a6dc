"""Each narrative demo, and the README's library quick start, runs standalone
and exits 0."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
