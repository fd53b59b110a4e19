"""Every demo script, and the README's quick start, runs to completion
against the in-repo sources."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run_python(args):
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable] + args, cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_cleanly(demo):
    _run_python([str(demo)])


def test_readme_quick_start_exits_cleanly():
    readme = (ROOT / "README.md").read_text()
    code = readme.split("```python\n", 1)[1].split("```", 1)[0]
    _run_python(["-c", code])
