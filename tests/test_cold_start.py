"""`import pwkit` loads only the scipy module the library uses (special),
and a desk run imports nothing more: every import is paid at start-up,
none inside a timed run.  The quintic spline of the Radon transform and of
the sphere profiles is numpy code, so neither scipy.sparse nor
scipy.ndimage is loaded."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HEAVY = ("scipy.integrate", "scipy.interpolate", "scipy.optimize",
         "scipy.linalg", "scipy.spatial", "scipy.fft", "scipy.sparse",
         "scipy.ndimage")

SCRIPT = """
import json, sys
import pwkit
imported = sorted(sys.modules)
from pwkit.cli import RunConfig, run
loaded = set(sys.modules)
report = run(RunConfig("all", preset="desk", seed=7))
print(json.dumps({"imported": imported,
                  "new": sorted(set(sys.modules) - loaded),
                  "passed": [r["passed"] for r in report.records]}))
"""


def test_import_and_desk_run_load_no_heavy_scipy_module():
    env = dict(os.environ, PYTHONPATH="src", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert [m for m in out["imported"]
            if ".".join(m.split(".")[:2]) in HEAVY] == []
    assert out["new"] == []
    assert all(out["passed"])
