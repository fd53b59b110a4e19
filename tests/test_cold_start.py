"""pwkit is numpy code: `import pwkit` loads no scipy module, and a desk
run imports nothing more, so every import is paid at start-up and none
inside a timed run.  The real harmonics come from the Legendre recurrence
and the quintic spline's prefilter from the inverse of its collocation
matrix, so the library runs with scipy absent; only the report's
environment block reads scipy's version, as None when scipy cannot be
imported."""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
import pwkit
imported = sorted(sys.modules)
from pwkit.cli import RunConfig, run
loaded = set(sys.modules)
report = run(RunConfig("all", preset="desk", seed=7))
print(json.dumps({"imported": imported,
                  "new": sorted(set(sys.modules) - loaded),
                  "names": [r["name"] for r in report.records],
                  "passed": [r["passed"] for r in report.records],
                  "scipy": report.to_dict()["environment"]["scipy"]}))
"""


@functools.cache  # one unblocked desk run serves both tests
def desk(prelude=""):
    env = dict(os.environ, PYTHONPATH="src", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", prelude + SCRIPT], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_and_desk_run_load_no_scipy_module():
    out = desk()
    assert [m for m in out["imported"] if m.split(".")[0] == "scipy"] == []
    assert out["new"] == []
    assert len(out["passed"]) == 26 and all(out["passed"])


def test_desk_runs_without_scipy():
    # a None entry in sys.modules makes every `import scipy` raise
    blocked = desk('import sys\nsys.modules["scipy"] = None\n')
    assert blocked["names"] == desk()["names"]
    assert len(blocked["passed"]) == 26 and all(blocked["passed"])
    assert blocked["scipy"] is None
