"""The layer microbenchmarks, run once each so a broken one fails the suite.

tests/bench_layers.py is not collected by name; this runs it in a child
pytest with --benchmark-disable, which calls each benchmarked function once
and times nothing (about 1.5 s).
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_layer_benchmarks_run_without_error():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable",
         str(ROOT / "tests" / "bench_layers.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    # every case passed: none skipped, none deselected
    assert re.search(r"^\d+ passed in ", proc.stdout, re.M), proc.stdout[-3000:]
