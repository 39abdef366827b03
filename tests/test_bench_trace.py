"""The benchmark's traced runs wrap paxsim functions and methods by name: each must resolve."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Runs in a fresh interpreter: install() replaces the paxsim attributes it wraps.
INSTALL = """
import sys
from collections import Counter
sys.path.insert(0, sys.argv[1])
import run
import spans
run.install(spans.Tracer(), run.load_paxsim(), Counter(), Counter())
"""


def test_every_name_the_bench_tracer_wraps_exists():
    # A renamed or deleted method would otherwise fail only a traced benchmark run.
    done = subprocess.run([sys.executable, "-c", INSTALL, str(ROOT / "bench")],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
