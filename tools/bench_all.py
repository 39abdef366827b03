"""Run the benchmark on every workload and write the results to one JSON file.

    python3 tools/bench_all.py --seed 31 --seconds 5 --out BENCH.json

Runs ``bench/run.py`` once per workload (stream, lossy, sweep), one after
another, and keeps the JSON line each run prints last. Beside them it
records the source line count, as ``wc -l src/paxsim/*.py`` gives it, and
the Python version. Exits 1 if a run fails or its last line of output is not
JSON, without writing the file.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("stream", "lossy", "sweep")


def bench(workload: str, seed: int, seconds: float, root: Path = ROOT) -> dict:
    """The JSON line that bench/run.py prints last, run in the checkout at root."""
    command = [sys.executable, "bench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command[1:])} exited {done.returncode}:\n{done.stderr}")
    try:
        return json.loads(done.stdout.splitlines()[-1])
    except (IndexError, ValueError):  # no output, or a last line that is not JSON
        raise RuntimeError(f"{workload}: the run's last line of output is not JSON") from None


def source_lines() -> dict:
    """Newlines per source file, as wc -l counts them, and their total."""
    files = {path.name: path.read_bytes().count(b"\n")
             for path in sorted((ROOT / "src" / "paxsim").glob("*.py"))}
    return {"files": files, "total": sum(files.values())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    try:
        results = {}
        for workload in WORKLOADS:
            print(f"bench_all: {workload}", file=sys.stderr)
            results[workload] = bench(workload, args.seed, args.seconds)
    except RuntimeError as exc:
        print(f"bench_all: {exc}", file=sys.stderr)
        return 1
    report = {"seed": args.seed, "seconds": args.seconds,
              "python": platform.python_version(), "workloads": results,
              "src_lines": source_lines()}
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
