"""tools/bench_all.py: the source line count it records, and its refusals."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("bench_all", ROOT / "tools" / "bench_all.py")
bench_all = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_all)


def test_source_lines_total_is_what_wc_prints():
    files = sorted(str(path) for path in (ROOT / "src" / "paxsim").glob("*.py"))
    wc = subprocess.run(["wc", "-l", *files], capture_output=True, text=True, check=True)
    total = int(wc.stdout.splitlines()[-1].split()[0])
    assert bench_all.source_lines()["total"] == total


def stub_runs(monkeypatch, returncode, stdout):
    """Stand in for subprocess.run, so that no benchmark process starts."""
    commands = []

    def fake_run(command, **_):
        commands.append(command)
        return subprocess.CompletedProcess(command, returncode, stdout=stdout, stderr="boom\n")

    monkeypatch.setattr(bench_all.subprocess, "run", fake_run)
    return commands


@pytest.mark.parametrize("returncode, stdout", [
    (1, '{"run_s": 0.1}\n'),    # the run failed
    (0, ""),                    # no output
    (0, "{}\nnot json\n"),      # a last line that is not JSON
])
def test_a_failed_run_returns_1_and_writes_no_file(tmp_path, monkeypatch, capsys,
                                                   returncode, stdout):
    commands = stub_runs(monkeypatch, returncode, stdout)
    out = tmp_path / "BENCH.json"
    assert bench_all.main(["--seed", "5", "--seconds", "1", "--out", str(out)]) == 1
    assert not out.exists()
    assert len(commands) == 1  # the first workload's failure stops the rest
    assert "bench_all: " in capsys.readouterr().err


def test_runs_that_end_in_json_are_written_with_the_line_count(tmp_path, monkeypatch):
    commands = stub_runs(monkeypatch, 0, 'warming up\n{"run_s": 0.1}\n')
    out = tmp_path / "BENCH.json"
    assert bench_all.main(["--seed", "5", "--seconds", "1", "--out", str(out)]) == 0
    assert [command[3] for command in commands] == list(bench_all.WORKLOADS)
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["workloads"] == {w: {"run_s": 0.1} for w in bench_all.WORKLOADS}
    assert report["src_lines"] == bench_all.source_lines()
