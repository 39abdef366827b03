"""tools/bench_pairs.py: the order of its runs, its statistics, and its refusals."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import bench_pairs  # noqa: E402

METRICS = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]


def bench_line(run_s, correct=True):
    """A last line of bench/run.py output in which every metric reads 1 but run_s."""
    values = {metric["name"]: 1.0 for metric in METRICS} | {"run_s": run_s}
    return json.dumps({"correct": correct, "attempted": 10, "failed": 0,
                       "metrics": {name: {"value": v, "unit": "s"} for name, v in values.items()}})


def stub_runs(monkeypatch, outcome):
    """Stand in for subprocess.run, so that no benchmark process starts.

    outcome(side, call) gives (returncode, stdout) for the call-th run (0-based) in the
    checkout side, which is the name of the directory it runs in; returns the sides in order.
    """
    sides = []

    def fake_run(command, cwd, **_):
        side = Path(cwd).name
        returncode, stdout = outcome(side, sides.count(side))
        sides.append(side)
        return subprocess.CompletedProcess(command, returncode, stdout=stdout, stderr="boom\n")

    monkeypatch.setattr(subprocess, "run", fake_run)
    return sides


def main(tmp_path, pairs):
    return bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                             str(tmp_path / "change"), "--workload", "lossy", "--seed", "5",
                             "--seconds", "1", "--pairs", str(pairs)])


def test_pairs_alternate_which_side_runs_first(tmp_path, monkeypatch, capsys):
    sides = stub_runs(monkeypatch, lambda side, call: (0, bench_line(0.2)))
    assert main(tmp_path, 3) == 0
    assert sides == ["parent", "change", "change", "parent", "parent", "change"]
    rows = capsys.readouterr().out.splitlines()
    assert [row.split()[0] for row in rows[-len(METRICS):]] == [m["name"] for m in METRICS]


def test_quartiles_interpolate_between_the_sorted_values():
    assert bench_pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)


RUN_S = {"name": "run_s", "unit": "s", "better": "lower"}


def test_wins_count_ties_for_neither_side():
    parent = [1.0, 1.0, 1.0, 1.0]
    row = bench_pairs.compare(RUN_S, parent, [0.9, 1.0, 1.1, 0.8])
    assert row["wins"] == 2 and row["pairs"] == 4
    higher = dict(RUN_S, better="higher")
    assert bench_pairs.compare(higher, parent, [0.9, 1.0, 1.1, 0.8])["wins"] == 1


def test_a_gain_needs_nine_wins_in_ten_and_a_gap_beyond_the_parents_spread():
    parent = [1.0 + 0.01 * i for i in range(10)]  # quartiles 1.0225 and 1.0675
    row = bench_pairs.compare(RUN_S, parent, [p - 0.1 for p in parent])
    assert (row["wins"], row["gain"]) == (10, True)
    assert row["relative"] == pytest.approx(-0.1 / 1.045)
    one_loss = [p - 0.1 for p in parent[:9]] + [parent[9] + 0.1]
    assert bench_pairs.compare(RUN_S, parent, one_loss)["gain"] is True
    two_losses = [p - 0.1 for p in parent[:8]] + [p + 0.1 for p in parent[8:]]
    assert bench_pairs.compare(RUN_S, parent, two_losses)["gain"] is False
    within_spread = [p - 0.04 for p in parent]  # the median gap 0.04 < 0.045
    row = bench_pairs.compare(RUN_S, parent, within_spread)
    assert (row["wins"], row["gain"]) == (10, False)


@pytest.mark.parametrize("returncode, stdout, message", [
    (1, bench_line(0.2), "exited 1"),                       # the run failed
    (0, bench_line(0.2, correct=False), "correct: false"),  # a wrong result
    (0, bench_line(0.2) + "\nnot json\n", "not JSON"),      # a last line that is not JSON
])
def test_a_failed_run_returns_1_naming_its_side_and_pair(tmp_path, monkeypatch, capsys,
                                                         returncode, stdout, message):
    # The change's second run, in pair 2, where the change runs first, fails.
    def outcome(side, call):
        return (returncode, stdout) if (side, call) == ("change", 1) else (0, bench_line(0.2))

    sides = stub_runs(monkeypatch, outcome)
    assert main(tmp_path, 3) == 1
    assert sides == ["parent", "change", "change"]  # the failure stops the rest
    err = capsys.readouterr().err
    assert "bench_pairs: pair 2, change: " in err and message in err
