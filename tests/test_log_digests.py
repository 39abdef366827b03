"""tools/log_digests.py: the digests it prints, and the case it names when a check fails."""

import hashlib
import importlib.util
import json
from pathlib import Path

from paxsim import parse_scenario, run
from paxsim.eventlog import dump_records

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("log_digests", ROOT / "tools" / "log_digests.py")
log_digests = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(log_digests)


def test_every_case_of_a_workload_is_digested_as_run(monkeypatch, capsys):
    monkeypatch.setattr(log_digests, "WORKLOADS", ("stream",))
    assert log_digests.main(["--seeds", "5"]) == 0
    digests = json.loads(capsys.readouterr().out)
    cases = log_digests.workloads.stream(5)
    assert list(digests) == [f"stream/5/{case.name}" for case in cases]
    result = run(parse_scenario(cases[3].text, name_hint=cases[3].name))
    assert digests["stream/5/stream-3"] == {
        "log": hashlib.sha256(dump_records(result.records).encode("utf-8")).hexdigest(),
        "report": hashlib.sha256(result.report.to_json().encode("utf-8")).hexdigest(),
    }


def test_a_failed_check_returns_1_naming_the_case(monkeypatch, capsys):
    monkeypatch.setattr(log_digests, "WORKLOADS", ("lossy",))
    monkeypatch.setattr(log_digests, "check_proposal_numbers", lambda records: ["t=1: forged"])
    assert log_digests.main(["--seeds", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "log_digests: lossy/5/lossy-0: proposal numbers: t=1: forged\n"
