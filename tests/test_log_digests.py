"""tools/log_digests.py: the digests it prints, the sends it counts, and the case it names
when a check fails."""

import hashlib
import importlib.util
import json
from collections import Counter
from pathlib import Path

from paxsim import parse_scenario, run
from paxsim.eventlog import Record, dump_records

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


def test_sends_are_counted_per_request_by_kind_with_heartbeats_apart(monkeypatch, capsys):
    # Stream is lossless, five replicas a case: one phase 1 per case, then per request
    # four AcceptRequests and five Accepted, each replica's to the learner only.
    # The leader's messages to itself are hand-offs, not sends.
    monkeypatch.setattr(log_digests, "WORKLOADS", ("stream",))
    assert log_digests.main(["--seeds", "5", "--sends"]) == 0
    sends = json.loads(capsys.readouterr().out)["stream"]
    cases = log_digests.workloads.stream(5)
    requests = sum(len(case.payloads) for case in cases)
    heartbeats = sum(record.kind == "Heartbeat" for case in cases
                     for record in run(parse_scenario(case.text)).records)
    rate = sends["per_request"]
    assert sends["requests"] == requests
    assert list(rate) == ["Prepare", "Promise", "AcceptRequest", "Accepted", "ClientResponse",
                          "CatchUp", "Decided", "Query"]
    assert rate["Prepare"] == rate["Promise"] == round(4 * len(cases) / requests, 3)
    assert (rate["AcceptRequest"], rate["Accepted"]) == (4.0, 5.0)
    assert rate["CatchUp"] == rate["Decided"] == rate["Query"] == 0.0
    assert sends["total"] == round(sum(rate.values()), 3)
    assert sends["heartbeats_per_request"] == round(heartbeats / requests, 3)


def test_a_send_counts_once_whether_delivered_dropped_or_discarded():
    def record(kind, **fields):
        return Record(time=0, seq=0, kind=kind, fields=fields)

    sends = Counter()
    log_digests.count_sends([
        record("CatchUp", from_slot=0), record("Drop", pkt="CatchUp"),
        record("DiscardCrashed", pkt="Query"), record("Verdict", req=0),
        record("Propose", req=0)], sends)
    assert sends == {"CatchUp": 2, "Query": 1}
