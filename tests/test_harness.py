"""Whole-cluster runs: packet accounting, fault handling, replay, CLI."""

import gc
import json
import re
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from paxsim import ClusterRun, cli, eventlog, load_scenario, parse_scenario, run
from paxsim.eventlog import (Delivery, LineRecord, Record, dump_records, format_record,
                             parse_record, read_log, write_log)
from paxsim.harness import replay_verdicts
from paxsim.logcheck import check_proposal_numbers
from paxsim.messages import Accepted, Heartbeat

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

COMPROMISE = """
name: one_bad_replica
acceptors: 5
net: {seed: 11, base_delay: 1, jitter: 1, loss_rate: 0.0}
machine:
  states: ["S0", "S7"]
  start: "S0"
  rules:
    - {from: "S0", to: "S7", output_regex: "Error|Failure", threshold: 0}
app_model: {outputs: [{request: "q.*", output: "OK"}], default_output: "OK"}
requests:
  - {at: 1, payload: "q1"}
  - {at: 15, payload: "q2"}
faults:
  - {at: 0, target: 2, kind: compromise, override: {"q2": "Error"}}
"""


def baseline_result():
    return run(load_scenario(SCENARIO_DIR / "baseline.scenario"))


def test_baseline_verdicts_and_counts():
    report = baseline_result().report
    assert report.counts["consensus"] == 3
    assert report.counts["anomaly"] == 0
    assert report.counts["reproposals"] == 0
    assert report.counts["drops"] == 0
    assert [v["verdict"] for v in report.verdicts] == ["Consensus"] * 3
    assert not report.horizon_reached and not report.livelock and not report.halted


def test_baseline_packet_accounting():
    # Lossless five-node run: one phase 1 (a Propose, 4 Prepare, 4 Promise) for
    # the epoch's first request, then per request 4 AcceptRequest under its
    # number and 5 Accepted deliveries, each replica's to the learner only.
    # The leader's messages to itself are in-node hand-offs, never delivered.
    result = baseline_result()
    per_request = {0: Counter(), 1: Counter(), 2: Counter()}
    numbers = Counter()
    for record in result.records:
        if record.kind in ("Propose", "AcceptRequest", "Accepted"):
            per_request[int(record.fields["req"])][record.kind] += 1
        if record.kind in ("Prepare", "Promise", "AcceptRequest"):
            numbers[record.kind, record.fields["n"]] += 1
    for rid, counts in per_request.items():
        assert counts["Propose"] == (1 if rid == 0 else 0), (rid, counts)
        assert counts["AcceptRequest"] == 4
        assert counts["Accepted"] == 5
    assert numbers == {("Prepare", "0.0"): 4, ("Promise", "0.0"): 4,
                       ("AcceptRequest", "0.0"): 12}
    responses = [int(r.fields["req"]) for r in result.records if r.kind == "ClientResponse"]
    assert sorted(responses) == [0, 1, 2]  # exactly one response per consensus


def test_compromise_detected_with_dissenter_named():
    result = run(parse_scenario(COMPROMISE))
    report = result.report
    assert report.counts["anomaly"] == 1
    assert report.anomalies[0]["dissenting"] == [2]
    verdict_records = [r for r in result.records if r.kind == "Verdict"]
    anomaly_records = [r for r in verdict_records if r.fields["verdict"] == "Anomaly"]
    assert len(anomaly_records) == 1
    assert anomaly_records[0].fields["dissenting"] == "2"
    assert any(r.kind == "AnomalyReport" for r in result.records)


def test_compromise_differential_against_honest_twin():
    honest = parse_scenario(COMPROMISE.replace("faults:\n  - {at: 0, target: 2, "
                                               "kind: compromise, override: {\"q2\": \"Error\"}}",
                                               "faults: []"))
    assert honest.faults == ()
    report = run(honest).report
    assert report.counts["anomaly"] == 0
    assert report.counts["consensus"] == 2


def test_stale_count_scenario_log_order():
    result = run(load_scenario(SCENARIO_DIR / "stale_count.scenario"))
    kinds = []
    for record in result.records:
        if record.kind == "Repropose":
            kinds.append(("Repropose",))
        elif record.kind == "Failure":
            kinds.append(("Failure", record.fields["node"]))
        elif record.kind == "MajorityReached":
            kinds.append(("MajorityReached", record.fields["promises"],
                          record.fields["membership"]))
    assert ("Repropose",) in kinds
    assert ("Failure", 5) in kinds
    first_repropose = kinds.index(("Repropose",))
    failure = kinds.index(("Failure", 5))
    majority = next(i for i, k in enumerate(kinds) if k[0] == "MajorityReached")
    assert first_repropose < failure < majority
    assert kinds[majority] == ("MajorityReached", 3, 5)


def test_replay_reproduces_verdicts_in_memory_and_from_file(tmp_path):
    result = run(parse_scenario(COMPROMISE))
    checked, diffs = replay_verdicts(result.records)
    assert checked == 2 and diffs == []
    log_path = tmp_path / "run.log"
    write_log(result.records, log_path)
    checked, diffs = replay_verdicts(read_log(log_path))
    assert checked == 2 and diffs == []
    for name in ("baseline", "error_streak", "stale_count"):
        res = run(load_scenario(SCENARIO_DIR / f"{name}.scenario"))
        checked, diffs = replay_verdicts(res.records)
        assert checked == len(res.report.verdicts) and diffs == [], name


@pytest.mark.parametrize("name", ["baseline", "lossy_pull"])
def test_replay_reports_a_second_verdict_for_a_slot(tmp_path, name):
    # The learner logs one Verdict per slot, so a repeated one is a mismatch, not a recheck.
    records = run(load_scenario(SCENARIO_DIR / f"{name}.scenario")).records
    slots = [record.fields["req"] for record in records if record.kind == "Verdict"]
    log_path = tmp_path / "run.log"
    write_log(records, log_path)
    lines = log_path.read_text(encoding="utf-8").splitlines(keepends=True)
    log_path.write_text("".join(line * (2 if " kind=Verdict " in line else 1) for line in lines),
                        encoding="utf-8")
    checked, diffs = replay_verdicts(read_log(log_path))
    assert checked == 2 * len(slots)
    assert diffs == [f"req {rid}: a second Verdict" for rid in slots]


# Three replicas, leader crash at tick 4: every slot ends Consensus. Slot 0 has reports
# from nodes 1 and 2 only, and node 0's Failure leaves them covering the group.
MIXED_ROUND = """
name: mixed_round
acceptors: 3
net: {seed: 1, base_delay: 1, jitter: 0, loss_rate: 0.0}
timing: {horizon: 600}
machine: {states: ["S"], start: "S", rules: []}
app_model: {outputs: [], default_output: "OK"}
requests:
  - {at: 1, payload: "a"}
  - {at: 3, payload: "b"}
  - {at: 5, payload: "c"}
faults:
  - {at: 4, target: 0, kind: crash}
"""

# Five replicas at 10% loss under the majority policy, one of them lying:
# drops, AnomalyReports, queries and catch-ups in one run. Replica 0 misses
# slot 0 and fetches slots 0-1 from its peers; replicas 3 and 4 miss slot 4,
# which slot 5's AcceptRequest reveals (and a query, to 4); every slot ends
# Consensus before its deadline.
LOSSY_MAJORITY = """
name: lossy_majority
acceptors: 5
anomaly_policy: majority
net: {seed: 4, base_delay: 1, jitter: 2, loss_rate: 0.1}
timing: {horizon: 800}
machine:
  states: ["S0", "S7"]
  start: "S0"
  rules:
    - {from: "S0", to: "S7", output_regex: "Error", threshold: 0}
app_model: {outputs: [{request: "q.*", output: "OK"}], default_output: "OK"}
requests:
  - {at: 1, payload: "q1"}
  - {at: 10, payload: "q2"}
  - {at: 20, payload: "q3"}
  - {at: 30, payload: "q4"}
  - {at: 40, payload: "q5"}
  - {at: 50, payload: "q6"}
faults:
  - {at: 0, target: 3, kind: compromise, override: {"q2": "Error", "q5": "Error"}}
"""


@pytest.mark.parametrize("rid, key, forged", [
    (0, "received", 3), (0, "needed", 2), (1, "output", "forged"), (2, "state", "T"),
])
def test_replay_reports_a_forged_verdict(tmp_path, rid, key, forged):
    # An Inconclusive field is forged in all_crash's slot 0 (1 report, 1 needed),
    # a Consensus field in MIXED_ROUND's.
    if key in ("received", "needed"):
        scenario = load_scenario(SCENARIO_DIR / "all_crash.scenario")
    else:
        scenario = parse_scenario(MIXED_ROUND)
    records = list(run(scenario).records)
    verdicts = sum(record.kind == "Verdict" for record in records)
    assert replay_verdicts(records) == (verdicts, [])
    at = next(i for i, r in enumerate(records)
              if r.kind == "Verdict" and r.fields["req"] == rid)
    assert key in records[at].fields and records[at].fields[key] != forged
    records[at] = replace(records[at], fields={**records[at].fields, key: forged})
    checked, diffs = replay_verdicts(records)
    assert checked == verdicts and len(diffs) == 1 and diffs[0].startswith(f"req {rid}: recomputed")
    log_path = tmp_path / "forged.log"
    write_log(records, log_path)
    assert replay_verdicts(read_log(log_path)) == (checked, diffs)


def test_an_emptied_group_seals_no_consensus_and_replay_agrees(tmp_path):
    # all_crash: the leader's own report of slot 0 reaches the learner, then the group empties.
    result = run(load_scenario(SCENARIO_DIR / "all_crash.scenario"))
    assert result.report.halted
    assert result.report.verdicts == [{"request_id": 0, "verdict": "Inconclusive",
                                       "received": 1, "needed": 1}]
    records = list(result.records)
    at = next(i for i, r in enumerate(records) if r.kind == "Verdict")
    assert records[at - 1].kind == "Halt"
    assert records[at].fields == {"req": 0, "verdict": "Inconclusive", "membership": 0,
                                  "deadline": 1, "received": "1", "needed": "1"}
    assert replay_verdicts(records) == (1, [])
    # The Consensus a single report used to seal: replay names it a mismatch.
    fields = {k: v for k, v in records[at].fields.items() if k not in ("received", "needed")}
    records[at] = replace(records[at], fields={**fields, "verdict": "Consensus",
                                               "output": "OK", "state": "S"})
    log_path = tmp_path / "consensus.log"
    write_log(records, log_path)
    for logged in (records, read_log(log_path)):
        checked, diffs = replay_verdicts(logged)
        assert checked == 1 and len(diffs) == 1 and diffs[0].startswith("req 0: recomputed")


def test_an_emptied_groups_verdict_logged_with_membership_1_replays_as_a_mismatch(tmp_path):
    # Replay tracks the emptied group as 0 members, as the learner now logs it; a log
    # written before that, with membership=1, no longer replays clean. Recomputed over
    # the logged membership of 1, the slot's one report would also have sealed Consensus.
    records = list(run(load_scenario(SCENARIO_DIR / "all_crash.scenario")).records)
    at = next(i for i, r in enumerate(records) if r.kind == "Verdict")
    records[at] = replace(records[at], fields={**records[at].fields, "membership": 1})
    log_path = tmp_path / "membership_1.log"
    write_log(records, log_path)
    assert "membership=1 deadline=1 received=1 needed=1" in log_path.read_text(encoding="utf-8")
    for logged in (records, read_log(log_path)):
        assert replay_verdicts(logged) == (1, [
            "req 0: logged membership 1 != tracked 0",
            "req 0: recomputed {'verdict': 'Consensus', 'output': 'OK', 'state': 'S'} "
            "!= logged {'verdict': 'Inconclusive'}"])


# Replica 2 crash-stops before the only request, and failure detection is
# slower than the slot's deadline. The learner does not query a member it has
# not heard from within Q ticks, so the slot waits for its deadline with 2 of
# 3 reports.
SILENT_CRASH = """
name: silent_crash
acceptors: 3
net: {seed: 1, base_delay: 1, jitter: 0, loss_rate: 0.0}
timing: {suspect_after: 100, horizon: 600}
machine: {states: ["S"], start: "S", rules: []}
app_model: {outputs: [], default_output: "OK"}
requests:
  - {at: 1, payload: "a"}
faults:
  - {at: 0, target: 2, kind: crash}
"""


def test_replay_reports_a_verdict_forged_as_early(tmp_path, capsys):
    # MIXED_ROUND's slots are all decided early, slot 0 on node 0's Failure, and replay clean.
    assert replay_verdicts(run(parse_scenario(MIXED_ROUND)).records) == (3, [])
    log_path = tmp_path / "forged.log"
    records = run(parse_scenario(SILENT_CRASH)).records
    assert not any(record.kind == "Query" for record in records)
    write_log(records, log_path)
    text = log_path.read_text(encoding="utf-8")
    forged, count = re.subn(r"(kind=Verdict req=0 .*deadline=)1", r"\g<1>0", text)
    assert count == 1
    log_path.write_text(forged, encoding="utf-8")
    mismatch = "req 0: decided early on 2 of 3 members' reports"
    assert replay_verdicts(read_log(log_path)) == (1, [mismatch])
    assert cli.main(["replay", "--log", str(log_path)]) == cli.EXIT_INVALID
    assert capsys.readouterr().out == f"mismatch: {mismatch}\n1 verdicts checked, 1 mismatches\n"


def test_log_file_roundtrip_is_lossless(tmp_path):
    result = run(load_scenario(SCENARIO_DIR / "baseline.scenario"))
    log_path = tmp_path / "run.log"
    write_log(result.records, log_path)
    assert dump_records(read_log(log_path)) == dump_records(result.records)


def test_lines_with_json_escapes_take_the_full_line_parse(tmp_path):
    payload = json.dumps('say "hi" \\ é\t')  # a YAML double-quoted string too
    scenario = parse_scenario(COMPROMISE.replace('"q1"', payload))
    log_path = tmp_path / "escaped.log"
    write_log(run(scenario).records, log_path)
    text = log_path.read_text(encoding="utf-8")
    records = read_log(log_path)
    assert [type(record) for record in records] == [
        Record if "\\" in line else LineRecord for line in text.splitlines()]
    assert Record in map(type, records)
    assert dump_records(records) == text
    assert cli.main(["replay", "--log", str(log_path)]) == 0


# LOSSY_MAJORITY with every arrival 300 ticks later: most records fall after
# t=256, where each int is its own object unless something shares it.
LATE_LOSSY = re.sub(r"at: (\d+), payload", lambda m: f"at: {int(m[1]) + 300}, payload",
                    LOSSY_MAJORITY)


def assert_shared(records, least=101):
    """One kind object per kind, and one time object per run of records at one tick;
    returns the pairs of consecutive records at one tick past 256, at least `least` of them."""
    kinds = {}
    for record in records:
        assert kinds.setdefault(record.kind, record.kind) is record.kind
    late = [(a, b) for a, b in zip(records, records[1:]) if a.time == b.time > 256]
    assert len(late) >= least
    assert all(a.time is b.time for a, b in late)
    return late


def test_read_log_shares_each_kind_and_each_ticks_time(tmp_path):
    log_path = tmp_path / "run.log"
    write_log(run(parse_scenario(LATE_LOSSY)).records, log_path)
    records = read_log(log_path)
    lines = log_path.read_text(encoding="utf-8").splitlines()
    assert records == [parse_record(line) for line in lines]
    assert {"Drop", "Failure", "Verdict"} <= {record.kind for record in records}
    assert_shared(records)


def test_live_records_share_each_ticks_time():
    pairs = {(type(a), type(b)) for a, b in assert_shared(run(parse_scenario(LATE_LOSSY)).records)}
    assert pairs == {(Delivery, Delivery), (Delivery, Record), (Record, Delivery), (Record, Record)}


def test_a_log_of_both_routes_and_blank_lines_reads_and_fails_as_before(tmp_path):
    payload = json.dumps('say "hi"')  # escaped in the log, so its lines take the Record route
    log_path = tmp_path / "mixed.log"
    write_log(run(parse_scenario(LATE_LOSSY.replace('"q2"', payload))).records, log_path)
    lines = log_path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1:1] = ["\n", "  \n"]
    log_path.write_text("".join(lines), encoding="utf-8")
    records = read_log(log_path)
    assert records == [parse_record(line) for line in lines if line.strip()]
    assert {type(record) for record in records} == {Record, LineRecord}
    assert_shared(records)
    assert replay_verdicts(records) == (6, [])
    lines.append('time=999 seq=0 kind=Verdict note="\\q"\n')
    log_path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(ValueError, match=rf"^line {len(lines)}: Invalid \\escape: "):
        read_log(log_path)
    assert gc.isenabled()  # the collector paused for the read is on again


def test_write_log_in_small_chunks_writes_the_same_bytes(tmp_path, monkeypatch):
    monkeypatch.setattr(eventlog, "WRITE_CHUNK", 7)
    records = baseline_result().records
    log_path = tmp_path / "chunked.log"
    write_log(records, log_path)
    assert log_path.read_text(encoding="utf-8") == dump_records(records)


def test_read_log_in_small_chunks_reads_the_same_records(tmp_path, monkeypatch):
    monkeypatch.setattr(eventlog, "READ_CHUNK", 7)
    log_path = tmp_path / "chunked.log"
    write_log(run(parse_scenario(LATE_LOSSY)).records, log_path)
    text = log_path.read_text(encoding="utf-8")
    records = read_log(log_path)
    assert records == [parse_record(line) for line in text.splitlines()]
    assert_shared(records)
    assert dump_records(records) == text


READ_CHUNKS = (1, 7, 64, eventlog.READ_CHUNK)

# Log lines of every shape read_log meets: lines write_log writes, with and
# without JSON escapes (in the grammar or not), blank and all-space lines, a
# line whose grammar match starts mid-line, a line longer than the default
# chunk, and a line that str.splitlines would break but reading by lines
# does not.
written_lines = st.builds(
    lambda time, seq, kind, fields: format_record(Record(time, seq, kind, fields)),
    st.integers(250, 262), st.integers(0, 99), st.sampled_from(["Verdict", "Drop", "A"]),
    st.dictionaries(st.sampled_from(["req", "note", "from", "x_1"]),
                    st.one_of(st.integers(0, 9), st.text(max_size=8)), max_size=3))
odd_lines = st.sampled_from([
    "", " ", " \t \x0b", "note=1 time=5 seq=1 kind=A",
    "time=257 seq=0 kind=Long note=" + "a" * (eventlog.READ_CHUNK + 10),
    "time=258 seq=1 kind=A x=a\x0bb\x1c \x85c\u2028 y=\"z\"",
])


# Building Hypothesis's character cache on a first run can trip too_slow; only that check
# is off here, and the strategies and the property are unchanged.
@settings(suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.one_of(written_lines, odd_lines), max_size=30), st.booleans())
@example(["time=257 seq=0 kind=A", "", "time=257 seq=1 kind=A x=\"\\\"\"",
          "time=257 seq=2 kind=A"], True)
def test_read_log_equals_parsing_each_line_at_every_chunk_size(tmp_path_factory, lines, final):
    text = "\n".join(lines) + ("\n" if final else "")
    expected = [parse_record(line) for line in text.split("\n") if line and not line.isspace()]
    log_path = tmp_path_factory.getbasetemp() / "drawn.log"
    log_path.unlink(missing_ok=True)
    log_path.write_text(text, encoding="utf-8")
    for size in READ_CHUNKS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(eventlog, "READ_CHUNK", size)
            records = read_log(log_path)
        assert records == expected, size
        assert_shared(records, least=0)


@pytest.mark.parametrize("size", READ_CHUNKS)
@pytest.mark.parametrize("bad, message", [
    ("hello world\n", "missing field 'time'"),
    ('time=999 seq=0 kind=Verdict note="\\q"\n', "Invalid \\escape: "),
    ("time=9x seq=0 kind=A\n", "invalid literal for int"),
])
def test_a_malformed_line_is_named_at_every_chunk_size(tmp_path, monkeypatch, size, bad, message):
    monkeypatch.setattr(eventlog, "READ_CHUNK", size)
    log_path = tmp_path / "bad.log"
    write_log(run(parse_scenario(LATE_LOSSY)).records, log_path)
    lines = log_path.read_text(encoding="utf-8").splitlines(keepends=True)
    at = len(lines) // 2
    lines[at:at] = [bad]
    log_path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(ValueError, match=rf"^line {at + 1}: {re.escape(message)}"):
        read_log(log_path)


def test_report_counts_agree_with_log():
    result = run(parse_scenario(COMPROMISE))
    kinds = Counter(r.kind for r in result.records)
    counts = result.report.counts
    assert counts["reproposals"] == kinds["Repropose"]
    assert counts["elections"] == kinds["Election"]
    assert counts["drops"] == kinds["Drop"]
    verdicts = Counter(r.fields["verdict"] for r in result.records if r.kind == "Verdict")
    assert counts["consensus"] == verdicts["Consensus"]
    assert counts["anomaly"] == verdicts["Anomaly"]
    assert counts["inconclusive"] == verdicts["Inconclusive"]
    total = counts["consensus"] + counts["anomaly"] + counts["inconclusive"]
    assert total == len(result.report.verdicts)


def test_the_infra_node_credits_each_packet_to_its_delivery_src():
    cluster = ClusterRun(parse_scenario(COMPROMISE))
    infra = cluster.sim.nodes[cluster.learner_id]
    report = Accepted(request_id=0, output="OK", new_state="S0")
    infra.on_packet(report, 3, 4)
    infra.on_packet(report, 1, 4)
    assert cluster.learner.reports[0] == {3: report, 1: report}
    infra.on_packet(Heartbeat(seq=0), 2, 9)
    assert cluster.membership.view.last_heartbeat == {0: 0, 1: 0, 2: 9, 3: 0, 4: 0}


def test_crashed_node_emits_nothing_after_crash():
    text = """
name: crash_silence
acceptors: 4
net: {seed: 9, base_delay: 1, jitter: 1, loss_rate: 0.0}
machine: {states: ["S"], start: "S", rules: []}
app_model: {outputs: [], default_output: "OK"}
requests:
  - {at: 1, payload: "a"}
  - {at: 30, payload: "b"}
faults:
  - {at: 10, target: 3, kind: crash}
timing: {horizon: 400}
"""
    result = run(parse_scenario(text))
    crash_time = next(r.time for r in result.records if r.kind == "Crash")
    for record in result.records:
        if record.kind in ("Prepare", "Promise", "AcceptRequest", "Accepted", "Heartbeat"):
            if int(record.fields["from"]) == 3:
                # Sends happen at least one delay unit before delivery.
                assert record.time <= crash_time + 2


FAULTS = """
name: faults_at_the_client
acceptors: 3
net: {seed: 4, base_delay: 1, jitter: 0, loss_rate: 0.0}
machine: {states: ["S"], start: "S", rules: []}
app_model: {outputs: [], default_output: "OK"}
requests:
  - {at: 3, payload: "a"}
faults:
  - {at: 0, target: 1, kind: crash}
timing: {horizon: 200}
"""


def test_crash_at_time_zero_precedes_every_delivery_to_the_node():
    records = run(parse_scenario(FAULTS)).records
    crash = next(i for i, r in enumerate(records) if r.kind == "Crash")
    assert (records[crash].time, records[crash].fields) == (0, {"node": 1})
    to_node = [(i, r.kind) for i, r in enumerate(records) if str(r.fields.get("to")) == "1"]
    assert to_node and all(i > crash and kind == "DiscardCrashed" for i, kind in to_node)


def test_compromise_is_logged_at_its_tick_and_installs_the_override():
    from paxsim.harness import ClusterRun
    text = FAULTS.replace("{at: 0, target: 1, kind: crash}",
                          '{at: 2, target: 1, kind: compromise, override: {"a": "Error"}}')
    cluster = ClusterRun(parse_scenario(text))
    records = cluster.run().records
    faults = [(r.time, r.kind, r.fields) for r in records if r.kind in ("Crash", "Compromise")]
    assert faults == [(2, "Compromise", {"node": 1})]
    assert cluster.replicas[1].acceptor.output_override == {"a": "Error"}
    assert all(replica.acceptor.output_override == {} for replica in cluster.replicas[::2])


def test_crash_and_arrival_in_one_tick_log_the_crash_first():
    text = FAULTS.replace("{at: 0, target: 1, kind: crash}", "{at: 3, target: 0, kind: crash}")
    records = run(parse_scenario(text)).records
    tick = [r.kind for r in records if r.time == 3 and r.kind in ("Crash", "ClientArrival")]
    assert tick == ["Crash", "ClientArrival"]
    # The arrival already sees its leader crashed, so node 0 never proposes it.
    assert all(r.fields["from"] != 0 for r in records if r.kind == "Propose")


# Node 0 crashes at t=40, undetected until its Failure at t=55, and a request arrives at t=41.
CRASHED_LEADER = (SCENARIO_DIR / "baseline.scenario").read_text(encoding="utf-8").replace(
    '  - {at: 24, payload: "GET /health"}\n',
    '  - {at: 24, payload: "GET /health"}\n  - {at: 41, payload: "PUT /x"}\n').replace(
    "faults: []", "faults: [{at: 40, target: 0, kind: crash}]")


def test_an_arrival_at_a_crashed_leader_waits_for_the_election():
    # The view still names node 0 leader at t=41, so only the crash guard keeps it from proposing.
    result = run(parse_scenario(CRASHED_LEADER))
    seen = [(r.time, r.kind, {k: str(v) for k, v in r.fields.items()}) for r in result.records
            if r.kind in ("ClientArrival", "Propose", "Election", "Verdict")
            and str(r.fields.get("req", 3)) == "3"]
    assert seen[0] == (41, "ClientArrival", {"req": "3", "to": "0", "payload": "PUT /x"})
    assert [(time, kind) for time, kind, _ in seen] == [
        (41, "ClientArrival"), (55, "Election"), (55, "ClientArrival"), (55, "Propose"),
        (63, "Verdict")]
    assert seen[2][2]["redispatch"] == "1" and seen[3][2]["from"] == "1"
    assert seen[4][2]["verdict"] == "Consensus"
    # Node 1 runs phase 1 for the first request of its epoch, then phase 2 under that number.
    accepts = {(r.fields["from"], r.fields["epoch"], r.fields["n"]) for r in result.records
               if r.kind == "AcceptRequest" and r.fields["req"] == "3"}
    assert accepts == {("1", "1", seen[3][2]["n"])}


def test_an_election_retries_only_requests_that_have_arrived():
    # Node 1, leader after the first election, crashes too; the fifth request arrives after both.
    text = CRASHED_LEADER.replace(
        '  - {at: 41, payload: "PUT /x"}\n',
        '  - {at: 41, payload: "PUT /x"}\n  - {at: 120, payload: "GET /health"}\n').replace(
        "faults: [{at: 40, target: 0, kind: crash}]",
        "faults: [{at: 40, target: 0, kind: crash}, {at: 70, target: 1, kind: crash}]")
    records = run(parse_scenario(text)).records
    assert sum(r.kind == "Election" for r in records) == 2
    arrived = []
    for r in records:
        if r.kind == "ClientArrival":
            req = int(r.fields["req"])
            if "redispatch" in r.fields:
                assert req < len(arrived), f"request {req} retried at t={r.time} before it arrived"
            else:
                arrived.append(r.time)
                assert req == len(arrived) - 1
    assert arrived == [1, 12, 24, 41, 120]


def test_a_fault_past_the_horizon_never_fires():
    text = (SCENARIO_DIR / "baseline.scenario").read_text(encoding="utf-8")
    late = text.replace("faults: []", "faults: [{at: 100000, target: 3, kind: crash}]")
    assert late != text
    records = run(parse_scenario(late)).records
    assert dump_records(records) == dump_records(baseline_result().records)


def test_proposal_number_discipline_on_bundled_scenarios():
    for name in ("baseline", "error_streak", "stale_count"):
        result = run(load_scenario(SCENARIO_DIR / f"{name}.scenario"))
        assert check_proposal_numbers(result.records) == []


def forged_proposals():
    """Proposal records that break the discipline three times, and the violations named."""
    def record(seq, kind, **fields):
        return Record(time=seq, seq=seq, kind=kind, fields=fields)

    records = [
        record(0, "Propose", **{"from": 0, "n": "1.0"}),
        record(1, "Promise", to=0, n="5.2"),  # forged: only proposer 2 is promised 5.2
        record(2, "Repropose", **{"from": 0, "n": "4.0"}),  # below the promised 5
        record(3, "Propose", **{"from": 0, "n": "4.0"}),  # not above its own 4
        record(4, "Repropose", **{"from": 1, "n": "0.1"}),  # nothing observed yet
        record(5, "Promise", to=2, n="0.2"),
        record(6, "Repropose", **{"from": 2, "n": "0.2"}),  # round 0 is observed too
    ]
    return records, [
        "t=2: re-proposal round 4 by proposer 0 does not exceed observed round 5",
        "t=3: proposer 0 round 4 does not exceed its previous round 4",
        "t=6: re-proposal round 0 by proposer 2 does not exceed observed round 0",
    ]


def test_proposal_number_violations_are_named():
    records, violations = forged_proposals()
    assert check_proposal_numbers(records) == violations


def test_cli_replay_names_proposal_number_violations(tmp_path, capsys):
    records, violations = forged_proposals()
    init = Record(time=0, seq=0, kind="Init",
                  fields={"acceptors": 3, "leader": 0, "epoch": 0, "policy": "strict", "seed": 1})
    log_path = tmp_path / "forged.log"
    write_log([init, *records], log_path)
    assert cli.main(["replay", "--log", str(log_path)]) == cli.EXIT_INVALID
    assert capsys.readouterr().out == "".join(
        [f"proposal numbers: {violation}\n" for violation in violations]
        + ["0 verdicts checked, all reproduced\n", "3 proposal-number violations\n"])


def test_heartbeat_only_scenario_runs_to_horizon():
    text = """
name: idle
acceptors: 3
net: {seed: 2, base_delay: 1, jitter: 0, loss_rate: 0.0}
machine: {states: ["S"], start: "S", rules: []}
app_model: {outputs: [], default_output: "OK"}
requests: []
timing: {horizon: 60}
"""
    result = run(parse_scenario(text))
    assert result.report.verdicts == []
    assert result.report.final_time >= 55
    assert not result.report.livelock


def test_a_run_decided_before_its_last_fault_heartbeats_until_that_fault():
    text = FAULTS.replace("{at: 0, target: 1, kind: crash}", "{at: 150, target: 1, kind: crash}")
    records = run(parse_scenario(text)).records
    verdict = next(r.time for r in records if r.kind == "Verdict")
    crash = next(r.time for r in records if r.kind == "Crash")
    assert verdict < 20 and crash == 150
    # Heartbeats keep flowing until the crash, the last outstanding work ...
    beats = [r.time for r in records if r.kind == "Heartbeat"]
    assert max(beats) > crash - 10
    # ... and once it fires, the run shuts down instead of playing to the horizon.
    assert records[-1].time < crash + 10 and all(r.kind != "Horizon" for r in records)


def test_quiescence_empties_the_queue_on_lossless_runs():
    from paxsim.harness import ClusterRun
    cluster = ClusterRun(load_scenario(SCENARIO_DIR / "baseline.scenario"))
    result = cluster.run()
    assert cluster.sim.pending() == 0  # true quiescence, not a horizon stop
    assert result.report.final_time < 200


def test_two_successive_leader_crashes_recover():
    text = """
name: double_failover
acceptors: 5
net: {seed: 13, base_delay: 1, jitter: 1, loss_rate: 0.0}
machine: {states: ["S"], start: "S", rules: []}
app_model: {outputs: [], default_output: "OK"}
requests:
  - {at: 1, payload: "a"}
  - {at: 30, payload: "b"}
  - {at: 90, payload: "c"}
faults:
  - {at: 25, target: 0, kind: crash}
  - {at: 60, target: 1, kind: crash}
timing: {horizon: 900}
"""
    result = run(parse_scenario(text))
    elections = [(r.fields["epoch"], r.fields["leader"])
                 for r in result.records if r.kind == "Election"]
    assert elections == [(1, 1), (2, 2)]
    assert result.report.counts["consensus"] == 3
    assert result.report.final_leader == 2
    assert check_proposal_numbers(result.records) == []
    checked, diffs = replay_verdicts(result.records)
    assert checked == 3 and diffs == []


def test_majority_policy_decides_with_dissent_reported():
    text = COMPROMISE.replace("name: one_bad_replica", "name: tolerant") \
                     .replace("acceptors: 5", "acceptors: 5\nanomaly_policy: majority")
    result = run(parse_scenario(text))
    assert result.report.counts["anomaly"] == 0
    assert result.report.counts["consensus"] == 2
    reports = [r for r in result.records if r.kind == "AnomalyReport"]
    assert len(reports) == 1 and reports[0].fields["dissenting"] == "2"
    responses = [r for r in result.records if r.kind == "ClientResponse"]
    assert {int(r.fields["req"]) for r in responses} == {0, 1}


def test_arrival_on_election_tick_cannot_jump_the_slot_queue():
    # The leader is dead from t=0 and gets flagged at the very first failure
    # check (t=5), which is also when request 1 arrives. The re-dispatch of
    # the earlier lost request must reach the new leader first, or replicas
    # (which execute strictly in slot order) would drop the younger slot.
    text = """
name: election_tick_race
acceptors: 3
net: {seed: 1, base_delay: 1, jitter: 0, loss_rate: 0.0}
timing: {heartbeat_interval: 5, suspect_after: 4, prepare_timeout: 10,
         instance_deadline: 50, horizon: 300}
machine: {states: ["S"], start: "S", rules: []}
app_model: {outputs: [], default_output: "OK"}
requests:
  - {at: 2, payload: "a"}
  - {at: 5, payload: "b"}
faults:
  - {at: 0, target: 0, kind: crash}
"""
    result = run(parse_scenario(text))
    assert [v["verdict"] for v in result.report.verdicts] == ["Consensus", "Consensus"]
    proposals = [(r.fields["from"], r.fields["req"]) for r in result.records
                 if r.kind == "Propose"]
    assert proposals == [(1, 0)]  # one phase 1, for the epoch's first request
    # The new leader works the slots in order: every AcceptRequest for slot 0
    # is delivered before any for slot 1.
    slots = [(r.fields["from"], r.fields["req"]) for r in result.records
             if r.kind == "AcceptRequest"]
    assert slots == [("1", "0"), ("1", "1")]  # to node 2; node 1's own are hand-offs
    assert not result.report.livelock


def test_mixed_fault_soak():
    # Crashes, compromises, loss and both policies together: every run must
    # stay replayable, keep proposal-number discipline, and account for
    # every request in the report.
    import random

    from paxsim import ClientRequest
    from paxsim.scenario import CompromiseFault, CrashFault, Scenario, TimingConfig
    from paxsim.simnet import NetConfig
    from paxsim.statemachine import compile_app_model, compile_machine

    rng = random.Random(0x50AC)
    machine = compile_machine({
        "states": ["A", "B"], "start": "A",
        "rules": [{"from": "A", "to": "B", "output_regex": "Error", "threshold": 1}]})
    for _ in range(100):
        n = rng.randint(3, 7)
        payloads = ["a", "b", "c"]
        app = compile_app_model({
            "outputs": [{"request": p, "output": rng.choice(["OK", "Error"])}
                        for p in payloads],
            "default_output": "OK"})
        at, requests = 0, []
        for _ in range(rng.randint(1, 6)):
            at += rng.randint(1, 10)
            requests.append((at, rng.choice(payloads)))
        faults = []
        if rng.random() < 0.5:
            faults.append(CrashFault(at=rng.randint(0, 80), target=rng.randrange(n)))
        if rng.random() < 0.7:
            faults.append(CompromiseFault(at=rng.randint(0, 40), target=rng.randrange(n),
                                          override={rng.choice(payloads): "Tampered"}))
        scenario = Scenario(
            name="soak", acceptors=n, machine=machine, app_model=app,
            requests=tuple(requests), faults=tuple(faults),
            net=NetConfig(seed=rng.getrandbits(64), base_delay=1,
                          jitter=rng.randint(0, 4), loss_rate=rng.choice([0.0, 0.1, 0.25])),
            timing=TimingConfig(horizon=400),
            anomaly_policy=rng.choice(["strict", "majority"]))
        result = run(scenario)
        assert len(result.report.verdicts) == len(requests)
        totals = result.report.counts
        assert totals["consensus"] + totals["anomaly"] + totals["inconclusive"] == len(requests)
        assert check_proposal_numbers(result.records) == []
        checked, diffs = replay_verdicts(result.records)
        assert diffs == [] and checked == len(requests)
        stamps = [(r.time, r.seq) for r in result.records]
        assert stamps == sorted(stamps)


# -- CLI ---------------------------------------------------------------------


def test_cli_run_ok_and_log(tmp_path, capsys):
    log_path = tmp_path / "out.log"
    code = cli.main(["run", "--scenario", str(SCENARIO_DIR / "baseline.scenario"),
                     "--log", str(log_path), "--format", "json"])
    assert code == cli.EXIT_OK
    assert '"consensus": 3' in capsys.readouterr().out
    assert log_path.exists()


def test_cli_run_reports_an_unwritable_log_path(tmp_path, capsys):
    log_path = tmp_path / "no" / "such" / "dir" / "x.log"
    code = cli.main(["run", "--scenario", str(SCENARIO_DIR / "baseline.scenario"),
                     "--log", str(log_path)])
    assert code == cli.EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.err.startswith("cannot write log: ")
    assert str(log_path) in captured.err
    assert captured.out == ""


def test_cli_exit_code_signals_anomaly(tmp_path, capsys):
    scenario_path = tmp_path / "bad.scenario"
    scenario_path.write_text(COMPROMISE, encoding="utf-8")
    code = cli.main(["run", "--scenario", str(scenario_path)])
    assert code == cli.EXIT_ANOMALY


@pytest.mark.parametrize("argv", [
    [],
    ["run"],
    ["validate"],
    ["run", "--scenario", str(SCENARIO_DIR / "baseline.scenario"), "--seed", "abc"],
    ["run", "--scenario", str(SCENARIO_DIR / "baseline.scenario"), "--colour"],
], ids=["no-command", "run-without-scenario", "validate-without-scenario", "seed-not-int",
        "unknown-option"])
def test_cli_usage_errors_exit_1(argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    assert exit_.value.code == cli.EXIT_INVALID
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", "-5", str(2**64)])
def test_cli_rejects_a_seed_outside_the_net_seed_range(seed, capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.main(["run", "--scenario", str(SCENARIO_DIR / "baseline.scenario"), "--seed", seed])
    assert exit_.value.code == cli.EXIT_INVALID
    captured = capsys.readouterr()
    assert "argument --seed" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("seed", ["0", str(2**64 - 1)])
def test_cli_accepts_the_net_seed_range_bounds(seed, capsys):
    code = cli.main(["run", "--scenario", str(SCENARIO_DIR / "baseline.scenario"),
                     "--seed", seed, "--format", "json"])
    assert code == cli.EXIT_OK
    assert f'"seed": {seed},' in capsys.readouterr().out


def test_cli_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.main(["run", "--help"])
    assert exit_.value.code == cli.EXIT_OK
    assert "--seed" in capsys.readouterr().out


def test_cli_validate(tmp_path, capsys):
    code = cli.main(["validate", "--scenario", str(SCENARIO_DIR / "stale_count.scenario")])
    assert code == cli.EXIT_OK
    bad = tmp_path / "invalid.scenario"
    bad.write_text("acceptors: 0\n", encoding="utf-8")
    assert cli.main(["validate", "--scenario", str(bad)]) == cli.EXIT_INVALID


def test_cli_replay_roundtrip(tmp_path, capsys):
    log_path = tmp_path / "run.log"
    code = cli.main(["run", "--scenario", str(SCENARIO_DIR / "error_streak.scenario"),
                     "--log", str(log_path)])
    assert code == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(["replay", "--log", str(log_path)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "all reproduced" in out


def test_cli_exit_code_signals_livelock(tmp_path, capsys):
    # The third request arrives at t=24, so a horizon of 25 leaves it undecided.
    text = (SCENARIO_DIR / "baseline.scenario").read_text(encoding="utf-8")
    scenario_path = tmp_path / "short.scenario"
    scenario_path.write_text(text.replace("horizon: 500", "horizon: 25"), encoding="utf-8")
    assert cli.main(["run", "--scenario", str(scenario_path)]) == cli.EXIT_LIVELOCK
    assert capsys.readouterr().out.endswith("  flags: horizon_reached, livelock\n")


def test_cli_replay_reports_a_missing_log(tmp_path, capsys):
    log_path = tmp_path / "absent.log"
    assert cli.main(["replay", "--log", str(log_path)]) == cli.EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.err.startswith("cannot read log: ") and str(log_path) in captured.err
    assert captured.out == ""


def test_cli_determinism_byte_identical_logs(tmp_path):
    paths = []
    for i in (0, 1):
        log_path = tmp_path / f"run{i}.log"
        cli.main(["run", "--scenario", str(SCENARIO_DIR / "baseline.scenario"),
                  "--log", str(log_path)])
        paths.append(log_path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    seeded = tmp_path / "seeded.log"
    cli.main(["run", "--scenario", str(SCENARIO_DIR / "baseline.scenario"),
              "--seed", "777", "--log", str(seeded)])
    assert seeded.read_bytes() != paths[0].read_bytes()


def test_cli_replay_names_a_malformed_line(tmp_path, capsys):
    log_path = tmp_path / "bad.log"
    write_log(baseline_result().records, log_path)
    lines = log_path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1:1] = ["\n"]  # blank lines count toward the line number
    lines[3:3] = ["hello world\n"]
    log_path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(ValueError, match=r"^line 4: missing field 'time'$"):
        read_log(log_path)
    assert cli.main(["replay", "--log", str(log_path)]) == cli.EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.err == "invalid log: line 4: missing field 'time'\n"
    assert captured.out == ""


def test_cli_replay_names_a_bad_quoted_value_in_a_record_replay_never_reads(tmp_path, capsys):
    log_path = tmp_path / "bad.log"
    write_log(baseline_result().records, log_path)
    lines = log_path.read_text(encoding="utf-8").splitlines(keepends=True)
    at = next(i for i, line in enumerate(lines) if "kind=AcceptRequest" in line)
    lines[at] = re.sub(r'payload="[^"]*"', r'payload="GET \\q"', lines[at])
    log_path.write_text("".join(lines), encoding="utf-8")
    assert cli.main(["replay", "--log", str(log_path)]) == cli.EXIT_INVALID
    captured = capsys.readouterr()
    assert re.match(rf"invalid log: line {at + 1}: Invalid \\escape: ", captured.err)
    assert captured.out == ""


def test_cli_replay_names_an_undecodable_line(tmp_path, capsys):
    log_path = tmp_path / "bad.log"
    records = baseline_result().records
    write_log(records, log_path)
    with open(log_path, "ab") as fh:
        fh.write(b"\xff")
    expected = (f"line {len(records) + 1}: 'utf-8' codec can't decode byte 0xff "
                "in position 0: invalid start byte")
    with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
        read_log(log_path)
    assert cli.main(["replay", "--log", str(log_path)]) == cli.EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.err == f"invalid log: {expected}\n"
    assert captured.out == ""


def replay_error_after_edit(tmp_path, capsys, pattern, replacement, records=None):
    """Edit the first log line matching pattern (of the baseline run's log, by default);
    return that record and replay's error."""
    log_path = tmp_path / "bad.log"
    write_log(records or baseline_result().records, log_path)
    lines = log_path.read_text(encoding="utf-8").splitlines(keepends=True)
    at = next(i for i, line in enumerate(lines) if re.search(pattern, line))
    record = parse_record(lines[at])
    lines[at] = re.sub(pattern, replacement, lines[at])
    log_path.write_text("".join(lines), encoding="utf-8")
    assert cli.main(["replay", "--log", str(log_path)]) == cli.EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    return record, captured.err


def test_cli_replay_rejects_a_record_lacking_a_field(tmp_path, capsys):
    record, err = replay_error_after_edit(tmp_path, capsys, r"(kind=Verdict) req=\d+", r"\1")
    assert err == (f"invalid log: time={record.time} seq={record.seq} kind=Verdict: "
                   "missing field 'req'\n")


def test_cli_replay_names_a_record_with_a_malformed_field(tmp_path, capsys):
    record, err = replay_error_after_edit(tmp_path, capsys,
                                          r"(kind=Accepted from=\d+ to=5) req=\d+", r"\1 req=x")
    assert err == (f"invalid log: time={record.time} seq={record.seq} kind=Accepted: "
                   "invalid literal for int() with base 10: 'x'\n")


@pytest.mark.parametrize("pattern, replacement, problem", [
    (r"(kind=Propose) from=\d+", r"\1", "missing field 'from'"),
    (r"(kind=Promise from=\d+ to=\d+ n=)\S+", r"\g<1>7",
     "expected a proposal number round.proposer, got '7'"),
])
def test_cli_replay_names_a_record_the_proposal_check_cannot_read(tmp_path, capsys, pattern,
                                                                   replacement, problem):
    record, err = replay_error_after_edit(tmp_path, capsys, pattern, replacement)
    assert err == (f"invalid log: time={record.time} seq={record.seq} kind={record.kind}: "
                   f"{problem}\n")


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.scenario")), ids=lambda p: p.stem)
def test_cli_replays_every_bundled_scenarios_log_clean(tmp_path, capsys, path):
    log_path = tmp_path / "run.log"
    cli.main(["run", "--scenario", str(path), "--log", str(log_path)])
    capsys.readouterr()
    assert cli.main(["replay", "--log", str(log_path)]) == cli.EXIT_OK
    assert capsys.readouterr().out.endswith(" verdicts checked, all reproduced\n")


# An older log: a Promise then echoed the acceptor's last served number as last=.
LAST_SERVED_LOG = """\
time=0 seq=0 kind=Init acceptors=3 leader=0 epoch=0 policy=strict seed=1
time=1 seq=1 kind=Propose from=0 req=0 n=0.0 epoch=0
time=2 seq=2 kind=Promise from=1 to=0 n=0.0
time=3 seq=3 kind=Accepted from=1 to=3 n=0.0 req=0 output=OK state=S
time=4 seq=4 kind=Repropose from=0 req=0 n=1.0 epoch=0
time=5 seq=5 kind=Promise from=1 to=0 n=1.0 last=0.0
time=6 seq=6 kind=Accepted from=0 to=3 n=1.0 req=0 output=OK state=S
time=6 seq=7 kind=Accepted from=2 to=3 n=1.0 req=0 output=OK state=S
time=7 seq=8 kind=Verdict req=0 verdict=Consensus membership=3 deadline=0 output=OK state=S
"""


def test_cli_replays_an_older_log_whose_promise_carries_last_clean(tmp_path, capsys):
    log_path = tmp_path / "older.log"
    log_path.write_text(LAST_SERVED_LOG, encoding="utf-8")
    assert check_proposal_numbers(read_log(log_path)) == []
    assert cli.main(["replay", "--log", str(log_path)]) == cli.EXIT_OK
    assert capsys.readouterr().out == "1 verdicts checked, all reproduced\n"


# An older log: a Prepare then named its request, and each Accepted and Decided its number.
NUMBERED_PACKETS_LOG = """\
time=0 seq=0 kind=Init acceptors=3 leader=0 epoch=0 policy=strict seed=1
time=1 seq=1 kind=ClientArrival req=0 to=0 payload="a b"
time=1 seq=2 kind=Propose from=0 req=0 n=0.0 epoch=0
time=2 seq=3 kind=Prepare from=0 to=1 epoch=0 n=0.0 req=0 payload="a b"
time=3 seq=4 kind=Promise from=1 to=0 n=0.0
time=3 seq=5 kind=MajorityReached from=0 req=0 n=0.0 promises=2 membership=3
time=3 seq=6 kind=Accepted from=0 to=3 n=0.0 req=0 output=OK state=S
time=4 seq=7 kind=AcceptRequest from=0 to=1 epoch=0 n=0.0 req=0 payload="a b"
time=5 seq=8 kind=Accepted from=1 to=3 n=0.0 req=0 output=OK state=S
time=5 seq=9 kind=CatchUp from=2 to=1 from_slot=0
time=6 seq=10 kind=Decided from=1 to=2 n=0.0 req=0 payload="a b"
time=7 seq=11 kind=Accepted from=2 to=3 n=0.0 req=0 output=OK state=S
time=7 seq=12 kind=Verdict req=0 verdict=Consensus membership=3 deadline=0 output=OK state=S
"""


def test_cli_replays_an_older_log_with_numbered_reports_and_requests_in_prepares_clean(
        tmp_path, capsys):
    log_path = tmp_path / "older.log"
    log_path.write_text(NUMBERED_PACKETS_LOG, encoding="utf-8")
    assert check_proposal_numbers(read_log(log_path)) == []
    assert cli.main(["replay", "--log", str(log_path)]) == cli.EXIT_OK
    assert capsys.readouterr().out == "1 verdicts checked, all reproduced\n"


@pytest.mark.parametrize("pattern, replacement, problem", [
    (r"(kind=Init acceptors=)\d+", r"\g<1>0", "acceptors: expected at least 1, got 0"),
    (r"(kind=Init .*policy=)\S+", r"\1bogus",
     "policy: expected strict or majority, got 'bogus'"),
])
def test_cli_replay_names_an_init_no_scenario_can_have(tmp_path, capsys, pattern, replacement,
                                                         problem):
    record, err = replay_error_after_edit(tmp_path, capsys, pattern, replacement)
    assert (record.time, record.seq) == (0, 0)
    assert err == f"invalid log: time=0 seq=0 kind=Init: {problem}\n"


@pytest.mark.parametrize("node", ["3", "-1"])
def test_cli_replay_rejects_a_failure_outside_the_group(tmp_path, capsys, node):
    records = run(parse_scenario(MIXED_ROUND)).records  # three acceptors; node 0 crashes
    record, err = replay_error_after_edit(tmp_path, capsys, r"(kind=Failure node=)\d+",
                                          rf"\g<1>{node}", records)
    assert err == (f"invalid log: time={record.time} seq={record.seq} kind=Failure: "
                   f"node: expected 0..2, got {node}\n")


def test_replay_memory_is_bounded_by_the_log_not_by_the_group_size_it_claims(tmp_path):
    log_path = tmp_path / "forged.log"
    log_path.write_text(
        "time=0 seq=0 kind=Init acceptors=1000000 leader=0 epoch=0 policy=strict seed=1\n"
        "time=9 seq=1 kind=Verdict req=0 verdict=Inconclusive membership=5 deadline=1"
        " received=0 needed=3\n", encoding="utf-8")
    records = read_log(log_path)
    tracemalloc.start()
    try:
        checked, diffs = replay_verdicts(records)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert (checked, diffs) == (1, ["req 0: logged membership 5 != tracked 1000000"])


def test_the_learner_queries_no_report_that_may_still_be_in_flight():
    # stale_count is lossless with jitter 12, so a report can take 13 ticks and
    # the round trip 26: Q = max(50 // 6, 26). With Q = 8, seeds 0-7 logged 16
    # Query records, each for a report still on its way.
    scenario = load_scenario(SCENARIO_DIR / "stale_count.scenario")
    assert ClusterRun(scenario).learner.query_interval == 26
    for seed in range(8):
        assert [r for r in run(scenario, seed=seed).records if r.kind == "Query"] == [], seed
