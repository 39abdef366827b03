"""Acceptance suite: every criterion at its stated tolerance, in order.

Each test prints one pass/fail line (run with ``pytest -s`` to see them all).
Criterion 7 scans the proposal traffic accumulated from criteria 1-5, so this
module is meant to run as a whole.
"""

import itertools
import random
from collections import Counter
from pathlib import Path

from paxsim import ClientRequest, load_scenario, parse_scenario, run
from paxsim.eventlog import dump_records
from paxsim.learner import Anomaly, Consensus, Inconclusive, decide
from paxsim.logcheck import check_proposal_numbers
from paxsim.messages import Accepted, ProposalNumber
from paxsim.proposer import majority_threshold
from paxsim.scenario import CompromiseFault, CrashFault, Scenario, TimingConfig
from paxsim.simnet import NetConfig
from paxsim.statemachine import apply, compile_app_model, compile_machine, execute, initial_state

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

# Proposal-number traffic accumulated across criteria 1-5 for criterion 7.
TRAFFIC: list = []
_TRAFFIC_KINDS = ("Propose", "Repropose", "Promise")


def _collect(records):
    TRAFFIC.append([r for r in records if r.kind in _TRAFFIC_KINDS])


def _report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {label}: {status}{suffix}")


def _single_replica_oracle(scenario):
    """Direct run of the state machine over the request trace, no cluster."""
    rs = initial_state(scenario.machine)
    expected = []
    for rid, (_, payload) in enumerate(scenario.requests):
        output = execute(scenario.app_model, ClientRequest(rid, payload))
        rs = apply(scenario.machine, rs, payload, output)
        expected.append((output, rs.current))
    return expected


def _random_machine(rng):
    return compile_machine({
        "states": ["A", "B", "C"],
        "start": "A",
        "rules": [
            {"from": "A", "to": "B", "output_regex": "Error|Failure",
             "threshold": rng.randint(0, 2)},
            {"from": "B", "to": "C", "output_regex": "Busy", "threshold": rng.randint(0, 1)},
            {"from": "B", "to": "B", "output_regex": "OK", "threshold": "*"},
            {"from": "C", "to": "A", "output_regex": ".*", "threshold": 0},
        ],
    })


def _honest_scenario(rng):
    n = rng.randint(3, 9)
    payloads = [f"p{i}" for i in range(4)]
    app = compile_app_model({
        "outputs": [{"request": p, "output": rng.choice(["OK", "Error", "Failure", "Busy"])}
                    for p in payloads],
        "default_output": "OK",
    })
    at = 0
    requests = []
    for _ in range(rng.randint(1, 10)):
        at += rng.randint(1, 12)
        requests.append((at, rng.choice(payloads)))
    max_crashes = min(2, n - majority_threshold(n))
    faults = tuple(CrashFault(at=rng.randint(0, 120), target=target)
                   for target in rng.sample(range(n), rng.randint(0, max_crashes)))
    return Scenario(
        name="safety", acceptors=n, machine=_random_machine(rng), app_model=app,
        requests=tuple(requests), faults=faults,
        net=NetConfig(seed=rng.getrandbits(64), base_delay=1, jitter=rng.randint(0, 3),
                      loss_rate=rng.choice([0.0, 0.05, 0.1, 0.15, 0.2])),
        timing=TimingConfig(horizon=400), anomaly_policy="strict")


def test_criterion_1_safety_agreement():
    rng = random.Random(0xC1)
    anomalies = 0
    mismatches = 0
    consensus = 0
    lossless = lossless_inconclusive = 0  # lossless scenarios: verdicts, and Inconclusive ones
    for _ in range(1000):
        scenario = _honest_scenario(rng)
        result = run(scenario)
        _collect(result.records)
        expected = _single_replica_oracle(scenario)
        for entry in result.report.verdicts:
            if entry["verdict"] == "Anomaly":
                anomalies += 1
            elif entry["verdict"] == "Consensus":
                consensus += 1
                if (entry["output"], entry["state"]) != expected[entry["request_id"]]:
                    mismatches += 1
            if scenario.net.loss_rate == 0.0:
                lossless += 1
                lossless_inconclusive += entry["verdict"] == "Inconclusive"
    ok = anomalies == 0 and mismatches == 0 and lossless_inconclusive == 0
    _report(1, "safety: no anomalies, consensus matches the single-replica oracle, "
            "lossless runs decide", ok,
            f"1000 scenarios, {consensus} consensus verdicts, "
            f"{anomalies} anomalies, {mismatches} oracle mismatches, "
            f"{lossless_inconclusive} of {lossless} lossless verdicts inconclusive")
    assert ok


def _compromise_scenario(rng):
    n = rng.randint(3, 9)
    payloads = [f"p{i}" for i in range(3)]
    machine = compile_machine({
        "states": ["S0", "S1"],
        "start": "S0",
        "rules": [{"from": "S0", "to": "S1", "output_regex": "BAD", "threshold": 0}],
    })
    app = compile_app_model({
        "outputs": [{"request": p, "output": rng.choice(["OK", "Fine"])} for p in payloads],
        "default_output": "OK",
    })
    at = 0
    requests = []
    for _ in range(rng.randint(1, 8)):
        at += rng.randint(1, 10)
        requests.append((at, rng.choice(payloads)))
    target_payload = requests[rng.randrange(len(requests))][1]
    compromised = rng.randrange(n)
    scenario = Scenario(
        name="detection", acceptors=n, machine=machine, app_model=app,
        requests=tuple(requests),
        faults=(CompromiseFault(at=0, target=compromised,
                                override={target_payload: "BAD"}),),
        net=NetConfig(seed=rng.getrandbits(64), base_delay=1, jitter=rng.randint(0, 3),
                      loss_rate=0.0),
        timing=TimingConfig(horizon=400), anomaly_policy="strict")
    return scenario, compromised, target_payload


def test_criterion_2_detection_completeness():
    rng = random.Random(0xC2)
    detected = 0
    runs = 500
    for _ in range(runs):
        scenario, compromised, target_payload = _compromise_scenario(rng)
        # The override provably changes the active transition: the honest
        # output never matches the threshold-0 BAD edge, the forced one does.
        rid = next(i for i, (_, p) in enumerate(scenario.requests) if p == target_payload)
        honest_out = execute(scenario.app_model, ClientRequest(rid, target_payload))
        assert honest_out != "BAD"
        probe = initial_state(scenario.machine)
        assert apply(scenario.machine, probe, target_payload, honest_out).current == "S0"
        assert apply(scenario.machine, probe, target_payload, "BAD").current == "S1"

        result = run(scenario)
        _collect(result.records)
        hits = [entry for entry in result.report.verdicts
                if entry["verdict"] == "Anomaly" and compromised in entry["dissenting"]]
        if hits:
            detected += 1
    ok = detected == runs
    _report(2, "detection: every compromised run flagged with the dissenter named",
            ok, f"{detected}/{runs} lossless runs detected")
    assert ok


def test_criterion_3_stale_membership_count():
    result = run(load_scenario(SCENARIO_DIR / "stale_count.scenario"))
    _collect(result.records)
    repropose_at = None
    failure_at = None
    majority_at = None
    majority_fields = None
    for index, record in enumerate(result.records):
        if record.kind == "Repropose" and repropose_at is None:
            repropose_at = index
        elif record.kind == "Failure" and record.fields["node"] == 5 and failure_at is None:
            failure_at = index
        elif record.kind == "MajorityReached" and majority_at is None and \
                failure_at is not None:
            majority_at = index
            majority_fields = record.fields
    failures = [r for r in result.records if r.kind == "Failure"]
    ok = (repropose_at is not None and failure_at is not None and majority_at is not None
          and repropose_at < failure_at < majority_at
          and majority_fields["promises"] == 3 and majority_fields["membership"] == 5
          and [f.fields["node"] for f in failures] == [5])
    _report(3, "stale count: Repropose, then Failure node=5, then 3-of-5 majority", ok,
            f"order {repropose_at},{failure_at},{majority_at}, "
            f"majority={majority_fields}")
    assert ok


def test_criterion_4_counted_transition_semantics():
    scenario = load_scenario(SCENARIO_DIR / "error_streak.scenario")
    result = run(scenario)
    _collect(result.records)
    states = [(entry["verdict"], entry.get("state")) for entry in result.report.verdicts]
    # Also follow one replica's own reports, to the learner, across the seven slots.
    replica_trace = [(int(r.fields["req"]), r.fields["state"])
                     for r in result.records
                     if r.kind == "Accepted" and int(r.fields["from"]) == 1
                     and int(r.fields["to"]) == scenario.acceptors]
    ok = (states == [("Consensus", "3")] * 6 + [("Consensus", "7")]
          and replica_trace == [(i, "3") for i in range(6)] + [(6, "7")])
    _report(4, "counted edge: six errors hold state 3, the seventh flips to 7", ok,
            f"verdict states {[s for _, s in states]}, replica 1 trace {replica_trace}")
    assert ok


def test_criterion_5_election():
    text = """
name: election
acceptors: 5
net: {seed: 31, base_delay: 1, jitter: 1, loss_rate: 0.0}
timing: {heartbeat_interval: 5, suspect_after: 15, prepare_timeout: 10,
         instance_deadline: 50, horizon: 600}
machine: {states: ["S"], start: "S", rules: []}
app_model: {outputs: [{request: ".*", output: "OK"}], default_output: "OK"}
requests:
  - {at: 1, payload: "a"}
  - {at: 15, payload: "b"}
  - {at: 40, payload: "c"}
  - {at: 70, payload: "d"}
faults:
  - {at: 30, target: 0, kind: crash}
"""
    result = run(parse_scenario(text))
    _collect(result.records)
    elections = [r.fields for r in result.records if r.kind == "Election"]
    per_epoch = Counter(f["epoch"] for f in elections)
    one_per_epoch = all(count == 1 for count in per_epoch.values()) and len(elections) == 1
    smallest_alive = elections and elections[0]["leader"] == 1  # alive was {1,2,3,4}
    all_consensus = all(entry["verdict"] == "Consensus" for entry in result.report.verdicts)
    ok = bool(one_per_epoch and smallest_alive and all_consensus
              and not result.report.horizon_reached)
    _report(5, "election: one record per epoch, smallest alive id leads, all decided",
            ok, f"elections={elections}, verdicts="
                f"{[e['verdict'] for e in result.report.verdicts]}")
    assert ok


def test_criterion_6_determinism():
    ok = True
    details = []
    for name in ("baseline", "error_streak", "stale_count"):
        scenario = load_scenario(SCENARIO_DIR / f"{name}.scenario")
        first = dump_records(run(scenario).records)
        second = dump_records(run(scenario).records)
        reseeded = dump_records(run(scenario, seed=scenario.net.seed + 1).records)
        same = first == second
        different = first != reseeded
        ok = ok and same and different
        details.append(f"{name}: repeat={'=' if same else '!='} reseed="
                       f"{'!=' if different else '='}")
    _report(6, "determinism: same seed byte-identical, new seed diverges", ok,
            "; ".join(details))
    assert ok


def test_criterion_7_proposal_number_discipline():
    assert TRAFFIC, "criteria 1-5 must run first in this module"
    problems = []
    for records in TRAFFIC:
        problems.extend(check_proposal_numbers(records))
    ok = problems == []
    _report(7, "proposal numbers: rounds strictly increase, re-proposals dominate "
               "observed traffic", ok,
            f"{len(TRAFFIC)} logs scanned, {len(problems)} violations")
    assert ok


def _brute_force_verdict(pairs_by_node, membership_size):
    """Independent decision table used only by this acceptance check."""
    needed = membership_size // 2 + 1
    if not pairs_by_node:
        return Inconclusive(received=0, needed=needed)
    distinct = sorted(set(pairs_by_node.values()),
                      key=lambda q: (-sum(1 for p in pairs_by_node.values() if p == q),
                                     q[1], q[0]))
    if len(distinct) >= 2:
        winner = distinct[0]
        agreeing = frozenset(n for n, p in pairs_by_node.items() if p == winner)
        states = Counter(p[1] for p in pairs_by_node.values())
        return Anomaly(agreeing=agreeing,
                       dissenting=frozenset(pairs_by_node) - agreeing,
                       states_seen=tuple(sorted(states.items())))
    if len(pairs_by_node) >= needed:
        output, state = distinct[0]
        return Consensus(output=output, state=state)
    return Inconclusive(received=len(pairs_by_node), needed=needed)


def test_criterion_8_learner_oracle_equivalence():
    palette = [("O1", "S1"), ("O2", "S1"), ("O1", "S2")]
    options = [None] + palette
    checked = 0
    mismatches = 0
    for n_nodes in range(1, 8):
        for combo in itertools.product(options, repeat=n_nodes):
            reports = {}
            pairs = {}
            for node, pair in enumerate(combo):
                if pair is None:
                    continue
                pairs[node] = pair
                reports[node] = Accepted(n=ProposalNumber(0, 0), request_id=0,
                                         output=pair[0], new_state=pair[1])
            got = decide(reports, membership_size=n_nodes)
            want = _brute_force_verdict(pairs, n_nodes)
            checked += 1
            if got != want:
                mismatches += 1
    ok = mismatches == 0
    _report(8, "learner: decide() equals the brute-force decision table", ok,
            f"{checked} multisets checked, {mismatches} mismatches")
    assert ok
