"""Seeded input generators for the benchmark workloads.

Every workload is a list of ``Case`` values: the scenario YAML text that the
program parses, plus the facts the oracle needs to judge its verdicts (the
request trace, the compromised replica and its override table). All cases
share one state machine and one application table, defined here as plain
data so that the oracle can evaluate them without the program's code.

The generators import nothing from paxsim: inputs exist before the program
is loaded.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

# The machine every replica runs: two Error/Failure outputs in a row raise a
# warning, a Failure while warned raises an alarm, and OK outputs walk back.
# Rules are tried in declaration order; threshold k fires on the (k+1)-th
# consecutive match and "*" is a self-loop that never escalates.
MACHINE = {
    "states": ["ok", "warn", "alarm"],
    "start": "ok",
    "rules": [
        {"from": "ok", "to": "warn", "output_regex": "Error|Failure", "threshold": 1},
        {"from": "warn", "to": "alarm", "output_regex": "Failure", "threshold": 0},
        {"from": "warn", "to": "ok", "output_regex": "OK", "threshold": 1},
        {"from": "warn", "to": "warn", "output_regex": "Busy", "threshold": "*"},
        {"from": "alarm", "to": "ok", "output_regex": "OK|Busy", "threshold": 2},
    ],
}

# Application table: the first fully matching request pattern gives the output.
APP = {
    "outputs": [
        {"request": "GET /item/[0-9]+", "output": "OK"},
        {"request": "PUT /item/[0-9]+", "output": "OK"},
        {"request": "SCAN /range/[0-9]+", "output": "Busy"},
        {"request": "POST /pay/[0-9]+", "output": "Error"},
        {"request": "DELETE /item/[0-9]+", "output": "Failure"},
    ],
    "default_output": "OK",
}

# Request mix: (verb and path, weight). Keys are drawn from 0..KEYS-1.
_MIX = (("GET /item", 50), ("PUT /item", 20), ("SCAN /range", 10),
        ("POST /pay", 12), ("DELETE /item", 8))
KEYS = 40
# A compromised replica lies about every payload whose key is in a tampered
# key set of this size, so roughly an eighth of its requests are overridden.
TAMPERED_KEYS = 5

LOSSY_INPUT_SEED = 20120611  # lossy inputs are fixed: see README "Failures"
SWEEP_SCENARIOS = 200
# stream and lossy: 1000 requests as back-to-back segments of one scenario each
SEGMENTS = 10
SEGMENT_REQUESTS = 100


@dataclass(frozen=True)
class Case:
    """One scenario: its YAML text and what the oracle needs to judge it."""

    name: str
    text: str
    acceptors: int
    arrivals: tuple[int, ...]
    payloads: tuple[str, ...]
    compromised: int | None
    override: dict


def _payloads(rng: random.Random, count: int) -> list[str]:
    verbs = [verb for verb, _ in _MIX]
    weights = [weight for _, weight in _MIX]
    return [f"{rng.choices(verbs, weights)[0]}/{rng.randrange(KEYS)}" for _ in range(count)]


def _override(rng: random.Random, keys: int = TAMPERED_KEYS) -> dict:
    """Flip the output of every payload whose key falls in a random key set."""
    table = {}
    for key in sorted(rng.sample(range(KEYS), keys)):
        for verb, _ in _MIX:
            ok_like = verb.startswith(("GET", "PUT", "SCAN"))
            table[f"{verb}/{key}"] = "Failure" if ok_like else "OK"
    return table


def _yaml(name: str, acceptors: int, net: dict, timing: dict, arrivals, payloads,
          compromised, override, crashes) -> str:
    q = json.dumps  # a JSON string is a valid YAML double-quoted scalar
    lines = [f"name: {name}", f"acceptors: {acceptors}", "anomaly_policy: strict",
             "net: {" + ", ".join(f"{k}: {v}" for k, v in net.items()) + "}",
             "timing: {" + ", ".join(f"{k}: {v}" for k, v in timing.items()) + "}",
             "machine:", f"  states: {json.dumps(MACHINE['states'])}",
             f"  start: {q(MACHINE['start'])}", "  rules:"]
    for rule in MACHINE["rules"]:
        lines.append("    - {" + ", ".join(f"{k}: {q(v) if isinstance(v, str) else v}"
                                          for k, v in rule.items()) + "}")
    lines.append("app_model:")
    lines.append("  outputs:")
    for entry in APP["outputs"]:
        lines.append(f"    - {{request: {q(entry['request'])}, output: {q(entry['output'])}}}")
    lines.append(f"  default_output: {q(APP['default_output'])}")
    lines.append("requests:")
    lines.extend(f"  - {{at: {at}, payload: {q(p)}}}" for at, p in zip(arrivals, payloads))
    faults = [f"  - {{at: {at}, target: {target}, kind: crash}}" for at, target in crashes]
    if compromised is not None:
        table = ", ".join(f"{q(k)}: {q(v)}" for k, v in override.items())
        faults.append(f"  - {{at: 0, target: {compromised}, kind: compromise, "
                      f"override: {{{table}}}}}")
    lines.append("faults:" if faults else "faults: []")
    lines.extend(faults)
    return "\n".join(lines) + "\n"


def _case(name, acceptors, net, timing, arrivals, payloads, compromised, override,
          crashes=()) -> Case:
    text = _yaml(name, acceptors, net, timing, arrivals, payloads, compromised,
                 override, crashes)
    return Case(name=name, text=text, acceptors=acceptors, arrivals=tuple(arrivals),
                payloads=tuple(payloads), compromised=compromised, override=override)


def _steady_stream(name: str, rng: random.Random, acceptors: int, loss_rate: float,
                   compromised: int) -> list[Case]:
    """1000 requests in back-to-back segments, one every 10 ticks, open loop.

    Each segment is its own scenario with one compromised replica.
    """
    cases = []
    for segment in range(SEGMENTS):
        arrivals = [1 + 10 * i for i in range(SEGMENT_REQUESTS)]
        payloads = _payloads(rng, SEGMENT_REQUESTS)
        net = {"seed": rng.getrandbits(63), "base_delay": 1, "jitter": 2,
               "loss_rate": loss_rate}
        timing = {"horizon": arrivals[-1] + 2000}
        target = rng.randrange(acceptors) if compromised is None else compromised
        cases.append(_case(f"{name}-{segment}", acceptors, net, timing, arrivals, payloads,
                           target, _override(rng)))
    return cases


def stream(seed: int) -> list[Case]:
    """5 replicas, lossless, jitter 2; each segment's compromised replica is drawn."""
    return _steady_stream("stream", random.Random(f"stream:{seed}"), 5, 0.0, None)


def lossy(seed: int) -> list[Case]:
    """9 replicas, 2% loss, replica 8 compromised.

    The inputs do not depend on the seed: with the catch-up fault, how many
    requests fail depends on which packets are lost, and the failed share
    must be the same in every run.
    """
    return _steady_stream("lossy", random.Random(f"lossy:{LOSSY_INPUT_SEED}"), 9, 0.02, 8)


# The sweep's design: one row (replicas, requests, jitter, compromised?, leader
# crash?, other crashes) per scenario, crossed by cycles of coprime-ish lengths.
# The seed only shuffles the rows and draws the rest, so every seed attempts
# the same number of requests and the mix of shapes, which sets the sim-time
# figures, is fixed. Compromised scenarios keep their leader, so that an
# election's retries do not queue up behind their Anomaly verdicts.
SWEEP_DESIGN = tuple((3 + i % 7, 1 + i % 12, (i // 2) % 3, i % 2 == 1,
                      i % 2 == 0 and (i // 2) % 4 != 0, (i // 7) % 3)
                     for i in range(SWEEP_SCENARIOS))
# Compromised sweep replicas lie about half the keys, so that their small
# scenarios still tamper with enough requests to time detection.
SWEEP_TAMPERED_KEYS = 20
# Sweep time runs five times finer than the defaults: a hop takes 5 ticks
# plus up to 5 * jitter, and every timeout is scaled alike. The latency
# medians then move by a fraction of a hop, not by a whole one.
_SCALE = 5
_SWEEP_TIMING = {"heartbeat_interval": 5 * _SCALE, "suspect_after": 15 * _SCALE,
                 "prepare_timeout": 10 * _SCALE, "instance_deadline": 50 * _SCALE}
# Upper bound on the ticks one slot needs on a lossless network with jitter
# <= 2 (four hops of at most 3 scaled ticks each).
_SLOT_TICKS = 4 * 3 * _SCALE


def _sweep_case(index: int, rng: random.Random, design) -> Case:
    """A small lossless scenario with minority crashes and an optional compromise.

    Requests arrive one every 10 hops. Non-leader crashes happen one hop in,
    while the first request is in flight. The leader (node 0) crashes only
    after every request that arrived before it has surely been decided, and
    the rest arrive while the group elects a new leader. The compromised
    replica never crashes.
    """
    acceptors, count, jitter, compromise, leader_crash, others = design
    max_crashes = (acceptors - 1) // 2
    others = min(others, max_crashes - (1 if leader_crash else 0))
    compromised = rng.randrange(1 if leader_crash else 0, acceptors) if compromise else None
    before = count // 2 if leader_crash else count
    gap = 10 * _SCALE
    arrivals = [gap * i + 1 for i in range(before)]
    at = arrivals[-1] if arrivals else 0
    spare = [node for node in range(1, acceptors) if node != compromised]
    crashes = [(_SCALE, target) for target in rng.sample(spare, others)]
    if leader_crash:
        # Non-leader crashes cost at most one instance deadline per slot.
        at += _SLOT_TICKS * (before + 1) + 2 * _SWEEP_TIMING["instance_deadline"]
        crashes.append((at, 0))
    arrivals += [at + gap * i + 1 for i in range(count - before)]
    payloads = _payloads(rng, count)
    override = _override(rng, SWEEP_TAMPERED_KEYS) if compromised is not None else {}
    net = {"seed": rng.getrandbits(63), "base_delay": _SCALE, "jitter": jitter * _SCALE,
           "loss_rate": 0.0}
    timing = {**_SWEEP_TIMING, "horizon": arrivals[-1] + 400 * _SCALE}
    crashes.sort()
    return _case(f"sweep-{index}", acceptors, net, timing, arrivals, payloads,
                 compromised, override, crashes)


def mixed_round_probe() -> Case:
    """A fixed scenario that trips the learner's mixed-round premature verdict.

    It does not depend on the seed, and its network neither drops nor delays
    at random, so it fails the same way in every run: the leader crashes
    while slot 0 is undecided, the new leader re-proposes it under a higher
    round, and the learner seals Inconclusive on the first higher-round
    report.
    """
    net = {"seed": 1, "base_delay": 1, "jitter": 0, "loss_rate": 0.0}
    return _case("sweep-mixed-round", 3, net, {"horizon": 600}, [1, 3, 5],
                 ["GET /item/1", "PUT /item/2", "GET /item/3"], None, {}, [(4, 0)])


def sweep(seed: int) -> list[Case]:
    """The seeded design rows, then the fixed mixed-round probe."""
    rng = random.Random(f"sweep:{seed}")
    design = list(SWEEP_DESIGN)
    rng.shuffle(design)
    return [_sweep_case(i, rng, row) for i, row in enumerate(design)] + [mixed_round_probe()]


WORKLOADS = {"stream": stream, "lossy": lossy, "sweep": sweep}
