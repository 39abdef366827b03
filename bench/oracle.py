"""Verdict oracle, built apart from the program.

It evaluates the workloads' state machine and application table with its
own code (nothing here imports paxsim), derives for every request the
honest replicas' (output, state) pair and the compromised replica's pair,
and judges each Verdict record of a run against them.

Hard checks raise ``CheckFailed``: a Consensus on a value other than the
honest pair, an Anomaly on an untampered request, an Anomaly that does not
name the compromised replica while honest reports outnumber it, and a
request with no verdict or more than one. Inconclusive verdicts and
tampered requests that end in Consensus are counted as failed requests.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field


class CheckFailed(Exception):
    """A correctness check broke; the benchmark result is void."""


class Evaluator:
    """Replays a request trace through a machine and an application table.

    Rules are tried in declaration order from the current state; the first
    whose output pattern fully matches is active. A threshold-k rule fires on
    its (k+1)-th consecutive match, a "*" rule leaves state and count alone,
    and a step that matches no rule clears the count.
    """

    def __init__(self, machine: dict, app: dict):
        self.start = machine["start"]
        self.rules = []
        for rule in machine["rules"]:
            if "input_regex" in rule:
                raise ValueError("the oracle evaluates output patterns only")
            threshold = None if rule["threshold"] == "*" else rule["threshold"]
            self.rules.append((rule["from"], rule["to"], re.compile(rule["output_regex"]),
                               threshold))
        self.table = [(re.compile(entry["request"]), entry["output"]) for entry in app["outputs"]]
        self.default_output = app["default_output"]

    def output(self, payload: str) -> str:
        for pattern, output in self.table:
            if pattern.fullmatch(payload):
                return output
        return self.default_output

    def walk(self, payloads, override: dict | None = None) -> list[tuple[str, str]]:
        """(output, state after the step) for each payload, in order."""
        override = override or {}
        state, counted = self.start, None  # counted: (rule index, matches so far)
        pairs = []
        for payload in payloads:
            output = override[payload] if payload in override else self.output(payload)
            active = next((i for i, (src, _, pattern, _) in enumerate(self.rules)
                           if src == state and pattern.fullmatch(output)), None)
            if active is None:
                counted = None
            elif self.rules[active][3] is not None:
                matches = counted[1] + 1 if counted and counted[0] == active else 1
                if matches > self.rules[active][3]:
                    state, counted = self.rules[active][1], None
                else:
                    counted = (active, matches)
            pairs.append((output, state))
        return pairs


@dataclass
class Judgement:
    """What the oracle concluded about one scenario's verdicts."""

    tampered: set[int] = field(default_factory=set)
    failed: dict[int, str] = field(default_factory=dict)  # request id -> cause


def expected_pairs(case, evaluator: Evaluator):
    """Honest pairs, and the compromised replica's pairs (None if honest run)."""
    honest = evaluator.walk(case.payloads)
    if case.compromised is None:
        return honest, None
    return honest, evaluator.walk(case.payloads, case.override)


def _nodes(text: str) -> set[int]:
    return {int(part) for part in text.split(",") if part}


def judge(case, verdicts: dict[int, dict], evaluator: Evaluator) -> Judgement:
    """Check every request's verdict (its Verdict record's fields as text)."""
    honest, compromised = expected_pairs(case, evaluator)
    missing = sorted(set(range(len(honest))) - set(verdicts))
    extra = sorted(set(verdicts) - set(range(len(honest))))
    if missing or extra:
        raise CheckFailed(f"{case.name}: requests without a verdict {missing}, "
                          f"verdicts for unknown requests {extra}")
    result = Judgement()
    for rid, fields in sorted(verdicts.items()):
        where = f"{case.name} request {rid}"
        tampered = compromised is not None and compromised[rid] != honest[rid]
        if tampered:
            result.tampered.add(rid)
        kind = fields["verdict"]
        if kind == "Consensus":
            value = (fields["output"], fields["state"])
            if value != honest[rid]:
                raise CheckFailed(f"{where}: Consensus on {value}, honest pair is {honest[rid]}")
            if tampered:
                result.failed[rid] = "undetected"
        elif kind == "Anomaly":
            if not tampered:
                raise CheckFailed(f"{where}: Anomaly on an untampered request")
            agreeing, dissenting = _nodes(fields["agreeing"]), _nodes(fields["dissenting"])
            reporters = agreeing | dissenting
            if case.compromised not in reporters:
                raise CheckFailed(f"{where}: Anomaly without a report from the "
                                  f"compromised replica {case.compromised}")
            if len(reporters) - 1 > 1 and case.compromised not in dissenting:
                raise CheckFailed(f"{where}: Anomaly dissenters {sorted(dissenting)} "
                                  f"omit the compromised replica {case.compromised}")
        elif kind == "Inconclusive":
            result.failed[rid] = "inconclusive"
        else:
            raise CheckFailed(f"{where}: unknown verdict {kind!r}")
    return result
