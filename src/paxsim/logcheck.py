"""Log-scanning verifier for proposal-number discipline.

Checks, from an event log alone, that every proposer's rounds strictly
increase across its Propose/Repropose records and that every re-proposal
exceeds every round that proposer had observed beforehand (its own prior
proposals plus the n of each promise delivered to it). An older log's
last-served field on a Promise is not read: an acceptor promises only above
every number it has served, so it never raised that ceiling.
A record lacking a field the check reads, or holding a malformed one, raises
ValueError naming the record, as replay_verdicts does.
"""

from __future__ import annotations

from typing import Iterable

from .eventlog import Delivery, LineRecord, Record, record_error
from .messages import ProposalNumber


def check_proposal_numbers(records: Iterable[Record | Delivery | LineRecord]) -> list[str]:
    """Return a list of violations; empty means the log is clean."""
    problems: list[str] = []
    last_round: dict[int, int] = {}
    observed: dict[int, int] = {}  # the highest round each node has proposed or been promised

    try:
        for record in records:
            if record.kind in ("Propose", "Repropose"):
                fields = record.fields  # parsed on each read for a LineRecord
                proposer = int(fields["from"])
                round_ = ProposalNumber.parse(str(fields["n"])).round
                if proposer in last_round and round_ <= last_round[proposer]:
                    problems.append(
                        f"t={record.time}: proposer {proposer} round {round_} "
                        f"does not exceed its previous round {last_round[proposer]}")
                ceiling = observed.get(proposer)
                if record.kind == "Repropose" and ceiling is not None and round_ <= ceiling:
                    problems.append(
                        f"t={record.time}: re-proposal round {round_} by proposer "
                        f"{proposer} does not exceed observed round {ceiling}")
                last_round[proposer] = round_
                _observe(observed, proposer, round_)
            elif record.kind == "Promise":
                fields = record.fields  # built on each read for a Delivery or a LineRecord
                _observe(observed, int(fields["to"]), ProposalNumber.parse(fields["n"]).round)
    except (KeyError, ValueError) as exc:
        raise record_error(record, exc) from exc
    return problems


def _observe(observed: dict[int, int], node: int, round_: int) -> None:
    observed[node] = max(round_, observed.get(node, round_))
