"""Protocol values exchanged between nodes, and their event-log text form.

All message values are immutable after construction; handlers may freely
keep or copy them across logical nodes. A packet carries content only: its
sender is the transport's src, logged as the delivery's from field.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

NodeId = int

# Characters that may appear unquoted in a log field value.
_BARE_VALUE = re.compile(r"[A-Za-z0-9_.:*,\-/]+\Z")
_FIELD = re.compile(r'(\w+)=("(?:[^"\\]|\\.)*"|\S+)')


class ProposalNumber(NamedTuple):
    """Totally ordered proposal identity: lexicographic on (round, proposer).

    A tuple, so that it compares and hashes in C; it therefore also equals the
    plain tuple (round, proposer), which no code compares it with.
    """

    round: int
    proposer: NodeId

    def __str__(self) -> str:
        return f"{self.round}.{self.proposer}"

    @classmethod
    def parse(cls, text: str) -> "ProposalNumber":
        """Read the round.proposer form __str__ writes; raise ValueError naming it otherwise."""
        try:
            round_, proposer = map(int, text.split("."))
        except ValueError:  # not two parts, or a part that is not an int
            raise ValueError(f"expected a proposal number round.proposer, got {text!r}") from None
        return cls(round_, proposer)


@dataclass(frozen=True, slots=True)
class ClientRequest:
    request_id: int
    payload: str


@dataclass(frozen=True, slots=True)
class Prepare:
    """Phase-1 proposal of n alone, stamped with the leadership epoch it was issued in."""

    n: ProposalNumber
    epoch: int

    kind = "Prepare"


@dataclass(frozen=True, slots=True)
class Promise:
    """An acceptor's pledge to serve proposal n and refuse every lower number."""

    n: ProposalNumber

    kind = "Promise"


@dataclass(frozen=True, slots=True)
class AcceptRequest:
    n: ProposalNumber
    request: ClientRequest
    epoch: int

    kind = "AcceptRequest"


@dataclass(frozen=True, slots=True)
class Accepted:
    """The execution result a replica reports: output and new state, under no number.

    request_id identifies the slot the result belongs to, whose request the
    client fixed. The reporting replica is the delivery's src.
    """

    request_id: int
    output: str
    new_state: str

    kind = "Accepted"


@dataclass(frozen=True, slots=True)
class Heartbeat:
    seq: int

    kind = "Heartbeat"


@dataclass(frozen=True, slots=True)
class ClientResponse:
    request_id: int
    output: str

    kind = "ClientResponse"


@dataclass(frozen=True, slots=True)
class CatchUp:
    """A lagging replica's ask for the slots a peer has executed, from from_slot on."""

    from_slot: int

    kind = "CatchUp"


@dataclass(frozen=True, slots=True)
class Decided:
    """One slot a peer has executed: its request alone, as a decision carries no ballot."""

    request: ClientRequest

    kind = "Decided"


@dataclass(frozen=True, slots=True)
class Query:
    """The learner's ask for a member's report on a slot it has not heard that member on."""

    slot: int

    kind = "Query"


Packet = (Prepare | Promise | AcceptRequest | Accepted | Heartbeat | ClientResponse | CatchUp
          | Decided | Query)


def _quote_text(text: str) -> str:
    """Free text as a log field value: bare when safe, JSON-quoted otherwise.

    Quoting calls encode_basestring_ascii, where json.dumps(text, ensure_ascii=True) ends.
    """
    if _BARE_VALUE.match(text):
        return text
    return encode_basestring_ascii(text)


def format_value(value) -> str:
    """Render a field value for a log line; free text goes through _quote_text."""
    if isinstance(value, (int, ProposalNumber)):
        return str(value)
    return _quote_text(str(value))


def parse_fields(text: str) -> dict[str, str]:
    """Split a log line (or its tail) into an ordered field mapping."""
    return {key: json.loads(token) if token[0] == '"' else token
            for key, token in _FIELD.findall(text)}


def packet_fields(packet: Packet) -> dict[str, str]:
    """Ordered log fields for a packet, excluding transport addressing: its parsed log text."""
    return parse_fields(packet_text(packet))


def packet_text(packet: Packet) -> str:
    """A packet's log text, excluding transport addressing, with one format per packet kind."""
    cls = type(packet)
    if cls is Accepted:
        return (f"req={packet.request_id} output={_quote_text(packet.output)} "
                f"state={_quote_text(packet.new_state)}")
    if cls is AcceptRequest:
        return (f"epoch={packet.epoch} n={packet.n} req={packet.request.request_id} "
                f"payload={_quote_text(packet.request.payload)}")
    if cls is Prepare:
        return f"epoch={packet.epoch} n={packet.n}"
    if cls is Promise:
        return f"n={packet.n}"
    if cls is Heartbeat:
        return f"hb_seq={packet.seq}"
    if cls is ClientResponse:
        return f"req={packet.request_id} output={_quote_text(packet.output)}"
    if cls is CatchUp:
        return f"from_slot={packet.from_slot}"
    if cls is Decided:
        return f"req={packet.request.request_id} payload={_quote_text(packet.request.payload)}"
    if cls is Query:
        return f"slot={packet.slot}"
    raise TypeError(f"not a packet: {packet!r}")


def packet_from_fields(kind: str, fields: dict[str, str]) -> Packet:
    """Rebuild a packet value from parsed log fields. Inverse of packet_text."""
    if kind == "AcceptRequest":
        return AcceptRequest(n=ProposalNumber.parse(fields["n"]), epoch=int(fields["epoch"]),
                             request=ClientRequest(int(fields["req"]), fields["payload"]))
    if kind == "Prepare":  # an older log's req= and payload= are ignored
        return Prepare(n=ProposalNumber.parse(fields["n"]), epoch=int(fields["epoch"]))
    if kind == "Promise":  # an older log's last= is ignored
        return Promise(n=ProposalNumber.parse(fields["n"]))
    if kind == "Accepted":  # an older log's n= is ignored
        return Accepted(request_id=int(fields["req"]), output=fields["output"],
                        new_state=fields["state"])
    if kind == "Heartbeat":
        return Heartbeat(seq=int(fields["hb_seq"]))
    if kind == "ClientResponse":
        return ClientResponse(request_id=int(fields["req"]), output=fields["output"])
    if kind == "CatchUp":
        return CatchUp(from_slot=int(fields["from_slot"]))
    if kind == "Decided":  # an older log's n= is ignored
        return Decided(request=ClientRequest(int(fields["req"]), fields["payload"]))
    if kind == "Query":
        return Query(slot=int(fields["slot"]))
    raise ValueError(f"unknown packet kind: {kind}")
