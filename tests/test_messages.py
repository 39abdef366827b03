"""Proposal ordering, packet log-form round trips, delivery rendering and lazy record parsing."""

import itertools
import json
import re
import typing

import pytest
from hypothesis import example, given, strategies as st

from paxsim.eventlog import Delivery, Record, dump_records, format_record, parse_record
from paxsim.messages import (
    Accepted,
    AcceptRequest,
    CatchUp,
    ClientRequest,
    ClientResponse,
    Decided,
    Heartbeat,
    Packet,
    Prepare,
    Promise,
    ProposalNumber,
    Query,
    _BARE_VALUE,
    _FIELD,
    _quote_text,
    packet_from_fields,
    parse_fields,
)


def compare(a, b):
    # Three-way comparison through ProposalNumber's own ordering operators.
    assert (a < b) + (a == b) + (a > b) == 1
    return -1 if a < b else (1 if a > b else 0)


def brute_force_compare(a, b):
    # Independent oracle: plain tuple comparison.
    ta, tb = (a.round, a.proposer), (b.round, b.proposer)
    if ta == tb:
        return 0
    return -1 if ta < tb else 1


def test_compare_identity():
    n = ProposalNumber(3, 1)
    assert compare(n, n) == 0


def test_compare_specific_cases():
    assert compare(ProposalNumber(2, 5), ProposalNumber(3, 0)) == -1
    assert compare(ProposalNumber(3, 2), ProposalNumber(3, 1)) == 1


def test_compare_matches_brute_force_enumeration():
    space = [ProposalNumber(r, p) for r in range(4) for p in range(6)]
    for a, b in itertools.product(space, space):
        assert compare(a, b) == brute_force_compare(a, b)


proposals = st.builds(ProposalNumber, st.integers(0, 1000), st.integers(0, 20))


@pytest.mark.parametrize("text", ["7", "x.y", "1.2.3", "1.", ""])
def test_a_malformed_proposal_number_names_the_expected_form(text):
    expected = f"expected a proposal number round.proposer, got {text!r}"
    with pytest.raises(ValueError, match=re.escape(expected)):
        ProposalNumber.parse(text)


@given(proposals, proposals, proposals)
def test_compare_is_a_total_order(a, b, c):
    # Antisymmetric, transitive, total.
    assert compare(a, b) == -compare(b, a)
    if compare(a, b) <= 0 and compare(b, c) <= 0:
        assert compare(a, c) <= 0
    assert compare(a, b) in (-1, 0, 1)
    if compare(a, b) == 0:
        assert a == b


payload_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=40)


def roundtrip(packet, src, dst):
    parsed = parse_record(format_record(Delivery(time=7, seq=3, packet=packet, src=src, dst=dst)))
    assert parsed.time == 7 and parsed.seq == 3 and parsed.kind == packet.kind
    assert packet_from_fields(parsed.kind, parsed.fields) == packet
    assert (int(parsed.fields["from"]), int(parsed.fields["to"])) == (src, dst)


@given(st.integers(0, 99), st.integers(0, 9))
def test_prepare_roundtrip(round_, proposer):
    roundtrip(Prepare(n=ProposalNumber(round_, proposer), epoch=2), src=proposer, dst=4)


@given(st.integers(0, 99))
def test_promise_roundtrip(round_):
    roundtrip(Promise(n=ProposalNumber(round_, 0)), src=3, dst=0)


def test_an_older_logs_promise_reads_back_without_its_last_served_field():
    record = parse_record("time=3 seq=11 kind=Promise from=1 to=0 n=1.0 last=0.0")
    assert packet_from_fields(record.kind, record.fields) == Promise(n=ProposalNumber(1, 0))


@pytest.mark.parametrize("line, packet", [
    ("time=3 seq=4 kind=Accepted from=1 to=3 n=1.0 req=0 output=OK state=S",
     Accepted(request_id=0, output="OK", new_state="S")),
    ('time=3 seq=5 kind=Decided from=2 to=1 n=1.0 req=0 payload="a b"',
     Decided(request=ClientRequest(0, "a b"))),
    ('time=1 seq=2 kind=Prepare from=0 to=1 epoch=2 n=1.0 req=0 payload="say \\"hi\\""',
     Prepare(n=ProposalNumber(1, 0), epoch=2)),
])
def test_an_older_logs_accepted_decided_and_prepare_read_back_without_their_deleted_fields(
        line, packet):
    # Older logs numbered each Accepted and Decided and named the request in each Prepare.
    record = parse_record(line)
    assert packet_from_fields(record.kind, record.fields) == packet


@given(payload_text, payload_text)
def test_accept_request_and_accepted_roundtrip(payload, output):
    n = ProposalNumber(5, 1)
    roundtrip(AcceptRequest(n=n, request=ClientRequest(2, payload), epoch=0), src=1, dst=2)
    roundtrip(Accepted(request_id=2, output=output, new_state="S1"), src=2, dst=6)


def test_heartbeat_and_response_roundtrip():
    roundtrip(Heartbeat(seq=17), src=4, dst=5)
    roundtrip(ClientResponse(request_id=9, output='he said "ok"\n'), src=5, dst=6)


@given(st.integers(0, 500), payload_text)
def test_catch_up_and_decided_roundtrip(slot, payload):
    roundtrip(CatchUp(from_slot=slot), src=3, dst=1)
    roundtrip(Decided(request=ClientRequest(slot, payload)), src=1, dst=3)


@pytest.mark.parametrize("payload", ["", " ", "a b", '"', "\\", "naïve\t"])
def test_awkward_payloads_survive(payload):
    packet = AcceptRequest(n=ProposalNumber(0, 0), request=ClientRequest(0, payload), epoch=0)
    roundtrip(packet, src=0, dst=1)


any_ints = st.integers()
any_proposals = st.builds(ProposalNumber, any_ints, any_ints)
free_text = st.one_of(st.sampled_from(["", '"', 'say "hi"', "\t", "a\tb", "naïve", "漢😀"]),
                      payload_text)
requests = st.builds(ClientRequest, any_ints, free_text)
PACKETS_BY_KIND = {
    Prepare: st.builds(Prepare, n=any_proposals, epoch=any_ints),
    Promise: st.builds(Promise, n=any_proposals),
    AcceptRequest: st.builds(AcceptRequest, n=any_proposals, request=requests, epoch=any_ints),
    Accepted: st.builds(Accepted, request_id=any_ints, output=free_text, new_state=free_text),
    Heartbeat: st.builds(Heartbeat, seq=any_ints),
    ClientResponse: st.builds(ClientResponse, request_id=any_ints, output=free_text),
    CatchUp: st.builds(CatchUp, from_slot=any_ints),
    Decided: st.builds(Decided, request=requests),
    Query: st.builds(Query, slot=any_ints),
}
packets = st.one_of(*PACKETS_BY_KIND.values())


def test_the_packet_strategy_covers_every_packet_kind():
    assert set(PACKETS_BY_KIND) == set(typing.get_args(Packet))


@given(packets, any_ints, any_ints)
def test_every_packet_kind_round_trips(packet, src, dst):
    roundtrip(packet, src=src, dst=dst)


@given(any_ints, any_ints, packets, any_ints, any_ints)
def test_delivery_renders_as_its_fields_do(time, seq, packet, src, dst):
    delivery = Delivery(time=time, seq=seq, packet=packet, src=src, dst=dst)
    generic = Record(time=time, seq=seq, kind=delivery.kind, fields=delivery.fields)
    assert format_record(delivery) == format_record(generic)
    assert delivery.fields == parse_record(format_record(delivery)).fields


def line_by_line(records):
    return "".join(format_record(r) + "\n" for r in records)


def test_dump_records_renders_a_broadcast_packet_for_every_recipient():
    accept_request = AcceptRequest(n=ProposalNumber(4, 1), request=ClientRequest(3, "GET /item/7"),
                                   epoch=1)
    accepted = Accepted(request_id=3, output="say \"ok\"", new_state="warn")
    records = [Delivery(time=1, seq=0, packet=accept_request, src=1, dst=dst) for dst in (0, 2)]
    records += [Record(time=1, seq=2, kind="Propose", fields={"req": 3, "payload": "a b"}),
                Delivery(time=2, seq=3, packet=accepted, src=2, dst=1),
                Delivery(time=2, seq=4, packet=accept_request, src=1, dst=3),
                Delivery(time=2, seq=5, packet=Heartbeat(seq=9), src=0, dst=4),
                Delivery(time=3, seq=6, packet=accepted, src=2, dst=5)]
    assert dump_records(records) == line_by_line(records)
    assert dump_records(records).count("kind=AcceptRequest from=1") == 3
    assert dump_records([]) == ""


def test_dump_records_renders_new_packets_freed_after_each_line():
    # Each packet lives only as long as its Delivery unless dump_records holds
    # it; a freed packet's id is soon reused by the next one, so a memo keyed
    # by id alone would render a stale text.
    def deliveries():
        for seq in range(200):
            yield Delivery(time=seq, seq=seq, packet=Heartbeat(seq=seq), src=0, dst=1)

    assert dump_records(deliveries()) == line_by_line(deliveries())


quotable_text = st.text(alphabet=st.one_of(
    st.characters(codec=None),
    st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF),  # lone surrogates
    st.characters(max_codepoint=0x1F),
    st.sampled_from('"\\\x7f é漢😀 =:*,./-_'),
    st.sampled_from("aZ09")), max_size=30)


@given(quotable_text)
@example("\ud83d")
@example('"\\\x00\u2028')
@example("GET/item:7,a*b")
def test_quote_text_is_bare_or_json_dumps(text):
    expected = text if _BARE_VALUE.match(text) else json.dumps(text, ensure_ascii=True)
    assert _quote_text(text) == expected


def reference_parse_fields(text):
    """The expression parse_fields replaced: finditer plus a per-token decode."""
    def parse_value(token):
        if token.startswith('"'):
            return json.loads(token)
        return token
    return {m.group(1): parse_value(m.group(2)) for m in _FIELD.finditer(text)}


def outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:  # a quoted token that is not valid JSON
        return type(exc)


awkward_text = st.text(alphabet=st.one_of(
    st.sampled_from('"=\\ \t\n\'/:*,.-_éü€漢😀'),
    st.characters(blacklist_categories=("Cs",))), max_size=30)
field_keys = st.from_regex(r"[a-z_][a-z0-9_]{0,6}", fullmatch=True).filter(
    lambda key: key not in ("time", "seq", "kind"))


# Arbitrary text, spliced with bare and hand-quoted (possibly invalid JSON) fields.
line_text = st.lists(st.one_of(
    awkward_text,
    st.builds("{}={} ".format, field_keys, awkward_text),
    st.builds('{}="{}" '.format, field_keys, awkward_text)), max_size=6).map("".join)


@given(line_text)
def test_parse_fields_matches_reference_on_any_text(text):
    assert outcome(parse_fields, text) == outcome(reference_parse_fields, text)


@given(st.dictionaries(field_keys, st.one_of(awkward_text, st.integers(), proposals),
                       max_size=6))
def test_parse_fields_matches_reference_on_records(fields):
    line = format_record(Record(time=1, seq=2, kind="Note", fields=fields))
    assert parse_fields(line) == reference_parse_fields(line)
    assert parse_record(line).fields == {k: v if isinstance(v, str) else str(v)
                                         for k, v in fields.items()}


def reference_parse_record(line):
    """The full-line parse that parse_record replaced: every field parsed at read."""
    fields = parse_fields(line)
    return Record(time=int(fields.pop("time")), seq=int(fields.pop("seq")),
                  kind=fields.pop("kind"), fields=fields)


def record_outcome(parse, line):
    try:
        record = parse(line)
    except (KeyError, ValueError) as exc:
        return type(exc), str(exc)
    return record.time, record.seq, record.kind, record.fields


head_values = st.one_of(st.integers(0, 10**6).map(str), awkward_text,
                        st.sampled_from(["-1", "+2", "007", "1_0", "١٢", '"3"', "", "x"]))
odd_values = st.sampled_from(['"bad \\q"', '"\\u12"', '"open', '"tab\there"', '"nul\x00"',
                              '"ok"', '"\\n\\"x\\""', 'a"b"', '"x time=1"'])
head_fields = st.builds("{}={}".format, st.sampled_from(["time", "seq", "kind"]),
                        st.one_of(head_values, odd_values))
written_heads = st.builds("time={} seq={} kind={}".format, st.integers(0, 10**6),
                          st.integers(0, 10**6),
                          st.sampled_from(["Accepted", "Prepare", "Horizon", "K_2", "漢"]))
record_heads = st.one_of(written_heads, st.builds(
    "{}{}".format, st.sampled_from(["", " ", "\t"]),
    st.one_of(st.builds("time={} seq={} kind={}".format, head_values, head_values, head_values),
              line_text)))
tail_fields = st.builds("{}={}".format, field_keys, st.one_of(head_values, odd_values))
record_tails = st.lists(st.one_of(
    tail_fields,
    st.builds("{}{}".format, st.sampled_from(["", "\t", ",", '"']), head_fields),
    line_text), max_size=5).map(lambda parts: "".join(" " + part for part in parts))


@given(record_heads, record_tails, st.sampled_from(["", "\n", " \n"]))
@example("time=1 seq=2 kind=Prepare", ' from=0 payload="bad \\q"', "\n")
@example("time=1 seq=2 kind=Verdict", " req=0 time=9 seq=8 kind=Other", "\n")
@example("time=1 seq=2 kind=Heartbeat", " hb_seq=3 x=a,seq=4", "")
@example(" time=1 seq=2 kind=Accepted", " to=5", "\n")
@example("time=1 seq=2 kind=Accepted,", " to=5", "\n")
@example('time="3" seq=2 kind=Init', "", "\n")
@example("time=1 seq=2 kind=Prepare\x1cpayload=\"\\q\"", "", "\n")
@example("time=1 seq=2 kind=Verdict", ' note="x time=1"', "\n")
@example("time=1 seq=2 kind=Init", " x=a=b", "\n")
@example("time=1 seq=2 kind=Init", ' x="open', "\n")
@example("time=1 seq=2 kind=Init", ' x="\x7f é 漢"', "\n")
@example("time=1 seq=2 kind=Init", ' x="tab\there"', "\n")
@example("time=1 seq=2 kind=Init", " x=1", " \n")
@example("time=1 seq=2 kind=Init", " x=1", "\r\n")
def test_parse_record_matches_the_full_line_parse(head, tail, end):
    # A line in the fast-path grammar or not, the outcome must not tell the difference.
    line = head + tail + end
    assert record_outcome(parse_record, line) == record_outcome(reference_parse_record, line)
