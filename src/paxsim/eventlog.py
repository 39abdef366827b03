"""Line-oriented event log: one record per line, sortable by (time, seq).

Format: ``time=<t> seq=<s> kind=<Kind> key=value ...`` with free-text values
JSON-quoted. Packet deliveries are logged with the packet's own fields plus
from/to addressing; every other record kind carries its own small field set.
The format is fixed so that two runs can be compared byte for byte.

A live delivery is a ``Delivery``, its packet plus addressing, rendered only
when the log is written; its fields are that text parsed, as ``read_log``
returns them. A broadcast delivers one packet object to several nodes, so
``dump_records`` renders each packet object's text once per call, however
many recipients it has. Every other live record is a ``Record`` with a field
mapping.
read_log reads the file READ_CHUNK characters at a time, each chunk extended
to the end of its last line, and parses each line by one of two routes,
chosen per chunk. A line in the grammar ``write_log`` writes (``_LINE``)
becomes a ``LineRecord``: its time, seq and kind are parsed at read, and its
other fields are kept as text and parsed on each read of ``fields``. A chunk
with no backslash is matched by one ``_LINE.findall``; if the matches' lengths
add up to the chunk's, every line in it is one whole match (see read_log), and
each match becomes a LineRecord. Any other chunk goes line by line through
``parse_record``, where a line outside the grammar is parsed whole into a
``Record``, which checks its head and every quoted value, so a malformed line
fails at read even if no reader opens its fields.
The records of one read_log call share one str per distinct kind and one int
per run of lines with equal time, as a live run's records do, so a record read
back costs little more than a live one. The kinds are shared through a dict
local to the call, not sys.intern, which on Python 3.12 makes a string
immortal: a log with many junk kinds would stay in memory for the life of the
process.
read_log runs with the cyclic collector paused (collector_paused), as the
simulation's event loop does: a record is ints and strs and joins no cycle,
so reference counting frees all either loop drops, and a collection there
would only walk the records read so far.
"""

from __future__ import annotations

import gc
import re
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterable

from .messages import NodeId, Packet, format_value, packet_fields, packet_text, parse_fields

# The grammar of a line as write_log writes it: the head, then fields whose
# key is no head key again (the later one would win), each value bare or
# quoted without escapes or control characters, which is always valid JSON.
# Such a line tokenizes as the full-line parse does and passes all its checks.
# A match ends at a newline or at the end of the text, so that read_log can
# find a chunk's lines with it as parse_record matches one line.
_LINE = re.compile(r'time=([0-9]+) seq=([0-9]+) kind=(\w+)'
                   r'((?: (?!(?:time|seq|kind)=)\w+=(?:"[^"\\\x00-\x1f]*"|[^\s"]+))*)(\n|\Z)')


@contextmanager
def collector_paused():
    """Turn the cyclic collector off for the block; on after it only if it was on before."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@dataclass(slots=True)
class Record:
    time: int
    seq: int
    kind: str
    fields: dict


@dataclass(slots=True)
class Delivery:
    """A packet delivered to dst: the packet itself, rendered when the log is written."""

    time: int
    seq: int
    packet: Packet
    src: NodeId
    dst: NodeId

    @property
    def kind(self) -> str:
        return self.packet.kind

    @property
    def fields(self) -> dict:
        """The text fields read_log returns for this delivery's line, parsed on each read."""
        return {"from": str(self.src), "to": str(self.dst), **packet_fields(self.packet)}


@dataclass(slots=True)
class LineRecord:
    """A record read back from a log line: its head parsed, its other fields kept as text."""

    time: int
    seq: int
    kind: str
    tail: str

    @property
    def fields(self) -> dict:
        """The line's fields after kind, parsed on each read."""
        return parse_fields(self.tail)


def format_record(record: Record | Delivery | LineRecord, text: str | None = None) -> str:
    """One log line, without its newline; text, if given, is a Delivery's packet_text."""
    if type(record) is Delivery:
        if text is None:
            text = packet_text(record.packet)
        return (f"time={record.time} seq={record.seq} kind={record.packet.kind} "
                f"from={record.src} to={record.dst} {text}")
    parts = [f"time={record.time}", f"seq={record.seq}", f"kind={record.kind}"]
    parts.extend(f"{key}={format_value(value)}" for key, value in record.fields.items())
    return " ".join(parts)


def parse_record(line: str) -> Record | LineRecord:
    """Parse one log line: a LineRecord if it is in _LINE's grammar, else a Record.

    A missing time, seq or kind raises KeyError; a head value that is not an
    integer, or a quoted value that is not valid JSON, raises ValueError.
    """
    if written := _LINE.fullmatch(line):
        return LineRecord(int(written[1]), int(written[2]), written[3], written[4])
    fields = parse_fields(line)
    time = int(fields.pop("time"))
    seq = int(fields.pop("seq"))
    kind = fields.pop("kind")
    return Record(time=time, seq=seq, kind=kind, fields=fields)


def record_error(record: Record | Delivery | LineRecord, exc: KeyError | ValueError) -> ValueError:
    """A ValueError naming the record a reader found a field missing (KeyError) or malformed in."""
    problem = f"missing field {exc}" if isinstance(exc, KeyError) else exc
    return ValueError(f"time={record.time} seq={record.seq} kind={record.kind}: {problem}")


def dump_records(records: Iterable[Record | Delivery | LineRecord]) -> str:
    """The records' lines, each packet object's text rendered once for all its deliveries."""
    # id(packet) -> (packet, text): holding the packet keeps its id from being
    # reused within the call, even when records is a generator of new values.
    rendered: dict[int, tuple[Packet, str]] = {}
    lines = []
    for record in records:
        text = None
        if type(record) is Delivery:
            packet = record.packet
            if (entry := rendered.get(id(packet))) is None:
                entry = rendered[id(packet)] = (packet, packet_text(packet))
            text = entry[1]
        lines.append(format_record(record, text))
    lines.append("")  # so that the join ends the last line too
    return "\n".join(lines)


WRITE_CHUNK = 4096  # records formatted per write: the whole log's text is never held
READ_CHUNK = 65536  # characters read per chunk, then the rest of its last line


def write_log(records: Iterable[Record], path) -> None:
    records = iter(records)
    with open(path, "w", encoding="utf-8") as fh:
        while text := dump_records(islice(records, WRITE_CHUNK)):
            fh.write(text)


def read_log(path) -> list[Record | LineRecord]:
    """Parse a UTF-8 log file; a malformed line raises ValueError naming its 1-based number."""
    kinds: dict[str, str] = {}
    records = []
    time = None
    with open(path, "r", encoding="utf-8") as fh, collector_paused():
        try:
            while chunk := fh.read(READ_CHUNK):
                chunk += fh.readline()  # to the end of the chunk's last line
                found = [] if "\\" in chunk else _LINE.findall(chunk)
                # A match is "time= seq= kind=" (16 characters) and its groups. Matches
                # never overlap, start with "time=" and hold no newline but the one that
                # ends them, so if their lengths add up to the chunk's, each line is one.
                if 16 * len(found) + sum(map(len, chain.from_iterable(found))) == len(chunk):
                    parsed = [LineRecord(int(t), int(s), kind, tail)
                              for t, s, kind, tail, _ in found]
                else:  # not str.splitlines, which also breaks at \x0b, \x85 and more
                    parsed = [parse_record(line) for line in chunk.split("\n")
                              if line and not line.isspace()]  # blank lines are skipped
                for record in parsed:
                    # Keep the first str of each kind and int of each tick; new copies die here.
                    record.kind = kinds.setdefault(record.kind, record.kind)
                    if record.time == time:
                        record.time = time
                    else:
                        time = record.time
                    records.append(record)
            return records
        except (KeyError, ValueError):  # UnicodeDecodeError is a ValueError too
            _raise_first_bad_line(path)  # only a failed read pays for numbering the lines
            raise


def _raise_first_bad_line(path) -> None:
    # Decode line by line so that an undecodable byte is reported by line;
    # bytes.splitlines breaks lines where text-mode reading does.
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    for number, raw in enumerate(lines, 1):
        try:
            line = raw.decode("utf-8")
            if line.strip():
                parse_record(line)
        except KeyError as exc:
            raise ValueError(f"line {number}: missing field {exc}") from exc
        except ValueError as exc:
            raise ValueError(f"line {number}: {exc}") from exc
