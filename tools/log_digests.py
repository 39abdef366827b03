"""Print the digest of every benchmark case's event log and report, and check each log.

    python3 tools/log_digests.py --seeds 5 47 401
    python3 tools/log_digests.py --seeds 5 47 --sends

Imports paxsim from this checkout's ``src/`` and the cases from
``bench/workloads.py``; it reads those files and changes none of them. Each
case of each workload (stream, lossy, sweep) at each seed is run, and its
log is written to a temporary directory. The output is one JSON object that
maps
``workload/seed/case`` to ``{"log": …, "report": …}``: the sha256 of the log
file and of the report's ``to_json()``. Run in two checkouts, equal outputs
mean byte-identical logs and reports.

Each log is also read back and checked: ``dump_records(read_log(log))`` must
equal the file, ``replay_verdicts`` must find no mismatch and
``check_proposal_numbers`` no violation. Exits 1, naming the case, if a check
fails.

With ``--sends`` it prints, in place of the digests, each workload's packet
sends per request over all its cases and seeds, for every kind in
``messages.Packet``: delivered, dropped, or discarded at a crashed node. A
node's packet to itself is an in-node hand-off, not a send, and the log has
no record of it.
Heartbeats are set apart from the ``total``, as the benchmark's
``packets_per_request`` sets them apart, since their count follows the run's
length, not its requests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
import typing
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(SRC))

import paxsim  # noqa: E402
import workloads  # noqa: E402
from paxsim.eventlog import dump_records, read_log, write_log  # noqa: E402
from paxsim.logcheck import check_proposal_numbers  # noqa: E402
from paxsim.messages import Packet  # noqa: E402

WORKLOADS = tuple(workloads.WORKLOADS)
PACKET_KINDS = tuple(cls.kind for cls in typing.get_args(Packet))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class CheckFailed(Exception):
    """A case's log failed a check; the message names the case."""


def check(path: Path, data: bytes) -> list[str]:
    """What is wrong with the log at path, whose bytes are data: a lossy read, a mismatch,
    a proposal-number violation."""
    try:
        records = read_log(path)
        problems = [] if dump_records(records).encode("utf-8") == data else [
            "the records read back do not dump to the file"]
        problems += [f"mismatch: {diff}" for diff in paxsim.replay_verdicts(records)[1]]
        problems += [f"proposal numbers: {p}" for p in check_proposal_numbers(records)]
    except ValueError as exc:
        problems = [f"invalid log: {exc}"]
    return problems


def count_sends(records, sends: Counter) -> None:
    """Add a run's packet sends to sends, by kind: each delivery, Drop and DiscardCrashed."""
    for record in records:
        kind = record.kind
        if kind in PACKET_KINDS:
            sends[kind] += 1
        elif kind == "Drop" or kind == "DiscardCrashed":
            sends[record.fields["pkt"]] += 1


def per_request(sends: Counter, requests: int) -> dict:
    """Sends per request by kind, their total without heartbeats, and heartbeats apart."""
    rate = {kind: round(sends[kind] / requests, 3) for kind in PACKET_KINDS if kind != "Heartbeat"}
    total = sum(n for kind, n in sends.items() if kind != "Heartbeat")
    return {"requests": requests, "per_request": rate, "total": round(total / requests, 3),
            "heartbeats_per_request": round(sends["Heartbeat"] / requests, 3)}


def digests(workload: str, seed: int, folder: Path, sends: Counter) -> tuple[dict, int]:
    """Each case's log and report digests, and the number of requests; adds each case's
    sends to sends. Raises CheckFailed at the first case that fails."""
    out = {}
    requests = 0
    for case in workloads.WORKLOADS[workload](seed):
        name = f"{workload}/{seed}/{case.name}"
        result = paxsim.run(paxsim.parse_scenario(case.text, name_hint=case.name))
        path = folder / "case.log"
        write_log(result.records, path)
        data = path.read_bytes()
        if problems := check(path, data):
            raise CheckFailed(f"{name}: {problems[0]}")
        out[name] = {"log": sha256(data),
                     "report": sha256(result.report.to_json().encode("utf-8"))}
        count_sends(result.records, sends)
        requests += len(result.report.verdicts)
        path.unlink()  # a new file is written faster than an old one is truncated
    return out, requests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--sends", action="store_true",
                        help="print each workload's packet sends per request, not the digests")
    args = parser.parse_args(argv)
    if Path(paxsim.__file__).resolve().parent != (SRC / "paxsim").resolve():
        raise SystemExit(f"paxsim was imported from {paxsim.__file__}, not from {SRC}")
    out, sends = {}, {}
    with tempfile.TemporaryDirectory() as folder:
        try:
            for workload in WORKLOADS:
                counts, requests = Counter(), 0
                for seed in args.seeds:
                    cases, n = digests(workload, seed, Path(folder), counts)
                    out.update(cases)
                    requests += n
                sends[workload] = per_request(counts, requests)
        except CheckFailed as exc:
            print(f"log_digests: {exc}", file=sys.stderr)
            return 1
    print(json.dumps(sends if args.sends else out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
