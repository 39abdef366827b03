"""Run one benchmark workload against the paxsim sources of this checkout.

    python3 bench/run.py --workload stream --seed 7 --seconds 10 --trace 0

A run generates the workload's inputs from the seed, then times one cold
set-up (importing paxsim, parsing every scenario and building its cluster),
runs one untimed warm-up round that the oracle and the log checks judge,
and repeats timed rounds while another one still fits in ``--seconds``. A
round runs every scenario, writes each event log to a file (three times
over) and replays it, each phase after a ``gc.collect()``. Each batch of
calls into the program is timed between two samples of the calibration
kernels in ``hostspeed.py`` and converted to reference seconds; a phase
reports the sum over its batches of each batch's median over the rounds.
Every round's logs must be byte-identical to the warm-up's.

With ``--trace 1`` the same rounds run with the program's public functions
wrapped in spans, and the per-layer metrics are reported instead.

Diagnostics go to stderr. The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit
code is 1 if a correctness check broke, and 2 if the sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import hostspeed
import logstats
import oracle
import spans
import workloads

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
HASH_SEED = "0"

END_TO_END = {
    "setup_s": "s", "run_s": "s", "log_write_s": "s", "replay_s": "s", "peak_rss_mb": "MB",
    "latency_p50_ticks": "ticks", "latency_p99_ticks": "ticks", "detect_p50_ticks": "ticks",
    "packets_per_request": "packets",
}
PHASES = ("setup", "run", "log_write", "replay")


def load_paxsim():
    """Import paxsim from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import paxsim
    import paxsim.eventlog
    import paxsim.logcheck
    if Path(paxsim.__file__).resolve().parent != (SRC / "paxsim").resolve():
        raise SystemExit(f"paxsim was imported from {paxsim.__file__}, not from {SRC}")
    return paxsim


# A phase is timed in about this many batches of consecutive calls, so that
# many small scenarios do not spend most of a round on calibration samples.
BATCHES = 20


def timed_each(fn, items, meter=None):
    """Call fn on each item; return the results and each batch's (wall, reference) seconds.

    Without a meter (the traced run) both are the wall seconds.
    """
    items = list(items)
    size = max(1, len(items) // BATCHES)
    results, seconds = [], []
    for start in range(0, len(items), size):
        batch = items[start:start + size]
        if meter is None:
            begin = time.perf_counter()
            results.extend(fn(item) for item in batch)
            wall = time.perf_counter() - begin
            seconds.append((wall, wall))
        else:
            out, wall, reference = meter.call(lambda: [fn(item) for item in batch])
            results.extend(out)
            seconds.append((wall, reference))
    return results, seconds


class Workload:
    """One workload's cases and the program's phases over all of them."""

    def __init__(self, name: str, cases):
        self.name = name
        self.cases = cases
        self.requests = sum(len(case.payloads) for case in cases)
        folder = OUT / name
        folder.mkdir(parents=True, exist_ok=True)
        self.paths = [folder / f"{index}.log" for index in range(len(cases))]
        self.px = None
        self.meter = None
        self.scenarios = []

    def setup(self):
        """Parse every scenario and build its cluster; the clusters and each call's seconds."""
        parse = self.px.parse_scenario
        self.scenarios, parse_s = timed_each(
            lambda case: parse(case.text, name_hint=case.name), self.cases, self.meter)
        clusters, build_s = timed_each(self.px.ClusterRun, self.scenarios, self.meter)
        return clusters, parse_s + build_s

    def build(self):
        return [self.px.ClusterRun(scenario) for scenario in self.scenarios]

    def run(self, clusters):
        return timed_each(lambda cluster: cluster.run(), clusters, self.meter)

    def write(self, results):
        """Write each run's log to a new file; the old files go first, untimed."""
        for path in self.paths:
            path.unlink(missing_ok=True)
        write_log = self.px.eventlog.write_log
        return timed_each(lambda pair: write_log(pair[0].records, pair[1]),
                          zip(results, self.paths), self.meter)

    def replay(self):
        """Read every log back and replay its verdicts: the records, the results, the seconds."""
        logs, read_s = timed_each(self.px.eventlog.read_log, self.paths, self.meter)
        replayed, replay_s = timed_each(self.px.replay_verdicts, logs, self.meter)
        return logs, replayed, read_s + replay_s

    def digests(self):
        return [hashlib.sha256(path.read_bytes()).hexdigest() for path in self.paths]

    def log_bytes(self) -> int:
        return sum(path.stat().st_size for path in self.paths)


# The write phase is the shortest and, per second, the noisiest, so an
# untraced round writes the logs this many times over.
WRITE_REPEATS = 3


class Round:
    """One timed round; the tracer, if any, puts each phase in a span of its own."""

    def __init__(self, workload: Workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.write_repeats = 1 if tracer else WRITE_REPEATS

    def phase(self, name, fn, *args):
        gc.collect()
        if self.tracer is None:
            return fn(*args)
        with self.tracer.span(name):
            return fn(*args)

    def __call__(self):
        """Each phase's samples, each a list of (wall, reference) seconds per batch of
        calls, and the replay results."""
        w = self.workload
        clusters = w.build()
        results, run_s = self.phase("run", w.run, clusters)
        del clusters
        write_s = [self.phase("log_write", w.write, results)[1]
                   for _ in range(self.write_repeats)]
        del results
        _, replayed, replay_s = self.phase("replay", w.replay)
        return {"run": [run_s], "log_write": write_s, "replay": [replay_s]}, replayed


def typical(rounds, phase: str) -> float:
    """Sum over the phase's batches of each batch's median reference seconds over all
    the phase's samples in all rounds."""
    samples = [sample for r in rounds for sample in r[phase]]
    return sum(statistics.median(reference for _, reference in batch)
               for batch in zip(*samples))


def phase_sum(seconds, which: int) -> float:
    return sum(pair[which] for pair in seconds)


def check_replays(workload: Workload, replays) -> None:
    for case, (checked, diffs) in zip(workload.cases, replays):
        if diffs or checked != len(case.payloads):
            raise oracle.CheckFailed(f"{case.name}: replay checked {checked} verdicts "
                                     f"of {len(case.payloads)}: {diffs[:3]}")


def judge(workload: Workload, logs, px):
    """Oracle and log checks on the warm-up round; returns the sim-time results."""
    evaluator = oracle.Evaluator(workloads.MACHINE, workloads.APP)
    lat, detect, failed = [], [], Counter()
    facts_all = []
    for case, records in zip(workload.cases, logs):
        problems = px.logcheck.check_proposal_numbers(records)
        if problems:
            raise oracle.CheckFailed(f"{case.name}: proposal numbers: {problems[:3]}")
        facts = logstats.read_facts(records, case.acceptors)
        verdict = oracle.judge(case, facts.verdicts, evaluator)
        times = logstats.latencies(case.arrivals, facts.verdict_time, verdict.failed,
                                   facts.final_time)
        lat.extend(times)
        detect.extend(times[rid] for rid in verdict.tampered)
        failed.update(verdict.failed.values())
        facts_all.append(facts)
    if not detect:
        raise oracle.CheckFailed("the workload has no tampered request to detect")
    packets = sum(n for facts in facts_all for kind, n in facts.packets.items()
                  if kind != "Heartbeat")
    metrics = {
        "latency_p50_ticks": logstats.percentile(lat, 50),
        "latency_p99_ticks": logstats.percentile(lat, 99),
        "detect_p50_ticks": logstats.percentile(detect, 50),
        "packets_per_request": packets / workload.requests,
    }
    return metrics, failed, facts_all


# -- tracing ----------------------------------------------------------------------

def install(tracer: spans.Tracer, px, peaks: Counter, counts: Counter) -> None:
    """Wrap the public functions of each paxsim module, where they are looked up."""
    from paxsim import (acceptor, eventlog, harness, learner, membership, messages,
                        proposer, scenario, simnet, statemachine)
    modules = (px, acceptor, eventlog, harness, learner, membership, messages, proposer,
               scenario, simnet, statemachine)

    def function(module, attr, name):
        tracer.wrap(module, attr, name, where=modules)

    def methods(cls, attrs, name, hook=None):
        for attr in attrs:
            tracer.wrap(cls, attr, name, hook)

    def peak(key, value):
        peaks[key] = max(peaks[key], value)

    def after_run(_, args):
        cluster = args[0]
        live = [r.acceptor.next_slot for r in cluster.replicas if r.id not in cluster.sim.crashed]
        peak("acceptor.max_lag_slots", max(live) - min(live) if live else 0)

    def after_accept(result, _):
        if result is None:
            counts["acceptor.accept_refused"] += 1

    function(scenario, "parse_scenario", "scenario.parse")
    function(statemachine, "compile_machine", "statemachine.compile")
    function(statemachine, "compile_app_model", "statemachine.compile")
    function(statemachine, "apply", "statemachine.apply")
    function(statemachine, "execute", "statemachine.execute")
    function(messages, "format_value", "messages.format")
    function(messages, "parse_fields", "messages.parse")
    function(messages, "packet_fields", "messages.packet_fields")
    function(messages, "packet_from_fields", "messages.packet_from_fields")
    function(eventlog, "format_record", "eventlog.format")
    function(eventlog, "parse_record", "eventlog.parse")
    function(eventlog, "write_log", "eventlog.write")
    function(eventlog, "read_log", "eventlog.read")
    function(learner, "decide", "learner.decide")
    function(harness, "replay_verdicts", "harness.replay")
    methods(harness.ClusterRun, ["__init__"], "harness.build")
    methods(harness.ClusterRun, ["run"], "harness.run", after_run)
    methods(harness.Replica, ["on_packet", "on_timer"], "harness.nodes")
    methods(harness.InfraNode, ["on_packet", "on_timer"], "harness.nodes")
    methods(simnet.Simulation, ["step"], "simnet.step",
            lambda _, args: peak("simnet.queue_peak", args[0].pending()))
    methods(simnet.Simulation, ["send"], "simnet.send")
    methods(acceptor.Acceptor, ["on_prepare"], "acceptor.prepare")
    methods(acceptor.Acceptor, ["on_accept_request"], "acceptor.accept", after_accept)
    methods(proposer.Proposer, ["submit"], "proposer.handler",
            lambda _, args: peak("proposer.queue_peak", len(args[0].pending)))
    methods(proposer.Proposer, ["on_promise", "on_accepted", "on_phase_timeout",
                                "on_membership_change"], "proposer.handler")
    methods(learner.Learner, ["on_accepted"], "learner.accepted")
    methods(learner.Learner, ["on_deadline", "finalize"], "learner.deadline")
    methods(membership.MembershipService, ["record_heartbeat", "detect_failures",
                                           "elect_leader", "mark_crashed"], "membership.handler")


# Per-layer self-time metrics and the span names they sum.
SELF_TIME = {
    "scenario.parse_s": "scenario.parse",
    "statemachine.compile_s": "statemachine.compile",
    "harness.build_s": "harness.build",
    "harness.run_self_s": "harness.run",
    "harness.nodes_self_s": "harness.nodes",
    "harness.replay_self_s": "harness.replay",
    "simnet.step_self_s": "simnet.step",
    "simnet.send_s": "simnet.send",
    "acceptor.prepare_s": "acceptor.prepare",
    "acceptor.accept_s": "acceptor.accept",
    "proposer.handler_s": "proposer.handler",
    "learner.accepted_s": "learner.accepted",
    "learner.deadline_s": "learner.deadline",
    "learner.decide_s": "learner.decide",
    "membership.handler_s": "membership.handler",
    "statemachine.apply_s": "statemachine.apply",
    "statemachine.execute_s": "statemachine.execute",
    "messages.format_s": "messages.format",
    "messages.parse_s": "messages.parse",
    "messages.packet_fields_s": "messages.packet_fields",
    "messages.packet_from_fields_s": "messages.packet_from_fields",
    "eventlog.format_s": "eventlog.format",
    "eventlog.parse_s": "eventlog.parse",
    "eventlog.write_self_s": "eventlog.write",
    "eventlog.read_self_s": "eventlog.read",
}
SETUP_SPANS = {"setup", "scenario.parse", "statemachine.compile", "harness.build"}


def layer_units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ticks"):
        return "ticks"
    return "bytes" if name == "eventlog.bytes" else "count"


PER_LAYER = (list(SELF_TIME) + [
    "simnet.events", "simnet.sends", "simnet.queue_peak", "simnet.drops",
    *(f"simnet.packets.{kind}" for kind in logstats.PACKET_KINDS),
    "acceptor.accept_refused", "acceptor.max_lag_slots",
    "proposer.proposals", "proposer.reproposals", "proposer.queue_peak",
    "learner.verdicts_at_deadline", "learner.wait_p50_ticks", "membership.elections",
    "eventlog.records", "eventlog.bytes",
    *(f"trace.{phase}_s" for phase in PHASES), "trace.untraced_s",
])


def account(tracer: spans.Tracer, label: str) -> tuple[dict, dict]:
    """Self time per span name over the recorded spans, checked against each phase."""
    own, calls, by_root = spans.self_times(*tracer.columns())
    totals = defaultdict(float)
    for name, start, end, parent in zip(*tracer.columns()):
        if parent < 0:
            totals[name] += end - start
    for phase, total in totals.items():
        if phase not in PHASES:
            continue  # clusters built between phases, outside any timed phase
        parts = {name: t for (root, name), t in by_root.items() if root == phase}
        if abs(sum(parts.values()) - total) > 1e-6 * max(1, len(parts)):
            raise oracle.CheckFailed(f"trace: self times of {phase} do not add up to {total}")
        shares = ", ".join(f"{name} {t:.4f}" for name, t in
                           sorted(parts.items(), key=lambda kv: -kv[1]) if t >= 0.0005)
        print(f"[{label}] phase {phase} {total:.4f} s: {shares}", file=sys.stderr)
    return own, calls, totals


def trace_metrics(own, calls, totals_by_phase, peaks, counts, facts_all, log_bytes):
    values = {metric: own.get(span, 0.0) for metric, span in SELF_TIME.items()}
    kinds = Counter()
    packets = Counter()
    for facts in facts_all:
        kinds.update(facts.kinds)
        packets.update(facts.packets)
    waits = [facts.verdict_time[rid] - first for facts in facts_all
             for rid, first in facts.first_report.items()]
    values.update({
        "simnet.events": calls.get("simnet.step", 0),
        "simnet.sends": calls.get("simnet.send", 0),
        "simnet.queue_peak": peaks["simnet.queue_peak"],
        "simnet.drops": kinds["Drop"],
        **{f"simnet.packets.{kind}": packets[kind] for kind in logstats.PACKET_KINDS},
        "acceptor.accept_refused": counts["acceptor.accept_refused"],
        "acceptor.max_lag_slots": peaks["acceptor.max_lag_slots"],
        "proposer.proposals": kinds["Propose"],
        "proposer.reproposals": kinds["Repropose"],
        "proposer.queue_peak": peaks["proposer.queue_peak"],
        "learner.verdicts_at_deadline": sum(
            1 for facts in facts_all for fields in facts.verdicts.values()
            if fields["deadline"] == "1"),
        "learner.wait_p50_ticks": logstats.percentile(waits, 50) if waits else 0,
        "membership.elections": kinds["Election"],
        "eventlog.records": sum(facts.records for facts in facts_all),
        "eventlog.bytes": log_bytes,
        "trace.untraced_s": sum(own.get(phase, 0.0) for phase in PHASES),
    })
    values.update({f"trace.{phase}_s": totals_by_phase.get(phase, 0.0) for phase in PHASES})
    return values


# -- the run ----------------------------------------------------------------------

def measure(args) -> dict:
    workload = Workload(args.workload, workloads.WORKLOADS[args.workload](args.seed))
    tracer = spans.Tracer() if args.trace else None
    peaks, counts = Counter(), Counter()

    gc.collect()
    if tracer is None:
        workload.meter = meter = hostspeed.Meter()
        px, load_wall, load_reference = meter.call(load_paxsim)
        workload.px = px
        clusters, setup_calls = workload.setup()
        setup_calls.append((load_wall, load_reference))
        setup_s = phase_sum(setup_calls, 1)
        print(f"[{workload.name}] set-up {phase_sum(setup_calls, 0):.4f} s wall, "
              f"{setup_s:.4f} reference s", file=sys.stderr)
    else:
        workload.px = px = load_paxsim()
        install(tracer, px, peaks, counts)  # the traced set-up leaves the import out
        start = time.perf_counter()
        with tracer.span("setup"):
            clusters, _ = workload.setup()
        setup_s = time.perf_counter() - start
        setup_own = account(tracer, "setup")[0]

    # Warm-up round, untimed: the run that the oracle and the log checks judge.
    results, _ = workload.run(clusters)
    del clusters
    workload.write(results)
    del results
    logs, replayed, _ = workload.replay()
    check_replays(workload, replayed)
    sim_metrics, failed, facts_all = judge(workload, logs, px)
    del logs, replayed
    # Keep the benchmark's own long-lived objects out of the collector's way.
    gc.collect()
    gc.freeze()
    reference = workload.digests()
    log_bytes = workload.log_bytes()
    print(f"[{workload.name}] seed {args.seed}: {len(workload.cases)} scenarios, "
          f"{workload.requests} requests, failed per round {dict(failed)}", file=sys.stderr)

    one_round = Round(workload, tracer)
    rounds = []
    deadline = time.perf_counter() + args.seconds
    while True:
        began = time.perf_counter()
        peaks.clear()
        counts.clear()
        if tracer is not None:
            tracer.clear()
        times, replays = one_round()
        check_replays(workload, replays)
        if workload.digests() != reference:
            raise oracle.CheckFailed("a repeated round wrote a different event log")
        if tracer is not None:
            own, calls, totals = account(tracer, f"round {len(rounds) + 1}")
            own.update({name: t for name, t in setup_own.items() if name in SETUP_SPANS})
            times = trace_metrics(own, calls, {**totals, "setup": setup_s}, peaks, counts,
                                  facts_all, log_bytes)
        rounds.append(times)
        now = time.perf_counter()
        if now + (now - began) > deadline:
            break  # another round would end past the deadline
    passes = len(rounds) + 1  # the warm-up round ran every request too
    result = {"correct": True, "attempted": workload.requests * passes,
              "failed": sum(failed.values()) * passes}
    if tracer is not None:
        tracer.dump(OUT / f"trace-{workload.name}.tsv")
        print(f"[{workload.name}] {len(rounds)} traced rounds", file=sys.stderr)
        # Counts repeat exactly from round to round; keep them whole numbers.
        return {**result, "metrics": {
            name: {"value": (statistics.median if name.endswith("_s") else statistics.median_low)(
                r[name] for r in rounds), "unit": layer_units(name)} for name in PER_LAYER}}

    for which, label in ((0, "wall seconds"), (1, "reference seconds")):
        print(f"[{workload.name}] {len(rounds)} timed rounds, {label} per round: " + ", ".join(
            f"{phase} {[round(phase_sum(sample, which), 4) for r in rounds for sample in r[phase]]}"
            for phase in PHASES[1:]), file=sys.stderr)
    values = {
        "setup_s": setup_s, "run_s": typical(rounds, "run"),
        "log_write_s": typical(rounds, "log_write"), "replay_s": typical(rounds, "replay"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **sim_metrics,
    }
    return {**result, "metrics": {name: {"value": values[name], "unit": unit}
                                  for name, unit in END_TO_END.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Pin string hashing, so dict and set layouts repeat from run to run.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    if not (SRC / "paxsim" / "__init__.py").is_file():
        print(f"run.py: no paxsim sources at {SRC}", file=sys.stderr)
        return 2
    try:
        result = measure(args)
    except oracle.CheckFailed as exc:
        print(f"correctness check failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
