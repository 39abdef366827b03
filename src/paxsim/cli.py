"""Command line entry points.

Exit codes: 0 success, 1 usage/validation/parse error, 2 anomaly detected,
3 livelock (time horizon reached with undecided requests).
"""

from __future__ import annotations

import argparse
import sys

from .eventlog import read_log, write_log
from .harness import replay_verdicts, run
from .logcheck import check_proposal_numbers
from .scenario import MAX_SEED, ScenarioError, load_scenario

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_ANOMALY = 2
EXIT_LIVELOCK = 3


class _Parser(argparse.ArgumentParser):
    """Exits EXIT_INVALID on a usage error, where argparse's 2 would read as EXIT_ANOMALY."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def u64(text: str) -> int:
    """The type of --seed: an integer in net.seed's range (argparse names it in errors)."""
    seed = int(text)
    if not 0 <= seed <= MAX_SEED:
        raise argparse.ArgumentTypeError(f"must be in [0, {MAX_SEED}], got {seed}")
    return seed


def main(argv=None) -> int:
    parser = _Parser(prog="paxsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and print its report")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--seed", type=u64, default=None, help="override the scenario seed")
    p_run.add_argument("--log", default=None, help="write the event log to this path")
    p_run.add_argument("--format", choices=("json", "text"), default="text")

    p_validate = sub.add_parser("validate", help="check a scenario file")
    p_validate.add_argument("--scenario", required=True)

    p_replay = sub.add_parser("replay", help="recompute verdicts from an event log and diff, "
                                             "and check its proposal numbers")
    p_replay.add_argument("--log", required=True)

    args = parser.parse_args(argv)
    if args.command == "replay":
        return _cmd_replay(args)
    try:
        scenario = load_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return EXIT_INVALID
    return _cmd_run(args, scenario) if args.command == "run" else _cmd_validate(scenario)


def _cmd_run(args, scenario) -> int:
    result = run(scenario, seed=args.seed)
    if args.log:
        try:
            write_log(result.records, args.log)
        except OSError as exc:
            print(f"cannot write log: {exc}", file=sys.stderr)
            return EXIT_INVALID
    report = result.report
    print(report.to_json() if args.format == "json" else report.to_text())
    if report.counts["anomaly"] > 0:
        return EXIT_ANOMALY
    if report.livelock:
        return EXIT_LIVELOCK
    return EXIT_OK


def _cmd_validate(scenario) -> int:
    print(f"ok: {scenario.name} ({scenario.acceptors} acceptors, "
          f"{len(scenario.requests)} requests, {len(scenario.faults)} faults)")
    return EXIT_OK


def _cmd_replay(args) -> int:
    try:
        records = read_log(args.log)
        checked, diffs = replay_verdicts(records)
        problems = check_proposal_numbers(records)
    except OSError as exc:
        print(f"cannot read log: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ValueError as exc:
        print(f"invalid log: {exc}", file=sys.stderr)
        return EXIT_INVALID
    for diff in diffs:
        print(f"mismatch: {diff}")
    for problem in problems:
        print(f"proposal numbers: {problem}")
    print(f"{checked} verdicts checked, "
          + (f"{len(diffs)} mismatches" if diffs else "all reproduced"))
    if problems:
        print(f"{len(problems)} proposal-number violations")
    return EXIT_INVALID if diffs or problems else EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
