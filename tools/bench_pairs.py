"""Run the benchmark in two checkouts in alternating pairs and compare their metrics.

    python3 tools/bench_pairs.py --parent ../parent --change . --workload lossy \\
        --seed 5 --seconds 30 --pairs 10

Runs ``bench/run.py`` once in each checkout per pair; the parent goes first in
odd-numbered pairs and the change in even-numbered ones, so that neither side
always runs on a host that the other has just warmed or slowed. For each
end-to-end metric that ``BENCHMARK.json`` lists it prints each side's median
and quartiles, how many pairs the change won (ties count for neither side),
the relative change of the medians, and whether the change shows a gain: a
win in at least 9 pairs of 10, and a median better than the parent's by more
than the distance between the parent's quartiles. Exits 1, naming the side and
the pair, when a run fails, ends in a line that is not JSON, or is not correct.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from bench_all import ROOT, bench

SIDES = ("parent", "change")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, interpolated between the sorted values."""
    ordered = sorted(values)
    last = len(ordered) - 1

    def at(fraction: float) -> float:
        low, weight = divmod(fraction * last, 1)
        low = int(low)
        if weight == 0:
            return ordered[low]
        return ordered[low] + (ordered[low + 1] - ordered[low]) * weight

    return at(0.25), at(0.5), at(0.75)


def compare(metric: dict, parent: list[float], change: list[float]) -> dict:
    """One metric's row: both sides' quartiles, the change's wins, its relative change, its gain."""
    sign = 1 if metric["better"] == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p1, p_median, p3 = quartiles(parent)
    c1, c_median, c3 = quartiles(change)
    relative = (c_median - p_median) / p_median if p_median else 0.0 if c_median == 0 else None
    gain = wins * 10 >= 9 * len(parent) and sign * (p_median - c_median) > p3 - p1
    return {"name": metric["name"], "unit": metric["unit"], "parent": (p1, p_median, p3),
            "change": (c1, c_median, c3), "wins": wins, "pairs": len(parent),
            "relative": relative, "gain": gain}


def format_row(row: dict) -> str:
    def side(q1, median, q3):
        return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"

    relative = "n/a" if row["relative"] is None else f"{row['relative']:+.2%}"
    return (f"{row['name']:<20} {row['unit']:<8} {side(*row['parent']):<34} "
            f"{side(*row['change']):<34} {row['wins']:>2}/{row['pairs']:<3} {relative:>9}  "
            f"{'yes' if row['gain'] else 'no'}")


def run_pairs(roots: dict, workload: str, seed: int, seconds: float, pairs: int) -> dict:
    """Each side's results in pair order; raises RuntimeError naming the side and pair that failed."""
    results = {side: [] for side in SIDES}
    for pair in range(1, pairs + 1):
        for side in SIDES if pair % 2 else reversed(SIDES):
            print(f"bench_pairs: pair {pair}, {side}", file=sys.stderr)
            try:
                result = bench(workload, seed, seconds, root=roots[side])
            except RuntimeError as exc:
                raise RuntimeError(f"pair {pair}, {side}: {exc}") from None
            if result.get("correct") is not True:
                raise RuntimeError(f"pair {pair}, {side}: the run printed correct: "
                                   f"{json.dumps(result.get('correct'))}")
            results[side].append(result)
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    try:
        results = run_pairs(roots, args.workload, args.seed, args.seconds, args.pairs)
    except RuntimeError as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 1
    print(f"{args.workload}, seed {args.seed}, --seconds {args.seconds:g}, {args.pairs} pairs")
    for side in SIDES:
        failed = [f"{r['failed']}/{r['attempted']}" for r in results[side]]
        print(f"{side}: {roots[side]}, failed per run {failed}")
    print(f"{'metric':<20} {'unit':<8} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'wins':<6} {'relative':>9}  gain")
    for metric in metrics:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        print(format_row(compare(metric, values["parent"], values["change"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
