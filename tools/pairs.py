"""Paired perfbench runs of two checkouts, in ABBA order.

Run as

    python tools/pairs.py PARENT CHANGE --workload bigprime sweep cli_warm --seed 7101 --pairs 6

where PARENT and CHANGE are two checkouts of this repository.  The
workloads run one after the other, all pairs of one before the next.
For workload W, pair i runs

    python3 perfbench/run.py --workload W --seed S+i --seconds 40 --trace 0

once in each checkout, one process at a time: parent then change for even
i, change then parent for odd i.  So the runs go parent, change, change,
parent, ..., and a machine that speeds up or slows down during the runs
weighs on both sides alike instead of on whichever always runs second.

Each run's last stdout line is perfbench's JSON result.  For each
workload the script prints one table: for each metric, each side's
median, the spread of each side's runs (interquartile range over median:
p-spread for the parent, c-spread for the change),
the median over pairs of the ratio change / parent, and how many pairs
the change improved, by the metric's own "lower/higher is better".  Its
last column says whether that gain resolves: the change improved at
least 9 of every 10 pairs, and its median beats the parent's by more than
the parent's interquartile range.  A gain that does not resolve cannot be
told from run-to-run noise.  It exits 1 when any run is not correct.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

BETTER = re.compile(r"^\s+(\S+) = \S+ \S+ \((lower|higher) is better\)$")


def run(checkout: Path, workload: str, seed: int) -> tuple[dict, dict[str, str]]:
    """perfbench's JSON result of one run, and each metric's better side."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", "40", "--trace", "0"]
    lines = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True).stdout.splitlines()
    better = {m[1]: m[2] for m in map(BETTER.match, lines) if m}
    try:
        return json.loads(lines[-1]), better
    except (IndexError, ValueError):
        return {"correct": False, "metrics": {}}, better


def iqr(values: list[float]) -> float:
    """The distance between the quartiles, 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def spread(values: list[float]) -> float:
    """Interquartile range over median, 0 when the median is."""
    median = statistics.median(values)
    return iqr(values) / median if median else 0.0


def resolves(parent: list[float], change: list[float], improved: int, lower: bool) -> bool:
    """Whether the change, which improved `improved` of the pairs, improved
    at least 9 of every 10 and moved the median the better way by more than
    the parent's interquartile range."""
    gain = statistics.median(parent) - statistics.median(change)
    return 10 * improved >= 9 * len(parent) and (gain if lower else -gain) > iqr(parent)


def pairs(sides: dict[str, Path], workload: str, seed: int, count: int) -> bool:
    """Run count pairs of one workload and print its table; True when every
    run was correct and printed a result."""
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    better: dict[str, str] = {}
    correct = True
    for i in range(count):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            result, declared = run(sides[side], workload, seed + i)
            better.update(declared)
            results[side].append(result)
            correct &= result.get("correct", False)
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"{workload} pair {i} seed {seed + i} {side}: correct={result.get('correct')} {values}", file=sys.stderr)

    print(f"workload {workload}, {count} pairs from seed {seed}")
    if not all(r["metrics"] for side in results.values() for r in side):
        print(f"error: a {workload} run printed no result", file=sys.stderr)
        return False
    print(f"{'metric':16} {'parent':>12} {'change':>12} {'p-spread':>8} {'c-spread':>8} {'ratio':>8} improved resolves")
    for name in results["parent"][0]["metrics"]:
        parent = [r["metrics"][name]["value"] for r in results["parent"]]
        change = [r["metrics"][name]["value"] for r in results["change"]]
        ratios = [c / p for p, c in zip(parent, change) if p]
        lower = better.get(name, "lower") == "lower"
        improved = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        ratio = f"{statistics.median(ratios) - 1:+.1%}" if ratios else "n/a"
        print(
            f"{name:16} {statistics.median(parent):12.6g} {statistics.median(change):12.6g}"
            f" {spread(parent):8.1%} {spread(change):8.1%} {ratio:>8} {f'{improved}/{len(parent)}':>8}"
            f" {'yes' if resolves(parent, change, improved, lower) else 'no':>8}"
        )
    for side, runs in results.items():
        failed, attempted = sum(r.get("failed", 0) for r in runs), sum(r.get("attempted", 0) for r in runs)
        print(f"{side} failed ops: {failed} of {attempted}")
    if not correct:
        print(f"error: a {workload} run was not correct", file=sys.stderr)
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True, nargs="+", choices=("sweep", "bigprime", "cli_warm"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=6)
    args = parser.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    correct = True
    for workload in args.workload:
        correct &= pairs(sides, workload, args.seed, args.pairs)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
