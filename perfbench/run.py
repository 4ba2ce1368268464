"""Benchmark of mersenne-omega, one workload per process.

    python3 perfbench/run.py --workload {sweep,bigprime,cli_warm} \
        --seed N --seconds S --trace {0,1}

The workload runs as a closed loop with one client, in passes over the
inputs its seed makes.  With --trace 0 it runs whole passes for about S
seconds (at least one) and reports the end-to-end metrics; with --trace 1
it runs one untraced and one traced pass and reports the per-layer
metrics.  Every output is checked against the oracle table.  Metrics are
printed one per line with their units, and the last line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import spans
from metrics import frontier, percentile, tail_percentile
from oracle import Oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# name, unit, better.  BENCHMARK.json's end_to_end list mirrors this.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("op_ms.p50", "ms", "lower"),
    ("op_ms.tail", "ms", "lower"),
    ("complete_count", "count", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)
# Set-up is timed this many times, each in a fresh interpreter.
SETUP_REPEATS = 11


@dataclass
class Pass:
    wall: float
    op_seconds: list[float]
    complete: list[bool]
    failed: int
    errors: list[str]


def run_pass(workload, ops, recorder=None) -> Pass:
    workload.begin_pass()
    outs, seconds = [], []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if recorder is not None:
            recorder.op = i
        t = time.perf_counter()
        outs.append(workload.run(op, recorder))
        seconds.append(time.perf_counter() - t)
    wall = time.perf_counter() - start
    op_errors = [e for e in (workload.check(op, out) for op, out in zip(ops, outs)) if e]
    return Pass(
        wall=wall,
        op_seconds=seconds,
        complete=[workload.complete(out) for out in outs],
        failed=len(op_errors),
        errors=op_errors + workload.end_pass(),
    )


def time_setups(name: str) -> list[float]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--setup-only"]
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    return samples


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def end_to_end(passes: list[Pass], setup_samples: list[float], q: float) -> dict[str, float]:
    med = statistics.median
    # Each op's latency is its median over the passes, which damps the
    # machine's speed swings before the percentile picks one op.
    op_ms = [1000 * med(times) for times in zip(*(p.op_seconds for p in passes))]
    return {
        "setup_s": med(setup_samples),
        "wall_s": med(p.wall for p in passes),
        "op_ms.p50": percentile(op_ms, 50),
        "op_ms.tail": percentile(op_ms, q),
        "complete_count": med(sum(p.complete) for p in passes),
        "peak_rss_mb": peak_rss_mb(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "bigprime", "cli_warm"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "mersenne_omega" / "__init__.py").is_file():
        print(f"perfbench: no mersenne_omega package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workload = workloads.WORKLOADS[args.workload](ROOT, Oracle.load())
    if args.setup_only:
        workload.setup()
        return 0

    setup_samples = time_setups(args.workload)
    workload.setup()
    errors = workload.setup_errors()
    ops = workload.ops(args.seed)
    q = tail_percentile(len(ops))

    if args.trace:
        plain = run_pass(workload, ops)
        recorder = spans.SpanRecorder()
        with recorder.installed():
            traced = run_pass(workload, ops, recorder)
        recorder.counters["cache_bytes"] = workload.cache_bytes()
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        recorder.dump(out_dir / f"spans_{args.workload}.json")
        passes = [plain, traced]
        values = spans.layer_metrics(recorder, traced.wall, plain.wall)
        declared = spans.PER_LAYER
    else:
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(run_pass(workload, ops))
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(p.wall for p in passes) > args.seconds:
                break
        values = end_to_end(passes, setup_samples, q)
        declared = END_TO_END

    attempted = sum(len(p.op_seconds) for p in passes)
    failed = sum(p.failed for p in passes)
    errors += [e for p in passes for e in p.errors]
    for message in errors[:20]:
        print(f"error: {message}", file=sys.stderr)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  passes {len(passes)}")
    print(f"ops per pass {len(ops)}; op_ms.tail is the p{q:g} over ops of each op's median latency")
    for name, unit, better in declared:
        print(f"  {name} = {values[name]:.6g} {unit} ({better} is better)")
    print(f"  error_rate = {failed / attempted:.6g} ratio (lower is better)")
    if args.workload == "sweep":
        done = dict(zip(ops, passes[0].complete))
        print(f"  frontier = {frontier(done)} index (higher is better)")
    if args.trace:
        # The benchmark's own loop runs outside every span, and the two
        # passes differ by machine noise, so 1% of the wall is allowed on
        # top of the overhead.
        gap = abs(values["trace.self_sum_s"] - plain.wall)
        allowed = abs(values["trace.overhead_s"]) + 0.01 * plain.wall
        print(f"  self times account for the untraced wall within {allowed:.3g} s: {gap <= allowed}")

    result = {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
