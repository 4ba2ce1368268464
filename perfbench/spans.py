"""Layer spans for the traced benchmark run.

SpanRecorder replaces each traced public function of mersenne_omega in
every module namespace that holds it, so a call made by any caller opens
a span.  A span is [name, start, end, parent, op]: parent is the index of
the enclosing span (-1 at top level) and op the benchmark operation it
belongs to.  Spans stay in memory and are written out when the run ends.
Work counts come from the program's own FactorStats, read around each
factor_mersenne call.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

TWO_64 = 1 << 64

MODULES = ("arith", "factoring", "cyclotomic", "classify", "census", "storage", "cli")

# (home module, function name).  The span is named "module.function",
# except primality tests, which split at 2^64 into arith.prp.small/big.
TRACED = (
    ("arith", "is_probable_prime"),
    ("arith", "is_perfect_power"),
    ("arith", "lucas_lehmer"),
    ("factoring", "factor_mersenne"),
    ("factoring", "factor_natural"),
    ("factoring", "trial_divide_congruence"),
    ("factoring", "_sieve_primes"),
    ("cyclotomic", "cyclotomic_split"),
    ("cyclotomic", "primitive_prime_divisors"),
    ("classify", "verify_structure"),
    ("classify", "verify_identities"),
    ("census", "run_census"),
    ("storage", "load_cache"),
    ("storage", "save_cache"),
    ("storage", "import_known_factors"),
    ("cli", "main"),
)

# name, unit, better.  BENCHMARK.json's per_layer list mirrors this.
PER_LAYER = (
    ("factoring.rho_iterations", "count", "lower"),
    ("factoring.rho_calls", "count", "lower"),
    ("factoring.rho_self_s", "s", "lower"),
    ("factoring.rho_iters_per_s", "1/s", "higher"),
    ("factoring.rho_wasted_ratio", "ratio", "lower"),
    ("factoring.scan_candidates", "count", "lower"),
    ("factoring.scan_s", "s", "lower"),
    ("factoring.scan_candidates_per_s", "1/s", "higher"),
    ("factoring.scan_hit_ratio", "ratio", "higher"),
    ("factoring.natural_s", "s", "lower"),
    ("factoring.sieve_build_s", "s", "lower"),
    ("factoring.self_s", "s", "lower"),
    ("arith.prp_calls.small", "count", "lower"),
    ("arith.prp_calls.big", "count", "lower"),
    ("arith.prp_s.small", "s", "lower"),
    ("arith.prp_s.big", "s", "lower"),
    ("arith.prp_repeat_ratio", "ratio", "lower"),
    ("arith.perfect_power_calls", "count", "lower"),
    ("arith.perfect_power_s", "s", "lower"),
    ("arith.lucas_lehmer_s", "s", "lower"),
    ("arith.self_s", "s", "lower"),
    ("cyclotomic.split_calls", "count", "lower"),
    ("cyclotomic.split_s", "s", "lower"),
    ("cyclotomic.primitive_s", "s", "lower"),
    ("cyclotomic.self_s", "s", "lower"),
    ("classify.structure_s", "s", "lower"),
    ("classify.identities_s", "s", "lower"),
    ("classify.self_s", "s", "lower"),
    ("census.self_s", "s", "lower"),
    ("storage.load_s", "s", "lower"),
    ("storage.load_ms_per_entry", "ms", "lower"),
    ("storage.save_s", "s", "lower"),
    ("storage.save_ms_per_entry", "ms", "lower"),
    ("storage.import_s", "s", "lower"),
    ("storage.cache_bytes", "bytes", "lower"),
    ("storage.cache_hit_ratio", "ratio", "higher"),
    ("storage.self_s", "s", "lower"),
    ("cli.startup_s", "s", "lower"),
    ("cli.main_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.self_sum_s", "s", "lower"),
)


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.op = None
        self._stack: list[int] = []
        self._seen_op = None
        self._seen: set[int] = set()
        self._patched: list[tuple] = []

    def _enter(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _exit(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def _plain(self, name, fn, after=None):
        def traced(*args, **kwargs):
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _primality(self, fn):
        def traced(x):
            if self._seen_op != self.op:
                self._seen_op, self._seen = self.op, set()
            if x in self._seen:
                self.counters["prp_repeats"] += 1
            else:
                self._seen.add(x)
            span = self._enter("arith.prp.small" if x < TWO_64 else "arith.prp.big")
            try:
                return fn(x)
            finally:
                self._exit(span)

        return traced

    def _factor_mersenne(self, fn):
        from mersenne_omega.factoring import FactorStats

        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            stats = bound.arguments.get("stats")
            if stats is None:
                stats = bound.arguments["stats"] = FactorStats()
            before = (stats.rho_iterations, stats.rho_calls, stats.trial_candidates, stats.cache_hits)
            span = self._enter("factoring.factor_mersenne")
            try:
                result = fn(*bound.args, **bound.kwargs)
            finally:
                self._exit(span)
            iterations = stats.rho_iterations - before[0]
            self.counters["rho_iterations"] += iterations
            self.counters["rho_calls"] += stats.rho_calls - before[1]
            self.counters["scan_candidates"] += stats.trial_candidates - before[2]
            if not result.complete:
                self.counters["rho_iterations_partial"] += iterations
            if bound.arguments.get("cache") is not None:
                self.counters["cache_lookups"] += 1
                self.counters["cache_hits"] += stats.cache_hits - before[3]
            return result

        return traced

    def _wrapper(self, home: str, fname: str, fn):
        if fname == "is_probable_prime":
            return self._primality(fn)
        if fname == "factor_mersenne":
            return self._factor_mersenne(fn)
        name = f"{home}.{fname}"
        counters = self.counters
        after = {
            "trial_divide_congruence": lambda args, r: counters.update(scan_hits=len(r)),
            "load_cache": lambda args, r: counters.update(load_entries=len(r)),
            "save_cache": lambda args, r: counters.update(save_entries=len(args[0])),
        }.get(fname)
        return self._plain(name, fn, after)

    def install(self) -> None:
        modules = [importlib.import_module(f"mersenne_omega.{m}") for m in MODULES]
        modules.append(importlib.import_module("mersenne_omega"))
        for home, fname in TRACED:
            original = getattr(importlib.import_module(f"mersenne_omega.{home}"), fname)
            wrapper = self._wrapper(home, fname, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def dump(self, path) -> None:
        doc = {"spans": self.spans, "counters": dict(self.counters)}
        Path(path).write_text(json.dumps(doc), encoding="utf-8")

    def merge(self, path, op) -> float:
        """Append the spans and counters another process dumped, under op.
        Returns the total time of that process's cli.main spans."""
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        base = len(self.spans)
        main_s = 0.0
        for name, start, end, parent, _ in doc["spans"]:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, op])
            if name == "cli.main" and parent < 0:
                main_s += end - start
        self.counters.update(doc["counters"])
        return main_s


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - c for (_, start, end, _, _), c in zip(spans, covered)]


def outermost_total(spans, name: str) -> float:
    """Summed duration of spans called name that have no ancestor of the
    same name, so recursion is not counted twice."""
    total = 0.0
    for span in spans:
        if span[0] != name:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            total += span[2] - span[1]
    return total


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(rec: SpanRecorder, traced_wall: float, untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass, keyed as in PER_LAYER."""
    spans = rec.spans
    c = rec.counters
    selfs = self_times(spans)
    self_by_name: Counter = Counter()
    calls: Counter = Counter()
    for span, s in zip(spans, selfs):
        self_by_name[span[0]] += s
        calls[span[0]] += 1

    def module_self(module: str) -> float:
        return sum(v for k, v in self_by_name.items() if k.startswith(module + "."))

    rho_self = self_by_name["factoring.factor_mersenne"]
    scan_s = outermost_total(spans, "factoring.trial_divide_congruence")
    load_s = outermost_total(spans, "storage.load_cache")
    save_s = outermost_total(spans, "storage.save_cache")
    prp_calls = calls["arith.prp.small"] + calls["arith.prp.big"]
    startup = float(c["cli_startup_s"])
    return {
        "factoring.rho_iterations": c["rho_iterations"],
        "factoring.rho_calls": c["rho_calls"],
        "factoring.rho_self_s": rho_self,
        "factoring.rho_iters_per_s": _ratio(c["rho_iterations"], rho_self),
        "factoring.rho_wasted_ratio": _ratio(c["rho_iterations_partial"], c["rho_iterations"]),
        "factoring.scan_candidates": c["scan_candidates"],
        "factoring.scan_s": scan_s,
        "factoring.scan_candidates_per_s": _ratio(c["scan_candidates"], scan_s),
        "factoring.scan_hit_ratio": _ratio(c["scan_hits"], c["scan_candidates"]),
        "factoring.natural_s": outermost_total(spans, "factoring.factor_natural"),
        "factoring.sieve_build_s": outermost_total(spans, "factoring._sieve_primes"),
        "factoring.self_s": module_self("factoring"),
        "arith.prp_calls.small": calls["arith.prp.small"],
        "arith.prp_calls.big": calls["arith.prp.big"],
        "arith.prp_s.small": self_by_name["arith.prp.small"],
        "arith.prp_s.big": self_by_name["arith.prp.big"],
        "arith.prp_repeat_ratio": _ratio(c["prp_repeats"], prp_calls),
        "arith.perfect_power_calls": calls["arith.is_perfect_power"],
        "arith.perfect_power_s": outermost_total(spans, "arith.is_perfect_power"),
        "arith.lucas_lehmer_s": outermost_total(spans, "arith.lucas_lehmer"),
        "arith.self_s": module_self("arith"),
        "cyclotomic.split_calls": calls["cyclotomic.cyclotomic_split"],
        "cyclotomic.split_s": outermost_total(spans, "cyclotomic.cyclotomic_split"),
        "cyclotomic.primitive_s": outermost_total(spans, "cyclotomic.primitive_prime_divisors"),
        "cyclotomic.self_s": module_self("cyclotomic"),
        "classify.structure_s": outermost_total(spans, "classify.verify_structure"),
        "classify.identities_s": outermost_total(spans, "classify.verify_identities"),
        "classify.self_s": module_self("classify"),
        "census.self_s": module_self("census"),
        "storage.load_s": load_s,
        "storage.load_ms_per_entry": _ratio(1000 * load_s, c["load_entries"]),
        "storage.save_s": save_s,
        "storage.save_ms_per_entry": _ratio(1000 * save_s, c["save_entries"]),
        "storage.import_s": outermost_total(spans, "storage.import_known_factors"),
        "storage.cache_bytes": c["cache_bytes"],
        "storage.cache_hit_ratio": _ratio(c["cache_hits"], c["cache_lookups"]),
        "storage.self_s": module_self("storage"),
        "cli.startup_s": startup,
        "cli.main_s": outermost_total(spans, "cli.main"),
        "cli.self_s": module_self("cli"),
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.self_sum_s": sum(selfs) + startup,
    }
