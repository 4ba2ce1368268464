"""The three benchmark workloads.

Each workload is a closed loop with one client: an op starts only when
the previous one has returned.  ops(seed) makes the inputs of one pass,
run(op) performs one op and check(op, out) says why its output is wrong
(None when it is right).  Calls go through module attributes, so the
wrappers spans.SpanRecorder installs see them.

- sweep: factor_mersenne on every n in 2..160 with no cache, then
  verify_structure and primitive_prime_divisors on complete results.
  The seed only permutes the order.  Rho-bound.
- bigprime: factor_mersenne with a 1000-iteration rho budget and
  lucas_lehmer on kilobit Mersenne numbers.  Bound by primality tests.
  The seed only permutes the order, as on sweep.
- cli_warm: sequential CLI processes against a cache that already holds
  every index queried.  Bound by interpreter start-up, the trial sieve
  and cache load/save.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

from mersenne_omega import arith, classify, cyclotomic, factoring, storage

from oracle import Oracle

HERE = Path(__file__).resolve().parent

SWEEP_INDICES = tuple(range(2, 161))
SWEEP_RHO = 1 << 22

BIGPRIME_RHO = 1000
BIGPRIME_RANGE = (1000, 3300)
# Always run: the Mersenne-prime exponents in range, and composite n
# whose cyclotomic parts leave kilobit cofactors.
BIGPRIME_FIXED = (1279, 2203, 2281, 3217, 1050, 2310, 3000)
# Exponents taken from the pool by spaced().
BIGPRIME_STRATA = 37

CLI_INDICES = tuple(range(2, 121))
CLI_WINDOW = 20
CLI_IMPORT_BLOCK = 10
# Queries per pass, by subcommand.  classify, primitive, census and verify
# build the trial sieve, the others do not; with 40 of the 60 in the
# first group, the median and the p75 both sit inside it rather than in
# the gap between the two groups.
CLI_MIX = (
    ("classify", 12),
    ("primitive", 10),
    ("census", 10),
    ("verify", 8),
    ("factor", 8),
    ("omega", 6),
    ("import", 6),
)


def stratified(rng: random.Random, items: list, count: int) -> list:
    """One item from each of count equal slices of items, so every seed
    covers the whole list and the draw costs about the same."""
    n = len(items)
    return [rng.choice(items[i * n // count : (i + 1) * n // count]) for i in range(count)]


def spaced(items: list, count: int) -> list:
    """The middle item of each of count equal slices of items.  Costs of
    neighbouring exponents differ by up to 2x, so a seeded draw would
    make one seed's tail percentile differ from the next one's."""
    n = len(items)
    return [items[((2 * i + 1) * n) // (2 * count)] for i in range(count)]


def is_small_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


def bigprime_inputs(oracle: Oracle) -> tuple[list[int], list[int]]:
    """(always, pool): the exponents run every pass, and the other primes
    in BIGPRIME_RANGE, which spaced() picks from.  Primes whose M_p ends
    complete under the workload budget are few, and always run."""
    lo, hi = BIGPRIME_RANGE
    primes = [p for p in range(lo, hi) if is_small_prime(p) and p not in BIGPRIME_FIXED]
    always = list(BIGPRIME_FIXED) + [p for p in primes if oracle.status[p] == "complete"]
    return always, [p for p in primes if oracle.status[p] == "partial"]


class Sweep:
    name = "sweep"
    rho = SWEEP_RHO

    def __init__(self, root: Path, oracle: Oracle):
        self.oracle = oracle
        self.budget = factoring.Budget(rho_iterations_max=self.rho)

    def setup(self) -> None:
        # Builds the 2M-prime trial sieve once, as a long-lived user process would.
        factoring.factor_natural(6)

    def ops(self, seed: int) -> list[int]:
        order = list(SWEEP_INDICES)
        random.Random(seed).shuffle(order)
        return order

    def run(self, n: int, recorder=None):
        f = factoring.factor_mersenne(n, self.budget)
        if not f.complete:
            return f, None, None
        return f, classify.verify_structure(n, f), cyclotomic.primitive_prime_divisors(n, f)

    def complete(self, out) -> bool:
        return out[0].complete

    def check(self, n: int, out) -> str | None:
        f, report, primitive = out
        error = self.oracle.check_factorization(n, f.factors, f.cofactor)
        if error or not f.complete:
            return error
        if not report.consistent:
            return f"M_{n}: verify_structure reports an inconsistent factorization"
        if primitive.primitive_primes != self.oracle.primitive[n]:
            return f"M_{n}: primitive primes {primitive.primitive_primes} differ from the table"
        return None

    def setup_errors(self) -> list[str]:
        return []

    def begin_pass(self) -> None:
        pass

    def end_pass(self) -> list[str]:
        return []

    def cache_bytes(self) -> int:
        return 0


class BigPrime(Sweep):
    name = "bigprime"
    rho = BIGPRIME_RHO

    def ops(self, seed: int) -> list[int]:
        always, pool = bigprime_inputs(self.oracle)
        order = always + spaced(pool, BIGPRIME_STRATA)
        random.Random(seed).shuffle(order)
        return order

    def run(self, n: int, recorder=None):
        f = factoring.factor_mersenne(n, self.budget)
        ll = arith.lucas_lehmer(n) if n in self.oracle.mersenne_prime else None
        return f, ll

    def check(self, n: int, out) -> str | None:
        f, ll = out
        error = self.oracle.check_factorization(n, f.factors, f.cofactor)
        if error:
            return error
        if ll != self.oracle.mersenne_prime.get(n):
            return f"lucas_lehmer({n}) = {ll}, table says {self.oracle.mersenne_prime.get(n)}"
        return None


def query_space() -> dict[str, list[tuple[str, ...]]]:
    """Every query cli_warm can draw, by subcommand.  "@blockNN" stands for
    the path of the NN-th import file."""
    indices = [str(n) for n in CLI_INDICES]
    # For prime n, classify and primitive never need the sieve.
    composite = [str(n) for n in CLI_INDICES if not is_small_prime(n)]
    starts = range(CLI_INDICES[0], CLI_INDICES[-1] - CLI_WINDOW + 2)
    blocks = len(range(0, len(CLI_INDICES), CLI_IMPORT_BLOCK))
    return {
        "classify": [("classify", n) for n in composite],
        "factor": [("factor", n, "--stats") for n in indices],
        "primitive": [("primitive", n) for n in composite],
        "omega": [("omega", "--range", str(a), str(a + CLI_WINDOW - 1)) for a in starts],
        "census": [("census", "--min", str(a), "--max", str(a + CLI_WINDOW - 1)) for a in starts],
        "verify": [("verify", "--max", str(m)) for m in range(20, CLI_INDICES[-1] + 1, 5)],
        "import": [("import", f"@block{b:02d}") for b in range(blocks)],
    }


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class CliWarm:
    name = "cli_warm"

    def __init__(self, root: Path, oracle: Oracle):
        self.root = root
        self.oracle = oracle
        self.dir = root / ".perfbench_out" / "cli_warm"
        self.setup_cache = self.dir / "setup_cache.json"
        self.cache = self.dir / "cache.json"
        self.env = {k: v for k, v in os.environ.items() if k != "MERSENNE_OMEGA_CACHE"}
        self.env["PYTHONPATH"] = str(root / "src")
        self.setup_bytes = b""

    def _block_lines(self, block: int) -> list[str]:
        start = block * CLI_IMPORT_BLOCK
        return [
            f"{n} {p}\n"
            for n in CLI_INDICES[start : start + CLI_IMPORT_BLOCK]
            for p in sorted(self.oracle.primes[n])
        ]

    def setup(self) -> None:
        """Write the import files and build the cache from the oracle table
        with import_known_factors, so set-up does no factoring."""
        self.dir.mkdir(parents=True, exist_ok=True)
        lines = []
        for b in range(len(query_space()["import"])):
            block = self._block_lines(b)
            (self.dir / f"import_{b:02d}.txt").write_text("".join(block), encoding="utf-8")
            lines += block
        known = self.dir / "known_factors.txt"
        known.write_text("".join(lines), encoding="utf-8")
        cache = storage.FactorCache()
        storage.import_known_factors(known, cache)
        storage.save_cache(cache, self.setup_cache)
        self.setup_bytes = self.setup_cache.read_bytes()

    def setup_errors(self) -> list[str]:
        expected = self.oracle.cli.get("cache_sha256")
        if digest(self.setup_bytes) != expected:
            return ["set-up cache file differs from the recorded bytes"]
        return []

    def ops(self, seed: int) -> list[tuple[str, ...]]:
        rng = random.Random(seed)
        space = query_space()
        order = [q for kind, count in CLI_MIX for q in stratified(rng, space[kind], count)]
        rng.shuffle(order)
        return order

    def argv(self, query: tuple[str, ...]) -> list[str]:
        args = [
            str(self.dir / f"import_{t[6:]}.txt") if t.startswith("@block") else t for t in query
        ]
        return args + ["--cache", str(self.cache)]

    def run(self, query, recorder=None):
        if recorder is None:
            cmd = [sys.executable, "-m", "mersenne_omega.cli", *self.argv(query)]
        else:
            spans_file = self.dir / "child_spans.json"
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(spans_file), *self.argv(query)]
        start = time.perf_counter()
        proc = subprocess.run(
            cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        wall = time.perf_counter() - start
        if recorder is not None:
            main_s = recorder.merge(spans_file, recorder.op)
            spans_file.unlink()
            recorder.counters["cli_startup_s"] += wall - main_s
        return proc.returncode, proc.stdout

    def complete(self, out) -> bool:
        return out[0] == 0

    def check(self, query, out) -> str | None:
        code, stdout = out
        key = " ".join(query)
        if code != 0:
            return f"{key}: exit code {code}"
        if digest(stdout) != self.oracle.cli["stdout_sha256"].get(key):
            return f"{key}: stdout differs from the recorded bytes"
        return self.check_semantics(query, stdout.decode("utf-8"))

    def check_semantics(self, query, text: str) -> str | None:
        """Compare what the query printed with the oracle table."""
        kind, key = query[0], " ".join(query)
        lines = text.splitlines()
        if kind == "factor":
            n = int(query[1])
            factors = [tuple(map(int, line.split("^"))) for line in lines]
            return self.oracle.check_factorization(n, factors, 1)
        if kind == "primitive":
            n = int(query[1])
            got = tuple(int(p) for p in lines[0].split()[1:])
            ok = got == self.oracle.primitive[n]
        elif kind == "omega":
            lo, hi = int(query[2]), int(query[3])
            expected = [f"{n} {self.oracle.omega(n)}" for n in range(lo, hi + 1)]
            ok = lines == expected
        elif kind == "classify":
            n = int(query[1])
            payload = json.loads(text)
            ok = payload["n"] == n and payload["omega"] == self.oracle.omega(n) and payload["consistent"]
        elif kind == "census":
            rows = [line.split(",") for line in lines[1:]]
            lo, hi = int(query[2]), int(query[4])
            ok = [int(r[0]) for r in rows] == list(range(lo, hi + 1)) and all(
                int(r[4]) == self.oracle.omega(int(r[0])) and r[10] == "true" for r in rows
            )
        elif kind == "verify":
            ok = len(lines) == 5 and all(": pass (" in line for line in lines)
        else:
            block = len(self._block_lines(int(query[1][6:])))
            ok = lines == [f"accepted: {block}", "rejected: 0"]
        return None if ok else f"{key}: output disagrees with the oracle table"

    def begin_pass(self) -> None:
        # Each pass starts from the set-up cache, so one pass's merges and
        # imports cannot change the next pass's inputs.
        shutil.copyfile(self.setup_cache, self.cache)

    def end_pass(self) -> list[str]:
        if self.cache.read_bytes() != self.setup_bytes:
            return ["cache file bytes changed during the pass"]
        return []

    def cache_bytes(self) -> int:
        return self.cache.stat().st_size


WORKLOADS = {w.name: w for w in (Sweep, BigPrime, CliWarm)}
