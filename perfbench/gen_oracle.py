"""Regenerate oracle/expected.json, the benchmark's table of expected results.

    python3 perfbench/gen_oracle.py

Takes several minutes and needs sympy; nothing on the timed path imports
sympy.  For every index a workload can touch, the table holds the known
prime powers of M_n = 2^n - 1 and whether they are the whole
factorization:

- sweep indices: sympy factors each cyclotomic part Phi_d(2) completely;
  the program's result at the workload budget must agree with it.
- bigprime indices: the primes the program finds at the workload budget,
  together with every prime below the trial bound that divides M_n,
  found here independently; sympy proves each one prime.  The
  Lucas-Lehmer verdict must match sympy's list of Mersenne primes.
- cli_warm: the digest of the set-up cache file and of the stdout of
  every query the workload can draw, each checked first against the
  factor table above.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from sympy import cyclotomic_poly, divisors, factorint, isprime, n_order, primerange  # noqa: E402
from sympy.ntheory.primetest import is_mersenne_prime  # noqa: E402

import workloads  # noqa: E402
from mersenne_omega import arith, factoring  # noqa: E402
from oracle import TABLE, Oracle  # noqa: E402


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def valuation(x: int, p: int) -> int:
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


def sympy_factorization(n: int) -> Counter:
    found: Counter = Counter()
    for d in divisors(n):
        if d > 1:
            found.update(factorint(int(cyclotomic_poly(d, 2))))
    return found


def sweep_entry(n: int) -> dict:
    m = (1 << n) - 1
    truth = sympy_factorization(n)
    product = 1
    for p, e in truth.items():
        assert isprime(p), (n, p)
        product *= p**e
    assert product == m, n
    f = factoring.factor_mersenne(n, factoring.Budget(rho_iterations_max=workloads.SWEEP_RHO))
    assert f.product() == m and all(truth[p] == e for p, e in f.factors), n
    assert not f.complete or dict(f.factors) == dict(truth), n
    return {
        "primes": sorted([p, e] for p, e in truth.items()),
        "complete": True,
        "status": f.status,
        "primitive": sorted(p for p in truth if n_order(2, p) == n),
    }


def small_divisors(n: int, bound: int) -> list[int]:
    """Primes below bound that divide M_n, found without the program."""
    if isprime(n):
        candidates = range(2 * n + 1, bound, 2 * n)
    else:
        candidates = primerange(3, bound)
    return [q for q in candidates if pow(2, n, q) == 1 and isprime(q)]


def bigprime_entry(n: int) -> dict:
    m = (1 << n) - 1
    f = factoring.factor_mersenne(n, factoring.Budget(rho_iterations_max=workloads.BIGPRIME_RHO))
    assert f.product() == m, n
    known = dict(f.factors)
    for q in small_divisors(n, factoring.DEFAULT_BUDGET.trial_division_bound):
        known.setdefault(q, valuation(m, q))
    product = 1
    for p, e in known.items():
        prime = is_mersenne_prime(m) if p == m else isprime(p)
        assert prime and valuation(m, p) == e, (n, p)
        product *= p**e
    entry = {
        "primes": sorted([p, e] for p, e in known.items()),
        "complete": product == m,
        "status": f.status,
    }
    if isprime(n):
        entry["mersenne_prime"] = arith.lucas_lehmer(n)
        assert entry["mersenne_prime"] == is_mersenne_prime(m), n
    return entry


def cli_records(oracle: Oracle) -> dict:
    cli = workloads.CliWarm(HERE.parent, oracle)
    cli.setup()
    stdout = {}
    for queries in workloads.query_space().values():
        for query in queries:
            cli.begin_pass()
            code, out = cli.run(query)
            key = " ".join(query)
            assert code == 0, key
            error = cli.check_semantics(query, out.decode("utf-8"))
            assert error is None, error
            assert not cli.end_pass(), key
            stdout[key] = workloads.digest(out)
        log(f"cli: {len(stdout)} queries recorded")
    return {"cache_sha256": workloads.digest(cli.setup_bytes), "stdout_sha256": stdout}


def write(doc: dict) -> None:
    lines = ["{", ' "indices": {']
    items = sorted(doc["indices"].items(), key=lambda kv: int(kv[0]))
    lines += [f"  {json.dumps(k)}: {json.dumps(v)}," for k, v in items]
    lines[-1] = lines[-1].rstrip(",")
    lines.append(" },")
    lines.append(f' "cli": {json.dumps(doc.get("cli", {}), indent=1, sort_keys=True)}')
    lines.append("}")
    TABLE.parent.mkdir(exist_ok=True)
    TABLE.write_text("\n".join(lines) + "\n", encoding="utf-8")


def main() -> int:
    indices: dict[str, dict] = {}
    for n in workloads.SWEEP_INDICES:
        indices[str(n)] = sweep_entry(n)
    log(f"sweep: {len(workloads.SWEEP_INDICES)} indices")
    lo, hi = workloads.BIGPRIME_RANGE
    bigprime = sorted(set(workloads.BIGPRIME_FIXED) | {p for p in range(lo, hi) if isprime(p)})
    for i, n in enumerate(bigprime):
        indices[str(n)] = bigprime_entry(n)
        if i % 50 == 0:
            log(f"bigprime: {i}/{len(bigprime)}")
    doc = {"indices": indices}
    doc["cli"] = cli_records(Oracle(doc))
    write(doc)
    log(f"wrote {TABLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
