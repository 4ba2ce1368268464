"""Digests of what factor_mersenne finds and counts, to compare two commits.

Run as ``python tools/digests.py`` from a checkout.  It factors three
fixed sets of indices, each n with no cache and a fresh FactorStats, and
prints two digests for each set, the SHA-256 of the lines

    results:  repr((n, factors, cofactor))
    counters: repr((n, rho_iterations, rho_calls, trial_candidates, cache_hits))

in ascending n, joined by newlines.  Two checkouts that print the same
results digest for a set gave byte-identical factors and cofactors on
every index in it, whatever work they counted on the way; equal counters
digests say the work was the same too.  The sets:

- sweep: n = 2..160 at a rho budget of 2^22, the sweep workload's inputs;
- small: n = 2..400 at 2^14, where no piece reaches p-1 or ECM;
- bigprime: the 45 bigprime workload indices at 1000, taken from
  perfbench/workloads.py (imported, never changed).
"""

from __future__ import annotations

import hashlib
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from mersenne_omega.factoring import Budget, FactorStats, factor_mersenne  # noqa: E402


def bigprime_indices() -> list[int]:
    """The indices one bigprime pass runs, ascending."""
    import workloads
    from oracle import Oracle

    always, pool = workloads.bigprime_inputs(Oracle.load())
    return sorted(always + workloads.spaced(pool, workloads.BIGPRIME_STRATA))


def sha256(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def digests(indices, rho: int) -> tuple[str, str]:
    """(results digest, counters digest) of one set."""
    budget, results, counters = Budget(rho_iterations_max=rho), [], []
    for n in sorted(indices):
        stats = FactorStats()
        f = factor_mersenne(n, budget, stats=stats)
        results.append(repr((n, f.factors, f.cofactor)))
        counters.append(repr((n, *(getattr(stats, name) for name in FactorStats.__slots__))))
    return sha256(results), sha256(counters)


def main() -> None:
    sets = (
        ("sweep", range(2, 161), 1 << 22),
        ("small", range(2, 401), 1 << 14),
        ("bigprime", bigprime_indices(), 1000),
    )
    for name, indices, rho in sets:
        start = time.perf_counter()
        results, counters = digests(indices, rho)
        elapsed = time.perf_counter() - start
        print(f"{name:8} {len(indices):3} indices at rho {rho}: results {results} counters {counters}  ({elapsed:.1f} s)")


if __name__ == "__main__":
    main()
