"""Digests of what factor_mersenne finds and counts, to compare two commits.

Run as ``python tools/digests.py`` from a checkout.  It factors three
fixed sets of indices, each n with no cache and a fresh FactorStats, and
prints for each set the SHA-256 of the lines

    repr((n, factors, cofactor, rho_iterations, rho_calls, trial_candidates, cache_hits))

in ascending n, joined by newlines.  Two checkouts that print the same
digest for a set gave byte-identical factors, cofactors and work counters
on every index in it.  The sets:

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


def digest(indices, rho: int) -> str:
    budget, lines = Budget(rho_iterations_max=rho), []
    for n in sorted(indices):
        stats = FactorStats()
        f = factor_mersenne(n, budget, stats=stats)
        counters = tuple(getattr(stats, name) for name in FactorStats.__slots__)
        lines.append(repr((n, f.factors, f.cofactor, *counters)))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def main() -> None:
    sets = (
        ("sweep", range(2, 161), 1 << 22),
        ("small", range(2, 401), 1 << 14),
        ("bigprime", bigprime_indices(), 1000),
    )
    for name, indices, rho in sets:
        start = time.perf_counter()
        value = digest(indices, rho)
        print(f"{name:8} {len(indices):3} indices at rho {rho}: {value}  ({time.perf_counter() - start:.1f} s)")


if __name__ == "__main__":
    main()
