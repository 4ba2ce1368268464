"""Range sweeps over indices n: the two-sided divisor-count band
2^((1 +- eps) * ln ln n), per-index records of how the observed factor
count of 2^n - 1 compares with every lower bound, and their CSV form.
The arithmetic functions of n and the floors come from classify.

Logarithms are natural throughout.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .classify import _floors, index_functions
from .factoring import Budget, FactorStats, factor_mersenne

__all__ = [
    "CensusConfig",
    "CensusRecord",
    "CensusSummary",
    "ASYMPTOTIC_NOTE",
    "hw_bounds",
    "run_census",
    "census_csv",
]

# Printed with every summary: the almost-all density statement behind the
# final inequality is not testable on desk-scale ranges (the right-hand
# side is below zero there), so acceptance rests on the deterministic
# bounds instead.
ASYMPTOTIC_NOTE = (
    "almost-all density claim untested at this scale; "
    "deterministic lower bounds are asserted instead"
)


def hw_bounds(n: int, epsilon: float) -> tuple[float, float]:
    """Both edges 2^((1 -+ eps) * ln ln n) of the divisor-count band."""
    if n < 3:
        raise ValueError("n must be >= 3 (ln ln n must be positive)")
    loglog = math.log(math.log(n))
    return 2.0 ** ((1.0 - epsilon) * loglog), 2.0 ** ((1.0 + epsilon) * loglog)


class _CensusConfigFields(NamedTuple):
    n_min: int
    n_max: int
    epsilon: float = 0.5
    budget: Budget | None = None


class CensusConfig(_CensusConfigFields):
    """The index range, the band's epsilon and the factoring budget of a
    census; a NamedTuple with checked arguments, as factoring.Budget is."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 2 <= self.n_min <= self.n_max:
            raise ValueError("need 2 <= n_min <= n_max")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        return self


class CensusRecord(NamedTuple):
    """Per-index row.  omega_M and the fields derived from it are None
    when the factorization is partial; the band fields are None for
    n < 3, where ln ln n has the wrong sign."""

    n: int
    d_n: int
    omega_n: int
    bigomega_n: int
    omega_M: int | None
    bound_prop2: int
    bound_divisors: int
    hw_value: float | None
    lemma6_holds: bool | None
    final_inequality_holds: bool | None
    complete: bool


class CensusSummary(NamedTuple):
    n_min: int
    n_max: int
    epsilon: float
    records_total: int
    complete_count: int
    incomplete_count: int
    lemma6_fraction: float | None
    lemma6_upper_fraction: float | None
    final_fraction: float | None
    deterministic_violations: tuple[int, ...]
    uncorrected_bound_witnesses: tuple[int, ...]
    asymptotic_note: str = ASYMPTOTIC_NOTE


def run_census(config: CensusConfig, cache=None, stats: FactorStats | None = None):
    """Sweep [n_min, n_max] and return (records, summary), ordered by n.

    The summary reports the fraction of indices inside the divisor-count
    band (both sides), the fraction satisfying the final inequality
    omega(M_n) > hw - 3 among complete records, any violations of the
    deterministic bounds (there must be none), and the witnesses where
    the uncorrected floor Omega(n) + 1 exceeds the observed omega(M_n)
    (always prime-power indices).
    """
    records = []
    violations = []
    witnesses = []
    lemma6_true = lemma6_total = 0
    lemma6_upper_true = 0
    final_true = final_total = 0
    for n in range(config.n_min, config.n_max + 1):
        d_n, omega_n, bigomega_n = index_functions(n)
        bound_p2, bound_div = _floors(n, d_n, omega_n, bigomega_n)
        f = factor_mersenne(n, config.budget, cache, stats)
        omega_m = f.omega if f.complete else None

        hw = hw_upper = lemma6 = final = None
        if n >= 3:
            hw, hw_upper = hw_bounds(n, config.epsilon)
            lemma6 = d_n > hw
            lemma6_total += 1
            lemma6_true += lemma6
            lemma6_upper_true += d_n < hw_upper
            if omega_m is not None:
                final = omega_m > hw - 3.0
                final_total += 1
                final_true += final

        if omega_m is not None:
            if omega_m < bound_p2 or omega_m < bound_div:
                violations.append(n)
            if n not in (2, 6) and bigomega_n + 1 > omega_m:
                witnesses.append(n)

        records.append(
            CensusRecord(
                n=n,
                d_n=d_n,
                omega_n=omega_n,
                bigomega_n=bigomega_n,
                omega_M=omega_m,
                bound_prop2=bound_p2,
                bound_divisors=bound_div,
                hw_value=hw,
                lemma6_holds=lemma6,
                final_inequality_holds=final,
                complete=f.complete,
            )
        )

    complete_count = sum(r.complete for r in records)
    summary = CensusSummary(
        n_min=config.n_min,
        n_max=config.n_max,
        epsilon=config.epsilon,
        records_total=len(records),
        complete_count=complete_count,
        incomplete_count=len(records) - complete_count,
        lemma6_fraction=lemma6_true / lemma6_total if lemma6_total else None,
        lemma6_upper_fraction=lemma6_upper_true / lemma6_total if lemma6_total else None,
        final_fraction=final_true / final_total if final_total else None,
        deterministic_violations=tuple(violations),
        uncorrected_bound_witnesses=tuple(witnesses),
    )
    return records, summary


# One column per CensusRecord field, in field order; final_inequality_holds
# is written as final_holds.
_CSV_HEADER = (
    "n,d_n,omega_n,bigomega_n,omega_M,bound_prop2,bound_divisors,"
    "hw_value,lemma6_holds,final_holds,complete"
)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def census_csv(records) -> str:
    """Census records as CSV with the fixed column set, newline-terminated."""
    lines = [_CSV_HEADER]
    for r in records:
        lines.append(",".join(_cell(getattr(r, name)) for name in CensusRecord._fields))
    return "\n".join(lines) + "\n"
