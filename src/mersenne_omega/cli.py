"""Command-line interface.

Human-readable results go to stdout, diagnostics and statistics to
stderr, so the output is pipeline-friendly.  Exit codes: 0 success,
1 usage error, 2 verification failure, 3 partial/incomplete results,
4 I/O failure.

main is the one command runner: it takes the cache path from --cache or,
failing that, $MERSENNE_OMEGA_CACHE, loads the cache before the command
runs (so a bad cache file is reported before a usage error), lets the
command compute and print, then saves the cache once if the command
changed or added an entry; otherwise the file is left as it was.  A
cached entry whose listed primes fail their check when first read, or
at that save, exits 4.  A failed save exits 4 but leaves the result
already printed on stdout.

Only factoring and storage are imported up front; each command imports
the modules it alone needs (classify, census, cyclotomic) when it runs.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .factoring import Budget, FactorStats, factor_mersenne
from .storage import (
    CacheError,
    FactorCache,
    _unlimited_digits,
    import_known_factors,
    load_cache,
    report_json,
    save_cache,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_PARTIAL = 3
EXIT_IO = 4

CACHE_ENV_VAR = "MERSENNE_OMEGA_CACHE"


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage by default; the contract here is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _exit_code(complete: bool, failed: bool = False) -> int:
    if failed:
        return EXIT_VERIFY
    return EXIT_OK if complete else EXIT_PARTIAL


def _write_text(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_factor(args, cache: FactorCache) -> int:
    budget = None if args.budget_rho is None else Budget(rho_iterations_max=args.budget_rho)
    stats = FactorStats()
    f = factor_mersenne(args.n, budget, cache, stats)
    for p, e in f.factors:
        print(f"{p}^{e}")
    if not f.complete:
        print(f"cofactor {f.cofactor}")
    print(f"status: {f.status}", file=sys.stderr)
    if args.stats:
        for name in FactorStats.__slots__:
            print(f"{name}: {getattr(stats, name)}", file=sys.stderr)
    return _exit_code(f.complete)


def _cmd_omega(args, cache: FactorCache) -> int:
    if args.range is None and args.n is None:
        raise ValueError("give an index or --range A B")
    if args.range is not None and args.n is not None:
        raise ValueError("give either an index or --range, not both")
    lo, hi = (args.n, args.n) if args.n is not None else args.range
    if lo > hi:
        raise ValueError("range must be ascending")
    all_complete = True
    for n in range(lo, hi + 1):
        f = factor_mersenne(n, cache=cache)
        if f.complete:
            print(f"{n} {f.omega}")
        else:
            all_complete = False
            print(f"{n} ≥{f.omega} (partial)")
    return _exit_code(all_complete)


def _cmd_primitive(args, cache: FactorCache) -> int:
    from .cyclotomic import primitive_prime_divisors

    f = factor_mersenne(args.n, cache=cache)
    if f.complete:
        report = primitive_prime_divisors(args.n, f)
        print("primitive_primes:", *report.primitive_primes)
        print(f"primitive_part: {report.primitive_part}")
    else:
        print(f"factorization of 2^{args.n} - 1 incomplete", file=sys.stderr)
    return _exit_code(f.complete)


def _classification_payload(n: int, f) -> dict:
    from .classify import classify_index, verify_structure

    form = classify_index(n)
    report = verify_structure(n, f)
    return {
        "n": n,
        "shape": form.shape.value,
        "min_omega": form.min_omega,
        "eligible_omega": list(form.eligible_omega),
        "omega": report.omega,
        "matched_clause": report.matched_clause.value,
        "decomposition": report.decomposition,
        "consistent": report.consistent,
        "divisor_form_checks": [c._asdict() for c in report.divisor_form_checks],
    }


def _cmd_classify(args, cache: FactorCache) -> int:
    f = factor_mersenne(args.n, cache=cache)
    if f.complete:
        _write_text(report_json(_classification_payload(args.n, f)), args.out)
    else:
        print(f"factorization of 2^{args.n} - 1 incomplete", file=sys.stderr)
    return _exit_code(f.complete)


def _suite_line(s) -> str:
    verdict = "pass" if s.ok else "FAIL"
    line = f"{s.name}: {verdict} ({s.passed} passed, {s.failed} failed"
    if s.inconclusive:
        line += f", {s.inconclusive} inconclusive"
    line += ")"
    if s.first_failure:
        line += f" first failure: {s.first_failure}"
    return line


def _cmd_verify(args, cache: FactorCache) -> int:
    from .classify import verify_identities, verify_structures_in_range

    identity = verify_identities(args.max, cache=cache)
    structure = verify_structures_in_range(args.max, cache=cache)
    suites = list(identity.suites) + [structure]
    for s in suites:
        print(_suite_line(s))
    if args.out:
        payload = {"max_n": args.max, "suites": [s._asdict() for s in suites]}
        Path(args.out).write_text(report_json(payload), encoding="utf-8")
    return _exit_code(
        not any(s.inconclusive for s in suites), failed=any(s.failed for s in suites)
    )


def _cmd_census(args, cache: FactorCache) -> int:
    from .census import CensusConfig, census_csv, run_census

    config = CensusConfig(n_min=args.min, n_max=args.max, epsilon=args.epsilon)
    records, summary = run_census(config, cache)
    _write_text(census_csv(records), args.out)
    summary_stream = sys.stdout if args.out else sys.stderr
    w = summary.uncorrected_bound_witnesses
    print(
        f"records: {summary.records_total} "
        f"(complete {summary.complete_count}, incomplete {summary.incomplete_count})",
        file=summary_stream,
    )
    print(f"lemma6_lower_fraction: {summary.lemma6_fraction}", file=summary_stream)
    print(f"lemma6_upper_fraction: {summary.lemma6_upper_fraction}", file=summary_stream)
    print(f"final_inequality_fraction: {summary.final_fraction}", file=summary_stream)
    print(
        f"deterministic_bound_violations: {len(summary.deterministic_violations)}",
        file=summary_stream,
    )
    print("uncorrected_bound_witnesses:", *w, file=summary_stream)
    print(f"note: {summary.asymptotic_note}", file=summary_stream)
    return _exit_code(
        not summary.incomplete_count, failed=bool(summary.deterministic_violations)
    )


def _cmd_import(args, cache: FactorCache) -> int:
    if not args.cache:
        raise ValueError(f"--cache (or {CACHE_ENV_VAR}) is required for import")
    summary = import_known_factors(args.file, cache)
    print(f"accepted: {summary.accepted}")
    print(f"rejected: {summary.rejected_count}")
    for line_no, reason in summary.rejected:
        print(f"line {line_no}: {reason}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="mersenne-omega", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--cache",
            default=os.environ.get(CACHE_ENV_VAR) or None,
            help=f"cache file path (default: ${CACHE_ENV_VAR})",
        )

    p = sub.add_parser("factor", help="factor 2^n - 1")
    p.add_argument("n", type=int)
    p.add_argument("--budget-rho", type=int, help="total budget of rho iterations plus p-1 and ECM work units")
    p.add_argument("--stats", action="store_true", help="work counters to stderr")
    common(p)
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("omega", help="distinct prime factor counts of 2^n - 1")
    p.add_argument("n", type=int, nargs="?")
    p.add_argument("--range", type=int, nargs=2, metavar=("A", "B"))
    common(p)
    p.set_defaults(func=_cmd_omega)

    p = sub.add_parser("primitive", help="primitive prime divisors of 2^n - 1")
    p.add_argument("n", type=int)
    common(p)
    p.set_defaults(func=_cmd_primitive)

    p = sub.add_parser("classify", help="classification report for an index")
    p.add_argument("n", type=int)
    p.add_argument("--out", help="write JSON here instead of stdout")
    common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("verify", help="run the identity and structure suites")
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--out", help="write the suite report JSON here")
    common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("census", help="per-index census over a range")
    p.add_argument("--min", type=int, required=True)
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--out", help="write the CSV here instead of stdout")
    common(p)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("import", help="merge a known-factor table into a cache")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=_cmd_import)

    return parser


def main(argv=None) -> int:
    # The command prints cofactors that can pass CPython's limit on
    # int <-> str conversion, so the limit is lifted while it runs.
    with _unlimited_digits():
        args = build_parser().parse_args(argv)
        path = args.cache
        try:
            cache = load_cache(path) if path and Path(path).exists() else FactorCache()
            code = args.func(args, cache)
            if path and cache.changed:
                save_cache(cache, path)
            return code
        except CacheError as exc:
            print(f"cache error: {exc}", file=sys.stderr)
            return EXIT_IO
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return EXIT_IO
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
