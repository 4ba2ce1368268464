"""Persistent factor cache, known-factor ingestion, and JSON report text.

Cache file format (single JSON document, UTF-8, trailing newline):

    {"version": 1,
     "entries": [{"n": 29,
                  "factors": [["233", 1], ["1103", 1], ["2089", 1]],
                  "cofactor": "...",          # present only when partial
                  "status": "complete"}]}

Primes and cofactors are decimal strings so arbitrary precision survives
any JSON parser; entries are sorted by n and keys have a fixed order, so
serialization is canonical.  load_cache and save_cache lift CPython's
limit on int <-> str conversion while they convert, so a cofactor of any
size round-trips.  The file is never trusted.  Loading checks
every entry's shape: dividing 2^n - 1 by each listed prime as often as
its exponent says must leave the cofactor, and the status must match it.
The costlier test, that the listed primes are prime, is made when an
entry is first read (see FactorCache), so an untested prime is never
returned, compared or written.  Saving renames a finished temporary file over the old one, so a crash
mid-write leaves the old file intact.

Known-factor import format: text lines "n factor" in decimal, '#' lines
are comments, blank lines are ignored.

report_json writes any JSON payload as text; the census CSV is written
by census.census_csv, beside the record it reads.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import threading
from pathlib import Path
from typing import NamedTuple

from .arith import _prime_like, mersenne
from .factoring import Factorization

__all__ = [
    "CACHE_VERSION",
    "CacheError",
    "FactorCache",
    "load_cache",
    "save_cache",
    "ImportSummary",
    "import_known_factors",
    "report_json",
]

CACHE_VERSION = 1


class CacheError(Exception):
    """Cache file failed to parse or verify."""


class FactorCache:
    """In-memory map from index n to the known factorization of 2^n - 1.

    add_primes calls are serialized and union factor knowledge per entry:
    exponents are recomputed against 2^n - 1, so a repeated call is
    idempotent and known primes are never lost.  changed turns true when
    an add_primes call adds an entry or alters one.

    Entries loaded from a file are unread until their listed primes have
    been tested: get tests an entry before it first returns it, and
    equality and save_cache test every entry not yet read.  Each distinct
    prime is tested once per cache.  A read of an entry already tested
    takes no lock.
    """

    def __init__(self) -> None:
        self._entries: dict[int, Factorization] = {}
        # Loaded entries whose listed primes are not yet tested, the primes
        # tested so far, on a read or an import (3 is listed under every
        # even n), and the file they came from, which errors name.
        self._unread: set[int] = set()
        self._tested: set[int] = set()
        self._source = ""
        self.changed = False
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FactorCache):
            return NotImplemented
        self._read_all()
        other._read_all()
        return self._entries == other._entries

    def get(self, n: int) -> Factorization | None:
        """The entry for n, or None.  Raises CacheError when the entry was
        loaded with a listed prime that is composite."""
        if n in self._unread:
            with self._lock:
                self._verify((n,))
        return self._entries.get(n)

    def _read_all(self) -> None:
        """Test every entry not yet read; raises CacheError as get does."""
        if self._unread:
            with self._lock:
                self._verify(self._unread)

    def _prime(self, p: int) -> bool:
        """_prime_like(p), tested at most once per cache when p is prime.
        It needs no lock: two threads racing on one p only test it twice."""
        if p in self._tested:
            return True
        if not _prime_like(p):
            return False
        self._tested.add(p)
        return True

    def _verify(self, indices) -> None:
        """Test the listed primes of the unread entries among indices, which
        are read from then on.  An entry that lists a composite stays
        unread, and CacheError names every such n.  The lock is held."""
        problems = []
        for n in sorted(self._unread.intersection(indices)):
            for p in self._entries[n].primes():
                if not self._prime(p):
                    problems.append(f"n={n}: listed factor {p} is composite")
                    break
            else:
                self._unread.discard(n)
        if problems:
            raise CacheError(f"{self._source}: rejected entries: " + "; ".join(problems))

    def indices(self) -> list[int]:
        return sorted(self._entries)

    def add_primes(self, n: int, primes, composite: int = 1) -> Factorization:
        """Fold newly learned prime divisors of 2^n - 1 into the entry.

        A prime whose cofactor turns out prime itself completes the
        entry.  Claimed primes below 2 or that do not divide 2^n - 1 are
        dropped.  composite is a value the caller knows is composite, so
        a cofactor equal to it is not tested again.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        with self._lock:
            self._verify((n,))
            target = mersenne(n)
            existing = self._entries.get(n)
            known = set(existing.primes()) if existing is not None else set()
            known.update(p for p in primes if p >= 2)
            factors = []
            cofactor = target
            for p in sorted(known):
                e = 0
                while cofactor % p == 0:
                    cofactor //= p
                    e += 1
                if e:
                    factors.append((p, e))
            if cofactor > 1 and cofactor != composite and _prime_like(cofactor):
                factors.append((cofactor, 1))
                factors.sort()
                cofactor = 1
            entry = Factorization(target, tuple(factors), cofactor)
            if entry != existing:
                self._entries[n] = entry
                self.changed = True
            return entry


@contextlib.contextmanager
def _unlimited_digits():
    """Lift CPython's limit on int <-> str conversion inside the block and
    restore it afterwards.  A cofactor of 2^n - 1 past about 14,280 bits
    has more than 4300 decimal digits, the default limit (there is none
    before 3.10.7)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _verify_entry(n: int, factors, cofactor: int, status: str) -> Factorization:
    entry = Factorization(mersenne(n), factors, cofactor)
    if not entry.reconstructs():
        raise ValueError("factor product does not reconstruct 2^n - 1")
    if entry.status != status:
        raise ValueError(f"status {status!r} disagrees with cofactor")
    return entry


def load_cache(path) -> FactorCache:
    """Parse a cache file and check the shape of every entry.  Raises
    CacheError on parse failure, on a malformed document, or when any
    entry fails the check (all offending n are listed).  An entry must be
    as save_cache writes it: an int n, int exponents, decimal strings for
    the primes and the cofactor, and the only entry for its n.  The listed
    primes are tested when each entry is first read (see FactorCache)."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CacheError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("version") != CACHE_VERSION:
        raise CacheError(f"{path}: missing or unsupported cache version")
    entries = doc.get("entries", [])
    if not isinstance(entries, list) or not all(isinstance(raw, dict) for raw in entries):
        raise CacheError(f"{path}: entries must be a list of objects")
    cache = FactorCache()
    problems = []
    with _unlimited_digits():
        for raw in entries:
            try:
                n, pairs, cofactor = raw["n"], raw["factors"], raw.get("cofactor", "1")
                if type(n) is not int or any(type(e) is not int for _, e in pairs):
                    raise TypeError("n and the exponents must be integers")
                digits = [cofactor, *(p for p, _ in pairs)]
                if not all(type(s) is str and s.isascii() and s.isdigit() for s in digits):
                    raise TypeError("the primes and the cofactor must be decimal strings")
                if n in cache._entries:
                    raise ValueError("a second entry for this n")
                entry = _verify_entry(n, tuple((int(p), e) for p, e in pairs), int(cofactor), raw["status"])
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                problems.append(f"n={raw.get('n', '?')}: {exc}")
                continue
            cache._entries[n] = entry
    if problems:
        raise CacheError(f"{path}: rejected entries: " + "; ".join(problems))
    cache._unread = set(cache._entries)
    cache._source = str(path)
    return cache


def save_cache(cache: FactorCache, path) -> None:
    """Write the canonical JSON form (stable ordering, trailing newline)
    to a temporary file beside path, flush it to disk with os.fsync, then
    rename it over path, so a power loss cannot leave the rename on disk
    without the data.  Every entry not yet read is tested first, so
    CacheError leaves path as it was.  On failure the temporary file is
    removed and path is left as it was."""
    cache._read_all()
    entries = []
    with _unlimited_digits():
        for n in cache.indices():
            f = cache.get(n)
            entry: dict = {
                "n": n,
                "factors": [[str(p), e] for p, e in f.factors],
            }
            if f.cofactor != 1:
                entry["cofactor"] = str(f.cofactor)
            entry["status"] = f.status
            entries.append(entry)
    doc = {"version": CACHE_VERSION, "entries": entries}
    target = Path(path)
    # Unique per process and thread, so concurrent saves never share one.
    tmp = target.with_name(f".{target.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8") as handle:
            handle.write(json.dumps(doc, indent=2) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename is not None:
            # Name the user's path, not the temporary one.
            raise OSError(exc.errno, exc.strerror, str(target)) from exc
        raise


class ImportSummary(NamedTuple):
    lines_total: int
    accepted: int
    rejected: tuple[tuple[int, str], ...]  # (line number, reason)

    @property
    def rejected_count(self) -> int:
        return len(self.rejected)


def import_known_factors(path, cache: FactorCache) -> ImportSummary:
    """Merge an external "n factor" table into the cache.

    Each factor must divide 2^n - 1 and pass the primality check before
    it is merged (exponents are determined by repeated division inside
    the merge).  The check goes through the cache's tested set, so a
    prime that several lines name, or that an entry lists, is tested
    once.  Bad lines are reported and skipped; the import goes on.
    """
    accepted = 0
    rejected = []
    lines_total = 0
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            lines_total += 1
            fields = stripped.split()
            if len(fields) != 2:
                rejected.append((line_no, "expected two fields: n factor"))
                continue
            try:
                n, factor = int(fields[0]), int(fields[1])
            except ValueError:
                rejected.append((line_no, "fields must be decimal integers"))
                continue
            if n < 1:
                rejected.append((line_no, "n must be >= 1"))
                continue
            if factor < 2 or mersenne(n) % factor != 0:
                rejected.append((line_no, f"{factor} does not divide 2^{n} - 1"))
                continue
            if not cache._prime(factor):
                rejected.append((line_no, f"{factor} is composite"))
                continue
            cache.add_primes(n, (factor,))
            accepted += 1
    return ImportSummary(lines_total, accepted, tuple(rejected))


def report_json(payload) -> str:
    """JSON with insertion-ordered keys, newline-terminated.  Non-ASCII
    text is written as is: classification decompositions contain "·"."""
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"
