"""Expected results for every index the workloads touch, and the run-time
check of a factorization against them.

The table is written by gen_oracle.py, which cross-checks it against
sympy; nothing here imports sympy.
"""

from __future__ import annotations

import json
from pathlib import Path

TABLE = Path(__file__).resolve().parent / "oracle" / "expected.json"


class Oracle:
    """Known prime powers of M_n = 2^n - 1 per index.

    complete[n] says the listed primes are the whole factorization; when
    it is false only the primes found so far are known, and a partial
    result is all that can be checked ("partial allowed").
    """

    def __init__(self, doc: dict):
        self.doc = doc
        self.primes: dict[int, dict[int, int]] = {}
        self.complete: dict[int, bool] = {}
        self.status: dict[int, str] = {}
        self.primitive: dict[int, tuple[int, ...]] = {}
        self.mersenne_prime: dict[int, bool] = {}
        for key, entry in doc["indices"].items():
            n = int(key)
            self.primes[n] = {p: e for p, e in entry["primes"]}
            self.complete[n] = entry["complete"]
            self.status[n] = entry["status"]
            if "primitive" in entry:
                self.primitive[n] = tuple(entry["primitive"])
            if "mersenne_prime" in entry:
                self.mersenne_prime[n] = entry["mersenne_prime"]
        self.cli = doc.get("cli", {})

    @classmethod
    def load(cls, path: Path = TABLE) -> "Oracle":
        return cls(json.loads(Path(path).read_text(encoding="utf-8")))

    def omega(self, n: int) -> int:
        if not self.complete[n]:
            raise KeyError(f"M_{n} is not completely known")
        return len(self.primes[n])

    def check_factorization(self, n: int, factors, cofactor: int) -> str | None:
        """Why (factors, cofactor) is not a correct factorization of M_n,
        or None when it is.  Every listed prime power must be in the
        table, the product times the cofactor must reconstruct M_n, and
        a cofactor may not itself be a known prime."""
        known = self.primes.get(n)
        if known is None:
            return f"M_{n} is not in the oracle table"
        product = cofactor
        for p, e in factors:
            if known.get(p) != e:
                return f"M_{n}: {p}^{e} is not a known prime power"
            product *= p**e
        if product != (1 << n) - 1:
            return f"M_{n}: factors times cofactor do not reconstruct 2^{n} - 1"
        if cofactor in known:
            return f"M_{n}: cofactor {cofactor} is a known prime"
        return None
