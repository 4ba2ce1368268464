import pytest

from mersenne_omega import factoring


@pytest.fixture
def sieve_requests(monkeypatch):
    """Record every limit passed to the cached trial-division sieve."""
    requests = []
    sieve = factoring._sieve_primes

    def recording(limit):
        requests.append(limit)
        return sieve(limit)

    monkeypatch.setattr(factoring, "_sieve_primes", recording)
    return requests
