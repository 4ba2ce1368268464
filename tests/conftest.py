import pytest

from mersenne_omega import cyclotomic, factoring


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


@pytest.fixture
def natural_calls(monkeypatch):
    """Record every value cyclotomic passes to factor_natural."""
    calls = []
    factor_natural = cyclotomic.factor_natural

    def recording(x, *args, **kwargs):
        calls.append(x)
        return factor_natural(x, *args, **kwargs)

    monkeypatch.setattr(cyclotomic, "factor_natural", recording)
    return calls
