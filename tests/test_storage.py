import json
import os
import signal
import sys
import time
from pathlib import Path

import pytest

from mersenne_omega import storage
from mersenne_omega import (
    CacheError,
    FactorCache,
    census_csv,
    factor_mersenne,
    import_known_factors,
    load_cache,
    report_json,
    run_census,
    save_cache,
)
from mersenne_omega.census import CensusConfig
from mersenne_omega.factoring import Budget, Factorization
from mersenne_omega.storage import ImportSummary


@pytest.fixture
def populated_cache():
    cache = FactorCache()
    for n in (6, 11, 29):
        factor_mersenne(n, cache=cache)
    factor_mersenne(101, budget=Budget(rho_iterations_max=4, trial_division_bound=100), cache=cache)
    return cache


def test_save_load_round_trip(populated_cache, tmp_path):
    path = tmp_path / "cache.json"
    save_cache(populated_cache, path)
    loaded = load_cache(path)
    assert loaded == populated_cache
    assert loaded.get(29).factors == ((233, 1), (1103, 1), (2089, 1))
    assert loaded.get(101).status == "partial"


def test_save_load_save_byte_identity(populated_cache, tmp_path):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_cache(populated_cache, p1)
    save_cache(load_cache(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_empty_cache_round_trip(tmp_path):
    path = tmp_path / "empty.json"
    save_cache(FactorCache(), path)
    assert len(load_cache(path)) == 0


def test_load_verifies_entries(tmp_path):
    path = tmp_path / "bad.json"
    doc = {
        "version": 1,
        "entries": [
            {"n": 29, "factors": [["233", 1], ["1103", 1], ["2089", 1]], "status": "complete"},
            {"n": 11, "factors": [["23", 1], ["91", 1]], "status": "complete"},
        ],
    }
    path.write_text(json.dumps(doc))
    with pytest.raises(CacheError) as exc:
        load_cache(path)
    assert "n=11" in str(exc.value)


COMPOSITE_LISTED = {
    "version": 1,
    "entries": [
        {"n": 7, "factors": [["127", 1]], "status": "complete"},
        {"n": 11, "factors": [["2047", 1]], "status": "complete"},
        {"n": 22, "factors": [["3", 1], ["2047", 1]], "cofactor": "683", "status": "partial"},
    ],
}


def test_read_rejects_composite_listed_prime(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(COMPOSITE_LISTED))
    cache = load_cache(path)
    # Primality is tested when an entry is first read: n = 7 is fine.
    assert cache.get(7).factors == ((127, 1),)
    # A composite is refused under every index that lists it.
    with pytest.raises(CacheError, match="n=11: listed factor 2047 is composite"):
        cache.get(11)
    with pytest.raises(CacheError, match="n=22: listed factor 2047 is composite"):
        cache.get(22)
    # A refused entry stays unread, so it is refused again and never saved.
    with pytest.raises(CacheError, match="n=11: listed factor 2047 is composite"):
        cache.get(11)
    out = tmp_path / "out.json"
    with pytest.raises(CacheError) as exc:
        save_cache(cache, out)
    assert "n=11: listed factor 2047 is composite" in str(exc.value)
    assert "n=22: listed factor 2047 is composite" in str(exc.value)
    assert not out.exists()
    assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]


def test_merge_into_an_unread_entry_tests_it_first(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(COMPOSITE_LISTED))
    cache = load_cache(path)
    with pytest.raises(CacheError, match="n=11"):
        cache.add_primes(11, (23,))
    assert not cache.changed


def test_a_read_tests_only_that_entry(tmp_path, monkeypatch):
    cache = FactorCache()
    for n in (7, 11, 29):
        factor_mersenne(n, cache=cache)
    path = tmp_path / "cache.json"
    save_cache(cache, path)
    tested = []
    original = storage._prime_like
    monkeypatch.setattr(storage, "_prime_like", lambda x: tested.append(x) or original(x))
    loaded = load_cache(path)
    assert tested == []
    assert loaded.get(29) == cache.get(29)
    assert loaded.get(29) == cache.get(29)
    assert tested == [233, 1103, 2089]


def test_changed_tracks_merges_that_alter_the_cache(populated_cache, tmp_path):
    path = tmp_path / "cache.json"
    save_cache(populated_cache, path)
    loaded = load_cache(path)
    assert not loaded.changed
    # Known primes, or primes that do not divide, change nothing.
    loaded.add_primes(29, (233, 1103))
    loaded.add_primes(11, (7,))
    factor_mersenne(6, cache=loaded)
    assert not loaded.changed
    loaded.add_primes(12, (5,))
    assert loaded.changed


def test_load_tests_each_distinct_prime_once(tmp_path, monkeypatch):
    cache = FactorCache()
    for n in range(2, 41):
        factor_mersenne(n, cache=cache)
    slots = [p for n in cache.indices() for p in cache.get(n).primes()]
    path = tmp_path / "cache.json"
    save_cache(cache, path)
    tested = []
    original = storage._prime_like
    monkeypatch.setattr(storage, "_prime_like", lambda x: tested.append(x) or original(x))
    assert load_cache(path) == cache
    assert sorted(tested) == sorted(set(slots))
    assert len(slots) > len(tested)


def test_load_rejects_wrong_status(tmp_path):
    path = tmp_path / "bad.json"
    doc = {
        "version": 1,
        "entries": [
            {"n": 11, "factors": [["23", 1]], "cofactor": "89", "status": "complete"},
        ],
    }
    path.write_text(json.dumps(doc))
    with pytest.raises(CacheError):
        load_cache(path)


def test_load_rejects_bad_version_and_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"version": 99, "entries": []}')
    with pytest.raises(CacheError):
        load_cache(path)
    path.write_text("{nope")
    with pytest.raises(CacheError):
        load_cache(path)


@pytest.mark.parametrize(
    "text",
    [
        '{"version": 1, "entries": 5}',
        '{"version": 1, "entries": [5]}',
        '{"version": 1, "entries": [{"n": 11, "factors": [["23", 1], ["89", 1]], "status": "complete"}, "x"]}',
        '{"version": 1, "entries": [{"n": 1e400, "factors": [], "status": "complete"}]}',
        '{"version": 1, "entries": [{"n": 11, "factors": [[23, 1e400], [89, 1]], "status": "complete"}]}',
        '{"version": 1, "entries": [{"n": 11, "factors": [["23", 3000000], ["89", 1]], "status": "complete"}]}',
        '{"version": 1, "entries": [{"n": 11.9, "factors": [["23", 1], ["89", 1]], "status": "complete"}]}',
        '{"version": 1, "entries": [{"n": true, "factors": [], "status": "complete"}]}',
        '{"version": 1, "entries": [{"n": 11, "factors": [["23", 1.7], ["89", true]], "status": "complete"}]}',
        '{"version": 1, "entries": [{"n": 11, "factors": [[23, 1], ["89", 1]], "status": "complete"}]}',
        '{"version": 1, "entries": [{"n": 11, "factors": [["23", 1]], "cofactor": 89, "status": "partial"}]}',
        '{"version": 1, "entries": [{"n": 11, "factors": [["23", 1]], "cofactor": " 89", "status": "partial"}]}',
    ],
)
def test_load_rejects_malformed_entries(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(CacheError):
        load_cache(path)


def test_load_rejects_a_second_entry_for_one_n_and_lists_each_bad_n(tmp_path):
    path = tmp_path / "bad.json"
    entries = [
        {"n": 5, "factors": [["31", 1]], "status": "complete"},
        {"n": 5, "factors": [], "cofactor": "31", "status": "partial"},
        {"n": 11.9, "factors": [["23", 1.7], ["89", True]], "status": "complete"},
    ]
    path.write_text(json.dumps({"version": 1, "entries": entries}))
    with pytest.raises(CacheError, match=r"n=5: a second entry.*; n=11\.9: "):
        load_cache(path)
    path.write_text(json.dumps({"version": 1, "entries": entries[:1]}))
    assert load_cache(path).get(5).complete


def test_load_rejects_a_huge_exponent_without_building_the_power(tmp_path):
    path = tmp_path / "bad.json"
    entry = {"n": 11, "factors": [["23", 10**7], ["89", 1]], "status": "complete"}
    path.write_text(json.dumps({"version": 1, "entries": [entry]}))
    start = time.perf_counter()
    with pytest.raises(CacheError, match="does not reconstruct"):
        load_cache(path)
    assert time.perf_counter() - start < 1.0


def test_failed_save_keeps_old_file(populated_cache, tmp_path, monkeypatch):
    path = tmp_path / "cache.json"
    save_cache(FactorCache(), path)
    before = path.read_bytes()

    opened = Path.open

    def open_to_write_half_then_fail(self, mode="r", *args, **kwargs):
        handle = opened(self, mode, *args, **kwargs)
        write = handle.write

        def write_half_then_fail(data):
            write(data[: len(data) // 2])
            raise OSError("disk full")

        handle.write = write_half_then_fail
        return handle

    monkeypatch.setattr(Path, "open", open_to_write_half_then_fail)
    with pytest.raises(OSError, match="disk full"):
        save_cache(populated_cache, path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["cache.json"]


def test_save_flushes_the_data_to_disk_before_the_rename(populated_cache, tmp_path, monkeypatch):
    # A rename that reaches the disk before the data would leave an empty
    # cache after a power loss, so the temporary file is fsynced first,
    # with every byte written.
    path = tmp_path / "cache.json"
    save_cache(FactorCache(), path)
    events = []
    fsync, replace = os.fsync, os.replace

    def recording_fsync(fd):
        (tmp,) = [p for p in tmp_path.iterdir() if p.name != "cache.json"]
        events.append(("fsync", tmp.name, tmp.read_bytes()))
        fsync(fd)

    def recording_replace(src, dst):
        events.append(("replace", Path(src).name, Path(dst)))
        replace(src, dst)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    monkeypatch.setattr(os, "replace", recording_replace)
    save_cache(populated_cache, path)
    monkeypatch.undo()
    assert [event[0] for event in events] == ["fsync", "replace"]
    assert events[0][1] == events[1][1] and events[1][2] == path
    assert events[0][2] == path.read_bytes()
    assert [p.name for p in tmp_path.iterdir()] == ["cache.json"]


needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="this Python has no int <-> str digit limit"
)


@needs_digit_limit
def test_library_round_trip_past_the_digit_limit(tmp_path):
    # The cofactor of 2^20000 - 1 over 3 * 5^5 has 6017 digits.
    limit = sys.get_int_max_str_digits()
    cache = FactorCache()
    cache.add_primes(20000, [3, 5])
    path = tmp_path / "cache.json"
    save_cache(cache, path)
    assert sys.get_int_max_str_digits() == limit
    loaded = load_cache(path)
    assert sys.get_int_max_str_digits() == limit
    assert loaded == cache and loaded.get(20000).cofactor == cache.get(20000).cofactor
    save_cache(loaded, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
    # The CLI writes the same bytes for the same entry.
    from mersenne_omega.cli import main

    table, by_cli = tmp_path / "known.txt", tmp_path / "cli.json"
    table.write_text("20000 3\n20000 5\n")
    assert main(["import", str(table), "--cache", str(by_cli)]) == 0
    assert by_cli.read_bytes() == path.read_bytes()
    assert sys.get_int_max_str_digits() == limit


@needs_digit_limit
def test_unlimited_digits_restores_the_limit_after_an_error():
    limit = sys.get_int_max_str_digits()
    with pytest.raises(RuntimeError):
        with storage._unlimited_digits():
            assert sys.get_int_max_str_digits() == 0
            raise RuntimeError
    assert sys.get_int_max_str_digits() == limit


def test_load_accepts_partial_entry(tmp_path):
    path = tmp_path / "partial.json"
    doc = {
        "version": 1,
        "entries": [
            {"n": 29, "factors": [["233", 1]], "cofactor": "2304167", "status": "partial"},
        ],
    }
    path.write_text(json.dumps(doc))
    cache = load_cache(path)
    entry = cache.get(29)
    assert entry.status == "partial"
    assert entry.cofactor == 2304167


def test_merge_is_monotone_and_idempotent():
    cache = FactorCache()
    cache.add_primes(11, (23,))
    first = cache.get(11)
    # the prime cofactor 89 is absorbed, completing the entry
    assert first.factors == ((23, 1), (89, 1))
    assert first.complete
    again = cache.add_primes(11, first.primes())
    assert again == first
    # re-adding a known prime changes nothing
    cache.add_primes(11, (23,))
    assert cache.get(11) == first


def test_merge_drops_non_divisors():
    cache = FactorCache()
    entry = cache.add_primes(11, (10, 23))
    assert entry.primes() == (23, 89)


@pytest.fixture
def deadline():
    """Turn a hang into a failure: TimeoutError after 10 seconds."""

    def expire(signum, frame):
        raise TimeoutError("no return within 10 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def test_merge_drops_claimed_primes_below_two(deadline):
    # 1 and -1 divide everything, so dividing them out would never end.
    cache = FactorCache()
    assert cache.add_primes(11, (1,)) == Factorization(2047, (), 2047)
    assert cache.add_primes(11, (-1, 23)).factors == ((23, 1), (89, 1))


@pytest.mark.parametrize("n", [0, -3])
def test_merge_refuses_an_index_below_one(deadline, n):
    cache = FactorCache()
    with pytest.raises(ValueError, match="n must be >= 1"):
        cache.add_primes(n, (3,))
    assert len(cache) == 0 and not cache.changed


def test_concurrent_merges_are_consistent():
    from concurrent.futures import ThreadPoolExecutor

    cache = FactorCache()
    primes_29 = (233, 1103, 2089)
    with ThreadPoolExecutor(max_workers=8) as pool:
        futures = [pool.submit(cache.add_primes, 29, (p,)) for p in primes_29 * 10]
        futures += [pool.submit(cache.add_primes, 11, (23,)) for _ in range(10)]
        for f in futures:
            f.result()
    assert cache.get(29).factors == ((233, 1), (1103, 1), (2089, 1))
    assert cache.get(29).complete
    assert cache.get(11).factors == ((23, 1), (89, 1))


def test_import_known_factors(tmp_path):
    table = tmp_path / "known.txt"
    table.write_text("# factors of 2^n - 1\n\n11 23\n11 10\n49 4432676798593\n")
    cache = FactorCache()
    summary = import_known_factors(table, cache)
    assert summary.accepted == 2
    assert summary.rejected_count == 1
    assert summary.rejected[0][0] == 4  # line number of "11 10"
    assert cache.get(11).factors == ((23, 1), (89, 1))
    assert cache.get(49).factors == ((127, 1), (4432676798593, 1))


def test_import_tests_each_distinct_prime_once(tmp_path, monkeypatch):
    # Every line names a prime the warm entry lists too: the import's check
    # and the entry's first read share one tested set.
    cache = FactorCache()
    for n in range(2, 41):
        factor_mersenne(n, cache=cache)
    lines = [f"{n} {p}" for n in cache.indices() for p in cache.get(n).primes()]
    path = tmp_path / "cache.json"
    save_cache(cache, path)
    table = tmp_path / "known.txt"
    table.write_text("\n".join(lines) + "\n")
    warm = load_cache(path)
    tested = []
    original = storage._prime_like
    monkeypatch.setattr(storage, "_prime_like", lambda x, *a: tested.append(x) or original(x, *a))
    summary = import_known_factors(table, warm)
    assert (summary.lines_total, summary.accepted, summary.rejected) == (len(lines), len(lines), ())
    primes = {int(line.split()[1]) for line in lines}
    assert sorted(tested) == sorted(primes)
    assert warm == cache and not warm.changed


def test_import_rejects_malformed_lines(tmp_path):
    table = tmp_path / "known.txt"
    table.write_text("11\nx y\n0 3\n11 2047\n")
    cache = FactorCache()
    summary = import_known_factors(table, cache)
    assert summary.accepted == 0
    assert summary.rejected_count == 4


def test_import_names_the_reason_for_each_rejected_line(tmp_path):
    table = tmp_path / "known.txt"
    table.write_text("11\nx y\n0 3\n11 2047\n11 10\n# 11 89\n\n11 23\n")
    summary = import_known_factors(table, FactorCache())
    assert summary == ImportSummary(
        6,
        1,
        (
            (1, "expected two fields: n factor"),
            (2, "fields must be decimal integers"),
            (3, "n must be >= 1"),
            (4, "2047 is composite"),
            (5, "10 does not divide 2^11 - 1"),
        ),
    )


def test_import_is_idempotent(tmp_path):
    table = tmp_path / "known.txt"
    table.write_text("11 23\n29 233\n29 1103\n")
    cache = FactorCache()
    import_known_factors(table, cache)
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_cache(cache, p1)
    import_known_factors(table, cache)
    save_cache(cache, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_census_csv_report():
    records, _ = run_census(CensusConfig(2, 4))
    text = census_csv(records)
    lines = text.splitlines()
    assert len(lines) == 4  # header + one row per index
    assert lines[0] == (
        "n,d_n,omega_n,bigomega_n,omega_M,bound_prop2,bound_divisors,"
        "hw_value,lemma6_holds,final_holds,complete"
    )
    assert lines[1].startswith("2,2,1,1,1,1,1,,,")
    assert text.endswith("\n")


def test_json_report_key_order_is_stable():
    payload = {"n": 10, "matched_clause": "T3_i", "consistent": True, "decomposition": "3·11"}
    text = report_json(payload)
    assert text == (
        '{\n  "n": 10,\n  "matched_clause": "T3_i",\n  "consistent": true,\n'
        '  "decomposition": "3·11"\n}\n'
    )


def test_factorization_status_serialization(populated_cache, tmp_path):
    path = tmp_path / "cache.json"
    save_cache(populated_cache, path)
    doc = json.loads(path.read_text())
    by_n = {e["n"]: e for e in doc["entries"]}
    assert by_n[29]["status"] == "complete"
    assert "cofactor" not in by_n[29]
    assert by_n[101]["status"] == "partial"
    assert int(by_n[101]["cofactor"]) > 1
    assert by_n[101]["cofactor"].isdigit()
    # entries sorted by n, primes as decimal strings
    assert list(by_n) == sorted(by_n)
    assert by_n[29]["factors"][0] == ["233", 1]
