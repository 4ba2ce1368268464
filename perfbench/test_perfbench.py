"""Tests for the benchmark's own helpers (not for mersenne_omega)."""

import json
from pathlib import Path

import pytest

import run
import spans
import workloads
from metrics import TAIL_LADDER, frontier, percentile, samples_beyond, tail_percentile
from oracle import Oracle


@pytest.mark.parametrize(
    "count, expected",
    [(19, None), (20, 50.0), (39, 50.0), (40, 75.0), (44, 75.0), (60, 75.0),
     (99, 75.0), (100, 90.0), (159, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    q = tail_percentile(count)
    assert q == expected
    if q is not None:
        assert samples_beyond(count, q) >= 10
        higher = [r for r in TAIL_LADDER if r > q]
        assert all(samples_beyond(count, r) < 10 for r in higher)


def test_percentile_is_nearest_rank():
    values = list(range(1, 41))
    assert percentile(values, 50) == 20
    assert percentile(values, 75) == 30
    assert sum(v > percentile(values, 75) for v in values) == 10


def test_self_time_subtracts_direct_children():
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 7].
    tree = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["g", 2.0, 3.0, 1, 0],
        ["b", 5.0, 7.0, 0, 0],
    ]
    assert spans.self_times(tree) == [5.0, 2.0, 1.0, 2.0]
    assert sum(spans.self_times(tree)) == 10.0


def test_outermost_total_counts_recursion_once():
    tree = [
        ["f", 0.0, 4.0, -1, 0],
        ["x", 1.0, 3.0, 0, 0],
        ["f", 1.5, 2.5, 1, 0],
        ["f", 5.0, 6.0, -1, 1],
    ]
    assert spans.outermost_total(tree, "f") == 5.0


def test_frontier_from_completeness():
    assert frontier({2: True, 3: True, 4: False, 5: True}) == 3
    assert frontier({n: True for n in range(2, 11)}) == 10
    assert frontier({2: False, 3: True}) == 1
    assert frontier({3: True}) == 1


def test_spaced_takes_the_middle_of_each_slice():
    assert workloads.spaced(list(range(10)), 5) == [1, 3, 5, 7, 9]
    assert workloads.spaced(list(range(7)), 3) == [1, 3, 5]


def test_bigprime_seed_only_permutes_the_order():
    bigprime = workloads.WORKLOADS["bigprime"](run.ROOT, Oracle.load())
    one, two = bigprime.ops(1), bigprime.ops(2)
    assert one != two
    assert sorted(one) == sorted(two)
    assert len(one) == len(set(one)) == 45


def test_oracle_rejects_forged_factors():
    oracle = Oracle.load()
    assert oracle.check_factorization(11, [(23, 1), (89, 1)], 1) is None
    assert oracle.check_factorization(11, [(23, 1)], 89) is not None  # prime left as cofactor
    assert oracle.check_factorization(11, [(2047, 1)], 1) is not None  # composite "prime"
    assert oracle.check_factorization(11, [(23, 2)], 89 // 23) is not None
    assert oracle.check_factorization(6, [(3, 1), (7, 1)], 1) is not None  # exponent of 3 is 2
    assert oracle.check_factorization(6, [(3, 2), (7, 1)], 1) is None
    assert oracle.check_factorization(137, [], (1 << 137) - 1) is None  # partial is allowed
    assert oracle.check_factorization(137, [], 1 << 137) is not None


def test_benchmark_json_lists_the_printed_metrics():
    doc = json.loads((Path(run.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]]
    assert declared == list(run.END_TO_END)
    layers = [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
    assert layers == list(spans.PER_LAYER)
