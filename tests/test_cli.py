import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mersenne_omega
from mersenne_omega import FactorCache, cli, save_cache
from mersenne_omega.arith import mersenne
from mersenne_omega.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Reports are byte-exact: key order fixed, "·" written unescaped, one
# trailing newline.
CLASSIFY_9 = """\
{
  "n": 9,
  "shape": "prime_squared",
  "min_omega": 2,
  "eligible_omega": [
    2,
    3,
    "more"
  ],
  "omega": 2,
  "matched_clause": "T2_i",
  "decomposition": "M3·73",
  "consistent": true,
  "divisor_form_checks": []
}
"""


def _suite(name, passed):
    return f"""\
    {{
      "name": "{name}",
      "passed": {passed},
      "failed": 0,
      "inconclusive": 0,
      "first_failure": null
    }}"""


VERIFY_12 = (
    '{\n  "max_n": 12,\n  "suites": [\n'
    + ",\n".join(
        _suite(name, passed)
        for name, passed in (
            ("gcd_identity", 78),
            ("omega_superadditivity", 2),
            ("perfect_power_absence", 199),
            ("quotient_residue", 14),
            ("structure_consistency", 11),
        )
    )
    + "\n  ]\n}\n"
)


def test_factor_complete(capsys):
    code, out, err = run(capsys, "factor", "29")
    assert code == 0
    assert out == "233^1\n1103^1\n2089^1\n"
    assert "status: complete" in err


def test_factor_with_exponents(capsys):
    code, out, _ = run(capsys, "factor", "21")
    assert code == 0
    assert out == "7^2\n127^1\n337^1\n"


def test_factor_partial_budget(capsys):
    code, out, err = run(capsys, "factor", "101", "--budget-rho", "4")
    assert code == 3
    assert out.startswith("cofactor ")
    assert "status: partial" in err


def test_omega_range(capsys):
    code, out, _ = run(capsys, "omega", "--range", "2", "7")
    assert code == 0
    assert out == "2 1\n3 1\n4 2\n5 1\n6 2\n7 1\n"


def test_omega_single(capsys):
    code, out, _ = run(capsys, "omega", "29")
    assert code == 0
    assert out == "29 3\n"


def test_omega_requires_exactly_one_form(capsys):
    code, _, err = run(capsys, "omega")
    assert code == 1
    code, _, err = run(capsys, "omega", "5", "--range", "2", "3")
    assert code == 1


def test_primitive(capsys):
    code, out, _ = run(capsys, "primitive", "9")
    assert code == 0
    assert out == "primitive_primes: 73\nprimitive_part: 73\n"
    code, out, _ = run(capsys, "primitive", "6")
    assert code == 0
    assert out == "primitive_primes:\nprimitive_part: 1\n"


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "10")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 10
    assert payload["matched_clause"] == "T3_i"
    assert payload["shape"] == "two_times_prime"
    assert payload["consistent"] is True
    assert payload["omega"] == 3
    keys = list(payload)
    assert keys == [
        "n",
        "shape",
        "min_omega",
        "eligible_omega",
        "omega",
        "matched_clause",
        "decomposition",
        "consistent",
        "divisor_form_checks",
    ]


def test_classify_one_is_consistent(capsys):
    code, out, _ = run(capsys, "classify", "1")
    assert code == 0
    assert out == (
        '{\n  "n": 1,\n  "shape": "one",\n  "min_omega": 0,\n  "eligible_omega": [\n    0\n  ],\n'
        '  "omega": 0,\n  "matched_clause": "none",\n  "decomposition": "1",\n'
        '  "consistent": true,\n  "divisor_form_checks": []\n}\n'
    )


def test_classify_to_file(capsys, tmp_path):
    code, out, _ = run(capsys, "classify", "9")
    assert code == 0
    assert out == CLASSIFY_9
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "classify", "9", "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert out_path.read_bytes() == CLASSIFY_9.encode("utf-8")


def test_classify_prime_has_divisor_checks(capsys):
    code, out, _ = run(capsys, "classify", "11")
    assert code == 0
    payload = json.loads(out)
    checks = payload["divisor_form_checks"]
    assert [c["q"] for c in checks] == [23, 89]
    assert all(c["passes"] for c in checks)


def test_classify_prime_prints_its_divisor_checks_byte_for_byte(capsys, monkeypatch):
    # SHA-256 of the stdout, whose check list holds two entries; a prime
    # index builds no trial table, so it is pinned here, not in SMALL_QUERIES.
    monkeypatch.delenv("MERSENNE_OMEGA_CACHE", raising=False)
    code, out, _ = run(capsys, "classify", "11")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "cccda77315d601c7d2743bc79ffad716f31e0a4093b01c9b6e166118a967e737"
    )


def test_verify_ok(capsys):
    code, out, _ = run(capsys, "verify", "--max", "24")
    assert code == 0
    assert "gcd_identity: pass" in out
    assert "structure_consistency: pass" in out


def test_verify_suite_report(capsys, tmp_path):
    out_path = tmp_path / "suite.json"
    code, _, _ = run(capsys, "verify", "--max", "12", "--out", str(out_path))
    assert code == 0
    assert out_path.read_bytes() == VERIFY_12.encode("utf-8")
    doc = json.loads(out_path.read_text())
    assert doc["max_n"] == 12
    assert [s["name"] for s in doc["suites"]] == [
        "gcd_identity",
        "omega_superadditivity",
        "perfect_power_absence",
        "quotient_residue",
        "structure_consistency",
    ]
    assert all(s["failed"] == 0 for s in doc["suites"])


def test_census_to_file(capsys, tmp_path):
    out_path = tmp_path / "census.csv"
    code, out, _ = run(capsys, "census", "--min", "2", "--max", "10", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 10
    assert lines[0].startswith("n,d_n,omega_n,")
    assert "deterministic_bound_violations: 0" in out
    assert "uncorrected_bound_witnesses: 3 4 5 7 8 9" in out
    code, stdout_csv, _ = run(capsys, "census", "--min", "2", "--max", "10")
    assert code == 0
    assert out_path.read_bytes() == stdout_csv.encode("utf-8")


def test_census_to_stdout(capsys):
    code, out, err = run(capsys, "census", "--min", "3", "--max", "5")
    assert code == 0
    assert out.startswith("n,d_n,")
    assert "records: 3" in err


def test_census_epsilon_validation(capsys):
    code, _, err = run(capsys, "census", "--min", "2", "--max", "10", "--epsilon", "1.5")
    assert code == 1
    assert "epsilon" in err


def test_import_and_cached_factor(capsys, tmp_path):
    table = tmp_path / "known.txt"
    table.write_text("# sample\n11 23\n11 10\n49 4432676798593\n")
    cache_path = tmp_path / "cache.json"
    code, out, err = run(capsys, "import", str(table), "--cache", str(cache_path))
    assert code == 0
    assert "accepted: 2" in out
    assert "rejected: 1" in out
    assert "line 3" in err
    # the import completed M11, so factoring it afterwards hits the cache
    code, out, err = run(capsys, "factor", "11", "--cache", str(cache_path), "--stats")
    assert code == 0
    assert out == "23^1\n89^1\n"
    assert "cache_hits: 1" in err


def _decimal(x: int) -> str:
    """str(x) past CPython's int -> str digit limit, which stays as it was."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(x)
    finally:
        sys.set_int_max_str_digits(limit)


needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="this Python has no int <-> str digit limit"
)


@needs_digit_limit
def test_factor_prints_a_partial_cofactor_past_the_digit_limit(capsys):
    # M_16001 (16001 is prime) stays whole at this budget: 4817 digits.
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "factor", "16001", "--budget-rho", "10")
    assert code == 3
    assert "status: partial" in err
    assert f"cofactor {_decimal(mersenne(16001))}\n" in out + err
    assert sys.get_int_max_str_digits() == limit


@needs_digit_limit
def test_import_saves_and_reloads_a_cofactor_past_the_digit_limit(capsys, tmp_path):
    limit = sys.get_int_max_str_digits()
    table, cache_path = tmp_path / "known.txt", tmp_path / "cache.json"
    # The second import loads what the first saved.
    for line in ("20000 3\n", "20000 5\n"):
        table.write_text(line)
        code, out, err = run(capsys, "import", str(table), "--cache", str(cache_path))
        assert (code, out, err) == (0, "accepted: 1\nrejected: 0\n", "")
    [entry] = json.loads(cache_path.read_text())["entries"]
    assert entry["factors"] == [["3", 1], ["5", 5]]  # 5^4 divides 20000
    assert entry["cofactor"] == _decimal(mersenne(20000) // (3 * 5**5))
    assert sys.get_int_max_str_digits() == limit


def test_import_requires_cache(capsys, monkeypatch):
    monkeypatch.delenv("MERSENNE_OMEGA_CACHE", raising=False)
    code, _, err = run(capsys, "import", "whatever.txt")
    assert code == 1
    assert "--cache" in err


def test_import_missing_file_is_io_error(capsys, tmp_path):
    code, _, err = run(capsys, "import", str(tmp_path / "nope.txt"), "--cache", str(tmp_path / "c.json"))
    assert code == 4


def test_failed_cache_save_names_the_cache_path(capsys, tmp_path):
    path = tmp_path / "missing" / "c.json"
    code, _, err = run(capsys, "factor", "5", "--cache", str(path))
    assert code == 4
    assert "c.json" in err and ".tmp" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("factor", "5"),
        ("factor", "137", "--budget-rho", "1000"),
        ("omega", "--range", "2", "6"),
        ("primitive", "12"),
        ("classify", "9"),
        ("verify", "--max", "12"),
        ("census", "--min", "2", "--max", "12"),
    ],
)
def test_failed_cache_save_keeps_the_result(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.delenv("MERSENNE_OMEGA_CACHE", raising=False)
    _, expected, _ = run(capsys, *argv)
    code, out, err = run(capsys, *argv, "--cache", str(tmp_path / "missing" / "c.json"))
    assert code == 4
    assert "i/o error:" in err
    assert out and out == expected


KNOWN_TABLE = "# sample\n11 23\n11 10\n49 4432676798593\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("factor", "5"),
        ("omega", "--range", "2", "6"),
        ("primitive", "12"),
        ("classify", "9"),
        ("verify", "--max", "6"),
        ("census", "--min", "2", "--max", "6"),
        ("import", "known.txt"),
    ],
    ids=lambda argv: argv[0],
)
def test_runner_loads_once_then_saves_once_after_printing(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "known.txt").write_text(KNOWN_TABLE)
    path = tmp_path / "c.json"
    save_cache(FactorCache(), path)
    events = []
    load, save = cli.load_cache, cli.save_cache

    def counting_load(p):
        events.append(("load", capsys.readouterr().out))
        return load(p)

    def counting_save(cache, p):
        events.append(("save", capsys.readouterr().out))
        save(cache, p)

    monkeypatch.setattr(cli, "load_cache", counting_load)
    monkeypatch.setattr(cli, "save_cache", counting_save)
    code = main([*argv, "--cache", str(path)])
    assert code == 0
    assert [name for name, _ in events] == ["load", "save"]
    # Nothing is printed before the load, and everything before the save.
    assert events[0][1] == ""
    assert events[1][1] != ""
    assert capsys.readouterr().out == ""


def test_import_prints_its_report_when_the_save_fails(capsys, tmp_path):
    table = tmp_path / "known.txt"
    table.write_text(KNOWN_TABLE)
    code, out, err = run(capsys, "import", str(table), "--cache", str(tmp_path / "missing" / "c.json"))
    assert code == 4
    assert out == "accepted: 2\nrejected: 1\n"
    assert "line 3" in err
    assert "i/o error:" in err and "c.json" in err


@pytest.mark.parametrize(
    "argv",
    [("omega",), ("census", "--min", "2", "--max", "10", "--epsilon", "2")],
    ids=["omega", "census"],
)
def test_cache_errors_come_before_usage_errors(capsys, tmp_path, argv):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, out, err = run(capsys, *argv, "--cache", str(bad))
    assert code == 4
    assert out == ""
    assert err.startswith("cache error:")


def _stat(err, name):
    for line in err.splitlines():
        if line.startswith(f"{name}: "):
            return int(line.split(": ")[1])
    raise AssertionError(f"{name} not reported")


def test_cached_second_run_uses_no_rho(capsys, tmp_path):
    cache_path = tmp_path / "cache.json"
    code, _, err = run(capsys, "factor", "36", "--cache", str(cache_path), "--stats")
    assert code == 0
    assert _stat(err, "rho_iterations") > 0
    code, out, err = run(capsys, "factor", "36", "--cache", str(cache_path), "--stats")
    assert code == 0
    assert out == "3^3\n5^1\n7^1\n13^1\n19^1\n37^1\n73^1\n109^1\n"
    assert _stat(err, "rho_iterations") == 0
    assert _stat(err, "cache_hits") == 1


def test_cache_env_var(capsys, tmp_path, monkeypatch):
    cache_path = tmp_path / "env-cache.json"
    monkeypatch.setenv("MERSENNE_OMEGA_CACHE", str(cache_path))
    code, _, _ = run(capsys, "factor", "29")
    assert code == 0
    assert cache_path.exists()
    # explicit flag wins over the environment
    other = tmp_path / "flag-cache.json"
    code, _, _ = run(capsys, "factor", "11", "--cache", str(other))
    assert code == 0
    assert other.exists()


def test_corrupt_cache_aborts_with_io_exit(capsys, tmp_path):
    cache_path = tmp_path / "cache.json"
    cache_path.write_text("{broken")
    code, _, err = run(capsys, "factor", "29", "--cache", str(cache_path))
    assert code == 4
    assert "cache error" in err


@pytest.mark.parametrize(
    "text",
    [
        '{"version": 1, "entries": 5}',
        '{"version": 1, "entries": [5]}',
        '{"version": 1, "entries": [{"n": 1e400, "factors": [], "status": "complete"}]}',
        '{"version": 1, "entries": [{"n": 11, "factors": [[23, 1e400], [89, 1]], "status": "complete"}]}',
        '{"version": 1, "entries": [{"n": 11.9, "factors": [["23", 1.7], ["89", true]], "status": "complete"}]}',
    ],
)
def test_malformed_cache_aborts_with_io_exit(capsys, tmp_path, text):
    cache_path = tmp_path / "cache.json"
    cache_path.write_text(text)
    code, _, err = run(capsys, "factor", "11", "--cache", str(cache_path))
    assert code == 4
    assert "cache error" in err


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["factor"])  # missing n
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["factor", "29", "--no-such-flag"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["definitely-not-a-command"])
    assert exc.value.code == 1


def test_domain_errors_exit_1(capsys):
    code, _, err = run(capsys, "factor", "0")
    assert code == 1
    assert "error" in err


def test_an_index_past_the_cap_is_a_domain_error(tmp_path):
    # factor_natural refuses n > 4 * 10^12 before any 2^d - 1 is built.
    env = dict(os.environ, PYTHONPATH=str(Path(mersenne_omega.__file__).parents[1]))
    env.pop("MERSENNE_OMEGA_CACHE", None)
    proc = subprocess.run(
        [sys.executable, "-m", "mersenne_omega.cli", "factor", "4000000000001"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == cli.EXIT_USAGE == 1
    assert proc.stdout == "" and proc.stderr.startswith("error:")


def test_stdout_is_stable_across_runs(capsys):
    _, out1, _ = run(capsys, "omega", "--range", "2", "20")
    _, out2, _ = run(capsys, "omega", "--range", "2", "20")
    assert out1 == out2


# Identical inputs give identical bytes in every process: neither the
# records' repr nor any command's stdout may follow the string-hash seed.
HASH_SEED_PROBES = [
    (
        "-c",
        "import hashlib; from mersenne_omega.classify import classify_index; "
        "print(hashlib.sha256(repr([classify_index(n) for n in range(1, 400)]).encode()).hexdigest())",
    ),
    ("-m", "mersenne_omega.cli", "classify", "7"),
    ("-m", "mersenne_omega.cli", "classify", "12"),
    ("-m", "mersenne_omega.cli", "census", "--min", "2", "--max", "30"),
    ("-m", "mersenne_omega.cli", "verify", "--max", "20"),
]


@pytest.mark.parametrize("args", HASH_SEED_PROBES, ids=["repr", "classify-7", "classify-12", "census", "verify"])
def test_output_does_not_follow_the_hash_seed(tmp_path, args):
    env = dict(os.environ, PYTHONPATH=str(Path(mersenne_omega.__file__).parents[1]))
    env.pop("MERSENNE_OMEGA_CACHE", None)
    outputs = []
    for seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, *args],
            cwd=tmp_path, env=dict(env, PYTHONHASHSEED=seed), capture_output=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


# SHA-256 of each command's stdout.  Indices are factored by trial
# division with no prime table, so none of these builds one.
SMALL_QUERIES = {
    ("classify", "10"): "847d5aa7db6ca45429c47d9e5d41d1fa3f4b390c9e379a5d55398e8d4a01a315",
    ("primitive", "12"): "39f067e11739d47a7222b17ffa3acf0888e7325535b88d591024ef3bcede5ebc",
    ("census", "--min", "2", "--max", "20"): "425209b6462e1fe1d593e2c867338eeb786109286ec036bd0266c0f35a97956b",
    ("verify", "--max", "20"): "1c172cf9793650241097331d4a4f28f472eb82243e7c1f2ab928c692cb390e6c",
}


@pytest.mark.parametrize("argv", list(SMALL_QUERIES))
def test_small_queries_build_only_the_smallest_trial_table(capsys, monkeypatch, sieve_requests, argv):
    monkeypatch.delenv("MERSENNE_OMEGA_CACHE", raising=False)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SMALL_QUERIES[argv]
    assert sieve_requests == []


def _imported_modules(argv, cwd):
    """The modules that `python -m mersenne_omega.cli argv` imports, read
    from the interpreter's -X importtime report."""
    env = dict(os.environ, PYTHONPATH=str(Path(mersenne_omega.__file__).parents[1]))
    env.pop("MERSENNE_OMEGA_CACHE", None)
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "mersenne_omega.cli", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    report = [line for line in proc.stderr.splitlines() if line.startswith("import time:")]
    return {line.rsplit("|", 1)[-1].strip() for line in report}


@pytest.mark.parametrize(
    "argv, unused",
    [
        pytest.param(("factor", "7"), {"splitting", "cyclotomic", "classify", "census"}, id="factor"),
        pytest.param(("omega", "--range", "2", "12"), {"splitting", "cyclotomic", "classify", "census"}, id="omega"),
        pytest.param(("primitive", "12"), {"splitting", "classify", "census"}, id="primitive"),
        pytest.param(("classify", "9"), {"splitting", "cyclotomic", "census"}, id="classify"),
        pytest.param(("verify", "--max", "12"), {"splitting", "census"}, id="verify"),
        pytest.param(("census", "--min", "2", "--max", "12"), {"splitting", "cyclotomic"}, id="census"),
        pytest.param(("import", "known.txt"), {"splitting", "cyclotomic", "classify", "census"}, id="import"),
    ],
)
def test_warm_queries_import_only_what_they_use(tmp_path, argv, unused):
    (tmp_path / "known.txt").write_text("11 23\n12 13\n")
    path = tmp_path / "c.json"
    assert main(["omega", "--range", "2", "12", "--cache", str(path)]) == 0
    imported = _imported_modules([*argv, "--cache", str(path)], tmp_path)
    assert {"mersenne_omega.factoring", "mersenne_omega.storage"} <= imported
    assert imported.isdisjoint(f"mersenne_omega.{name}" for name in unused)
    # Importing dataclasses costs about 10 ms, most of it inspect.
    assert imported.isdisjoint({"dataclasses", "inspect"})


def test_a_cold_query_that_rho_splits_loads_the_splitting_module(tmp_path):
    # Neither prime of M_67 = 193707721 * 761838257287 is within the scan's
    # 2 * 10^6, so with no cache rho must split it.
    imported = _imported_modules(("factor", "67"), tmp_path)
    assert {"mersenne_omega.factoring", "mersenne_omega.splitting"} <= imported


@pytest.mark.parametrize(
    "argv",
    [
        ("factor", "7"),
        ("omega", "--range", "2", "12"),
        ("primitive", "12"),
        ("classify", "9"),
        ("verify", "--max", "12"),
        ("census", "--min", "2", "--max", "12"),
        ("import", "known.txt"),
    ],
    ids=lambda argv: argv[0],
)
def test_a_query_that_adds_nothing_leaves_the_file_alone(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "known.txt").write_text("11 23\n12 13\n")
    path = tmp_path / "c.json"
    code, first, _ = run(capsys, *argv, "--cache", str(path))
    assert code == 0
    before = path.read_bytes()
    os.utime(path, ns=(10**18, 10**18))
    code, again, _ = run(capsys, *argv, "--cache", str(path))
    assert code == 0
    assert again == first
    assert path.read_bytes() == before
    assert path.stat().st_mtime_ns == 10**18
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "known.txt"]


def test_a_composite_listed_prime_is_refused_when_read(capsys, tmp_path):
    path = tmp_path / "c.json"
    entries = [
        {"n": 7, "factors": [["127", 1]], "status": "complete"},
        {"n": 11, "factors": [["2047", 1]], "status": "complete"},
    ]
    path.write_text(json.dumps({"version": 1, "entries": entries}))
    before = path.read_bytes()
    code, out, _ = run(capsys, "factor", "7", "--cache", str(path))
    assert (code, out) == (0, "127^1\n")
    code, _, err = run(capsys, "factor", "11", "--cache", str(path))
    assert code == 4
    assert "n=11" in err
    # Adding an entry saves, and the save tests n = 11, still unread.
    code, out, err = run(capsys, "factor", "13", "--cache", str(path))
    assert code == 4
    assert out == "8191^1\n"
    assert "n=11" in err
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]
