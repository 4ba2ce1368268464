import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import mersenne_omega
from mersenne_omega import arith, factoring

SUBMODULES = ("arith", "factoring", "cyclotomic", "classify", "census", "storage")


def test_package_exports_the_union_of_submodule_exports():
    union = set()
    for name in SUBMODULES:
        union.update(importlib.import_module(f"mersenne_omega.{name}").__all__)
    assert set(mersenne_omega.__all__) == union
    assert all(hasattr(mersenne_omega, name) for name in mersenne_omega.__all__)


def test_submodule_exports_are_disjoint_and_the_package_list_sorted():
    # A name exported by two submodules would be shadowed by the star import
    # that comes later in the package's __init__.
    exports = [set(importlib.import_module(f"mersenne_omega.{name}").__all__) for name in SUBMODULES]
    for i, first in enumerate(exports):
        for second in exports[i + 1 :]:
            assert first.isdisjoint(second)
    assert mersenne_omega.__all__ == sorted(mersenne_omega.__all__)


# Exported with no caller in the package, the CLI or perfbench: README
# presents these two as the paper's floors on omega(2^n - 1).
UNCALLED_EXPORTS = ("lower_bound_divisors", "lower_bound_omega")


def _names_read(path):
    """Every name a module loads or reads as an attribute.  A definition,
    an assignment target and an __all__ string are none of these."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_export_has_a_caller_in_the_package_or_perfbench():
    root = Path(__file__).parents[1]
    paths = [*(root / "src" / "mersenne_omega").glob("*.py"), *(root / "perfbench").glob("*.py")]
    read = set().union(*(_names_read(path) for path in paths if not path.name.startswith("test_")))
    uncalled = [
        name
        for sub in SUBMODULES
        for name in importlib.import_module(f"mersenne_omega.{sub}").__all__
        if name not in read
    ]
    assert sorted(uncalled) == list(UNCALLED_EXPORTS)


def test_arith_imports_nothing_from_the_package():
    tree = ast.parse(Path(mersenne_omega.__file__).with_name("arith.py").read_text())
    relative = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]
    assert relative == []


def test_cli_loads_and_saves_the_cache_only_in_main():
    tree = ast.parse(Path(mersenne_omega.__file__).with_name("cli.py").read_text())
    sites = {"load_cache": [], "save_cache": []}
    for function in ast.walk(tree):
        if isinstance(function, ast.FunctionDef):
            for node in ast.walk(function):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) in sites:
                    sites[node.func.id].append(function.name)
    assert sites == {"load_cache": ["main"], "save_cache": ["main"]}


def test_trial_sieve_keeps_its_name():
    # perfbench/spans.py traces the cached trial-division sieve under this name.
    assert factoring._sieve_primes(30) == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
    # It traces every (module, name) in its TRACED list, so a function that
    # moves or is renamed fails here rather than in the traced benchmark run.
    for module, name in _traced():
        assert hasattr(importlib.import_module(f"mersenne_omega.{module}"), name), (module, name)


def _traced():
    """perfbench/spans.py's TRACED list of (home module, function name)."""
    path = Path(__file__).parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


def test_work_ledger_keeps_its_binding():
    # perfbench/spans.py builds a FactorStats when factor_mersenne gets
    # none, and reads these four counters around each call.
    names = ["rho_iterations", "rho_calls", "trial_candidates", "cache_hits"]
    assert list(factoring.FactorStats.__slots__) == names
    stats = factoring.FactorStats()
    for name in names:
        assert getattr(stats, name) == 0
        setattr(stats, name, getattr(stats, name) + 1)
        assert getattr(stats, name) == 1
    assert list(inspect.signature(factoring.factor_mersenne).parameters) == [
        "n",
        "budget",
        "cache",
        "stats",
    ]


def test_primality_test_keeps_one_parameter():
    # perfbench/spans.py wraps it as traced(x); a second parameter would
    # break the traced run.
    assert list(inspect.signature(arith.is_probable_prime).parameters) == ["x"]


def _names_imported_at_import_time(tree):
    """Last components of the modules and names imported outside function
    bodies, which run when the module is imported."""
    names = set()
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
            if node.module:
                names.add(node.module.rsplit(".", 1)[-1])
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_cli_and_package_import_no_command_module_at_module_level():
    # classify, census and cyclotomic are imported by the commands that use
    # them, so a warm factor or omega query never loads them.
    deferred = {"classify", "census", "cyclotomic"}
    for filename in ("cli.py", "__init__.py"):
        tree = ast.parse(Path(mersenne_omega.__file__).with_name(filename).read_text())
        assert _names_imported_at_import_time(tree).isdisjoint(deferred), filename


def test_splitting_and_cyclotomic_load_only_where_they_are_used():
    # Rho, p-1 and ECM load only when factor_mersenne has a piece to split,
    # and classify loads cyclotomic only for verify_identities, so a warm
    # query compiles neither.
    package = Path(mersenne_omega.__file__).parent
    for path in sorted(package.glob("*.py")):
        assert "splitting" not in _names_imported_at_import_time(ast.parse(path.read_text())), path.name
    tree = ast.parse((package / "classify.py").read_text())
    assert "cyclotomic" not in _names_imported_at_import_time(tree)
    users = {
        function.name
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.ImportFrom) and node.module == "cyclotomic"
    }
    assert users == {"verify_identities"}


def test_splitting_imports_only_untraced_helpers_from_arith():
    # perfbench/spans.py patches the traced functions only in the modules it
    # lists, which splitting is not; a traced name imported into splitting
    # would slip past its spans.
    tree = ast.parse(Path(mersenne_omega.__file__).with_name("splitting.py").read_text())
    imported = {
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
    }
    assert imported and {module for module, _ in imported} == {"arith"}
    assert imported.isdisjoint(_traced())


def test_no_module_imports_dataclasses():
    # The records are NamedTuples or __slots__ classes, so no process pays
    # for importing dataclasses and inspect.
    for path in sorted(Path(mersenne_omega.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert "dataclasses" not in modules, path.name
