"""The package's public names, its reach, and what each CLI process imports.

``milnoralg`` resolves its exports lazily (see its docstring); these
tests pin the exported names, check that every name is the defining
module's own object, check that every definition in the package is
reached from the library, a demo or the benchmark, check that every
cache is listed in ``conftest`` as one whose answer depends on the prime
or as an exact one, and check in fresh interpreters that a command loads
only the modules it runs.
"""

import ast
import importlib
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import milnoralg
from conftest import EXACT_CACHES, PRIME_CACHES

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")

# Every name the package exports.
EXPORTED = [
    "AssociatedForm", "ContainmentCheck", "FiberResult", "GeneratorTuple", "HilbertProfile",
    "HomogeneousPolynomial", "KernelReport", "PolyTangentVector", "PreconditionError", "Q",
    "STReport", "Subspace", "SuiteCheck", "apolar_piece", "associated_form", "check_size",
    "containment_implies_equal", "contains", "coordinate_split", "dim_graded",
    "factorial_weights", "fermat", "fiber", "format_poly", "full_subspace", "grlex_key",
    "hilbert_profile", "ideal_piece", "is_complete_intersection", "is_smooth", "jacobian_gens",
    "jacobian_piece", "linear_change", "map_kernel", "mono_basis", "mono_index", "multiply",
    "parse_poly", "partial", "partials_piece", "polar_apply", "random_ci_tuple",
    "random_smooth", "reconstruct_poly", "recover_generators", "run_suite", "socle_degree",
    "span_polys", "span_vectors", "st_report", "tangent_kernel_at_poly",
    "tangent_kernel_at_tuple", "verify_inverse_system", "zero_subspace",
]

PIPELINES = [
    "milnoralg.deformation",
    "milnoralg.reconstruction",
    "milnoralg.inverse_systems",
    "milnoralg.st_analysis",
    "milnoralg.suite",
]

CHILD = """
import sys
sys.path.insert(0, {src!r})
import milnoralg.cli
try:
    code = milnoralg.cli.main({argv!r})
except SystemExit as exc:
    code = exc.code
sys.stderr.write("\\n".join(["EXIT %s" % code] + sorted(sys.modules)))
"""


def loaded_by(*argv):
    """Exit code and sys.modules of a fresh ``python -S`` running one command."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", CHILD.format(src=SRC, argv=list(argv))],
        capture_output=True,
        text=True,
        timeout=120,
    )
    lines = proc.stderr.splitlines()
    assert lines and lines[0].startswith("EXIT "), proc.stderr
    return lines[0][5:], set(lines[1:])


# -- exported names ------------------------------------------------------------------


def test_all_is_the_exported_names():
    assert sorted(milnoralg.__all__) == EXPORTED
    assert milnoralg.__version__ == "0.1.0"


@pytest.mark.parametrize("name", EXPORTED)
def test_export_is_the_defining_modules_object(name):
    home = importlib.import_module(f"milnoralg.{milnoralg._HOME[name]}")
    value = getattr(milnoralg, name)
    assert value is getattr(home, name)
    if name != "Q":  # Q is fractions.Fraction, re-exported by rationals
        assert value.__module__ == home.__name__
    assert name in dir(milnoralg)
    # resolved on every access, never stored in the package namespace
    assert name not in vars(milnoralg)


def test_from_import_and_star_import():
    from milnoralg import fiber, tangent_kernel_at_poly
    from milnoralg.deformation import tangent_kernel_at_poly as direct
    from milnoralg.reconstruction import fiber as direct_fiber

    assert tangent_kernel_at_poly is direct and fiber is direct_fiber
    namespace: dict = {}
    exec("from milnoralg import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == EXPORTED


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        milnoralg.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from milnoralg import no_such_name", {})
    assert not hasattr(milnoralg, "_private_helper")


def test_attribute_follows_the_defining_module(monkeypatch):
    import milnoralg.ideals

    def replacement(f):
        return "replaced"

    monkeypatch.setattr(milnoralg.ideals, "is_smooth", replacement)
    assert milnoralg.is_smooth is replacement
    monkeypatch.undo()
    assert milnoralg.is_smooth is milnoralg.ideals.is_smooth
    assert milnoralg.is_smooth is not replacement


def test_submodules_resolve_without_an_import():
    child = (
        f"import sys; sys.path.insert(0, {SRC!r}); import milnoralg; "
        "assert 'ideals' in dir(milnoralg); "
        "print(milnoralg.ideals.socle_degree(2, 3), 'milnoralg.deformation' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", child], capture_output=True, text=True, timeout=120
    )
    assert proc.stdout.split() == ["3", "False"], proc.stderr


# -- no dead definitions ---------------------------------------------------------------

# Definitions that nothing in the library, the demos or the benchmark reaches, kept:
# they read documented JSON schemas, the inverses of the emitters the CLI uses.
UNREACHED = ["serialize.associated_form_from_dict", "serialize.fiber_from_dict"]


def references(tree) -> Counter:
    """What a syntax tree reads: names, attributes, imported names and "module.name" strings."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and "." in node.value:
            out[node.value] += 1  # the benchmark calls the library as lib("module.name")
    return out


def test_every_definition_is_reached_from_the_library_demos_or_benchmark():
    library = sorted((ROOT / "src" / "milnoralg").glob("*.py"))
    readers = [*library, *(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in readers}
    total = sum((references(tree) for tree in trees.values()), Counter())
    unreached = []
    for path in library:
        for node in trees[path].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("__"):
                name, qualified = node.name, f"{path.stem}.{node.name}"
                own = references(node)  # a recursive call does not count
                if total[name] + total[qualified] == own[name] + own[qualified]:
                    unreached.append(qualified)
    assert sorted(unreached) == UNREACHED


# -- every cache is sorted by the prime ------------------------------------------------


def library_caches() -> dict:
    """Every ``lru_cache`` in the library's module and class namespaces, by qualified name."""
    found = {}
    for path in (ROOT / "src" / "milnoralg").glob("[!_]*.py"):
        module = importlib.import_module(f"milnoralg.{path.stem}")
        spaces = [vars(module)]
        spaces += [
            vars(obj)
            for obj in vars(module).values()
            if isinstance(obj, type) and obj.__module__ == module.__name__
        ]
        for space in spaces:
            for obj in space.values():
                if callable(getattr(obj, "cache_clear", None)) and hasattr(obj, "cache_info"):
                    found[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return found


def test_every_cache_is_listed_once_as_prime_or_exact():
    listed = {f"{c.__module__}.{c.__qualname__}": c for c in (*PRIME_CACHES, *EXACT_CACHES)}
    assert len(listed) == len(PRIME_CACHES) + len(EXACT_CACHES)
    assert listed == library_caches()


# -- what each command imports ---------------------------------------------------------


def test_hilbert_loads_no_pipeline():
    code, modules = loaded_by("hilbert", "--n", "2", "--d", "3", "--format", "json")
    assert code == "0"
    assert "milnoralg.ideals" in modules
    for absent in ["dataclasses", *PIPELINES]:
        assert absent not in modules


def test_tangent_kernel_loads_deformation():
    code, modules = loaded_by("tangent-kernel", "--poly", "x0^3+x1^3+x2^3", "--k", "2")
    assert code == "0"
    assert "milnoralg.deformation" in modules
    assert "dataclasses" not in modules


def test_version_loads_only_rationals():
    code, modules = loaded_by("--version")
    assert code == "0"
    ours = {m for m in modules if m.split(".")[0] == "milnoralg"}
    assert ours == {"milnoralg", "milnoralg.cli", "milnoralg.rationals"}
