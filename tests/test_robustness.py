"""Seeded fuzzing of round trips, records, malformed input and cache bounds.

Every case is drawn from ``random.Random`` with a fixed seed at each size
in ``PAIRS``, with signed fractional coefficients, so a failure names its
seed and reruns exactly.
"""

import importlib
import json
import random
from dataclasses import make_dataclass

import pytest
from conftest import PAIRS
from test_cli import run

import milnoralg
from milnoralg import (
    AssociatedForm,
    FiberResult,
    GeneratorTuple,
    HomogeneousPolynomial,
    PreconditionError,
    Q,
    format_poly,
    hilbert_profile,
    ideal_piece,
    mono_basis,
    parse_poly,
    random_ci_tuple,
    socle_degree,
    span_vectors,
)
from milnoralg.serialize import (
    associated_form_from_dict,
    associated_form_to_dict,
    gens_from_dict,
    gens_to_dict,
    subspace_from_dict,
    subspace_to_dict,
)

SEEDS = range(6)
CASES = [(n, d, seed) for n, d in PAIRS for seed in SEEDS]


def rational(rng):
    return Q(rng.randint(-60, 60), rng.randint(1, 40))


def random_form(rng, n, degree, density=0.5):
    """A form with signed fractional coefficients on a random set of monomials."""
    terms = {a: rational(rng) for a in mono_basis(n, degree) if rng.random() < density}
    return HomogeneousPolynomial(n, degree, terms)


def random_tuple(rng, n, d):
    """Generators x_i^(d-1) plus fractional perturbations; independent, maybe not CI."""
    while True:
        gens = []
        for i in range(n + 1):
            power = HomogeneousPolynomial.monomial(n, [d - 1 if j == i else 0 for j in range(n + 1)])
            gens.append(power + random_form(rng, n, d - 1, density=0.3))
        try:
            return GeneratorTuple(n, d, gens)
        except PreconditionError:  # dependent draw
            continue


def random_associated_form(rng, n, d):
    while True:
        form = random_form(rng, n, socle_degree(n, d))
        if not form.is_zero():
            return AssociatedForm(form.normalized(), d)


def through_json(obj):
    return json.loads(json.dumps(obj))


# -- round trips --------------------------------------------------------------------------


@pytest.mark.parametrize("n,d,seed", CASES)
def test_poly_text_round_trip(n, d, seed):
    rng = random.Random(f"poly:{n}:{d}:{seed}")
    for degree in (d - 1, d, socle_degree(n, d)):
        f = random_form(rng, n, degree, density=rng.choice([0.0, 0.2, 0.6, 1.0]))
        assert parse_poly(format_poly(f), n=n, degree=degree) == f


@pytest.mark.parametrize("n,d,seed", CASES)
def test_json_schema_round_trips(n, d, seed):
    rng = random.Random(f"json:{n}:{d}:{seed}")
    w = random_tuple(rng, n, d)
    assert gens_from_dict(through_json(gens_to_dict(w))) == w

    k = rng.randint(0, socle_degree(n, d) + 1)
    size = len(mono_basis(n, k))
    vectors = [
        [rational(rng) if rng.random() < 0.5 else 0 for _ in range(size)]
        for _ in range(rng.randint(0, size))
    ]
    sub = span_vectors(n, k, vectors)
    assert subspace_from_dict(through_json(subspace_to_dict(sub))) == sub

    af = random_associated_form(rng, n, d)
    assert associated_form_from_dict(through_json(associated_form_to_dict(af))) == af


@pytest.mark.parametrize("n,d,seed", CASES[::3])
def test_associated_form_rejects_invalid_forms(n, d, seed):
    rng = random.Random(f"af:{n}:{d}:{seed}")
    af = random_associated_form(rng, n, d)
    doc = associated_form_to_dict(af)
    doc["form"] = format_poly(af.form * Q(-rng.randint(2, 9), rng.randint(1, 9)))
    with pytest.raises(ValueError, match="normalized"):
        associated_form_from_dict(doc)
    with pytest.raises(ValueError, match="zero"):
        AssociatedForm(HomogeneousPolynomial.zero(n, af.socle), d)
    with pytest.raises(ValueError, match="socle degree"):
        AssociatedForm(af.form, d + 1)


# -- records --------------------------------------------------------------------------------

# Each record's fields and whether its former dataclass was frozen.
RECORDS = {
    "HilbertProfile": (("n", "d", "socle", "values"), True),
    "KernelReport": (("k", "tangent_dim", "kernel_dim", "basis"), True),
    "AssociatedForm": (("form", "d"), True),
    "FiberResult": (("d", "basis"), True),
    "STReport": (("is_st", "s", "fiber"), True),
    "SuiteCheck": (("name", "ok", "seconds", "detail"), False),
}


def record_values(name, rng, n, d):
    forms = tuple(random_form(rng, n, d) for _ in range(rng.randint(0, 3)))
    if name == "HilbertProfile":
        profile = hilbert_profile(n, rng.choice([d, d + 1]))
        return (profile.n, profile.d, profile.socle, profile.values)
    if name == "KernelReport":
        return (rng.randint(d - 1, d + 2), rng.randint(0, 9), len(forms), forms)
    if name == "AssociatedForm":
        return (random_associated_form(rng, n, d).form, d)
    if name == "FiberResult":
        return (d, forms)
    if name == "STReport":
        return (len(forms) >= 2, len(forms), FiberResult(d, forms))
    return (rng.choice(["profile", "fiber"]), rng.choice([True, False, None]), rng.random(), "")


@pytest.mark.parametrize("n,d,seed", CASES[::2])
def test_records_behave_like_their_dataclasses(n, d, seed):
    rng = random.Random(f"records:{n}:{d}:{seed}")
    for name, (fields, frozen) in RECORDS.items():
        new = getattr(milnoralg, name)
        old = make_dataclass(name, fields, frozen=frozen)
        a = record_values(name, rng, n, d)
        b = a if rng.random() < 0.3 else record_values(name, rng, n, d)
        assert repr(new(*a)) == repr(old(*a))
        for x, y in [(a, a), (a, b), (b, a)]:
            assert (new(*x) == new(*y)) == (old(*x) == old(*y))
            assert (new(*x) != new(*y)) == (old(*x) != old(*y))
        if frozen:
            assert hash(new(*a)) == hash(old(*a))
        else:  # the mutable SuiteCheck dataclass had no hash; the record has one
            assert hash(new(*a)) == hash(a)


# -- malformed CLI input --------------------------------------------------------------------


def malformed_commands(tmp_path, rng, n, d):
    w = random_ci_tuple(n, d, seed=rng.randrange(1 << 20))
    docs = {
        "gens": (gens_to_dict(w), ("n", "d"), "gens"),
        "subspace": (subspace_to_dict(ideal_piece(w, d)), ("n", "degree", "dim"), "basis"),
    }
    commands = {
        "gens": lambda path: ["inverse-system", "--gens", path],
        "subspace": lambda path: ["reconstruct", "--subspace", path, "--d", str(d)],
    }
    cases = []
    for kind, (doc, int_keys, list_key) in docs.items():
        text = json.dumps(doc)
        truncated = tmp_path / f"{kind}-truncated.json"
        truncated.write_text(text[: rng.randrange(1, len(text))])
        wrong_int = dict(doc)
        key = rng.choice(int_keys)
        wrong_int[key] = str(doc[key])  # a string where an int belongs
        wrong_str = dict(doc)
        entries = json.loads(json.dumps(doc[list_key]))
        if kind == "gens":
            entries[rng.randrange(len(entries))] = rng.randint(-9, 9)
        else:
            row = entries[rng.randrange(len(entries))]
            row[rng.randrange(len(row))] = rng.choice([rng.randint(-9, 9), None])
        wrong_str[list_key] = entries  # an int or null where a string belongs
        cases.append(commands[kind](str(truncated)))
        for label, bad in (("int", wrong_int), ("str", wrong_str)):
            path = tmp_path / f"{kind}-{label}.json"
            path.write_text(json.dumps(bad))
            cases.append(commands[kind](str(path)))

    f = random_form(rng, n, d)
    stray = "x9" if n == 2 else f"x{n + rng.randint(1, 9)}"
    poly = f"{format_poly(f)} + 1/2*{stray}^{d}"
    for command in ("smooth", "st", "fiber"):
        cases.append([command, "--poly", poly, "--n", str(n)])
        cases.append([command, "--poly", rng.choice(["", " ", "\t"])])
    cases.append(["tangent-kernel", "--poly", poly, "--n", str(n), "--k", str(d)])
    cases.append(["tangent-kernel", "--poly", "", "--k", str(d)])
    return cases


@pytest.mark.parametrize("n,d", PAIRS)
def test_malformed_input_exits_2(tmp_path, capsys, n, d):
    rng = random.Random(f"malformed:{n}:{d}")
    for argv in malformed_commands(tmp_path, rng, n, d):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == "" and err.startswith("error: "), (argv, err)
        assert "Traceback" not in err and err.count("\n") == 1


# -- cache bounds ----------------------------------------------------------------------------


def binary_cubic(c0, c1):
    return HomogeneousPolynomial(1, 3, {(3, 0): 1, (2, 1): c0, (0, 3): c1})


def quadric_tuple(c):
    gens = [HomogeneousPolynomial(1, 2, {(2, 0): 1, (0, 2): c}), HomogeneousPolynomial(1, 2, {(1, 1): 1})]
    return GeneratorTuple(1, 3, gens)


@pytest.mark.parametrize(
    "module, name, args",
    [
        ("ideals", "is_smooth", lambda i: (binary_cubic(0, i + 1),)),
        ("ideals", "_relay", lambda i: (quadric_tuple(i + 1).span, 2)),
        ("reconstruction", "_reference_fault", lambda i: (binary_cubic(i + 1, 0),)),
        ("ideals", "jacobian_gens", lambda i: (binary_cubic(0, i + 1),)),
        ("reconstruction", "forms_with_partials_in", lambda i: (quadric_tuple(i + 1).span,)),
    ],
)
def test_user_keyed_caches_stay_bounded(module, name, args):
    cached = getattr(importlib.import_module(f"milnoralg.{module}"), name)
    bound = cached.cache_info().maxsize
    assert bound is not None
    cached.cache_clear()
    for i in range(bound + 40):
        cached(*args(i))
        assert cached.cache_info().currsize <= bound
    assert cached.cache_info().currsize == bound
    assert cached.cache_info().misses == bound + 40
