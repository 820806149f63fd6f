"""Seeded fuzzing of round trips, records, malformed input and cache bounds.

Every case is drawn from ``random.Random`` with a fixed seed at each size
in ``PAIRS``, with signed fractional coefficients, so a failure names its
seed and reruns exactly. The refusal fuzzing of the CLI draws with
hypothesis, derandomized and with a fixed number of examples, so it too
draws the same cases on every run.
"""

from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache
import importlib
import io
import json
from pathlib import Path
import random
from dataclasses import make_dataclass

from hypothesis import given, settings, strategies as st
import pytest
from conftest import PAIRS
from test_cli import run

import milnoralg
from milnoralg.cli import main
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


# -- refusal fuzzing: generated malformed text and JSON through every command ---------------
#
# Sizes stay at n <= 3: a larger --n can still overflow the recursion of
# ``monomials.mono_basis`` before any size guard refuses it.

FUZZ = settings(derandomize=True, max_examples=200, deadline=None, database=None)
# characters outside the polynomial grammar; any one of them breaks a term
FOREIGN = "#$%&!?;:,.=<>()[]{}_~|'yzX"
RATIONALS = [-3, -2, -1, 1, 2, 3, Q(1, 2), Q(-2, 3), Q(5, 7)]


def call_main(*argv) -> tuple:
    """(exit code, stdout, stderr) of ``cli.main`` in-process; argparse's exit gives its code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_refused(argv, argparse_exit: bool = False):
    """Exit 2 or 3, nothing on stdout and one line on stderr naming the fault, no traceback.

    argparse refuses an option value it takes for an option (text starting
    with "-") with exit 2, its usage and one ``error:`` line of its own.
    """
    code, out, err = call_main(*argv)
    assert code in (2, 3) and out == "" and "Traceback" not in err, (argv, code, out, err)
    lines = err.splitlines()
    if argparse_exit and code == 2 and lines and lines[0].startswith("usage: "):
        assert f"milnoralg {argv[0]}: error: " in lines[-1], (argv, err)
    else:
        assert len(lines) == 1 and err.endswith("\n"), (argv, err)
        assert lines[0].startswith(("error: ", "precondition violated: ")), (argv, err)


@st.composite
def form_text(draw, n: int, degree: int) -> str:
    """The text of a nonzero form of ``degree`` in x0..xn with one to four terms."""
    monos = st.sampled_from(mono_basis(n, degree))
    monos = draw(st.lists(monos, min_size=1, max_size=4, unique=True))
    coeffs = draw(st.lists(st.sampled_from(RATIONALS), min_size=len(monos), max_size=len(monos)))
    return format_poly(HomogeneousPolynomial(n, degree, dict(zip(monos, coeffs))))


@st.composite
def malformed_poly(draw, n: int, degree: int, missing: str) -> str:
    """Polynomial text that no command may accept for a form of ``degree`` in x0..xn.

    Each kind breaks a form of that degree in one way the parser or the
    size check must refuse; ``missing`` is a path that does not exist.
    """
    base = draw(form_text(n, degree))
    kinds = ["foreign", "suffix", "prefix", "exceeds", "inhomogeneous", "degree", "blank"]
    kind = draw(st.sampled_from(kinds + ["rational", "file"]))
    if kind == "foreign":
        at = draw(st.integers(0, len(base)))
        return base[:at] + draw(st.sampled_from(FOREIGN)) + base[at:]
    if kind == "suffix":
        return base + draw(st.sampled_from(["+", "-", "*", "^", "*x", "*x0^", "/0", "x0", " x1"]))
    if kind == "prefix":
        return draw(st.sampled_from(["*", "^", "/", "+*", "^2*"])) + base
    if kind == "exceeds":
        return f"{base} + x{n + draw(st.integers(1, 5))}^{degree}"
    if kind == "inhomogeneous":
        other = draw(st.sampled_from([0, 1, 2, degree + 1, degree + 2]).filter(degree.__ne__))
        return f"{base} + {draw(form_text(n, other))}"
    if kind == "degree":
        return draw(form_text(n, draw(st.integers(0, 1))))
    if kind == "blank":
        return draw(st.sampled_from(["", " ", "\t", "\n  "]))
    if kind == "rational":
        return f"{draw(st.integers(1, 9))}/0*{base}"
    return "@" + draw(st.sampled_from([missing, str(Path(missing).parent)]))


@pytest.fixture(scope="module")
def missing_path(tmp_path_factory):
    """A path in an empty directory of its own: the file is missing, the directory exists."""
    return str(tmp_path_factory.mktemp("refusals") / "missing")


@FUZZ
@given(data=st.data())
def test_malformed_polynomial_text_is_refused_by_every_command(missing_path, data):
    n, d = data.draw(st.integers(1, 3)), data.draw(st.integers(3, 4))
    text = data.draw(malformed_poly(n, d, missing_path))
    command = data.draw(st.sampled_from(["smooth", "st", "fiber", "tangent-kernel"]))
    joined = data.draw(st.booleans())
    argv = [command, *([f"--poly={text}"] if joined else ["--poly", text]), "--n", str(n)]
    if command == "tangent-kernel":
        argv += ["--k", str(data.draw(st.integers(0, 8)))]
    assert_refused(argv, argparse_exit=not joined)


@lru_cache(maxsize=None)
def valid_documents(n: int, d: int) -> dict:
    """The JSON text of the tuple of x_i^(d-1), i <= n, and of its piece in degree d - 1."""
    w = GeneratorTuple(n, d, [parse_poly(f"x{i}^{d - 1}", n=n) for i in range(n + 1)])
    piece = subspace_to_dict(ideal_piece(w, d - 1))
    return {"gens": json.dumps(gens_to_dict(w)), "subspace": json.dumps(piece)}


# for each key of the two schemas, values of a wrong type (or, for "order", value)
NOT_AN_INT, NOT_A_LIST = ["2", 2.0, True, None, [2], {}], ["x0^2", 3, {}, None, True]
WRONG_VALUES = {key: NOT_AN_INT for key in ("n", "d", "degree", "dim")}
WRONG_VALUES.update(gens=NOT_A_LIST, basis=NOT_A_LIST, order=[0, None, ["grlex"], "lex", "GRLEX"])


@st.composite
def malformed_document(draw, n: int, d: int, kind: str, missing: str) -> str:
    """The path of a generator or subspace JSON file no command may accept.

    The valid document of ``valid_documents`` broken in one way: truncated,
    not an object, a key missing or of the wrong type, another ambient
    size, a bad entry, a wrong declared dimension, or no readable file.
    """
    text = valid_documents(n, d)[kind]
    doc = json.loads(text)
    faults = ["truncate", "not_object", "missing", "type", "ambient", "entry", "file"]
    fault = draw(st.sampled_from(faults + (["dim"] if kind == "subspace" else [])))
    if fault == "file":
        return draw(st.sampled_from([missing, str(Path(missing).parent)]))
    if fault == "truncate":
        text = text[: draw(st.integers(0, len(text) - 1))]
    elif fault == "not_object":
        text = json.dumps(draw(st.sampled_from([[], [1, 2], 3, "n", None, True, [{"n": n}]])))
    else:
        if fault == "missing":
            del doc[draw(st.sampled_from(sorted(doc)))]
        elif fault == "type":
            key = draw(st.sampled_from(sorted(doc)))
            doc[key] = draw(st.sampled_from(WRONG_VALUES[key]))
        elif fault == "ambient":
            key = draw(st.sampled_from(["n", "d"] if kind == "gens" else ["n", "degree"]))
            doc[key] = draw(st.integers(-2, 5).filter(lambda v: v != doc[key]))
        elif fault == "dim":
            doc["dim"] += draw(st.sampled_from([-2, -1, 1, 2]))
        elif kind == "gens":
            gens = doc["gens"]
            at = draw(st.integers(0, len(gens) - 1))
            not_text = st.sampled_from([3, None, True, [], {}])
            bad = draw(st.one_of(malformed_poly(n, d - 1, missing), not_text))
            # a bad generator, or one too few or too many
            gens[at:at + 1] = draw(st.sampled_from([[bad], [], [gens[at]] * 2]))
        else:
            rows, amb = doc["basis"], len(doc["basis"][0])
            i = draw(st.integers(0, len(rows) - 1))
            if draw(st.booleans()):
                length = draw(st.integers(0, amb + 2).filter(lambda m: m != amb))
                resized = rows[i][:length] + ["0"] * (length - amb)
                rows[i] = draw(st.sampled_from([resized, 1, "1", None]))
            else:
                bad = [None, 3, True, [], "1/0", "abc", "", "1//2", "0x10", "nan", "inf"]
                bad += ["1e3", "1_000", "1.5", " 1", "+2"]
                rows[i][draw(st.integers(0, amb - 1))] = draw(st.sampled_from(bad))
        text = json.dumps(doc)
    path = Path(missing).with_name(f"{kind}-{fault}.json")
    path.write_text(text)
    return str(path)


@FUZZ
@given(data=st.data())
def test_malformed_json_is_refused_by_every_command(missing_path, data):
    n, d = data.draw(st.integers(1, 3)), data.draw(st.integers(3, 4))
    kind = data.draw(st.sampled_from(["gens", "subspace"]))
    path = data.draw(malformed_document(n, d, kind, missing_path))
    if kind == "subspace":
        argv = ["reconstruct", "--subspace", path, "--d", str(d)]
    elif data.draw(st.booleans()):
        argv = ["inverse-system", "--gens", path]
    else:
        argv = ["tangent-kernel", "--gens", path, "--k", str(data.draw(st.integers(0, 8)))]
    assert_refused(argv)


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
