import json

import pytest

from milnoralg import (
    associated_form,
    fermat,
    fiber,
    hilbert_profile,
    ideal_piece,
    jacobian_gens,
    random_ci_tuple,
    st_report,
    tangent_kernel_at_poly,
    tangent_kernel_at_tuple,
)
from milnoralg.serialize import (
    associated_form_from_dict,
    associated_form_to_dict,
    fiber_from_dict,
    fiber_to_dict,
    gens_from_dict,
    gens_to_dict,
    hilbert_to_dict,
    kernel_report_to_dict,
    st_report_to_dict,
    subspace_from_dict,
    subspace_to_dict,
)


def through_json(obj):
    return json.loads(json.dumps(obj))


def test_subspace_round_trip():
    sub = ideal_piece(random_ci_tuple(2, 3, seed=1), 2)
    doc = through_json(subspace_to_dict(sub))
    assert doc["order"] == "grlex" and doc["dim"] == sub.dim
    assert subspace_from_dict(doc) == sub


def test_subspace_from_dict_canonicalizes():
    from milnoralg.rationals import Q

    sub = ideal_piece(random_ci_tuple(2, 3, seed=2), 2)
    doc = subspace_to_dict(sub)
    # scale a row and reverse the order: same space, different spelling
    scaled = [[str(Q(3, 2) * Q(x)) for x in row] for row in reversed(doc["basis"])]
    doc["basis"] = scaled
    assert subspace_from_dict(doc) == sub


def test_subspace_from_dict_errors():
    sub = ideal_piece(random_ci_tuple(2, 3, seed=3), 2)
    doc = subspace_to_dict(sub)
    bad = dict(doc)
    bad["dim"] = doc["dim"] + 1
    with pytest.raises(ValueError):
        subspace_from_dict(bad)
    bad = dict(doc)
    bad["order"] = "lex"
    with pytest.raises(ValueError):
        subspace_from_dict(bad)
    bad = dict(doc)
    del bad["basis"]
    with pytest.raises(ValueError):
        subspace_from_dict(bad)


@pytest.mark.parametrize("literal", ["1e3", "1_000", "1.5", " 1", "+2", "1/0", "1/-2", "\u0661"])
def test_subspace_from_dict_reads_only_what_format_rational_writes(literal):
    # fractions.Fraction reads the first five as 1000, 1000, 3/2, 1 and 2
    doc = through_json(subspace_to_dict(ideal_piece(random_ci_tuple(1, 3, seed=3), 2)))
    doc["basis"][0][0] = literal
    with pytest.raises(ValueError, match="bad rational literal"):
        subspace_from_dict(doc)
    doc["basis"][0][0] = "-7/3"
    subspace_from_dict(doc)


@pytest.mark.parametrize("key", ["n", "degree", "dim"])
def test_subspace_from_dict_rejects_booleans(key):
    doc = through_json(subspace_to_dict(ideal_piece(random_ci_tuple(1, 3, seed=3), 2)))
    doc[key] = True  # JSON true, which Python would otherwise accept as the int 1
    with pytest.raises(ValueError, match=f"key '{key}' has type bool"):
        subspace_from_dict(doc)


def test_other_schemas_reject_booleans():
    gens = through_json(gens_to_dict(random_ci_tuple(1, 3, seed=4)))
    af = through_json(associated_form_to_dict(associated_form(random_ci_tuple(1, 3, seed=5))))
    fib = through_json(fiber_to_dict(fiber(jacobian_gens(fermat(1, 3)), 3)))
    cases = [(gens, "n", gens_from_dict), (gens, "d", gens_from_dict)]
    cases += [(af, key, associated_form_from_dict) for key in ("n", "d", "T")]
    cases += [(fib, "s", lambda doc: fiber_from_dict(doc, n=1, d=3))]
    for doc, key, load in cases:
        bad = dict(doc, **{key: False if doc[key] == 0 else True})
        with pytest.raises(ValueError, match="has type bool"):
            load(bad)
        load(doc)  # the untouched document still loads


def test_gens_round_trip():
    w = random_ci_tuple(2, 4, seed=4)
    doc = through_json(gens_to_dict(w))
    assert gens_from_dict(doc) == w


def test_fiber_round_trip():
    result = fiber(jacobian_gens(fermat(2, 3)), 3)
    doc = through_json(fiber_to_dict(result))
    assert set(doc) == {"s", "basis"}
    back = fiber_from_dict(doc, n=2, d=3)
    assert back == result


def test_associated_form_round_trip():
    af = associated_form(random_ci_tuple(2, 3, seed=5))
    doc = through_json(associated_form_to_dict(af))
    assert set(doc) == {"n", "d", "T", "form"}
    assert associated_form_from_dict(doc) == af


def test_st_report_schema():
    doc = through_json(st_report_to_dict(st_report(fermat(2, 3))))
    assert doc["is_st"] is True and doc["s"] == 3
    assert doc["fiber"]["s"] == 3


def test_kernel_report_schema_poly_and_tuple():
    poly_doc = through_json(kernel_report_to_dict(tangent_kernel_at_poly(fermat(2, 3), 2)))
    assert set(poly_doc) == {"k", "tangent_dim", "kernel_dim", "kernel_basis"}
    assert poly_doc["kernel_dim"] == len(poly_doc["kernel_basis"]) >= 2
    assert all(isinstance(entry, str) for entry in poly_doc["kernel_basis"])

    w = random_ci_tuple(2, 3, seed=6)
    tuple_doc = through_json(kernel_report_to_dict(tangent_kernel_at_tuple(w, 2)))
    assert tuple_doc["kernel_dim"] == 0 and tuple_doc["kernel_basis"] == []


def test_hilbert_schema():
    doc = through_json(hilbert_to_dict(hilbert_profile(2, 3)))
    assert doc == {
        "n": 2,
        "d": 3,
        "T": 3,
        "a": [1, 3, 3, 1, 0],
        "b": [0, 0, 3, 9, 15],
    }
