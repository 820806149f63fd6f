import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from milnoralg import ideal_piece, random_ci_tuple
from milnoralg.cli import main
from milnoralg.serialize import gens_to_dict, subspace_to_dict


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- hilbert -------------------------------------------------------------------


def test_hilbert_text(capsys):
    code, out, _ = run(capsys, "hilbert", "--n", "2", "--d", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n=2 d=3 T=3"
    assert lines[2] == "0 1 0"
    assert "3 1 9  (socle)" in lines
    assert lines[-1] == "4 0 15"


def test_hilbert_json(capsys):
    code, out, _ = run(capsys, "hilbert", "--n", "1", "--d", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["a"] == [1, 2, 1, 0]


def test_hilbert_rejects_n_zero(capsys):
    code, _, err = run(capsys, "hilbert", "--n", "0", "--d", "3")
    assert code == 2
    assert "error" in err


# -- smooth / st / fiber -----------------------------------------------------------


def test_smooth_true_false(capsys):
    code, out, _ = run(capsys, "smooth", "--poly", "x0^3+x1^3+x2^3")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "smooth", "--poly", "x0^3 + x1^3 + x2^3 - 3*x0*x1*x2")
    assert code == 0 and out.strip() == "false"


def test_st_fermat_json(capsys):
    code, out, _ = run(capsys, "st", "--poly", "x0^3+x1^3+x2^3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["is_st"] is True and doc["s"] == 3


def test_st_singular_exit_3(capsys):
    code, _, err = run(capsys, "st", "--poly", "x0^3 + x1^3 + x2^3 - 3*x0*x1*x2")
    assert code == 3
    assert "precondition" in err


def test_st_rejects_quadric_exit_2(capsys):
    # at d = 2 the fiber is all of S_2, so its dimension counts no summands
    code, out, err = run(capsys, "st", "--poly", "x0^2+x1^2")
    assert code == 2 and out == "" and "d >= 3" in err


def test_fiber_command(capsys):
    code, out, _ = run(capsys, "fiber", "--poly", "x0^3+x1^3+x2^3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["s"] == 3 and doc["basis"] == ["x0^3", "x1^3", "x2^3"]


def test_poly_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "smooth", "--poly", "3x0")
    assert code == 2 and "error" in err


def test_poly_file_indirection(tmp_path, capsys):
    path = tmp_path / "poly.txt"
    path.write_text("x0^3+x1^3+x2^3\n")
    code, out, _ = run(capsys, "smooth", "--poly", f"@{path}")
    assert code == 0 and out.strip() == "true"


# -- reconstruct -------------------------------------------------------------------


def test_reconstruct_round_trip(tmp_path, capsys):
    w = random_ci_tuple(2, 3, seed=8)
    piece = ideal_piece(w, 3)
    path = tmp_path / "subspace.json"
    path.write_text(json.dumps(subspace_to_dict(piece)))
    code, out, _ = run(
        capsys, "reconstruct", "--subspace", str(path), "--d", "3", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["s"] >= 1 and len(doc["basis"]) == doc["s"]


def test_reconstruct_malformed_json_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "reconstruct", "--subspace", str(path), "--d", "3")
    assert code == 2 and "error" in err


def test_reconstruct_invalid_piece_exit_3(tmp_path, capsys):
    # a subspace of the right ambient but not a valid graded piece
    from milnoralg import span_polys, parse_poly

    junk = span_polys([parse_poly("x0^3", n=2)], n=2, k=3)
    path = tmp_path / "junk.json"
    path.write_text(json.dumps(subspace_to_dict(junk)))
    code, _, err = run(capsys, "reconstruct", "--subspace", str(path), "--d", "3")
    assert code == 3 and "precondition" in err


@pytest.mark.parametrize(
    "rows,k,d",
    [
        # x0^2, x0*x1, x0*x2: dimension b(2) at (2, 3), not a complete intersection
        ([[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]], 2, 3),
        # dimension b(4) = 9 at (2, 4), colon piece too small
        ([[1 if j == i else (i + 2 * j) % 3 - 1 for j in range(15)] for i in range(9)], 4, 4),
    ],
)
def test_reconstruct_piece_of_right_dimension_exit_3_one_line(tmp_path, capsys, rows, k, d):
    from milnoralg import span_vectors

    piece = span_vectors(2, k, rows)
    path = tmp_path / "piece.json"
    path.write_text(json.dumps(subspace_to_dict(piece)))
    code, out, err = run(capsys, "reconstruct", "--subspace", str(path), "--d", str(d))
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("precondition violated: ")


def test_reconstruct_boolean_n_is_schema_error_exit_2(tmp_path, capsys):
    # JSON true must not pass as n = 1 and then fail later as a precondition
    doc = {"n": True, "degree": 2, "order": "grlex", "dim": 1, "basis": [["1", "0", "0"]]}
    path = tmp_path / "subspace.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "reconstruct", "--subspace", str(path), "--d", "3")
    assert code == 2 and out == ""
    assert "key 'n' has type bool" in err


def test_reconstruct_flag_mismatch_exit_2(tmp_path, capsys):
    w = random_ci_tuple(2, 3, seed=8)
    path = tmp_path / "subspace.json"
    path.write_text(json.dumps(subspace_to_dict(ideal_piece(w, 3))))
    code, _, _ = run(
        capsys, "reconstruct", "--subspace", str(path), "--d", "3", "--k", "2"
    )
    assert code == 2


# -- inverse-system / tangent-kernel --------------------------------------------------


def test_inverse_system_command(tmp_path, capsys):
    w = random_ci_tuple(2, 3, seed=9)
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(gens_to_dict(w)))
    code, out, _ = run(capsys, "inverse-system", "--gens", str(path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["T"] == 3 and doc["form"]


def test_tangent_kernel_poly(capsys):
    code, out, _ = run(
        capsys, "tangent-kernel", "--poly", "x0^3+x1^3+x2^3", "--k", "2", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kernel_dim"] >= 2


def test_tangent_kernel_gens(tmp_path, capsys):
    w = random_ci_tuple(2, 3, seed=10)
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(gens_to_dict(w)))
    code, out, _ = run(
        capsys, "tangent-kernel", "--gens", str(path), "--k", "3", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["kernel_dim"] == 0


def test_tangent_kernel_requires_one_input(capsys):
    code, _, err = run(capsys, "tangent-kernel", "--k", "2")
    assert code == 2 and "exactly one" in err


def test_tangent_kernel_non_st_quartic_top_degree(capsys):
    from milnoralg import format_poly, random_smooth

    f = random_smooth(2, 4, seed=3, require_non_st=True)
    code, out, _ = run(
        capsys, "tangent-kernel", "--poly", format_poly(f), "--k", "5", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["kernel_dim"] == 0


# -- random ---------------------------------------------------------------------------


def test_random_deterministic(capsys):
    code1, out1, _ = run(capsys, "random", "--n", "2", "--d", "3", "--seed", "5")
    code2, out2, _ = run(capsys, "random", "--n", "2", "--d", "3", "--seed", "5")
    assert code1 == code2 == 0
    assert out1 == out2


def test_random_non_st_flag(capsys):
    code, out, _ = run(
        capsys, "random", "--n", "2", "--d", "3", "--seed", "5", "--non-st", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 2 and doc["d"] == 3 and doc["poly"]


def test_random_cap_exhaustion_exit_3(capsys):
    code, _, err = run(
        capsys,
        "random", "--n", "2", "--d", "3", "--seed", "5", "--non-st", "--coeff-bound", "0",
    )
    assert code == 3 and "precondition" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["random", "--n", "2", "--d", "3", "--seed", "-5"],
        ["suite", "--n", "2", "--d", "3", "--seed", "-1"],
    ],
    ids=["random", "suite"],
)
def test_negative_seed_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: need seed >= 0, got {argv[-1]}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["random", "--n", "1", "--d", "3", "--seed", "0", "--coeff-bound", "-1"],
            "need coeff_bound >= 0, got -1",
        ),
        (
            ["suite", "--n", "1", "--d", "3", "--polys", "0", "--tuples", "-2"],
            "need polys >= 0 and tuples >= 0, got polys=0, tuples=-2",
        ),
        (
            ["suite", "--n", "1", "--d", "3", "--polys", "-1", "--tuples", "0"],
            "need polys >= 0 and tuples >= 0, got polys=-1, tuples=0",
        ),
    ],
    ids=["random --coeff-bound", "suite --tuples", "suite --polys"],
)
def test_negative_sizes_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("budget", ["-1", "nan"])
def test_negative_or_nan_budget_exit_2(capsys, budget):
    code, out, err = run(capsys, "suite", "--n", "1", "--d", "3", "--budget", budget)
    assert (code, out) == (2, "")
    assert err == f"error: need budget >= 0, got {float(budget)}\n"


# -- output handling --------------------------------------------------------------------


def test_out_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "out.json"
    code, out, _ = run(
        capsys, "hilbert", "--n", "2", "--d", "3", "--format", "json", "--out", str(path)
    )
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["T"] == 3


def test_byte_identical_outputs(capsys):
    first = run(capsys, "st", "--poly", "x0^3+x1^3+x2^3", "--format", "json")
    second = run(capsys, "st", "--poly", "x0^3+x1^3+x2^3", "--format", "json")
    assert first == second


# -- version ---------------------------------------------------------------------------------


def test_version_reports_backend(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == "milnoralg 0.1.0 (fractions.Fraction)\n"


def test_fraction_is_the_one_rational_type_even_beside_gmpy2(tmp_path):
    # a stand-in gmpy2 whose mpq is another class, first on the path of a fresh interpreter
    stub = "from fractions import Fraction\n\nclass mpq(Fraction):\n    pass\n"
    (tmp_path / "gmpy2.py").write_text(stub)
    child = (
        "import fractions, gmpy2\n"
        "import milnoralg.rationals as rationals\n"
        "from milnoralg.cli import main\n"
        "print(gmpy2.mpq is not fractions.Fraction, rationals.Q is fractions.Fraction)\n"
        "main(['--version'])\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tmp_path), str(src)])}
    proc = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True True\nmilnoralg 0.1.0 (fractions.Fraction)\n"


# -- suite ---------------------------------------------------------------------------------


def test_suite_small(capsys):
    code, out, _ = run(
        capsys, "suite", "--n", "2", "--d", "3", "--polys", "2", "--tuples", "2"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 10
    assert all(line.startswith("PASS") for line in lines)
    assert any("well-definedness" in line and "vacuous" in line for line in lines)
    (line,) = [line for line in lines if line.startswith("PASS containment (")]
    assert line.endswith(
        ": 0 of 60 random h contained, as the theorem predicts; "
        "the contained case rests on the scaled-f check (2 forms)"
    )


def test_suite_binary_cubics_is_vacuous_not_failed(capsys):
    # every smooth binary cubic is a direct sum, so the non-direct-sum phases
    # have nothing to check at (1, 3) and must say so instead of failing
    code, out, _ = run(capsys, "suite", "--n", "1", "--d", "3", "--polys", "2", "--tuples", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 10
    assert all(line.startswith("PASS") for line in lines)
    for name in ("polynomial-round-trip", "tangent-kernel-polys", "containment"):
        (line,) = [line for line in lines if line.startswith(f"PASS {name} (")]
        assert line.endswith(": vacuous: every smooth binary cubic is a direct sum")


def test_suite_json(capsys):
    code, out, _ = run(
        capsys,
        "suite", "--n", "2", "--d", "3", "--polys", "1", "--tuples", "2",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc) == 10
    assert all(entry["ok"] for entry in doc)


# -- one domain check at every entry point -----------------------------------------------


def one_variable_files(tmp_path):
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps({"n": 0, "d": 3, "gens": ["x0^2"]}))
    sub = tmp_path / "subspace.json"
    sub.write_text(
        json.dumps({"n": 0, "degree": 2, "order": "grlex", "dim": 1, "basis": [["1"]]})
    )
    return str(gens), str(sub)


@pytest.mark.parametrize(
    "argv",
    [
        ["hilbert", "--n", "0", "--d", "3"],
        ["hilbert", "--n", "2", "--d", "1"],
        ["smooth", "--poly", "x0^2"],
        ["smooth", "--poly", "x0 + x1"],
        ["st", "--poly", "x0^3"],
        ["fiber", "--poly", "x0^3"],
        ["fiber", "--poly", "x0 + x1"],
        ["tangent-kernel", "--poly", "x0^3", "--k", "2"],
        ["tangent-kernel", "--gens", "GENS", "--k", "2"],
        ["inverse-system", "--gens", "GENS"],
        ["reconstruct", "--subspace", "SUBSPACE", "--d", "3"],
        ["random", "--n", "0", "--d", "3", "--seed", "1"],
        ["random", "--n", "2", "--d", "1", "--seed", "1"],
    ],
    ids=lambda argv: " ".join(argv[:2]) + "..." + argv[-1],
)
def test_size_outside_domain_exit_2(tmp_path, capsys, argv):
    gens, sub = one_variable_files(tmp_path)
    argv = [{"GENS": gens, "SUBSPACE": sub}.get(a, a) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "need n >= 1 and d >= 2" in err


@pytest.mark.parametrize(
    "argv, got",
    [
        (["hilbert", "--n", "-1", "--d", "3"], "n=-1, d=3"),
        (["hilbert", "--n", "0", "--d", "1"], "n=0, d=1"),
        (["reconstruct", "--subspace", "MISSING", "--d", "3", "--n", "0"], "n=0, d=3"),
        (["st", "--poly", "x0^3+x1^3+x2^3", "--n", "-1"], "n=-1"),
        (["smooth", "--poly", "x0^3+x1^3+x2^3", "--n", "-1"], "n=-1"),
        (["smooth", "--poly", "x0^3", "--n", "0"], "n=0"),
        (["fiber", "--poly", "@MISSING", "--n", "0"], "n=0"),
        (["tangent-kernel", "--poly", "x0^3+x1^3", "--n", "-1", "--k", "2"], "n=-1"),
        (["tangent-kernel", "--gens", "MISSING", "--n", "0", "--k", "2"], "n=0"),
        (["random", "--n", "-1", "--d", "3", "--seed", "0"], "n=-1, d=3"),
        (["suite", "--n", "0", "--d", "3"], "n=0, d=3"),
        (["suite", "--n", "-2", "--d", "1", "--seed", "-1"], "n=-2, d=1"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else v,
)
def test_n_below_one_is_refused_alike_before_any_input_is_read(tmp_path, capsys, argv, got):
    # a missing file, or variables beyond n, would give another message if read first
    argv = [str(tmp_path / "missing.json") if a == "MISSING" else a for a in argv]
    argv = ["@" + str(tmp_path / "missing.txt") if a == "@MISSING" else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: need n >= 1 and d >= 2, got {got}\n"
