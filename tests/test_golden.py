"""Byte-identical CLI output on a small fixed corpus.

Each case runs ``cli.main`` in-process and compares its standard output,
byte for byte, with ``tests/golden/<name>.txt``. The inputs are the files
in ``tests/golden/inputs``: generator tuples and graded pieces at (2,3),
(2,4) and (3,3), one non-direct-sum form at each size and its Jacobian
piece. ``suite`` at (2,4), (3,3) and (2,5) is compared on its detail
lines, with the times stripped.

After a change that is meant to alter the output, rewrite the expected
files with ``PYTHONPATH=src python tests/test_golden.py`` and review the
diff.
"""

import io
import re
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from milnoralg.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"

FERMAT = {(2, 3): "x0^3+x1^3+x2^3", (2, 4): "x0^4+x1^4+x2^4", (3, 3): "x0^3+x1^3+x2^3+x3^3"}
# the top degree k = T of each size's tangent kernel, and the piece read by reconstruct
SOCLE = {(2, 3): 3, (2, 4): 6, (3, 3): 4}
PIECE = {(2, 3): 3, (2, 4): 4, (3, 3): 2}


def _cases() -> dict:
    cases = {}
    for n, d in FERMAT:
        size = f"{n}_{d}"
        form = f"@{INPUTS / f'form_{size}.txt'}"
        gens = str(INPUTS / f"gens_{size}.json")
        piece = str(INPUTS / f"piece_{size}_{PIECE[n, d]}.json")
        jacobian = str(INPUTS / f"jacobian_{size}_{PIECE[n, d]}.json")
        k = str(SOCLE[n, d])
        commands = {
            "hilbert": ["hilbert", "--n", str(n), "--d", str(d)],
            "smooth": ["smooth", "--poly", form],
            "smooth_fermat": ["smooth", "--poly", FERMAT[n, d]],
            "st": ["st", "--poly", form],
            "st_fermat": ["st", "--poly", FERMAT[n, d]],
            "fiber": ["fiber", "--poly", form],
            "fiber_fermat": ["fiber", "--poly", FERMAT[n, d]],
            "random": ["random", "--n", str(n), "--d", str(d), "--seed", "5"],
            "random_non_st": ["random", "--n", str(n), "--d", str(d), "--seed", "6", "--non-st"],
            "inverse_system": ["inverse-system", "--gens", gens],
            "reconstruct": ["reconstruct", "--subspace", piece, "--d", str(d)],
            "reconstruct_jacobian": ["reconstruct", "--subspace", jacobian, "--d", str(d)],
            "tangent_kernel_form": ["tangent-kernel", "--poly", form, "--k", k],
            "tangent_kernel_fermat": ["tangent-kernel", "--poly", FERMAT[n, d], "--k", k],
            "tangent_kernel_tuple": ["tangent-kernel", "--gens", gens, "--k", k],
        }
        for name, argv in commands.items():
            cases[f"{name}_{size}"] = argv
            cases[f"{name}_{size}_json"] = argv + ["--format", "json"]
    cases["singular_2_3"] = ["smooth", "--poly", "x0^3 + x1^3 + x2^3 - 3*x0*x1*x2"]
    for n, d in [(2, 4), (3, 3), (2, 5)]:
        cases[f"suite_{n}_{d}"] = ["suite", "--n", str(n), "--d", str(d), "--seed", "0"]
    return cases


CASES = _cases()


def _output(argv) -> str:
    with redirect_stdout(io.StringIO()) as out:
        assert main(list(argv)) == 0
    if argv[0] == "suite":
        return re.sub(r" \(\d+\.\d\ds\)", "", out.getvalue())
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert _output(CASES[name]) == expected


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(CASES)


if __name__ == "__main__":
    for name, argv in CASES.items():
        (GOLDEN / f"{name}.txt").write_text(_output(argv), encoding="utf-8")
