"""Command-line interface.

Exit codes: 0 success, 2 input or parse error, 3 mathematical
precondition violated (singular form, non-complete-intersection input,
subspace that is not a valid graded piece). Output is deterministic:
identical inputs, including seeds, produce byte-identical output.

Polynomial arguments (--poly) take the inline grammar, e.g.
"x0^3 + x1^3 + x2^3 - 3*x0*x1*x2", or "@path" to read the text from a
file. Generator tuples and subspaces are JSON files in the documented
schemas.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .rationals import BACKEND

# Each command imports the modules it runs when it runs, so a process
# loads only what its subcommand needs; `--version` loads no pipeline.


def _read_poly_arg(value: str, n):
    from .polynomials import parse_poly
    if value.startswith("@"):
        with open(value[1:], "r", encoding="utf-8") as handle:
            value = handle.read()
    return parse_poly(value, n=n)


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            obj = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object in {path}")
    return obj


def _emit(args, text_body: str, json_obj) -> None:
    if args.format == "json":
        out = json.dumps(json_obj, indent=2) + "\n"
    else:
        out = text_body if text_body.endswith("\n") else text_body + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(out)
    else:
        sys.stdout.write(out)


def _add_io_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=["text", "json"], default="text")
    parser.add_argument("--out", metavar="FILE", default=None)


def _cmd_hilbert(args) -> int:
    from .ideals import hilbert_profile
    from .serialize import hilbert_to_dict
    profile = hilbert_profile(args.n, args.d)
    lines = [f"n={profile.n} d={profile.d} T={profile.socle}", "k a b"]
    for k in range(profile.socle + 2):
        mark = "  (socle)" if k == profile.socle else ""
        lines.append(f"{k} {profile.a(k)} {profile.b(k)}{mark}")
    _emit(args, "\n".join(lines), hilbert_to_dict(profile))
    return 0


def _fiber_output(args, result) -> None:
    from .polynomials import format_poly
    from .serialize import fiber_to_dict
    lines = [f"s = {result.s}"]
    lines += [format_poly(g) for g in result.basis]
    _emit(args, "\n".join(lines), fiber_to_dict(result))


def _cmd_reconstruct(args) -> int:
    from .reconstruction import reconstruct_poly
    from .serialize import subspace_from_dict
    sub = subspace_from_dict(_read_json(args.subspace))
    n = sub.n if args.n is None else args.n
    k = sub.k if args.k is None else args.k
    if (sub.n, sub.k) != (n, k):
        raise ValueError(f"subspace file has (n, k) = {(sub.n, sub.k)}, flags say {(n, k)}")
    result = reconstruct_poly(sub, k, n, args.d)
    _fiber_output(args, result)
    return 0


def _cmd_st(args) -> int:
    from .polynomials import format_poly
    from .serialize import st_report_to_dict
    from .st_analysis import st_report
    f = _read_poly_arg(args.poly, args.n)
    report = st_report(f)
    text = "\n".join(
        [f"is_st = {'true' if report.is_st else 'false'}", f"s = {report.s}"]
        + [format_poly(g) for g in report.fiber.basis]
    )
    _emit(args, text, st_report_to_dict(report))
    return 0


def _cmd_smooth(args) -> int:
    from .ideals import is_smooth
    f = _read_poly_arg(args.poly, args.n)
    smooth = is_smooth(f)
    _emit(args, "true" if smooth else "false", {"smooth": smooth})
    return 0


def _cmd_fiber(args) -> int:
    from .ideals import jacobian_gens
    from .reconstruction import fiber
    f = _read_poly_arg(args.poly, args.n)
    result = fiber(jacobian_gens(f), f.degree)
    _fiber_output(args, result)
    return 0


def _cmd_inverse_system(args) -> int:
    from .inverse_systems import associated_form
    from .polynomials import format_poly
    from .serialize import associated_form_to_dict, gens_from_dict
    w = gens_from_dict(_read_json(args.gens))
    af = associated_form(w)
    text = f"n={af.n} d={af.d} T={af.socle}\n{format_poly(af.form)}"
    _emit(args, text, associated_form_to_dict(af))
    return 0


def _cmd_tangent_kernel(args) -> int:
    from .deformation import tangent_kernel_at_poly, tangent_kernel_at_tuple
    from .serialize import gens_from_dict, kernel_report_to_dict
    if (args.poly is None) == (args.gens is None):
        raise ValueError("provide exactly one of --poly or --gens")
    if args.poly is not None:
        f = _read_poly_arg(args.poly, args.n)
        report = tangent_kernel_at_poly(f, args.k)
    else:
        w = gens_from_dict(_read_json(args.gens))
        report = tangent_kernel_at_tuple(w, args.k)
    obj = kernel_report_to_dict(report)
    lines = [
        f"k = {report.k}",
        f"tangent_dim = {report.tangent_dim}",
        f"kernel_dim = {report.kernel_dim}",
        *obj["kernel_basis"],
    ]
    _emit(args, "\n".join(lines), obj)
    return 0


def _cmd_random(args) -> int:
    from .polynomials import format_poly
    from .st_analysis import random_smooth
    f = random_smooth(
        args.n,
        args.d,
        args.seed,
        require_non_st=args.non_st,
        coeff_bound=args.coeff_bound,
    )
    _emit(args, format_poly(f), {"n": args.n, "d": args.d, "poly": format_poly(f)})
    return 0


def _cmd_suite(args) -> int:
    from .suite import run_suite
    lines: list = []

    def show(check) -> None:
        if check.ok is None:
            status = "SKIP"
        else:
            status = "PASS" if check.ok else "FAIL"
        line = f"{status} {check.name} ({check.seconds:.2f}s)"
        if check.detail:
            line += f": {check.detail}"
        lines.append(line)
        if args.format == "text" and not args.out:
            sys.stdout.write(line + "\n")

    results = run_suite(
        args.n,
        args.d,
        seed=args.seed,
        polys=args.polys,
        tuples=args.tuples,
        budget=args.budget,
        progress=show,
    )
    failed = any(check.ok is False for check in results)
    if args.format == "json" or args.out:
        payload = [
            {
                "name": c.name,
                "ok": c.ok,
                "seconds": round(c.seconds, 2),
                "detail": c.detail,
            }
            for c in results
        ]
        _emit(args, "\n".join(lines), payload)
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="milnoralg",
        description=(
            "Exact computations with graded pieces of Jacobian and "
            "complete-intersection ideals: Hilbert profiles, inverse systems, "
            "reconstruction from one graded piece, direct-sum analysis, and "
            "tangent-map kernels."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"milnoralg {__version__} ({BACKEND})"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hilbert", help="Hilbert profile table for (n, d)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    _add_io_flags(p)
    p.set_defaults(func=_cmd_hilbert)

    p = sub.add_parser("reconstruct", help="reconstruct polynomial(s) from a subspace file")
    p.add_argument("--subspace", metavar="FILE", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    _add_io_flags(p)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("st", help="direct-sum (Sebastiani-Thom) report for a smooth form")
    p.add_argument("--poly", required=True)
    p.add_argument("--n", type=int, default=None)
    _add_io_flags(p)
    p.set_defaults(func=_cmd_st)

    p = sub.add_parser("smooth", help="decide smoothness of a form")
    p.add_argument("--poly", required=True)
    p.add_argument("--n", type=int, default=None)
    _add_io_flags(p)
    p.set_defaults(func=_cmd_smooth)

    p = sub.add_parser("fiber", help="all forms whose partials lie in the Jacobian span")
    p.add_argument("--poly", required=True)
    p.add_argument("--n", type=int, default=None)
    _add_io_flags(p)
    p.set_defaults(func=_cmd_fiber)

    p = sub.add_parser("inverse-system", help="associated form of a generator tuple file")
    p.add_argument("--gens", metavar="FILE", required=True)
    _add_io_flags(p)
    p.set_defaults(func=_cmd_inverse_system)

    p = sub.add_parser("tangent-kernel", help="kernel of the tangent map at degree k")
    p.add_argument("--poly", default=None)
    p.add_argument("--gens", metavar="FILE", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, required=True)
    _add_io_flags(p)
    p.set_defaults(func=_cmd_tangent_kernel)

    p = sub.add_parser("random", help="seeded random smooth form")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--non-st", action="store_true", dest="non_st")
    p.add_argument("--coeff-bound", type=int, default=3, dest="coeff_bound")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_random)

    p = sub.add_parser("suite", help="run the verification battery at one (n, d)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--polys", type=int, default=20)
    p.add_argument("--tuples", type=int, default=10)
    p.add_argument("--budget", type=float, default=None, metavar="SECONDS")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_suite)

    return parser


def _check_n(args) -> None:
    """Refuse an explicit --n below 1 before any input is read, in ``check_size``'s words.

    Every command that takes --n refuses it alike, whatever it would read
    next: a polynomial naming higher variables, a file, or a degree.
    """
    n = getattr(args, "n", None)
    if n is not None and n < 1:
        d = getattr(args, "d", None)
        raise ValueError(f"need n >= 1 and d >= 2, got n={n}" + ("" if d is None else f", d={d}"))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    from .errors import PreconditionError
    try:
        _check_n(args)
        return args.func(args)
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
