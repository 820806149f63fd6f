"""The benchmark's workloads: seeded inputs, a fixed op list, a check per op.

Each workload is a closed loop with one client: an op starts when the
previous one has returned. Inputs are generated once in set-up from the
seed (the generators run the library's complete-intersection test); the
op list is then fixed, so every pass over it does the same work.

* ``tangent``: tangent-map kernels at every k in [d-1, T], at tuples and
  at non-direct-sum forms, plus one direct sum. Nearly all time goes to
  the column assembly and ``nullspace`` in ``deformation``.
* ``roundtrip``: reconstruction from one piece and inverse systems, many
  medium eliminations fed row by row, with no ``deformation`` call, so a
  tangent-kernel change should leave it unchanged.
* ``large``: a few eliminations on matrices of hundreds of rows at (3,4)
  and (2,6), where coefficient growth dominates.
* ``cli``: fresh ``milnoralg`` processes, one at a time, with JSON
  output parsed and checked; the only workload reaching the CLI and the
  serializers, and the one where import time shows.

Ops call the library through module attributes looked up at call time,
so the tracer's wrappers see them.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Sizes (n, d) and the number of seeded inputs of each kind per size.
TANGENT_SIZES = {(2, 4): 1, (3, 3): 1, (2, 5): 1}
TANGENT_DIRECT_SUM = (2, 4)  # fermat(n, d), s = n + 1 summands
ROUNDTRIP_SIZES = {(3, 3): 1, (2, 5): 1}
LARGE_SIZES = {(2, 6): 1, (3, 4): 1}
CLI_SIZES = ((2, 3), (2, 4))
CLI_TIMEOUT_S = 120

NAMES = ("tangent", "roundtrip", "large", "cli")


@dataclass
class CliResult:
    code: int
    stdout: str
    trace: dict | None  # per-layer totals reported by a traced child


@dataclass
class Op:
    label: str
    call: Callable[[bool], object]  # argument: whether the run is traced
    check: Callable[[object], bool]


class Library:
    """Late-bound access to library functions by "module.function"."""

    def __init__(self, modules: dict):
        self.modules = modules

    def __call__(self, target: str):
        module, name = target.split(".")
        return getattr(self.modules[module], name)


def _k_range(n: int, d: int):
    return range(d - 1, (n + 1) * (d - 2) + 1)


def _k_mid(n: int, d: int) -> int:
    return (d - 1 + (n + 1) * (d - 2)) // 2


def _inputs(sizes: dict, smoke: bool) -> list:
    """(n, d, count) per size; the smoke test keeps one input of the first size."""
    if smoke:
        (n, d), _ = next(iter(sizes.items()))
        return [(n, d, 1)]
    return [(n, d, count) for (n, d), count in sizes.items()]


def _seed_stream(workload: str, seed: int):
    rng = random.Random(f"{workload}:{seed}")
    return lambda: rng.randrange(1 << 30)


def canonical(value) -> str:
    """Exact, order-fixed text of an op's output, for the output digest."""
    kind = type(value).__name__
    if kind == "HomogeneousPolynomial":
        terms = sorted(value.terms.items(), reverse=True)
        return f"P{value.n},{value.degree}:" + ";".join(f"{a}:{c}" for a, c in terms)
    if kind == "Subspace":
        rows = "|".join(",".join(str(x) for x in row) for row in value.rows)
        return f"S{value.n},{value.k}:{rows}"
    if kind == "GeneratorTuple":
        return "W:" + "|".join(canonical(g) for g in value.gens)
    if kind == "KernelReport":
        basis = ";".join(canonical(v) for v in value.basis)
        return f"K{value.k},{value.tangent_dim},{value.kernel_dim}:[{basis}]"
    if kind == "PolyTangentVector":
        return canonical(value.h)
    if kind == "TupleTangentVector":
        return ",".join(canonical(p) for p in value.parts)
    if kind == "FiberResult":
        return f"F{value.s}:[" + ";".join(canonical(g) for g in value.basis) + "]"
    if kind == "AssociatedForm":
        return f"A{value.d}:" + canonical(value.form)
    if kind == "CliResult":
        return f"exit={value.code}\n{value.stdout}"
    if isinstance(value, BaseException):
        return f"error:{kind}"
    return repr(value)


# -- in-process workloads ---------------------------------------------------------


def _tangent(lib: Library, seed: int, smoke: bool) -> list:
    next_seed = _seed_stream("tangent", seed)
    ops = []
    kernel_zero = lambda r: r.kernel_dim == 0  # noqa: E731
    for n, d, count in _inputs(TANGENT_SIZES, smoke):
        for i in range(count):
            w = lib("st_analysis.random_ci_tuple")(n, d, next_seed())
            f = lib("st_analysis.random_smooth")(n, d, next_seed(), require_non_st=True)
            for k in _k_range(n, d):
                ops.append(Op(
                    f"tuple({n},{d})#{i} k={k}",
                    lambda _, w=w, k=k: lib("deformation.tangent_kernel_at_tuple")(w, k),
                    kernel_zero,
                ))
                ops.append(Op(
                    f"poly({n},{d})#{i} k={k}",
                    lambda _, f=f, k=k: lib("deformation.tangent_kernel_at_poly")(f, k),
                    kernel_zero,
                ))
    n, d = TANGENT_DIRECT_SUM
    g = lib("polynomials.fermat")(n, d)
    for k in _k_range(n, d):
        ops.append(Op(
            f"fermat({n},{d}) k={k}",
            lambda _, k=k: lib("deformation.tangent_kernel_at_poly")(g, k),
            lambda r, n=n: r.kernel_dim >= n,  # s - 1 with s = n + 1 summands
        ))
    return ops


def _roundtrip(lib: Library, seed: int, smoke: bool) -> list:
    next_seed = _seed_stream("roundtrip", seed)
    ops = []
    for n, d, count in _inputs(ROUNDTRIP_SIZES, smoke):
        forms = [
            lib("st_analysis.random_smooth")(n, d, next_seed(), require_non_st=True)
            for _ in range(count)
        ]
        tuples = [lib("st_analysis.random_ci_tuple")(n, d, next_seed()) for _ in range(count)]
        for i, f in enumerate(forms):
            target = f.normalized()
            for k in _k_range(n, d):
                ops.append(Op(
                    f"reconstruct({n},{d})#{i} k={k}",
                    lambda _, f=f, k=k, n=n, d=d: lib("reconstruction.reconstruct_poly")(
                        lib("ideals.jacobian_piece")(f, k), k, n, d
                    ),
                    lambda r, target=target: r.s == 1 and r.basis[0] == target,
                ))
        for i, w in enumerate(tuples):
            for k in _k_range(n, d):
                ops.append(Op(
                    f"recover({n},{d})#{i} k={k}",
                    lambda _, w=w, k=k, n=n, d=d: lib("reconstruction.recover_generators")(
                        lib("ideals.ideal_piece")(w, k), k, n, d
                    ),
                    lambda r, w=w: r.span == w.span,
                ))
            ops.append(Op(
                f"associated_form({n},{d})#{i}",
                lambda _, w=w: lib("inverse_systems.associated_form")(w),
                lambda r, w=w: _annihilates(lib, w, r),
            ))
            ops.append(Op(
                f"verify_inverse_system({n},{d})#{i}",
                lambda _, w=w: lib("inverse_systems.verify_inverse_system")(w),
                lambda r: r is True,
            ))
    return ops


def _annihilates(lib: Library, w, af) -> bool:
    """Each generator, as a differential operator, kills the associated form."""
    polar_apply = lib("polynomials.polar_apply")
    return all(polar_apply(g, af.form).is_zero() for g in w.gens)


def _large(lib: Library, seed: int, smoke: bool) -> list:
    next_seed = _seed_stream("large", seed)
    ops = []
    for n, d, count in _inputs(LARGE_SIZES, smoke):
        k = _k_mid(n, d)
        for i in range(count):
            f = lib("st_analysis.random_smooth")(n, d, next_seed(), require_non_st=True)
            w = lib("st_analysis.random_ci_tuple")(n, d, next_seed())
            piece = lib("ideals.jacobian_piece")(f, k)
            target = f.normalized()
            ops.append(Op(
                f"is_smooth({n},{d})#{i}",
                lambda _, f=f: lib("ideals.is_smooth")(f),
                lambda r: r is True,
            ))
            ops.append(Op(
                f"associated_form({n},{d})#{i}",
                lambda _, w=w: lib("inverse_systems.associated_form")(w),
                lambda r, w=w: _annihilates(lib, w, r),
            ))
            ops.append(Op(
                f"reconstruct({n},{d})#{i} k={k}",
                lambda _, e=piece, k=k, n=n, d=d: lib("reconstruction.reconstruct_poly")(
                    e, k, n, d
                ),
                lambda r, target=target: r.s == 1 and r.basis[0] == target,
            ))
    return ops


# -- cli workload -----------------------------------------------------------------


def run_cli(argv: list, traced: bool) -> CliResult:
    """One fresh ``milnoralg`` process through the entry script."""
    cmd = [sys.executable, str(HERE / "cli_entry.py"), "1" if traced else "0", *argv]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=CLI_TIMEOUT_S
    )
    trace = None
    for line in proc.stderr.splitlines():
        if line.startswith("PERFBENCH_TRACE "):
            trace = json.loads(line[len("PERFBENCH_TRACE "):])
    return CliResult(proc.returncode, proc.stdout, trace)


def _json_check(test: Callable[[dict], bool]):
    def check(result: CliResult) -> bool:
        if result.code != 0:
            return False
        try:
            doc = json.loads(result.stdout)
        except json.JSONDecodeError:
            return False
        return test(doc)

    return check


def _cli(lib: Library, seed: int, smoke: bool, workdir: Path) -> list:
    next_seed = _seed_stream("cli", seed)
    ops = []
    for n, d in CLI_SIZES[:1] if smoke else CLI_SIZES:
        ops += _cli_size(lib, n, d, next_seed, workdir)
    return ops


def _cli_size(lib: Library, n: int, d: int, next_seed, workdir: Path) -> list:
    format_poly = lib("polynomials.format_poly")
    f = lib("st_analysis.random_smooth")(n, d, next_seed(), require_non_st=True)
    w = lib("st_analysis.random_ci_tuple")(n, d, next_seed())
    random_seed = next_seed()
    k = _k_mid(n, d)
    poly = format_poly(f)
    target = format_poly(f.normalized())
    profile = list(lib("ideals.hilbert_profile")(n, d).values)
    drawn = format_poly(lib("st_analysis.random_smooth")(n, d, random_seed, require_non_st=True))
    form = format_poly(lib("inverse_systems.associated_form")(w).form)
    gens_file = workdir / f"gens-{n}-{d}.json"
    gens_file.write_text(json.dumps(lib("serialize.gens_to_dict")(w)), encoding="utf-8")
    piece_file = workdir / f"piece-{n}-{d}.json"
    piece = lib("ideals.jacobian_piece")(f, k)
    piece_file.write_text(json.dumps(lib("serialize.subspace_to_dict")(piece)), encoding="utf-8")

    def fiber_ok(doc):
        return doc["s"] == 1 and doc["basis"] == [target]

    commands = [
        ("hilbert", ["hilbert", "--n", str(n), "--d", str(d)], lambda doc: doc["a"] == profile),
        ("smooth", ["smooth", "--poly", poly, "--n", str(n)], lambda doc: doc == {"smooth": True}),
        (
            "st",
            ["st", "--poly", poly, "--n", str(n)],
            lambda doc: doc["is_st"] is False and fiber_ok(doc["fiber"]),
        ),
        ("fiber", ["fiber", "--poly", poly, "--n", str(n)], fiber_ok),
        (
            "random",
            ["random", "--n", str(n), "--d", str(d), "--seed", str(random_seed), "--non-st"],
            lambda doc: doc["poly"] == drawn,
        ),
        ("inverse-system", ["inverse-system", "--gens", str(gens_file)], lambda doc: doc["form"] == form),
        ("reconstruct", ["reconstruct", "--subspace", str(piece_file), "--d", str(d)], fiber_ok),
        (
            "tangent-kernel-poly",
            ["tangent-kernel", "--poly", poly, "--n", str(n), "--k", str(k)],
            lambda doc: doc["kernel_dim"] == 0,
        ),
        (
            "tangent-kernel-gens",
            ["tangent-kernel", "--gens", str(gens_file), "--k", str(k)],
            lambda doc: doc["kernel_dim"] == 0,
        ),
    ]
    return [
        Op(
            f"{label}({n},{d})",
            lambda traced, argv=argv + ["--format", "json"]: run_cli(argv, traced),
            _json_check(test),
        )
        for label, argv, test in commands
    ]


def build(name: str, seed: int, smoke: bool, modules: dict, workdir: Path) -> list:
    """Generate the inputs of a workload and return its fixed op list."""
    lib = Library(modules)
    if name == "cli":
        return _cli(lib, seed, smoke, workdir)
    return {"tangent": _tangent, "roundtrip": _roundtrip, "large": _large}[name](
        lib, seed, smoke
    )
