"""Exact kernels of the tangent maps of the piece assignments.

Both assignments, generator tuple to degree-k ideal piece and polynomial
to degree-k Jacobian piece, are not just injective on their domains: at
every sample point the differential has zero kernel, computed exactly
from one small colon ideal. For a direct sum the polynomial-side kernel
is nonzero instead, picking up exactly one direction per extra summand,
which makes the two situations easy to tell apart.

Run from the repository root:

    python demos/tangent_kernels.py
"""

from milnoralg import (
    fermat,
    random_ci_tuple,
    random_smooth,
    socle_degree,
    st_report,
    tangent_kernel_at_poly,
    tangent_kernel_at_tuple,
)


def main() -> None:
    n, d = 2, 4
    top = socle_degree(n, d)

    w = random_ci_tuple(n, d, seed=19)
    print(f"random complete-intersection tuple (n={n}, d={d}):")
    for k in range(d - 1, top + 1):
        report = tangent_kernel_at_tuple(w, k)
        print(f"  k = {k}: tangent dim {report.tangent_dim}, kernel dim {report.kernel_dim}")
    print()

    f = random_smooth(n, d, seed=23, require_non_st=True)
    print(f"random smooth non-direct-sum quartic: f = {f}")
    for k in range(d - 1, top + 1):
        report = tangent_kernel_at_poly(f, k)
        print(f"  k = {k}: tangent dim {report.tangent_dim}, kernel dim {report.kernel_dim}")
    print()

    cubes = fermat(2, 3)
    s = st_report(cubes).s
    report = tangent_kernel_at_poly(cubes, 2)
    print(f"the direct sum {cubes} has s = {s} summands:")
    print(f"  k = 2: kernel dim {report.kernel_dim} (= s - 1)")
    for direction in report.basis:
        print(f"    kernel direction: {direction.h}")


if __name__ == "__main__":
    main()
