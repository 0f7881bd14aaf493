"""Re-derive every corpus expected record through the independent oracles.

Run as `python3 tools/derive_corpus.py`.  For each corpus entry this script

  * computes chi three ways (lattice Moebius sum, deletion-restriction
    recursion, finite-field point counts) and insists they agree,
  * cross-checks every Moebius value against brute-force subset enumeration,
  * counts chambers by recursion and by (-1)^l chi(-1),
  * derives b from the oracle-agreed chi, and the chamber bound sum(b) from
    an independent chamber count of the deconed arrangement,
  * checks the per-flat b of b_coefficients against the paper's definition:
    b^X sums |mu(Y)| over the flats Y of the deconing's own lattice with
    rho(Y) = X, each mapped by the public rho,
  * derives exponents by basis search (the Saito determinant inside the
    search is the certificate) and, for free cases, checks the product
    formula chi = prod (t - e_i) against the finite-field chi,
  * derives Ziegler-restriction exponents the same way and, when the parent
    is free, checks prod (t - e_i) = chi_0 (the restriction theorem),
  * runs all applicable freeness criteria and insists they agree,

then compares the derived values with the frozen expected records.  Every
check prints one line and a failed one makes the exit status 1, also under
`python -O`.  This is the provenance pipeline behind every
"derived-by-oracle" tag in arrangements/corpus.py.
"""

import sys
import time

from arrangements import (
    CORPUS,
    IntPoly,
    abe_yoshinaga_free_check,
    b_coefficients,
    chamber_count,
    char_poly,
    char_poly_recursion,
    decone,
    find_free_basis,
    finite_field_char_poly,
    intersection_lattice,
    mca_check,
    moebius_bruteforce,
    multi_char_poly_free,
    rank2_exponents,
    reduced_char_poly,
    region_count_recursion,
    rho,
    sigma_coefficients,
    simple_multiarrangement,
    yoshinaga_3d,
    ziegler_restriction,
)

FAILURES = []


def confirm(entry, key, ok, note=""):
    """One line per check; a failed one makes the run exit 1, with or
    without python -O."""
    print(f"  {'ok      ' if ok else 'MISMATCH'} {key:18} {note}".rstrip())
    if not ok:
        FAILURES.append((entry.name, key, note))


def check(entry, key, derived):
    frozen = entry.expected[key]["value"]

    def plain(v):
        return list(v) if isinstance(v, (list, tuple)) else v

    confirm(entry, key, plain(derived) == plain(frozen), f"derived={derived!r}  frozen={frozen!r}")


def exponents(verdict):
    return sorted(verdict.exponents) if verdict.is_free else None


def derive(entry):
    print(f"{entry.name}: {entry.description}")
    arr = entry.arrangement
    h0 = entry.h0

    # chi by three independent routes.
    chi = char_poly(arr)
    confirm(entry, "chi by recursion", char_poly_recursion(arr) == chi)
    confirm(entry, "chi by points", finite_field_char_poly(arr) == chi)
    check(entry, "char_poly", list(chi.coeffs))

    # Every Moebius value against brute force.
    lattice = intersection_lattice(arr)
    mu = moebius_bruteforce(arr)
    by_lattice = {flat.equations: m for flat, m in zip(lattice.flats, lattice.moebius)}
    confirm(entry, "moebius", mu == by_lattice, f"{len(lattice.flats)} flats")

    # Chambers twice.
    chambers = region_count_recursion(arr)
    confirm(entry, "chambers by chi", chamber_count(arr) == chambers)
    check(entry, "chambers", chambers)

    chi0 = reduced_char_poly(arr)
    b = [abs(chi0.coefficient(arr.dim - 1 - i)) for i in range(arr.dim)]
    check(entry, "b", b)

    # sum(b) equals the chamber count of the deconed arrangement: derive the
    # latter by recursion, independently of any Moebius computation.
    confirm(entry, "decone chambers", sum(b) == region_count_recursion(decone(arr, h0)))

    # per-flat b by the paper's definition, grouped by the public rho.
    dA_lattice = intersection_lattice(decone(arr, h0))
    by_rho = {}
    for flat, mu_y in zip(dA_lattice.flats, dA_lattice.moebius):
        x = rho(arr, h0, flat, dA_lattice)
        by_rho[x] = by_rho.get(x, 0) + abs(mu_y)
    per_flat = {x: cell["b"] for x, cell in b_coefficients(arr, h0).per_flat.items()}
    confirm(entry, "per_flat_b", per_flat == by_rho, f"{len(by_rho)} flats of A''")

    # Freeness of the simple arrangement by basis search; the Saito
    # determinant inside the search certifies the Free answers.
    direct = find_free_basis(simple_multiarrangement(arr))
    confirm(entry, "search decides", not direct.is_unknown)
    check(entry, "free", direct.is_free)
    exps = exponents(direct)
    check(entry, "exponents", exps)
    if direct.is_free:
        confirm(entry, "chi = prod(t - e)", IntPoly.from_roots(direct.exponents) == chi)

    if "ziegler_exponents" in entry.expected:
        restriction = ziegler_restriction(arr, h0)
        if restriction.rank() == 2:
            zexps = list(rank2_exponents(restriction))
        else:
            zexps = exponents(find_free_basis(restriction))
        check(entry, "ziegler_exponents", zexps)
        if direct.is_free and zexps is not None:
            confirm(entry, "restriction thm", multi_char_poly_free(sorted(zexps)) == chi0)

        sigma = [s.value for s in sigma_coefficients(restriction)]
        check(entry, "sigma", sigma)
        check(entry, "mca", mca_check(arr, h0))

        # Cross-criterion agreement wherever the criteria apply.
        ay = abe_yoshinaga_free_check(arr, h0)
        if not ay.is_unknown:
            confirm(entry, "abe-yoshinaga", exponents(ay) == exps)
        if arr.dim == 3 and arr.rank() == 3:
            confirm(entry, "yoshinaga", exponents(yoshinaga_3d(arr, h0)) == exps)

    if "multi_exponents" in entry.expected:
        multi = entry.multiarrangement()
        mexps = list(rank2_exponents(multi))
        check(entry, "multi_exponents", mexps)
        check(entry, "multi_char_poly", list(multi_char_poly_free(mexps).coeffs))


def main():
    start = time.time()
    for entry in CORPUS.values():
        derive(entry)
    print(f"total {time.time() - start:.1f}s")
    if FAILURES:
        print(f"{len(FAILURES)} mismatches:")
        for name, key, note in FAILURES:
            print(f"  {name}.{key} {note}".rstrip())
        return 1
    print("all corpus records re-derived by oracles")
    return 0


if __name__ == "__main__":
    sys.exit(main())
