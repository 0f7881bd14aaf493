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

then compares the derived values with the frozen expected records and exits
nonzero on any mismatch.  This is the provenance pipeline behind every
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


def check(entry, key, derived):
    frozen = entry.expected[key]["value"]

    def plain(v):
        return list(v) if isinstance(v, (list, tuple)) else v

    ok = plain(derived) == plain(frozen)
    mark = "ok      " if ok else "MISMATCH"
    print(f"  {mark} {key:18} derived={derived!r}  frozen={frozen!r}")
    if not ok:
        FAILURES.append((entry.name, key, derived, frozen))


def coefficients(poly):
    return [poly.coefficient(k) for k in range(poly.degree + 1)]


def derive(entry):
    print(f"{entry.name}: {entry.description}")
    arr = entry.arrangement
    h0 = entry.h0

    # chi by three independent routes.
    chi = char_poly(arr)
    assert char_poly_recursion(arr) == chi, "recursion oracle disagrees on chi"
    assert finite_field_char_poly(arr) == chi, "finite-field oracle disagrees on chi"
    check(entry, "char_poly", coefficients(chi))

    # Every Moebius value against brute force.
    lattice = intersection_lattice(arr)
    mu = moebius_bruteforce(arr)
    for flat in lattice.flats:
        assert mu[flat.equations] == lattice.moebius_of(flat), "Moebius mismatch"

    # Chambers twice.
    chambers = region_count_recursion(arr)
    assert chamber_count(arr) == chambers, "chamber count disagrees with recursion"
    check(entry, "chambers", chambers)

    chi0 = reduced_char_poly(arr)
    b = [abs(chi0.coefficient(arr.dim - 1 - i)) for i in range(arr.dim)]
    check(entry, "b", b)

    # sum(b) equals the chamber count of the deconed arrangement: derive the
    # latter by recursion, independently of any Moebius computation.
    assert sum(b) == region_count_recursion(decone(arr, h0)), "decone chambers"

    # per-flat b by the paper's definition, grouped by the public rho.
    dA_lattice = intersection_lattice(decone(arr, h0))
    by_rho = {}
    for flat, mu_y in zip(dA_lattice.flats, dA_lattice.moebius):
        x = rho(arr, h0, flat, dA_lattice)
        by_rho[x] = by_rho.get(x, 0) + abs(mu_y)
    per_flat = {x: cell["b"] for x, cell in b_coefficients(arr, h0).per_flat.items()}
    ok = per_flat == by_rho
    print(f"  {'ok      ' if ok else 'MISMATCH'} {'per_flat_b':18} {len(by_rho)} flats of A''")
    if not ok:
        FAILURES.append((entry.name, "per_flat_b", per_flat, by_rho))

    # Freeness of the simple arrangement by basis search; the Saito
    # determinant inside the search certifies the Free answers.
    direct = find_free_basis(simple_multiarrangement(arr))
    assert not direct.is_unknown, "basis search must be decisive at default bound"
    check(entry, "free", direct.is_free)
    exps = sorted(direct.exponents) if direct.is_free else None
    check(entry, "exponents", exps)
    if direct.is_free:
        assert IntPoly.from_roots(direct.exponents) == chi, "chi != prod(t - e_i)"

    if "ziegler_exponents" in entry.expected:
        restriction = ziegler_restriction(arr, h0)
        if restriction.rank() == 2:
            zexps = list(rank2_exponents(restriction))
        else:
            verdict = find_free_basis(restriction)
            zexps = sorted(verdict.exponents) if verdict.is_free else None
        check(entry, "ziegler_exponents", zexps)
        if direct.is_free and zexps is not None:
            assert multi_char_poly_free(sorted(zexps)) == chi0, "restriction theorem"

        sigma = [s.value for s in sigma_coefficients(restriction)]
        check(entry, "sigma", sigma)
        check(entry, "mca", mca_check(arr, h0))

        # Cross-criterion agreement wherever the criteria apply.
        ay = abe_yoshinaga_free_check(arr, h0)
        if not ay.is_unknown:
            assert ay.is_free == direct.is_free, "AY criterion disagrees"
            if ay.is_free:
                assert sorted(ay.exponents) == sorted(direct.exponents)
        if arr.dim == 3 and arr.rank() == 3:
            y3 = yoshinaga_3d(arr, h0)
            assert y3.is_free == direct.is_free, "rank-3 criterion disagrees"
            if y3.is_free:
                assert sorted(y3.exponents) == sorted(direct.exponents)

    if "multi_exponents" in entry.expected:
        multi = entry.multiarrangement()
        mexps = list(rank2_exponents(multi))
        check(entry, "multi_exponents", mexps)
        check(
            entry,
            "multi_char_poly",
            coefficients(multi_char_poly_free(mexps)),
        )


def main():
    start = time.time()
    for entry in CORPUS.values():
        derive(entry)
    print(f"total {time.time() - start:.1f}s")
    if FAILURES:
        print(f"{len(FAILURES)} mismatches:")
        for name, key, derived, frozen in FAILURES:
            print(f"  {name}.{key}: derived {derived!r} != frozen {frozen!r}")
        return 1
    print("all corpus records re-derived by oracles")
    return 0


if __name__ == "__main__":
    sys.exit(main())
