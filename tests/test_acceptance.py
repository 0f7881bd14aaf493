"""Acceptance gate: the eight top-level criteria, one test (and one
pass/fail line under `pytest -v`) per criterion.  All assertions are exact;
each timed criterion asserts its own wall-clock budget."""

import time

from arrangements import (
    CORPUS,
    IntPoly,
    b_coefficients,
    chamber_count,
    char_poly,
    compare_coefficients,
    decone,
    elementary_symmetric,
    find_free_basis,
    finite_field_char_poly,
    good_primes,
    intersection_lattice,
    rank2_exponents,
    reduced_char_poly,
    region_count_recursion,
    rho,
    saito_check,
    sigma_coefficients,
    simple_multiarrangement,
    yoshinaga_3d,
    ziegler_restriction,
)
from arrangements.criteria import abe_yoshinaga_free_check
from conftest import make, random_central, seeded


def test_criterion_1_oracle_agreement():
    # char_poly = finite-field oracle (>= dim+1 guarded primes) and
    # chamber_count = deletion-restriction recursion, every corpus entry.
    start = time.monotonic()
    for entry in CORPUS.values():
        arr = entry.arrangement
        assert arr.dim <= 4 and arr.n_hyperplanes <= 10
        primes = good_primes(arr)
        assert len(primes) >= arr.dim + 1
        assert finite_field_char_poly(arr, primes=primes) == char_poly(arr)
        assert region_count_recursion(arr) == chamber_count(arr)
    assert time.monotonic() - start < 60


def test_criterion_2_first_coefficients():
    # b_0 = sigma_0 = 1 and b_1 = sigma_1 = |A| - 1 = |m| on every corpus
    # input.
    for entry in CORPUS.values():
        arr = entry.arrangement
        report = compare_coefficients(arr, entry.h0)
        restriction = ziegler_restriction(arr, entry.h0)
        assert report.table.b[0] == report.table.sigma[0].value == 1
        assert (
            report.table.b[1]
            == report.table.sigma[1].value
            == arr.n_hyperplanes - 1
            == restriction.total
        )


def test_criterion_3_coefficient_inequality():
    # Tame + fully exact sigma: b_i >= sigma_i >= 0 for all i; and
    # b_2 >= sigma_2 on all inputs regardless of tameness.
    inputs = [(e.arrangement, e.h0) for e in CORPUS.values()]
    inputs.append(
        (
            make(
                [
                    [1, 0, 0, 0],
                    [0, 1, 0, 0],
                    [0, 0, 1, 0],
                    [0, 0, 0, 1],
                    [1, 1, 1, 1],
                    [1, 2, 4, 8],
                ],
                4,
            ),
            0,
        )
    )
    for arr, h0 in inputs:
        report = compare_coefficients(arr, h0)
        if (
            report.tame_arrangement.is_tame
            and report.tame_restriction.is_tame
            and report.all_sigma_exact
        ):
            for i, b_i in enumerate(report.table.b):
                assert b_i >= report.table.sigma[i].value >= 0
        if len(report.table.b) > 2 and report.table.sigma[2].exact:
            assert report.table.b[2] >= report.table.sigma[2].value


def test_criterion_4_yoshinaga_rank3():
    start = time.monotonic()
    cases = [
        ("braid-ess3", None, (1, 2, 3), 12),
        ("boolean3", None, (1, 1, 1), 4),
        ("generic34", None, None, 7),
    ]
    for name, _, expected_exps, chambers in cases:
        entry = CORPUS[name]
        arr = entry.arrangement
        verdict = yoshinaga_3d(arr, entry.h0)
        d1, d2 = rank2_exponents(ziegler_restriction(arr, entry.h0))
        deconed_chambers = sum(b_coefficients(arr, entry.h0).b)
        assert deconed_chambers == chambers
        if expected_exps is None:
            assert verdict.is_not_free
            assert deconed_chambers > (1 + d1) * (1 + d2)
        else:
            assert verdict.is_free
            assert verdict.exponents == expected_exps
            assert deconed_chambers == (1 + d1) * (1 + d2)
        # independent Saito-criterion route
        direct = find_free_basis(simple_multiarrangement(arr))
        assert not direct.is_unknown
        assert direct.is_free == verdict.is_free
        if direct.is_free:
            assert sorted(direct.exponents) == sorted(verdict.exponents)
    assert time.monotonic() - start < 5


def test_criterion_5_abe_yoshinaga_rank4():
    start = time.monotonic()

    verdict = abe_yoshinaga_free_check(CORPUS["boolean4"].arrangement, 0)
    assert verdict.is_free and verdict.exponents == (1, 1, 1, 1)

    braid4 = CORPUS["braid-ess4"].arrangement
    verdict = abe_yoshinaga_free_check(braid4, 0)
    assert verdict.is_free and verdict.exponents == (1, 2, 3, 4)
    restriction = ziegler_restriction(braid4, 0)
    rest_verdict = find_free_basis(restriction)
    assert rest_verdict.is_free
    assert sorted(rest_verdict.exponents) == [2, 3, 4]
    report = compare_coefficients(braid4, 0)
    assert report.table.b[2] == report.table.sigma[2].value == 26

    # cross-check both against the direct basis search
    for name, exps in (("boolean4", (1, 1, 1, 1)), ("braid-ess4", (1, 2, 3, 4))):
        direct = find_free_basis(simple_multiarrangement(CORPUS[name].arrangement))
        assert direct.is_free
        assert sorted(direct.exponents) == sorted(exps)
    assert time.monotonic() - start < 120


def test_criterion_6_ziegler_consistency():
    # Verified-free with exponents (1, e_2, ..., e_l) implies sigma of the
    # Ziegler restriction equals the elementary symmetric functions of the
    # e_i.
    checked = 0
    for entry in CORPUS.values():
        arr = entry.arrangement
        verdict = find_free_basis(simple_multiarrangement(arr))
        if not verdict.is_free:
            continue
        exps = sorted(verdict.exponents)
        assert exps[0] == 1
        rest = exps[1:]
        sigma = sigma_coefficients(ziegler_restriction(arr, entry.h0))
        assert len(sigma) == len(rest) + 1
        for k, status in enumerate(sigma):
            assert status.exact
            assert status.value == elementary_symmetric(rest, k)
        checked += 1
    assert checked >= 6


def test_criterion_7_rank2_exponents():
    from arrangements import multiarrangement

    start = time.monotonic()
    cases = [
        ([[1, 0], [0, 1]], (1, 1), (1, 1)),
        ([[1, 0], [0, 1], [1, 1]], (1, 1, 1), (1, 2)),
        ([[1, 0], [0, 1], [1, 1]], (2, 2, 1), (2, 3)),
    ]
    for forms, mult, expected in cases:
        multi = multiarrangement(make(forms, 2), mult)
        exps = rank2_exponents(multi)
        assert tuple(sorted(exps)) == expected
        assert exps[0] + exps[1] == multi.total
        assert saito_check(exps.basis, multi)
    assert time.monotonic() - start < 1


def test_criterion_8_randomized_structure():
    start = time.monotonic()
    rng = seeded(88)
    t_minus_1 = IntPoly((-1, 1))
    for _ in range(200):
        arr = random_central(rng)  # dim 2 or 3, at most 7 hyperplanes
        ell = arr.dim
        chi = char_poly(arr)
        # monic of degree l
        assert chi.degree == ell
        assert chi.coefficient(ell) == 1
        # (t - 1) divides chi
        assert chi(1) == 0
        chi0 = reduced_char_poly(arr)
        assert chi0 * t_minus_1 == chi
        # coefficient-sign alternation up to the rank, zero beyond
        r = arr.rank()
        for k in range(ell + 1):
            c = chi.coefficient(ell - k)
            if k <= r:
                assert c != 0
                assert (c > 0) == (k % 2 == 0)
            else:
                assert c == 0
        # chi(dA) = chi_0(A) for every h0
        for h0 in range(arr.n_hyperplanes):
            assert char_poly(decone(arr, h0)) == chi0
        # rho preserves codimension; the per-flat b is the paper's: the sum
        # of |mu(Y)| over the flats Y of the deconing with rho(Y) = X; and
        # per-flat b sums reproduce b
        h0 = rng.randrange(arr.n_hyperplanes)
        dA_lattice = intersection_lattice(decone(arr, h0))
        by_rho = {}
        for flat, mu in zip(dA_lattice.flats, dA_lattice.moebius):
            image = rho(arr, h0, flat)
            assert image.codim == flat.codim
            by_rho[image] = by_rho.get(image, 0) + abs(mu)
        table = b_coefficients(arr, h0)
        assert by_rho == {x: cell["b"] for x, cell in table.per_flat.items()}
        for i, b_i in enumerate(table.b):
            assert b_i == sum(
                cell["b"] for f, cell in table.per_flat.items() if f.codim == i
            )
    assert time.monotonic() - start < 120
