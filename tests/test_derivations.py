"""Logarithmic derivations, freeness search, Saito criterion, sigma."""

from fractions import Fraction
from math import prod

import pytest

from arrangements import (
    CORPUS,
    DimensionMismatch,
    EmptyMultiarrangement,
    IntPoly,
    NotADerivation,
    PolyVectorField,
    WrongRank,
    defining_polynomial,
    derivation_membership,
    derivation_space_dim,
    elementary_symmetric,
    euler_field,
    find_free_basis,
    intersection_lattice,
    multi_char_poly_free,
    multiarrangement,
    rank2_exponents,
    saito_check,
    sigma_coefficients,
    sigma_per_flat,
    simple_multiarrangement,
    ziegler_restriction,
)
from arrangements.polynomials import monomial_count, mp_degree
from arrangements.restriction import localize_and_essentialize
from conftest import make


def field(*components):
    return PolyVectorField(components)


def test_poly_vector_field_homogeneity():
    with pytest.raises(ValueError):
        field({(1, 0): 1}, {(0, 0): 1})  # degrees 1 and 0 mixed
    zero = field({}, {})
    assert zero.is_zero
    assert zero.degree == -1
    e = euler_field(2)
    assert e.degree == 1
    assert e.apply_to_form((2, -3)) == {(1, 0): 2, (0, 1): -3}


def test_euler_field_is_logarithmic_for_simple_arrangements():
    for name in ("boolean3", "braid-ess3", "generic34", "supersolvable3"):
        multi = simple_multiarrangement(CORPUS[name].arrangement)
        assert derivation_membership(euler_field(multi.dim), multi)


def test_derivation_membership_basics():
    multi = simple_multiarrangement(make([[1, 0], [0, 1]], 2))
    x_dx = field({(1, 0): 1}, {})
    x_dy = field({}, {(1, 0): 1})
    assert derivation_membership(x_dx, multi)
    assert not derivation_membership(x_dy, multi)  # theta(y) = x not in (y)
    with pytest.raises(DimensionMismatch):
        derivation_membership(euler_field(3), multi)


def test_derivation_membership_respects_multiplicity():
    multi = multiarrangement(make([[1, 0], [0, 1]], 2), (2, 1))
    x_dx = field({(1, 0): 1}, {})
    x2_dx = field({(2, 0): 1}, {})
    assert not derivation_membership(x_dx, multi)  # needs x^2 | theta(x)
    assert derivation_membership(x2_dx, multi)


def test_defining_polynomial():
    multi = multiarrangement(make([[1, 0], [0, 1]], 2), (2, 1))
    q = defining_polynomial(multi)
    assert q == {(2, 1): 1}
    assert mp_degree(q) == 3
    with_zero = multiarrangement(make([[1, 0], [0, 1]], 2), (2, 0))
    assert defining_polynomial(with_zero) == {(2, 0): 1}


def test_derivation_space_dims_boolean2():
    multi = simple_multiarrangement(make([[1, 0], [0, 1]], 2))
    assert derivation_space_dim(multi, 0) == 0
    assert derivation_space_dim(multi, 1) == 2  # x d/dx and y d/dy
    assert derivation_space_dim(multi, 2) == 4
    with pytest.raises(ValueError):
        derivation_space_dim(multi, -1)


def test_derivation_space_dims_match_free_module_hilbert_series():
    # For a verified-free multiarrangement the graded dimensions equal the
    # Hilbert function of a free module with generators at the exponents.
    for name in ("boolean3", "braid-ess3", "supersolvable3"):
        multi = simple_multiarrangement(CORPUS[name].arrangement)
        verdict = find_free_basis(multi)
        assert verdict.is_free
        ell = multi.dim
        for d in range(0, 5):
            predicted = sum(
                monomial_count(ell, d - e) for e in verdict.exponents if e <= d
            )
            assert derivation_space_dim(multi, d) == predicted


def test_find_free_basis_on_corpus():
    for entry in CORPUS.values():
        multi = simple_multiarrangement(entry.arrangement)
        verdict = find_free_basis(multi)
        assert verdict.is_free == entry.expected["free"]["value"]
        if verdict.is_free:
            assert sorted(verdict.exponents) == entry.expected["exponents"]["value"]
            assert saito_check(verdict.basis, multi)
        else:
            assert verdict.witness


def test_find_free_basis_prepends_center_zeros():
    arr = make([[1, 0, 0], [0, 1, 0]], 3)
    verdict = find_free_basis(simple_multiarrangement(arr))
    assert verdict.is_free
    assert verdict.exponents == (0, 1, 1)
    assert verdict.essential.dim == 2


def test_find_free_basis_empty_and_rank_one():
    empty = simple_multiarrangement(make([], 2))
    verdict = find_free_basis(empty)
    assert verdict.is_free
    assert verdict.exponents == (0, 0)

    single = multiarrangement(make([[1, 0]], 2), (3,))
    verdict = find_free_basis(single)
    assert verdict.is_free
    assert verdict.exponents == (0, 3)


def test_find_free_basis_unknown_below_bound():
    multi = simple_multiarrangement(CORPUS["braid-ess3"].arrangement)
    verdict = find_free_basis(multi, degree_bound=2)
    assert verdict.is_unknown
    assert verdict.bound == 2
    # the default bound |m| is always decisive
    assert not find_free_basis(multi).is_unknown


def test_saito_check_rank_one_with_inert_direction():
    multi = multiarrangement(make([[1, 0]], 2), (2,))
    basis = (field({(2, 0): 1}, {}), field({}, {(0, 0): 1}))
    assert saito_check(basis, multi)


def test_saito_check_rejections():
    multi = simple_multiarrangement(make([[1, 0], [0, 1]], 2))
    good = (field({(1, 0): 1}, {}), field({}, {(0, 1): 1}))
    assert saito_check(good, multi)
    with pytest.raises(DimensionMismatch):
        saito_check(good[:1], multi)
    with pytest.raises(NotADerivation) as info:
        saito_check((good[0], field({}, {(1, 0): 1})), multi)
    assert info.value.index == 1
    # genuine derivations whose determinant has the wrong degree
    wrong_degrees = (field({(1, 0): 1}, {}), field({}, {(1, 1): 1}))
    assert not saito_check(wrong_degrees, multi)
    # degenerate: repeated member, determinant vanishes
    assert not saito_check((good[0], good[0]), multi)


def test_rank2_exponents_acceptance_cases():
    two_lines = simple_multiarrangement(make([[1, 0], [0, 1]], 2))
    assert tuple(rank2_exponents(two_lines)) == (1, 1)

    three_lines = simple_multiarrangement(make([[1, 0], [0, 1], [1, 1]], 2))
    assert tuple(rank2_exponents(three_lines)) == (1, 2)

    multi = CORPUS["three-lines-221"].multiarrangement()
    exps = rank2_exponents(multi)
    assert tuple(exps) == (2, 3)
    assert exps[0] + exps[1] == multi.total
    assert saito_check(exps.basis, multi)


def test_rank2_exponents_validation():
    with pytest.raises(WrongRank):
        rank2_exponents(simple_multiarrangement(make([[1, 0]], 2)))
    with pytest.raises(EmptyMultiarrangement):
        rank2_exponents(multiarrangement(make([[1, 0], [0, 1]], 2), (0, 0)))
    with pytest.raises(WrongRank):
        rank2_exponents(simple_multiarrangement(CORPUS["boolean3"].arrangement))


def test_unbalanced_rank2_multiplicities():
    # ({x, y}, (2, 3)): product case, basis x^2 dx, y^3 dy.
    multi = multiarrangement(make([[1, 0], [0, 1]], 2), (2, 3))
    exps = rank2_exponents(multi)
    assert tuple(exps) == (2, 3)
    assert saito_check(exps.basis, multi)


def test_multi_char_poly_free_and_elementary_symmetric():
    poly = multi_char_poly_free((2, 3))
    assert poly == IntPoly((6, -5, 1))
    assert elementary_symmetric((2, 3, 4), 0) == 1
    assert elementary_symmetric((2, 3, 4), 1) == 9
    assert elementary_symmetric((2, 3, 4), 2) == 26
    assert elementary_symmetric((2, 3, 4), 3) == 24
    assert elementary_symmetric((2, 3, 4), 4) == 0


def test_sigma_coefficients_rank2():
    zr = ziegler_restriction(CORPUS["braid-ess3"].arrangement, 0)
    sigma = sigma_coefficients(zr)
    assert [s.value for s in sigma] == [1, 5, 6]
    assert sigma[0].method == "definition"
    assert sigma[1].method == "definition"
    assert sigma[2].method == "rank<=2"
    assert all(s.exact for s in sigma)


def test_sigma_coefficients_free_factorization():
    zr = ziegler_restriction(CORPUS["braid-ess4"].arrangement, 0)
    sigma = sigma_coefficients(zr)
    assert [s.value for s in sigma] == [1, 9, 26, 24]
    assert sigma[2].method == "free-factorization"
    assert sigma[3].method == "free-factorization"


def test_sigma_coefficients_local_to_global_with_unresolved_top():
    zr = ziegler_restriction(CORPUS["generic45"].arrangement, 0)
    sigma = sigma_coefficients(zr)
    assert [s.value for s in sigma] == [1, 4, 6, None]
    assert sigma[2].method == "local-to-global"
    assert sigma[2].exact
    assert not sigma[3].exact


def test_sigma_per_flat_braid():
    zr = ziegler_restriction(CORPUS["braid-ess3"].arrangement, 0)
    per = sigma_per_flat(zr)
    values = sorted((f.codim, v) for f, v in per.items())
    assert values == [(0, 1), (1, 1), (1, 2), (1, 2), (2, 6)]
    # level sums against the global sigma values
    sigma = sigma_coefficients(zr)
    for k in (1, 2):
        assert sum(v for f, v in per.items() if f.codim == k) == sigma[k].value


def test_sigma_ignores_user_bound_on_rank2_localizations():
    # Rank <= 2 localizations are always free, so a degree bound too low
    # for them must not leave their products (or sigma_2) unresolved.
    zr = ziegler_restriction(CORPUS["braid-ess4"].arrangement, 0)
    per = sigma_per_flat(zr, degree_bound=1)
    assert all(v is not None for f, v in per.items() if f.codim <= 2)
    assert sum(v for f, v in per.items() if f.codim == 2) == 26
    sigma = sigma_coefficients(zr, degree_bound=1)
    assert [s.value for s in sigma] == [1, 9, 26, None]
    assert sigma[2].method == "local-to-global"


def test_localization_sweep_searches_each_distinct_localization_once(monkeypatch):
    # Every hyperplane of multiplicity one localizes to the same rank-1
    # multiarrangement, so one search serves all of them.
    from arrangements import derivations

    multi = simple_multiarrangement(CORPUS["braid-ess4"].arrangement)
    flats = intersection_lattice(multi.base).flats
    expected = {}
    for flat in flats:
        verdict = find_free_basis(localize_and_essentialize(multi, flat))
        expected[flat] = prod(verdict.exponents) if verdict.is_free else None
    calls = []
    real = derivations.find_free_basis

    def counting(local, bound=None):
        calls.append((local, bound))
        return real(local, bound)

    monkeypatch.setattr(derivations, "find_free_basis", counting)
    assert sigma_per_flat(multi) == expected
    assert len(calls) == len(set(calls)) < len(flats)


def test_sigma_coefficients_searches_a_non_free_top_once(monkeypatch):
    # The top of a non-free multiarrangement is searched before the sweep;
    # the sweep reuses that verdict for its last flat, the center.
    from arrangements import derivations

    zr = ziegler_restriction(CORPUS["generic45"].arrangement, 0)
    expected = sigma_coefficients(zr)
    calls = []
    real = derivations.find_free_basis

    def counting(local, bound=None):
        calls.append(local)
        return real(local, bound)

    monkeypatch.setattr(derivations, "find_free_basis", counting)
    assert sigma_coefficients(zr) == expected
    assert not find_free_basis(calls[0]).is_free
    assert calls[0].dim == 3
    assert len(calls) == len(set(calls)) == 6


def test_sigma_per_flat_needs_essential_input():
    multi = simple_multiarrangement(make([[1, 0, 0], [0, 1, 0]], 3))
    with pytest.raises(WrongRank):
        sigma_per_flat(multi)


def test_exponents_carry_their_basis():
    multi = CORPUS["three-lines-221"].multiarrangement()
    exps = rank2_exponents(multi)
    assert len(exps.basis) == 2
    degrees = sorted(theta.degree for theta in exps.basis)
    assert degrees == [2, 3]


def test_fractional_forms_are_handled_exactly():
    arr = make([[Fraction(1, 2), 0], [0, Fraction(2, 3)], [1, 1]], 2)
    assert tuple(rank2_exponents(simple_multiarrangement(arr))) == (1, 2)
