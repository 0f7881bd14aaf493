"""Logarithmic derivations, freeness search, Saito criterion, sigma."""

import json
from fractions import Fraction
from math import prod
from operator import add

import pytest

from arrangements import (
    CORPUS,
    DimensionMismatch,
    EmptyMultiarrangement,
    IntPoly,
    NotADerivation,
    PolyVectorField,
    WrongRank,
    compare_coefficients,
    derivation_membership,
    derivation_space_dim,
    elementary_symmetric,
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
from arrangements import derivations
from arrangements.cli import main
from arrangements.linalg import echelon
from arrangements.polynomials import monomial_count, mp_determinant
from arrangements.restriction import localize_and_essentialize
from conftest import defining_polynomial, euler_field, make


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
    assert {sum(e) for e in q} == {3}
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


@pytest.mark.parametrize(
    "bound, error", [(2.9, TypeError), (Fraction(3), TypeError), (-1, ValueError), (True, TypeError)]
)
def test_find_free_basis_refuses_a_bound_that_is_no_natural_number(bound, error):
    # int() would read 2.9 as the bound 2, and operator.index True as 1;
    # -1 would end Unknown(bound=-1)
    multi = simple_multiarrangement(CORPUS["braid-ess3"].arrangement)
    with pytest.raises(error):
        find_free_basis(multi, bound)


_BAD_BOUND_CALLS = {
    # braid-ess3 has rank 3, so its A'' has rank 2: no search runs
    "compare_coefficients": lambda bound: compare_coefficients(CORPUS["braid-ess3"].arrangement, 0, bound),
    "sigma_coefficients": lambda bound: sigma_coefficients(
        multiarrangement(make([[1, 0], [0, 1], [1, 1]], 2), (2, 1, 1)), bound
    ),
    "find_free_basis": lambda bound: find_free_basis(
        multiarrangement(make([[1, 0], [0, 1], [1, 1]], 2), (2, 1, 1)), bound
    ),
}


@pytest.mark.parametrize("call", sorted(_BAD_BOUND_CALLS))
@pytest.mark.parametrize(
    "bound, error", [(2.5, TypeError), (True, TypeError), (-4, ValueError), ("x", TypeError)]
)
def test_a_bad_bound_is_refused_below_rank_3(call, bound, error):
    # a bound is checked as find_free_basis checks it even where no search
    # reads it
    with pytest.raises(error):
        _BAD_BOUND_CALLS[call](bound)


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
    # the zero field lies in D(A,m) but belongs to no basis
    assert not saito_check((good[0], field({}, {})), multi)


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
    # Localizations repeat: the 16 flats of rank >= 3 give 9 distinct
    # multiarrangements, and one search (`_search`) serves each.  Those of
    # rank <= 2 take their exponents without a search.
    from arrangements import derivations

    multi = simple_multiarrangement(CORPUS["braid-ess4"].arrangement)
    flats = intersection_lattice(multi.base).flats
    expected = {}
    for flat in flats:
        verdict = find_free_basis(localize_and_essentialize(multi, flat))
        expected[flat] = prod(verdict.exponents) if verdict.is_free else None
    calls = []
    real = derivations._search

    def counting(local, center_dim, bound, candidates):
        calls.append((local, center_dim, bound))
        return real(local, center_dim, bound, candidates)

    monkeypatch.setattr(derivations, "_search", counting)
    assert sigma_per_flat(multi) == expected
    assert len(calls) == len(set(calls)) == 9


def test_compare_essentializes_each_flat_of_the_restriction_once(capsys, monkeypatch):
    # The sweep over L(A'') reduces each localization it searches to its
    # span once, in localize_and_essentialize; no search essentializes it
    # again.  Without a bound braid-ess4, divisionally free, runs no sweep:
    # A'' itself is the one essentialization.  Under a bound every flat of
    # codim <= 2 of its A'' has closed-form exponents, read off the
    # multiplicities, and the center is A'', so again A'' is the one
    # essentialization.
    from arrangements import core
    from arrangements.cli import main

    calls = []
    real = core._essential_forms

    def counting(forms):
        calls.append(forms)
        return real(forms)

    monkeypatch.setattr(core, "_essential_forms", counting)
    assert main(["compare", "corpus:braid-ess4", "--h0", "0"]) == 0
    assert len(calls) == 1
    calls.clear()
    assert main(["compare", "corpus:braid-ess4", "--h0", "0", "--bound", "4"]) == 0
    capsys.readouterr()
    restriction = ziegler_restriction(CORPUS["braid-ess4"].arrangement, 0)
    assert len(intersection_lattice(restriction.base).flats) == 15
    assert len(calls) == 1


def test_sigma_coefficients_searches_a_non_free_top_once(monkeypatch):
    # The top of a non-free multiarrangement is searched before the sweep;
    # the sweep reads its last flat, the center, off that verdict.  Its
    # localizations of rank <= 2 take their exponents without a search, so
    # the top (rank 3) is the only search; A'' is simple, so they are all
    # closed forms, read off the multiplicities without the rank-2 rule.
    from arrangements import derivations

    zr = ziegler_restriction(CORPUS["generic45"].arrangement, 0)
    expected = sigma_coefficients(zr)
    calls = []
    real = derivations._search
    rank2 = []
    real_rank2 = derivations._exponents_by_theorem

    def counting(local, center_dim, bound, candidates):
        calls.append(local)
        return real(local, center_dim, bound, candidates)

    def counting_rank2(ess, kernels=None):
        rank2.append(ess)
        return real_rank2(ess, kernels)

    monkeypatch.setattr(derivations, "_search", counting)
    monkeypatch.setattr(derivations, "_exponents_by_theorem", counting_rank2)
    assert sigma_coefficients(zr) == expected
    assert not rank2
    assert len(calls) == len(set(calls)) == 1
    assert calls[0].dim == 3
    assert not find_free_basis(calls[0]).is_free


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


# The full scan's NotFree certificates.  On the first two inputs the
# Hilbert-function stop rule cannot decide (the graded dimensions are those
# of a free module), so only the certificate answers.  On the third, three
# degree-2 generators come first, and their degrees miss |m| = 7.
_DET_FAILS = (
    [[1, -1, -2], [0, 1, 0], [1, 1, 0], [1, 2, -1]], 3, [1, 3, 1, 1],
    "rank-many minimal generators fail the determinant criterion at degrees (2, 2, 2)",
)
_TOO_MANY = (
    [[-1, -1, 1, 0], [0, 1, -1, -2], [-1, 0, -2, -2], [-1, 1, 0, 1], [-2, -1, -2, -2]],
    4, [3, 1, 1, 3, 1],
    "5 minimal generators by degree 3 exceed the rank 4",
)

_DEGREES_MISS = (
    [[-2, 2, 2], [2, 2, -1], [-1, 0, -2], [-2, -1, -2]], 3, [1, 4, 1, 1],
    "minimal generator degrees (2, 2, 2) sum to 6, not |m| = 7",
)


def _degree_fields(multi, d):
    """A basis of the degree-d piece of D(A,m), as vector fields."""
    kernel, monos = derivations._graded_kernel(multi, d)
    return [derivations._field_from_vector(v, monos, multi.dim) for v in kernel]


@pytest.mark.parametrize(
    "forms, dim, mult, witness, dims",
    [(*_DET_FAILS, [0, 0, 3, 9, 18]), (*_TOO_MANY, [0, 0, 3, 13, 34]),
     (*_DEGREES_MISS, [0, 0, 3, 8, 16])],
    ids=["determinant", "too-many-generators", "degrees-miss-the-total"],
)
def test_full_scan_certificates_answer_not_free(
    forms, dim, mult, witness, dims, tmp_path, capsys
):
    multi = multiarrangement(make(forms, dim), mult)
    assert [derivation_space_dim(multi, d) for d in range(5)] == dims
    verdict = find_free_basis(multi)
    assert (verdict.status, verdict.witness) == ("NotFree", witness)
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"dim": dim, "hyperplanes": forms, "mult": mult}))
    assert main(["exponents", str(path), "--json"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out) == {
        "status": "NotFree", "exponents": None, "witness": witness, "degree_bound": None,
    }


def test_determinant_certificate_agrees_with_the_symbolic_determinant():
    # dims 0, 0, 3, 9, 18 fit exponents (2, 2, 2), but the three degree-2
    # fields have det(theta_i(x_j)) = 0, so they are no basis
    forms, dim, mult, _ = _DET_FAILS
    fields = _degree_fields(multiarrangement(make(forms, dim), mult), 2)
    assert len(fields) == 3
    assert mp_determinant([list(theta.components) for theta in fields]) == {}


def test_too_many_generators_certificate_agrees_with_the_span_rank():
    # x_k * theta for the three degree-2 fields span 11 of the 13 dimensions
    # of D_3, so degree 3 adds two generators: five in all, past the rank 4
    forms, dim, mult, _ = _TOO_MANY
    multi = multiarrangement(make(forms, dim), mult)
    low = _degree_fields(multi, 2)
    assert len(low) == 3 and derivation_space_dim(multi, 3) == 13
    shifted = []
    for theta in low:
        for k in range(dim):
            step = tuple(int(i == k) for i in range(dim))
            shifted.append({(i, tuple(map(add, e, step))): v
                            for i, comp in enumerate(theta.components)
                            for e, v in comp.items()})
    keys = sorted(set().union(*shifted))
    assert echelon([[vec.get(key, 0) for key in keys] for vec in shifted]).rank == 11
