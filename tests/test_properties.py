"""Randomized structural checks (exact assertions only): fixed-seed loops,
and Hypothesis properties that shrink a failure to a minimal input."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from arrangements import (
    BadPrime,
    IntPoly,
    canonicalize,
    chamber_count,
    char_poly,
    char_poly_recursion,
    compare_coefficients,
    find_free_basis,
    finite_field_char_poly,
    intersection_lattice,
    moebius_bruteforce,
    multiarrangement,
    rank2_exponents,
    region_count_recursion,
    saito_check,
    simple_multiarrangement,
)
from arrangements.core import normalize_form
from conftest import random_central, seeded


def test_oracle_triple_agreement_random():
    rng = seeded(1201)
    for _ in range(40):
        arr = random_central(rng)
        chi = char_poly(arr)
        assert char_poly_recursion(arr) == chi
        assert region_count_recursion(arr) == chamber_count(arr)
        try:
            assert finite_field_char_poly(arr) == chi
        except BadPrime:
            pass  # coefficient growth can exceed the point-count budget


def test_moebius_bruteforce_agreement_random():
    rng = seeded(1202)
    for _ in range(30):
        arr = random_central(rng)
        lat = intersection_lattice(arr)
        mu = moebius_bruteforce(arr)
        assert len(mu) == len(lat.flats)
        for flat in lat.flats:
            assert mu[flat.equations] == lat.moebius_of(flat)


def test_moebius_sign_alternation_random():
    rng = seeded(1203)
    for _ in range(40):
        arr = random_central(rng)
        lat = intersection_lattice(arr)
        for flat in lat.flats:
            mu = lat.moebius_of(flat)
            assert mu != 0
            assert (mu > 0) == (flat.codim % 2 == 0)


def test_random_rank2_multiarrangements_always_free():
    rng = seeded(1204)
    for _ in range(30):
        arr = random_central(rng, dim=2, max_hyperplanes=4)
        mult = tuple(rng.randint(0, 3) for _ in range(arr.n_hyperplanes))
        multi = multiarrangement(arr, mult)
        verdict = find_free_basis(multi)
        assert verdict.is_free
        assert sum(verdict.exponents) == multi.total
        if multi.rank() == 2 and multi.total > 0:
            exps = rank2_exponents(multi)
            assert sorted(exps) == sorted(verdict.exponents)
            assert saito_check(exps.basis, multi)


def test_random_dim3_freeness_search_is_decisive():
    rng = seeded(1205)
    free_seen = notfree_seen = 0
    for _ in range(30):
        arr = random_central(rng, dim=3)
        verdict = find_free_basis(simple_multiarrangement(arr))
        assert not verdict.is_unknown
        if verdict.is_free:
            free_seen += 1
            # Factorization: chi splits over the exponents.
            assert IntPoly.from_roots(verdict.exponents) == char_poly(arr)
        else:
            notfree_seen += 1
            assert verdict.witness
    assert free_seen and notfree_seen  # the sample exercises both branches


def test_random_coefficient_inequality_rank_le_3():
    # Rank <= 3 inputs are tame, so b_i >= sigma_i >= 0 must hold whenever
    # sigma_i is exact; the comparison itself enforces the theorem guard.
    rng = seeded(1206)
    checked = 0
    for _ in range(30):
        arr = random_central(rng)
        if arr.n_hyperplanes < 2:
            continue
        h0 = rng.randrange(arr.n_hyperplanes)
        report = compare_coefficients(arr, h0)
        assert report.tame_arrangement.is_tame
        for i, b_i in enumerate(report.table.b):
            status = report.table.sigma[i]
            if status.exact:
                assert b_i >= status.value >= 0
                assert report.inequality[i] is True
            else:
                assert report.inequality[i] is None
        checked += 1
    assert checked >= 20


@st.composite
def _central_forms(draw):
    """Dimension 2-4 and 1-7 pairwise non-proportional small integer forms."""
    dim = draw(st.integers(2, 4))
    form = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim).filter(any)
    by_hyperplane = {}  # proportional draws are one hyperplane: keep the first
    for f in draw(st.lists(form, min_size=1, max_size=7)):
        by_hyperplane.setdefault(normalize_form(f), f)
    return dim, list(by_hyperplane.values())


@st.composite
def _relabelled_arrangements(draw):
    """Forms of a central arrangement, and the same hyperplanes in another
    order, each form scaled by a nonzero rational."""
    dim, forms = draw(_central_forms())
    order = draw(st.permutations(range(len(forms))))
    scale = st.fractions(-4, 4, max_denominator=3).filter(lambda c: c != 0)
    scales = draw(st.lists(scale, min_size=len(forms), max_size=len(forms)))
    moved = [[Fraction(v) * c for v in forms[i]] for i, c in zip(order, scales)]
    return canonicalize(forms, dim), canonicalize(moved, dim)


@settings(max_examples=40, deadline=None)
@given(_relabelled_arrangements())
def test_chi_and_levels_ignore_order_and_scaling_of_hyperplanes(pair):
    arr, other = pair
    assert char_poly(other) == char_poly(arr)
    assert intersection_lattice(other).level_sizes() == intersection_lattice(arr).level_sizes()


@settings(max_examples=60, deadline=None)
@given(_central_forms())
def test_three_oracles_agree(drawn):
    # The lattice, the deletion-restriction recursions and the finite-field
    # point counts share no code on the way to chi and the chamber count.
    dim, forms = drawn
    arr = canonicalize(forms, dim)
    chi = char_poly(arr)
    assert char_poly_recursion(arr) == chi
    try:
        assert finite_field_char_poly(arr) == chi
    except BadPrime:
        pass  # no dim+1 primes above the minor bound fit the point budget
    chambers = chamber_count(arr)
    assert region_count_recursion(arr) == chambers == (-1) ** arr.dim * chi(-1)
