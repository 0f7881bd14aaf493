"""Independent oracles: finite-field counts, recursions, brute-force Moebius."""

from itertools import combinations, product
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arrangements import (
    CORPUS,
    BadPrime,
    FlatNotInLattice,
    chamber_count,
    char_poly,
    char_poly_recursion,
    decone,
    finite_field_char_poly,
    good_primes,
    intersection_lattice,
    minor_bound,
    moebius_bruteforce,
    point_count,
    region_count_recursion,
)
from arrangements.core import CentralArrangement
from arrangements.linalg import det
from conftest import make


def _literal_minor_bound(forms, dim):
    """Largest |det| over every square submatrix, each one enumerated."""
    return max(
        (
            abs(det([[forms[r][c] for c in cols] for r in rows]))
            for k in range(1, min(len(forms), dim) + 1)
            for rows in combinations(range(len(forms)), k)
            for cols in combinations(range(dim), k)
        ),
        default=0,
    )


@st.composite
def _integer_matrices(draw):
    """Rows of small signed integers, any number of them (fewer than the
    columns included), with an occasional zero column and rows that are
    combinations of earlier ones, so dependent row sets get pruned."""
    dim = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(st.integers(-6, 6), min_size=dim, max_size=dim), max_size=6))
    if rows:
        for _ in range(draw(st.integers(0, 2))):
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            rows.append([s * x + t * y for x, y in zip(a, b)])
        if draw(st.booleans()):
            zero = draw(st.integers(0, dim - 1))
            rows = [[0 if c == zero else v for c, v in enumerate(r)] for r in rows]
    return dim, tuple(tuple(r) for r in rows)


@settings(max_examples=150, deadline=None)
@given(_integer_matrices())
@example((3, ((1, 2, 3), (2, 4, 6), (0, 0, -5))))  # a dependent pair
@example((4, ((0, 3, 0, -1), (0, -2, 0, 7))))  # n < dim, zero columns
@example((2, ((0, 0), (3, -4))))  # a zero row
def test_minor_bound_is_the_largest_minor(matrix):
    dim, forms = matrix
    # zero rows and dependent pairs make a matrix but no arrangement
    holder = SimpleNamespace(dim=dim, forms=forms)
    assert minor_bound(holder) == _literal_minor_bound(forms, dim)


def test_minor_bound_small_cases():
    assert minor_bound(make([[1, 0], [0, 1], [1, 1]], 2)) == 1
    assert minor_bound(make([[2, 1], [1, 3]], 2)) == 5  # the 2x2 determinant
    assert minor_bound(make([], 2)) == 0


def test_good_primes_exceed_bound_and_count():
    arr = make([[1, 0], [0, 1], [1, 1]], 2)
    primes = good_primes(arr)
    assert len(primes) == arr.dim + 1
    assert all(q > minor_bound(arr) for q in primes)
    assert list(primes) == [2, 3, 5]


def test_good_primes_budget_guard():
    arr = make([[1] + [0] * 23], 24)
    with pytest.raises(BadPrime):
        good_primes(arr)


def _literal_point_count(forms, dim, q):
    """Points of F_q**dim on no hyperplane, every point visited."""
    return sum(
        all(sum(a * x for a, x in zip(f, point)) % q for f in forms)
        for point in product(range(q), repeat=dim)
    )


@pytest.mark.parametrize("q", [2, 3, 5, 7])
@pytest.mark.parametrize(
    "dim, forms",
    [
        (0, ()),
        (1, ()),
        (1, ((1,),)),
        (1, ((2,),)),  # vanishes mod 2: no point is off it
        (1, ((3,),)),  # vanishes mod 3
        (2, ((1, 0), (0, 1), (1, 1))),
        (2, ((1, 1), (1, 3))),  # coincide mod 2
        (2, ((1, 2), (1, -3))),  # coincide mod 5
        (3, ((1, -1, 0), (0, 1, -1), (1, 0, -1), (2, 0, 7))),  # 2x+7z is 2x mod 7
        (3, ((0, 0, 1), (4, -6, 3))),
        (4, ((1, 2, 3, 4), (0, 1, 0, -1), (5, 0, 0, 2))),
    ],
)
def test_point_count_matches_literal_enumeration(dim, forms, q):
    arr = CentralArrangement(dim, forms)
    assert point_count(arr, q) == _literal_point_count(forms, dim, q)


def test_point_count_matches_char_poly_evaluation():
    boolean2 = CORPUS["boolean2"].arrangement
    assert point_count(boolean2, 3) == 4  # (3-1)^2
    braid = CORPUS["braid-ess3"].arrangement
    chi = char_poly(braid)
    for q in (7, 11, 13):
        assert point_count(braid, q) == chi(q)


def test_finite_field_char_poly_on_corpus():
    for entry in CORPUS.values():
        arr = entry.arrangement
        assert finite_field_char_poly(arr) == char_poly(arr)


def test_finite_field_witnesses():
    arr = CORPUS["braid-ess3"].arrangement
    chi, witnesses = finite_field_char_poly(arr, with_witnesses=True)
    assert chi == char_poly(arr)
    assert len(witnesses) >= arr.dim + 1
    for w in witnesses:
        assert w.accepted
        assert w.point_count == chi(w.prime)


def test_finite_field_prime_validation():
    arr = CORPUS["braid-ess3"].arrangement
    with pytest.raises(BadPrime):
        finite_field_char_poly(arr, primes=[5, 7])  # fewer than dim+1
    with pytest.raises(BadPrime):
        finite_field_char_poly(arr, primes=[4, 5, 7, 9])  # composites
    # a custom list of good primes works
    assert finite_field_char_poly(arr, primes=[5, 7, 11, 13]) == char_poly(arr)

    skewed = make([[2, 1], [1, 3]], 2)
    assert minor_bound(skewed) == 5
    with pytest.raises(BadPrime):
        finite_field_char_poly(skewed, primes=[3, 7, 11])  # 3 <= bound 5
    # 7 is within the Hadamard bound 7 but beyond the exact minor bound
    assert finite_field_char_poly(skewed, primes=[7, 11, 13]) == char_poly(skewed)
    # an explicit list is checked as given, never refused early
    boolean6 = make([[int(i == j) for j in range(6)] for i in range(6)], 6)
    with pytest.raises(BadPrime, match=r"^17\*\*6 exceeds the point-enumeration budget 10000000$"):
        finite_field_char_poly(boolean6, primes=[2, 3, 5, 7, 11, 13, 17])


def test_recursions_match_lattice_computations():
    for entry in CORPUS.values():
        arr = entry.arrangement
        assert char_poly_recursion(arr) == char_poly(arr)
        assert region_count_recursion(arr) == chamber_count(arr)


def test_recursions_on_affine_slices():
    for name in ("braid-ess3", "generic34", "supersolvable3"):
        arr = CORPUS[name].arrangement
        for h0 in range(arr.n_hyperplanes):
            dA = decone(arr, h0)
            assert char_poly_recursion(dA) == char_poly(dA)
            assert region_count_recursion(dA) == chamber_count(dA)


def test_recursion_base_cases():
    empty = make([], 3)
    assert region_count_recursion(empty) == 1
    assert char_poly_recursion(empty) == char_poly(empty)
    single = make([[1, -2]], 2)
    assert region_count_recursion(single) == 2


def test_moebius_bruteforce_matches_lattice():
    for name in ("boolean3", "braid-ess3", "generic45", "supersolvable3"):
        arr = CORPUS[name].arrangement
        lat = intersection_lattice(arr)
        mu = moebius_bruteforce(arr)
        assert len(mu) == len(lat.flats)
        for flat in lat.flats:
            assert mu[flat.equations] == lat.moebius_of(flat)
            assert moebius_bruteforce(arr, flat) == lat.moebius_of(flat)


def test_moebius_bruteforce_flat_validation():
    arr = make([[1, 0], [0, 1]], 2)
    foreign = next(
        f
        for f in intersection_lattice(make([[1, 1], [1, -1]], 2)).flats
        if f.codim == 1
    )
    with pytest.raises(FlatNotInLattice):
        moebius_bruteforce(arr, foreign)


def test_moebius_bruteforce_size_limit():
    forms = [[1, k] for k in range(16)] + [[0, 1]]
    arr = make(forms, 2)
    with pytest.raises(ValueError):
        moebius_bruteforce(arr)


def test_budget_refusal_skips_the_minor_enumeration(monkeypatch):
    # Only six primes fit 6-dimensional point counts and boolean6 has
    # Hadamard bound 1, so the oracle refuses before enumerating minors,
    # with the message the search above the minor bound gives.
    from arrangements import oracles

    boolean6 = make([[int(i == j) for j in range(6)] for i in range(6)], 6)
    with pytest.raises(BadPrime) as searched:
        oracles._primes_above(minor_bound(boolean6), 6, 7)
    monkeypatch.setattr(oracles, "minor_bound", None)  # any call fails
    with pytest.raises(BadPrime) as refused:
        finite_field_char_poly(boolean6)
    assert str(refused.value) == str(searched.value)
    assert str(refused.value).startswith("17**6 exceeds")


def test_budget_refusal_past_the_hadamard_bound_enumerates_minors(monkeypatch):
    # One coefficient of 20 puts the Hadamard bound past 14 (14**6 is the
    # largest sixth power within budget): the minors are enumerated and the
    # minor bound 20 names the first prime above it.
    from arrangements import oracles

    forms = [[int(i == j) for j in range(6)] for i in range(6)]
    forms[0][1] = 20
    arr = make(forms, 6)
    calls = []
    exact = oracles.minor_bound
    monkeypatch.setattr(oracles, "minor_bound", lambda a: calls.append(a) or exact(a))
    with pytest.raises(BadPrime, match=r"^23\*\*6 exceeds"):
        finite_field_char_poly(arr)
    assert calls == [arr]

