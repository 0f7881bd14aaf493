"""Intersection lattices, Moebius functions and characteristic polynomials."""

from collections import Counter
from functools import partial
from math import factorial, prod

import pytest

from arrangements import (
    CORPUS,
    AffineArrangement,
    DuplicateHyperplane,
    Flat,
    FlatNotInLattice,
    IntersectionLattice,
    IntPoly,
    NonzeroRemainder,
    chamber_count,
    char_poly,
    char_poly_recursion,
    decone,
    intersection_lattice,
    localize_and_essentialize,
    moebius_bruteforce,
    reduced_char_poly,
    simple_multiarrangement,
)
from arrangements.core import CentralArrangement, normalize_affine
from arrangements.lattice import hyperplane_rows
from arrangements.linalg import _Echelon
from conftest import make, random_central, seeded


def coeffs(poly):
    return [poly.coefficient(k) for k in range(poly.degree + 1)]


def test_empty_arrangement():
    arr = make([], 3)
    lat = intersection_lattice(arr)
    assert lat.level_sizes() == {0: 1}
    assert char_poly(arr) == IntPoly.monomial(3)
    assert chamber_count(arr) == 1
    with pytest.raises(NonzeroRemainder):
        reduced_char_poly(arr)


def test_single_hyperplane():
    arr = make([[1, -1]], 2)
    lat = intersection_lattice(arr)
    assert lat.level_sizes() == {0: 1, 1: 1}
    assert coeffs(char_poly(arr)) == [0, -1, 1]  # chi = t^2 - t
    assert chamber_count(arr) == 2


def test_braid_ess3_lattice_shape():
    # Derived by brute-force intersection enumeration: 7 codimension-2 flats,
    # four of them triple points, three double.
    arr = CORPUS["braid-ess3"].arrangement
    lat = intersection_lattice(arr)
    assert lat.level_sizes() == {0: 1, 1: 6, 2: 7, 3: 1}
    sizes = sorted(len(f.contained) for f in lat.level(2))
    assert sizes == [2, 2, 2, 3, 3, 3, 3]
    triples = [f for f in lat.level(2) if len(f.contained) == 3]
    for flat in triples:
        assert lat.moebius_of(flat) == 2
        assert moebius_bruteforce(arr, flat) == 2


def test_moebius_against_bruteforce_on_corpus():
    for entry in CORPUS.values():
        arr = entry.arrangement
        lat = intersection_lattice(arr)
        mu = moebius_bruteforce(arr)
        assert len(mu) == len(lat.flats)
        for flat in lat.flats:
            assert mu[flat.equations] == lat.moebius_of(flat)


def test_moebius_sign_alternation():
    for name in ("braid-ess3", "generic34", "supersolvable3", "braid-ess4"):
        lat = intersection_lattice(CORPUS[name].arrangement)
        for flat in lat.flats:
            mu = lat.moebius_of(flat)
            assert mu != 0
            assert (mu > 0) == (flat.codim % 2 == 0)


def test_char_poly_corpus_values():
    for entry in CORPUS.values():
        assert coeffs(char_poly(entry.arrangement)) == entry.expected["char_poly"]["value"]


def test_chamber_count_corpus_values():
    for entry in CORPUS.values():
        assert chamber_count(entry.arrangement) == entry.expected["chambers"]["value"]


def test_reduced_char_poly_divides_exactly():
    for entry in CORPUS.values():
        arr = entry.arrangement
        chi0 = reduced_char_poly(arr)
        t_minus_1 = IntPoly((-1, 1))
        assert chi0 * t_minus_1 == char_poly(arr)


@pytest.mark.parametrize("func", [char_poly, reduced_char_poly])
def test_char_poly_refuses_the_lattice_of_another_arrangement(func):
    # braid-ess3's lattice would give braid's t^3 - 6t^2 + 11t - 6 for the
    # boolean arrangement; the deconing's, over other rows, is refused too
    boolean3 = CORPUS["boolean3"].arrangement
    braid = CORPUS["braid-ess3"].arrangement
    for lattice in (intersection_lattice(braid), intersection_lattice(decone(boolean3, 0))):
        with pytest.raises(FlatNotInLattice):
            func(boolean3, lattice)
    assert func(boolean3, intersection_lattice(boolean3)) == func(boolean3)
    # one flat over other rows is enough
    lattice = intersection_lattice(boolean3)
    flats = lattice.flats[:-1] + (Flat(3, 7, hyperplane_rows(braid)),)
    with pytest.raises(FlatNotInLattice):
        func(boolean3, IntersectionLattice(lattice.ambient_dim, flats, lattice.moebius))


def test_reduced_char_poly_rejects_affine_input():
    dA = decone(CORPUS["boolean3"].arrangement, 0)
    with pytest.raises(TypeError):
        reduced_char_poly(dA)


def test_affine_lattice_via_decone():
    # Deconing braid-ess3 gives 5 affine hyperplanes with chi = t^2 - 5t + 6,
    # derived independently by the deletion-restriction recursion.
    arr = CORPUS["braid-ess3"].arrangement
    for h0 in range(arr.n_hyperplanes):
        dA = decone(arr, h0)
        assert dA.n_hyperplanes == 5
        assert coeffs(char_poly(dA)) == [6, -5, 1]


def test_lookup_and_flat_not_in_lattice(monkeypatch):
    arr = make([[1, 0], [0, 1]], 2)
    other = make([[1, 1], [1, -1]], 2)
    lat = intersection_lattice(arr)
    foreign = next(f for f in intersection_lattice(other).flats if f.codim == 1)
    with pytest.raises(FlatNotInLattice):
        lat.lookup(foreign)
    for flat in lat.flats:
        assert lat.lookup(flat) is flat
        assert lat.index_of(flat) is not None
    # equal equations over other rows: a flat belongs to the lattice of its
    # own rows only, for lookups and localization alike
    scaled = CentralArrangement(2, ((2, 0), (0, 1)))
    for flat in lat.flats:
        with pytest.raises(FlatNotInLattice):
            intersection_lattice(scaled).lookup(flat)
        with pytest.raises(FlatNotInLattice):
            localize_and_essentialize(simple_multiarrangement(scaled), flat)
    # a lookup reads (codim, mask) and the rows, never the equations, even
    # for the equal flats of a second build
    arr = CORPUS["braid-ess4"].arrangement
    lat, again = intersection_lattice(arr), intersection_lattice(arr)
    monkeypatch.setattr(_Echelon, "rref", lambda self: pytest.fail("equations computed"))
    for flat in again.flats:
        assert lat.lookup(flat) == flat
        assert lat.moebius_of(flat) == again.moebius_of(flat)


def test_lattice_rank_for_non_essential_arrangement():
    arr = make([[1, 0, 0], [0, 1, 0]], 3)
    lat = intersection_lattice(arr)
    assert lat.rank == 2
    assert lat.level_sizes() == {0: 1, 1: 2, 2: 1}
    assert coeffs(char_poly(arr)) == [0, 1, -2, 1]  # t(t-1)^2


def test_affine_lattice_with_parallel_hyperplanes():
    # x = 0 and x = 1 never meet: two points, not three, in codimension 2.
    arr = AffineArrangement(
        2, tuple(normalize_affine(n, c) for n, c in [((1, 0), 0), ((1, 0), 1), ((0, 1), 0)])
    )
    lat = intersection_lattice(arr)
    assert lat.level_sizes() == {0: 1, 1: 3, 2: 2}
    assert coeffs(char_poly(arr)) == [2, -3, 1]  # chi = t^2 - 3t + 2
    assert sorted(sorted(f.contained) for f in lat.level(2)) == [[0, 2], [1, 2]]


def test_affine_lattices_of_random_deconings():
    rng = seeded(1301)
    checked = 0
    for _ in range(25):
        arr = random_central(rng, dim=rng.choice((3, 4)), max_hyperplanes=7)
        for h0 in range(arr.n_hyperplanes):
            dA = decone(arr, h0)
            lat = intersection_lattice(dA)
            mu = moebius_bruteforce(dA)
            assert sorted(mu) == sorted(f.equations for f in lat.flats)
            for flat, value in zip(lat.flats, lat.moebius):
                assert mu[flat.equations] == value
            assert char_poly_recursion(dA) == char_poly(dA)
            checked += 1
    assert checked >= 50


def _stirling2(n, k):
    """Number of partitions of n strands into k blocks."""
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * _stirling2(n - 1, k) + _stirling2(n - 1, k - 1)


@pytest.mark.parametrize("n, size", [(6, 203), (7, 877), (8, 4140)])
def test_braid_moebius_closed_form(n, size):
    # Past brute force's 16-hyperplane limit: the flats of the braid
    # arrangement x_i = x_j are the set partitions of n strands (codim k:
    # n - k blocks), and mu is the product over blocks B of
    # (-1)**(|B|-1) * (|B|-1)!, where the blocks are the connected
    # components of the flat's hyperplane pairs.
    forms = []
    for i in range(n):
        for j in range(i + 1, n):
            forms.append([1 if k == i else -1 if k == j else 0 for k in range(n)])
    arr = make(forms, n)
    pairs = [[k for k, v in enumerate(form) if v] for form in arr.forms]
    lat = intersection_lattice(arr)
    assert len(lat.flats) == size
    assert lat.level_sizes() == {k: _stirling2(n, n - k) for k in range(n)}
    for flat, mu in zip(lat.flats, lat.moebius):
        block = list(range(n))  # block label of each strand
        for h in flat.contained:
            i, j = pairs[h]
            block = [block[j] if b == block[i] else b for b in block]
        sizes = Counter(block).values()
        assert mu == prod((-1) ** (b - 1) * factorial(b - 1) for b in sizes)


@pytest.mark.parametrize(
    "arr, masks, moebius",
    [
        # rows built directly: not primitive, not sign-normalized
        (CentralArrangement(2, ((2, 0), (0, -3), (1, 1))), (0, 1, 2, 4, 7), (1, -1, -1, -1, 2)),
        # proportional rows are no arrangement: the constructor refuses them
        pytest.param(
            partial(CentralArrangement, 2, ((1, 0), (2, 0), (0, 1))),
            DuplicateHyperplane,
            None,
            id="arr1-masks1-moebius1",
        ),
        (
            AffineArrangement(2, (((2, 0), 4), ((0, 1), 1), ((1, 0), 5))),
            (0, 1, 2, 4, 3, 6),
            (1, -1, -1, -1, 1, 1),
        ),
    ],
)
def test_lattice_of_unnormalized_rows(arr, masks, moebius):
    if masks is DuplicateHyperplane:
        with pytest.raises(DuplicateHyperplane):
            arr()
        return
    lat = intersection_lattice(arr)
    assert tuple(f.mask for f in lat.flats) == masks
    assert lat.moebius == moebius


def test_nonnegative_roots_exactly_when_the_polynomial_splits_over_them():
    # chi_0 of the essentialized braid arrangement A4 splits with roots
    # 2, 3, 4; that of five generic hyperplanes in Q^4 does not.
    assert reduced_char_poly(CORPUS["braid-ess4"].arrangement).nonnegative_roots() == [2, 3, 4]
    assert reduced_char_poly(CORPUS["generic45"].arrangement).nonnegative_roots() is None
    assert IntPoly.from_roots([3, 0, 5, 3]).nonnegative_roots() == [0, 3, 3, 5]
    assert IntPoly((1,)).nonnegative_roots() == []
    assert IntPoly.from_roots([2, -1]).nonnegative_roots() is None
    assert IntPoly((10, -5, 1)).nonnegative_roots() is None  # t^2 - 5t + 10
    assert IntPoly((-2, 2)).nonnegative_roots() is None  # 2t - 2 is not monic
