"""Deconing, Ziegler restriction, localization, rho and b-coefficients."""

import pytest

from arrangements import (
    CORPUS,
    FlatNotInLattice,
    IndexOutOfRange,
    WrongRank,
    b_coefficients,
    char_poly,
    decone,
    intersection_lattice,
    localize_and_essentialize,
    reduced_char_poly,
    rho,
    simple_multiarrangement,
    ziegler_restriction,
)
from conftest import make, rho_images


def test_decone_index_validation():
    arr = CORPUS["boolean3"].arrangement
    with pytest.raises(IndexOutOfRange):
        decone(arr, 3)
    with pytest.raises(IndexOutOfRange):
        ziegler_restriction(arr, -1)


def test_decone_char_poly_identity_on_corpus():
    # chi(dA) = chi_0(A), for every choice of h0.
    for entry in CORPUS.values():
        arr = entry.arrangement
        chi0 = reduced_char_poly(arr)
        for h0 in range(arr.n_hyperplanes):
            assert char_poly(decone(arr, h0)) == chi0


def test_ziegler_restriction_shapes():
    braid = CORPUS["braid-ess3"].arrangement
    for h0 in range(braid.n_hyperplanes):
        zr = ziegler_restriction(braid, h0)
        assert zr.dim == 2
        assert zr.total == 5  # |m| = |A| - 1
        assert sorted(zr.mult) == [1, 2, 2]

    boolean3 = CORPUS["boolean3"].arrangement
    zr = ziegler_restriction(boolean3, 0)
    assert zr.mult == (1, 1)
    assert zr.base.forms == ((1, 0), (0, 1))

    braid4 = CORPUS["braid-ess4"].arrangement
    zr = ziegler_restriction(braid4, 0)
    assert zr.total == 9
    assert sorted(zr.mult) == [1, 1, 1, 2, 2, 2]


def test_ziegler_restriction_needs_rank_two():
    with pytest.raises(WrongRank):
        ziegler_restriction(make([[1]], 1), 0)


def test_localize_triple_point_of_braid():
    # Localizing braid-ess3 at a triple point and essentializing gives a
    # rank-2 simple arrangement of 3 lines.
    arr = CORPUS["braid-ess3"].arrangement
    lat = intersection_lattice(arr)
    triple = next(f for f in lat.level(2) if len(f.contained) == 3)
    local = localize_and_essentialize(simple_multiarrangement(arr), triple)
    assert local.dim == 2
    assert local.base.n_hyperplanes == 3
    assert local.mult == (1, 1, 1)
    assert local.is_essential()


def test_localize_rejects_foreign_flat():
    arr = CORPUS["braid-ess3"].arrangement
    other = make([[1, 1, 1], [1, -1, 0]], 3)
    foreign = next(
        f for f in intersection_lattice(other).flats if f.codim == 2
    )
    with pytest.raises(FlatNotInLattice):
        localize_and_essentialize(simple_multiarrangement(arr), foreign)


def test_localize_rejects_a_flat_of_a_sub_arrangement():
    # A' is the first four hyperplanes of braid-ess3, so its indices are
    # A's.  Hyperplanes 0 and 3 meet in a line of L(A') on which
    # hyperplane 4 of A vanishes too: the equations are those of a flat of
    # L(A), but the hyperplane set misses 4.
    arr = CORPUS["braid-ess3"].arrangement
    line = next(f for f in intersection_lattice(make(arr.forms[:4], 3)).level(2)
                if f.contained == {0, 3})
    own = next(f for f in intersection_lattice(arr).level(2) if f.contained == {0, 3, 4})
    assert own.equations == line.equations
    with pytest.raises(FlatNotInLattice):
        localize_and_essentialize(simple_multiarrangement(arr), line)


def test_rho_preserves_codim_and_order():
    arr = CORPUS["braid-ess3"].arrangement
    h0 = 0
    dA = decone(arr, h0)
    dA_lattice = intersection_lattice(dA)
    zr = ziegler_restriction(arr, h0)
    zr_lattice = intersection_lattice(zr.base)
    images = rho_images(arr, h0, dA_lattice)
    for flat, image in images.items():
        assert image.codim == flat.codim
        zr_lattice.lookup(image)  # image is a genuine flat of L(A'')
        assert rho(arr, h0, flat, dA_lattice) == image
    # rho is onto L(A'').
    assert {f.equations for f in images.values()} == {
        f.equations for f in zr_lattice.flats
    }
    # Order preservation: Y1 contained in Y2 (as subspaces), that is every
    # hyperplane through Y2 passes through Y1, maps to rho(Y1) contained
    # in rho(Y2).
    for y1 in dA_lattice.flats:
        for y2 in dA_lattice.flats:
            if y2.contained <= y1.contained:
                assert images[y2].contained <= images[y1].contained


def test_rho_rejects_foreign_flat():
    from fractions import Fraction

    from arrangements import Flat

    arr = CORPUS["braid-ess3"].arrangement
    # an affine line that is no intersection of deconed hyperplanes
    foreign = Flat(1, 0, equations=((Fraction(1), Fraction(0), Fraction(17)),))
    with pytest.raises(FlatNotInLattice):
        rho(arr, 0, foreign)


def test_b_coefficients_match_reduced_char_poly():
    for entry in CORPUS.values():
        arr = entry.arrangement
        table = b_coefficients(arr, entry.h0)
        assert list(table.b) == entry.expected["b"]["value"]


def test_b_coefficients_per_flat_decomposition():
    for name in ("braid-ess3", "generic34", "supersolvable3", "braid-ess4"):
        entry = CORPUS[name]
        arr = entry.arrangement
        table = b_coefficients(arr, entry.h0)
        zr = ziegler_restriction(arr, entry.h0)
        zr_lattice = intersection_lattice(zr.base)
        # one row per flat of L(A'')
        assert {f.equations for f in table.per_flat} == {
            f.equations for f in zr_lattice.flats
        }
        # level sums reproduce the global coefficients
        for i, b_i in enumerate(table.b):
            level_sum = sum(
                cell["b"] for f, cell in table.per_flat.items() if f.codim == i
            )
            assert level_sum == b_i


def test_b_coefficients_needs_dim_two():
    with pytest.raises(WrongRank):
        b_coefficients(make([[1]], 1), 0)
    # dim 2 with a single hyperplane is legal: chi_0 = t, so b = (1, 0)
    table = b_coefficients(make([[1, 0]], 2), 0)
    assert list(table.b) == [1, 0]
