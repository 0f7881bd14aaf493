"""Deconing, Ziegler restriction, localization, rho and b-coefficients."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrangements import (
    CORPUS,
    Flat,
    FlatNotInLattice,
    IndexOutOfRange,
    WrongRank,
    abe_yoshinaga_free_check,
    b_coefficients,
    canonicalize,
    char_poly,
    compare_coefficients,
    decone,
    essentialize,
    intersection_lattice,
    localize_and_essentialize,
    mca_check,
    reduced_char_poly,
    rho,
    simple_multiarrangement,
    tameness_classify,
    yoshinaga_3d,
    ziegler_restriction,
)
from arrangements import lattice as lattice_module
from arrangements import restriction as restriction_module
from arrangements.core import normalize_form
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


def test_restrictions_keep_the_order_of_a():
    # A = {x, x+y+z, y, z}, h0 = x: y+z comes from the second hyperplane,
    # so it comes first, in A'' and in dA alike
    arr = make([[1, 0, 0], [1, 1, 1], [0, 1, 0], [0, 0, 1]], 3)
    assert ziegler_restriction(arr, 0).base.forms == ((1, 1), (1, 0), (0, 1))
    assert decone(arr, 0).hyperplanes == (((1, 1), -1), ((1, 0), 0), ((0, 1), 0))


def _traces(arr, h0):
    """Each hyperplane of A other than h0 on H0 = ker alpha, alpha = alpha_{h0},
    in A's order: (the normal in the coordinates i != j, its constant c on
    the chart {alpha = 1}, where normal . x = c), in exact Fractions, with j
    the pivot of alpha."""
    alpha = arr.forms[h0]
    j = next(i for i, c in enumerate(alpha) if c)
    out = []
    for h, beta in enumerate(arr.forms):
        if h != h0:
            t = Fraction(beta[j], alpha[j])  # x_j = (1 - sum alpha_i x_i) / alpha_j
            out.append(([beta[i] - t * alpha[i] for i in range(arr.dim) if i != j], -t))
    return out


def _proportional(u, v):
    return all(a * d == b * c for (a, b), (c, d) in combinations(zip(u, v), 2))


# 3 to 7 pairwise non-proportional forms in R^3 or R^4 with entries in
# -2..2, of rank 3 or 4
_RANK3_OR_4 = (
    st.integers(3, 4)
    .flatmap(lambda dim: st.tuples(
        st.just(dim),
        st.lists(st.tuples(*[st.integers(-2, 2)] * dim).filter(any), min_size=3, max_size=7,
                 unique_by=normalize_form),
    ))
    .map(lambda drawn: canonicalize(drawn[1], drawn[0]))
    .filter(lambda arr: arr.rank() >= 3)
)


@settings(max_examples=40, deadline=None)
@given(_RANK3_OR_4)
def test_restrictions_come_in_order_of_their_first_hyperplane_of_a(arr):
    # hyperplane k of dA is hyperplane k of A without h0; those of A'' come
    # in order of their first hyperplane of A other than h0, with
    # multiplicity the number that restrict onto them
    for h0 in range(arr.n_hyperplanes):
        traces = _traces(arr, h0)
        deconed = decone(arr, h0).hyperplanes
        assert len(deconed) == len(traces)
        for (normal, c), (trace, tc) in zip(deconed, traces):
            assert _proportional((*normal, c), (*trace, tc))
        groups = []  # [a trace, how many restrict onto it], by first hyperplane
        for trace, _ in traces:
            group = next((g for g in groups if _proportional(g[0], trace)), None)
            if group is None:
                groups.append([trace, 1])
            else:
                group[1] += 1
        restriction = ziegler_restriction(arr, h0)
        assert len(restriction.base.forms) == len(groups)
        for form, m, (trace, count) in zip(restriction.base.forms, restriction.mult, groups):
            assert _proportional(form, trace)
            assert m == count


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
    images = {flat: rho(arr, h0, flat) for flat in dA_lattice.flats}
    for flat, image in images.items():
        assert image.codim == flat.codim
        zr_lattice.lookup(image)  # image is a genuine flat of L(A'')
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


SIMPLE = [name for name, entry in CORPUS.items() if entry.mult is None]


@pytest.mark.parametrize("name", SIMPLE)
def test_rho_matches_the_lattice_route_on_every_flat(name):
    arr = CORPUS[name].arrangement
    for h0 in range(arr.n_hyperplanes):
        dA_lattice = intersection_lattice(decone(arr, h0))
        for flat, image in rho_images(arr, h0, dA_lattice).items():
            got = rho(arr, h0, flat)
            assert (got.codim, got.mask, got.rows) == (image.codim, image.mask, image.rows)


def test_rho_builds_no_lattice(monkeypatch):
    arr = CORPUS["braid-ess4"].arrangement
    flats = intersection_lattice(decone(arr, 0)).flats
    calls = []

    def counted(real):
        return lambda *args: calls.append(args) or real(*args)

    for module in (lattice_module, restriction_module):
        monkeypatch.setattr(module, "intersection_lattice", counted(module.intersection_lattice))
    for flat in flats:
        rho(arr, 0, flat)
    assert calls == []


def test_rho_rejects_foreign_flat():
    arr = CORPUS["braid-ess3"].arrangement
    # an affine line that is no intersection of deconed hyperplanes
    foreign = Flat(1, 0, equations=((Fraction(1), Fraction(0), Fraction(17)),))
    with pytest.raises(FlatNotInLattice):
        rho(arr, 0, foreign)


def _not_in_deconing():
    """(name, flat) pairs that are no flat of decone(braid-ess3, 0), which has
    the hyperplanes 0..4."""
    arr = CORPUS["braid-ess3"].arrangement
    lattice = intersection_lattice(decone(arr, 0))
    rows = lattice.flats[0].rows
    line = next(f for f in lattice.level(2) if f.mask.bit_count() >= 3)
    return [
        *((f"h0=1 deconing {f.codim} {f.mask}", f)
          for f in intersection_lattice(decone(arr, 1)).flats),
        ("bit past the last hyperplane", Flat(1, 1 << 5, rows)),
        ("bits past the last hyperplane", Flat(2, line.mask | 1 << 5, rows)),
        ("mask not closed", Flat(2, line.mask & line.mask - 1, rows)),
        ("codim too high", Flat(3, line.mask, rows)),
        ("codim too low", Flat(1, line.mask, rows)),
        ("codim below 0", Flat(-1, 0, rows)),
    ]


@pytest.mark.parametrize("case", _not_in_deconing(), ids=lambda case: case[0])
def test_rho_refuses_what_is_no_flat_of_the_deconing(case):
    arr = CORPUS["braid-ess3"].arrangement
    flat = case[1]
    assert intersection_lattice(decone(arr, 0)).index_of(flat) is None
    with pytest.raises(FlatNotInLattice):
        rho(arr, 0, flat)


@pytest.mark.parametrize("flat", [None, "0"], ids=["None", "str"])
def test_rho_and_localize_refuse_what_is_no_flat(flat):
    # the one membership rule refuses anything but a Flat before a mask or
    # rows are read off it
    arr = CORPUS["braid-ess3"].arrangement
    with pytest.raises(FlatNotInLattice):
        rho(arr, 0, flat)
    with pytest.raises(FlatNotInLattice):
        localize_and_essentialize(simple_multiarrangement(arr), flat)


@pytest.mark.parametrize("h0", [-1, 6, 7])
def test_rho_checks_the_index_first(h0):
    # with a flat of the deconing at h0 = 0: braid-ess3 has 6 hyperplanes
    arr = CORPUS["braid-ess3"].arrangement
    flat = intersection_lattice(decone(arr, 0)).flats[1]
    with pytest.raises(IndexOutOfRange, match=f"^hyperplane index {h0} outside 0..5$"):
        rho(arr, h0, flat)


CENTRAL_ONLY = [
    (decone, (0,)),
    (ziegler_restriction, (0,)),
    (compare_coefficients, (0,)),
    (mca_check, (0,)),
    (abe_yoshinaga_free_check, (0,)),
    (rho, (0, Flat(0, 0))),
    (yoshinaga_3d, (0,)),
    (tameness_classify, ()),
    (essentialize, ()),
]


@pytest.mark.parametrize("func, args", CENTRAL_ONLY, ids=[f.__name__ for f, _ in CENTRAL_ONLY])
def test_affine_arrangement_is_refused_where_a_central_one_is_needed(func, args):
    affine = decone(CORPUS["braid-ess3"].arrangement, 0)
    with pytest.raises(TypeError, match="needs a central arrangement$"):
        func(affine, *args)


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
