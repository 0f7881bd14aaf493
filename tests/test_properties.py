"""Randomized structural checks (exact assertions only): fixed-seed loops,
and Hypothesis properties that shrink a failure to a minimal input."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import comb, lcm, prod
from unittest import mock

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from arrangements import (
    CORPUS,
    AffineArrangement,
    BadPrime,
    IntPoly,
    PolyVectorField,
    abe_yoshinaga_free_check,
    b_coefficients,
    canonicalize,
    chamber_count,
    char_poly,
    char_poly_recursion,
    compare_coefficients,
    decone,
    derivation_membership,
    essentialize,
    find_free_basis,
    finite_field_char_poly,
    intersection_lattice,
    localize_and_essentialize,
    moebius_bruteforce,
    multiarrangement,
    rank2_exponents,
    reduced_char_poly,
    region_count_recursion,
    saito_check,
    sigma_per_flat,
    simple_multiarrangement,
    tameness_classify,
    yoshinaga_3d,
    ziegler_restriction,
)
from arrangements import criteria, derivations, linalg
from arrangements.core import CentralArrangement, normalize_affine, normalize_form
from arrangements.lattice import _keys, _restrict, _walk, hyperplane_rows
from arrangements.linalg import _Echelon, det, echelon, primitive_vector
from arrangements.polynomials import (
    monomial_count,
    monomial_residue_mod_linear_power,
    monomials,
    mp_add_inplace,
    mp_determinant,
    mp_from_linear,
    mp_mul,
)
from arrangements.restriction import _restriction_flats
from conftest import defining_polynomial, random_central, seeded


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


_SCAN_WITNESSES = (
    "minimal generators by degree",
    "minimal generator degrees",
    "rank-many minimal generators fail",
    "graded dimension",
)


@st.composite
def _scan_inputs(draw):
    """An essential arrangement of rank r = 3 or 4 with r to r + 2
    hyperplanes (entries in -2..2, or -1..1 at rank 4) and multiplicities
    1-4."""
    rank = draw(st.integers(3, 4))
    form = st.lists(st.integers(rank - 5, 5 - rank), min_size=rank, max_size=rank).filter(any)
    forms = st.lists(form, min_size=rank, max_size=rank + 2, unique_by=normalize_form)
    arr = draw(forms.map(lambda fs: canonicalize(fs, rank)).filter(lambda a: a.rank() == rank))
    mult = draw(st.lists(st.integers(1, 4), min_size=arr.n_hyperplanes, max_size=arr.n_hyperplanes))
    return multiarrangement(arr, mult)


@settings(max_examples=40, deadline=None)
@given(_scan_inputs())
def test_full_scan_decides_by_degree_total(multi):
    # The rank-many fields Q(A,m) d/dx_i lie in D(A,m) in degree |m|, so with
    # no bound the scan returns Free or one of its four NotFree certificates
    # by then, and never runs out of degrees.
    verdict = find_free_basis(multi)
    assert not verdict.is_unknown
    if verdict.is_free:
        assert sum(verdict.exponents) == multi.total
    else:
        assert any(w in verdict.witness for w in _SCAN_WITNESSES), verdict.witness


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
def _central_forms(draw, min_dim=2, max_dim=4, max_forms=7, coeff=3):
    """Dimension 2-4 and 1-7 pairwise non-proportional integer forms with
    entries in -3..3 (or -coeff..coeff)."""
    dim = draw(st.integers(min_dim, max_dim))
    form = st.lists(st.integers(-coeff, coeff), min_size=dim, max_size=dim).filter(any)
    by_hyperplane = {}  # proportional draws are one hyperplane: keep the first
    for f in draw(st.lists(form, min_size=1, max_size=max_forms)):
        by_hyperplane.setdefault(normalize_form(f), f)
    return dim, list(by_hyperplane.values())


@st.composite
def _affine_arrangements(draw):
    """Dimension 2-4 and 1-8 distinct affine hyperplanes, entries in -2..2.
    The normals come from a pool of at most four, so parallel hyperplanes
    are common."""
    dim = draw(st.integers(2, 4))
    normal = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim).filter(any)
    pool = draw(st.lists(normal, min_size=1, max_size=4))
    pick = st.tuples(st.sampled_from(pool), st.integers(-2, 2))
    hyperplanes = {normalize_affine(*h): None for h in draw(st.lists(pick, min_size=1, max_size=8))}
    return AffineArrangement(dim, tuple(hyperplanes))


def _assert_moebius_is_the_recursion(arr):
    # moebius_bruteforce evaluates the defining recursion over all subsets;
    # chi summed off the walk, with no lattice, is chi of those values
    lat = intersection_lattice(arr)
    mu = moebius_bruteforce(arr)
    assert sorted(mu) == sorted(f.equations for f in lat.flats)
    for flat, value in zip(lat.flats, lat.moebius):
        assert mu[flat.equations] == value
    assert char_poly(arr) == char_poly(arr, lat)


@settings(max_examples=60, deadline=None)
@given(_central_forms(max_forms=8))
def test_moebius_matches_the_defining_recursion_central(drawn):
    dim, forms = drawn
    _assert_moebius_is_the_recursion(canonicalize(forms, dim))


@settings(max_examples=60, deadline=None)
@given(_affine_arrangements())
@example(AffineArrangement(2, (((1, 0), 0), ((1, 0), 1), ((0, 1), 0), ((1, 1), 1))))
def test_moebius_matches_the_defining_recursion_affine(arr):
    _assert_moebius_is_the_recursion(arr)


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


_B3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1), (0, 1, 1), (0, 1, -1))
_FREE3 = {"B3": (_B3, (1, 3, 5)), "A3-ess": (CORPUS["braid-ess3"].arrangement.forms, (1, 2, 3))}


def _matrices3(c):
    """Invertible 3 x 3 integer matrices with entries in -c..c."""
    row = st.lists(st.integers(-c, c), min_size=3, max_size=3)
    return st.lists(row, min_size=3, max_size=3).filter(det)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_FREE3)), st.sampled_from((1, 3)).flatmap(_matrices3))
@example("B3", [[0, -1, -1], [1, -1, 1], [-1, 1, 0]])
@example("B3", [[-2, -2, -3], [-1, -3, 3], [-3, -1, -1]])
def test_exponents_and_chi_ignore_coordinate_changes(name, matrix):
    # A coordinate change (forms times an invertible matrix with entries in
    # -1..1, or in -3..3 for about half the examples) keeps chi and the
    # exponents.  Its kernel entries can outgrow one prime's reconstruction
    # bound: the first example lifts its degree-5 kernel only after two
    # primes are combined, and the second lifts one span kernel of the
    # generators' coefficients that way.
    forms, exponents = _FREE3[name]
    moved = [[sum(f[i] * matrix[i][j] for i in range(3)) for j in range(3)] for f in forms]
    moved = canonicalize(moved, 3)
    assert char_poly(moved) == char_poly(canonicalize(forms, 3)) == IntPoly.from_roots(exponents)
    assert find_free_basis(simple_multiarrangement(moved)).exponents == exponents


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


def _direction_table(arr, h0):
    """Reference per-flat b table from the deconing's own lattice.

    Each affine flat of decone(arr, h0) maps to the flat of the Ziegler
    restriction spanned by its directions: its equations with the constants
    set to 0, reduced to a canonical RREF, with the restricted hyperplanes
    found by span membership.  This shares no step with the mask-based rho.
    Keys are (hyperplane set, equations) of the image.
    """
    restriction = ziegler_restriction(arr, h0)
    lat = intersection_lattice(decone(arr, h0))
    table = {}
    for flat, mu in zip(lat.flats, lat.moebius):
        rows = []
        for r in flat.equations:  # directions, scaled to integers
            den = lcm(*(v.denominator for v in r))
            rows.append([int(v * den) for v in r[:-1]] + [0])
        ech = echelon(rows)
        equations = ech.rref()
        contained = frozenset(
            i for i, f in enumerate(restriction.base.forms)
            if ech.reduce(tuple(f) + (0,)) is None
        )
        assert len(equations) == flat.codim
        image = (contained, equations)
        table[image] = table.get(image, 0) + abs(mu)
    return table


@settings(max_examples=40, deadline=None)
@given(_central_forms(min_dim=3, max_dim=4))
def test_per_flat_b_matches_the_deconing_lattice(drawn):
    dim, forms = drawn
    arr = canonicalize(forms, dim)
    for h0 in range(arr.n_hyperplanes):
        per_flat = b_coefficients(arr, h0).per_flat
        got = {(x.contained, x.equations): cell["b"] for x, cell in per_flat.items()}
        assert got == _direction_table(arr, h0)


@settings(max_examples=60, deadline=None)
@given(_central_forms(min_dim=2, max_dim=5))
@example((3, [[1, 0, 0], [0, 1, 0], [1, 1, 0], [1, -1, 0]]))
@example((4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 1, 1, 0]]))
def test_restriction_lattice_read_off_l_a_matches_its_own_lattice(drawn):
    # The lattice of ziegler_restriction's base, built on its own, is the
    # reference for the flats of L(A'') read off L(A): same flats in the
    # same order, equations and localizations.
    dim, forms = drawn
    arr = canonicalize(forms, dim)
    lattice = intersection_lattice(arr)
    for h0 in range(arr.n_hyperplanes):
        restriction = ziegler_restriction(arr, h0)
        flats = _restriction_flats(lattice, h0, restriction)[0]
        ref = intersection_lattice(restriction.base)
        assert flats == ref.flats
        assert [x.equations for x in flats] == [x.equations for x in ref.flats]
        assert [localize_and_essentialize(restriction, x) for x in flats] == [
            localize_and_essentialize(restriction, x) for x in ref.flats
        ]


def _walk_chi(restricted, dim):
    """chi of a restriction of dimension dim, summed over the lattice's walk."""
    keys, mu = _walk(restricted)
    coeffs = [0] * (dim + 1)
    for c, mask in keys:
        coeffs[dim - c] += mu[mask]
    return IntPoly(coeffs)


@settings(max_examples=40, deadline=None)
@given(_central_forms(min_dim=2, max_dim=5))
@example((3, [[1, 0, 0], [0, 1, 0], [1, 1, 0], [1, -1, 0]]))
@example((4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 1, 1, 0], [1, 1, 0, 1]]))
def test_the_walk_from_a_restriction_gives_its_char_poly(drawn):
    # Started from A^H, and from A^{H cap K} one step further, the walk is
    # the interval above that flat; the deletion-restriction recursion on
    # the Ziegler restriction's base shares no lattice code with it.
    dim, forms = drawn
    arr = canonicalize(forms, dim)
    root = _keys(hyperplane_rows(arr))
    for h, key in enumerate(root):
        above = _restrict(root, key)
        base = ziegler_restriction(arr, h).base
        assert _walk_chi(above, dim - 1) == char_poly_recursion(base)
        if dim < 3:
            continue
        # A'' lists its hyperplanes by the lowest bit of their masks
        order = sorted(above, key=lambda row: above[row] & -above[row])
        for k, row in enumerate(order):
            twice = ziegler_restriction(base, k).base
            assert _walk_chi(_restrict(above, row), dim - 2) == char_poly_recursion(twice)


def _restrict_by_full_rows(parent, target):
    """The restriction step by its definition: each key nonzero at the
    target's pivot p becomes target[p] * key - key[p] * target over every
    column, made primitive, dropped if its normal vanishes, merged or put
    last."""
    p = next(i for i, v in enumerate(target) if v)
    out = dict(parent)
    for key, bits in parent.items():
        if key[p]:
            del out[key]
            row = [target[p] * x - key[p] * y for x, y in zip(key, target)]
            if any(row[:-1]):
                row = primitive_vector(row)
                out[row] = out.get(row, 0) | bits
    return out


@st.composite
def _restriction_steps(draw):
    """(the keys of 1-7 random central or affine rows, entries in -3..3, and
    a target: one of the keys, or the chart row (alpha, -1) of a row's
    normal alpha, as decone restricts onto)."""
    dim = draw(st.integers(1, 4))
    constant = st.just(0) if draw(st.booleans()) else st.integers(-3, 3)
    normal = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim).filter(any)
    rows = {}  # proportional draws are one hyperplane: keep the first
    for row in draw(st.lists(st.tuples(normal, constant), min_size=1, max_size=7)):
        row = (*row[0], row[1])
        rows.setdefault(primitive_vector(row), row)
    parent = _keys(list(rows.values()))
    i = draw(st.integers(0, len(parent) - 1))
    if draw(st.booleans()):
        return parent, list(parent)[i]
    return parent, list(rows.values())[i][:-1] + (-1,)


@settings(max_examples=200, deadline=None)
@given(_restriction_steps())
# keys merge: x + y becomes y
@example((_keys([(1, 0, 0), (0, 1, 0), (1, 1, 0)]), (1, 0, 0)))
# a key becomes the nonzero constant of a parallel hyperplane, and vanishes
@example((_keys([(1, 0, 0), (1, 0, -1), (0, 1, 0)]), (1, 0, 0)))
# pivot entry a = 3, b = -2 and b = 1, both made primitive
@example((_keys([(1, -2, 0, 0), (0, 3, 1, -1), (2, 1, -3, 3)]), (0, 3, 1, -1)))
# the chart row of a form with a negative pivot entry
@example((_keys([(-2, 1, 0), (1, -1, 0), (0, 1, 0)]), (-2, 1, -1)))
def test_the_restriction_step_is_its_full_row_definition(step):
    # decone, ziegler_restriction, rho and every walk read these keys, in
    # this order, so they must agree item by item
    parent, target = step
    assert list(_restrict(parent, target).items()) == list(
        _restrict_by_full_rows(parent, target).items()
    )


@settings(max_examples=60, deadline=None)
@given(_central_forms(min_dim=2, max_dim=5))
@example((3, [[2, 1, 0], [3, -2, 1], [0, 2, 3], [2, 0, -3]]))
def test_decone_and_ziegler_restriction_match_a_direct_elimination(drawn):
    # decone and ziegler_restriction use the lattice's restriction step;
    # the reference eliminates x_j by hand, with j the pivot of alpha_{h0}.
    dim, forms = drawn
    arr = canonicalize(forms, dim)
    for h0, alpha in enumerate(arr.forms):
        j = next(i for i, c in enumerate(alpha) if c)
        traces = [
            ([alpha[j] * beta[i] - alpha[i] * beta[j] for i in range(dim) if i != j], beta[j])
            for h, beta in enumerate(arr.forms)
            if h != h0
        ]
        deconed = tuple(normalize_affine(normal, -bj) for normal, bj in traces)
        assert decone(arr, h0) == AffineArrangement(dim - 1, deconed)
        mult = Counter(normalize_form(normal) for normal, _ in traces)  # first-seen order
        base = CentralArrangement(dim - 1, tuple(mult))
        assert ziegler_restriction(arr, h0) == multiarrangement(base, tuple(mult.values()))


def _embed(forms, column, at=None):
    """Each form f with the new entry column . f inserted at position `at`
    (appended by default): an injective linear map, so rank and
    proportionality are kept while the dimension grows by one."""
    out = []
    for f in forms:
        f = list(f)
        f.insert(len(f) if at is None else at, sum(a * b for a, b in zip(f, column)))
        out.append(f)
    return out


def _solve_coordinates(rows, form):
    """The coefficients lam with sum(lam_i * rows_i) == form, by Fraction
    Gauss-Jordan on the transposed system; AssertionError off the span."""
    rank, dim = len(rows), len(form)
    aug = [[Fraction(r[j]) for r in rows] + [Fraction(form[j])] for j in range(dim)]
    pivots = []
    for c in range(rank):
        k = next(i for i in range(len(pivots), dim) if aug[i][c] != 0)
        top = len(pivots)
        aug[top], aug[k] = aug[k], aug[top]
        aug[top] = [v / aug[top][c] for v in aug[top]]
        for i in range(dim):
            if i != top and aug[i][c] != 0:
                aug[i] = [a - aug[i][c] * b for a, b in zip(aug[i], aug[top])]
        pivots.append(c)
    assert all(row[rank] == 0 for row in aug[rank:])  # consistent: form in the span
    return [aug[i][rank] for i in range(rank)]


def _reference_essential_forms(forms):
    """Each form's coordinates in the canonical Fraction RREF basis of the
    forms' span, made primitive: (rank, forms)."""
    rows = echelon(forms).rref()
    return len(rows), tuple(normalize_form(_solve_coordinates(rows, f)) for f in forms)


@st.composite
def _degenerate_arrangements(draw):
    """A central arrangement of rank below its dimension (entries outside
    -1..1 included), or a multiarrangement on any arrangement with some
    multiplicities drawn as zero."""
    dim, forms = draw(_central_forms(min_dim=1, max_dim=3, max_forms=6))
    for _ in range(draw(st.integers(1, 2))):
        column = draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim))
        forms = _embed(forms, column, draw(st.integers(0, dim)))
        dim += 1
    arr = canonicalize(forms, dim)
    if draw(st.booleans()):
        return arr
    mult = draw(st.lists(st.integers(0, 2), min_size=len(forms), max_size=len(forms)))
    return multiarrangement(arr, mult)


@settings(max_examples=60, deadline=None)
@given(_degenerate_arrangements())
@example(canonicalize([[2, 4, 6], [3, 0, 9]], 3))
@example(canonicalize([[0, 2, 4], [0, 3, -6]], 3))
@example(multiarrangement(canonicalize([[2, 3], [1, 0]], 2), (0, 2)))
def test_essentialize_matches_the_rref_coordinates(arr):
    # essentialize reads coordinates off the pivot columns of the forms'
    # echelon; the reference solves for them in the canonical RREF basis.
    multi = hasattr(arr, "mult")
    base = arr.base if multi else arr
    idx = arr.effective() if multi else range(base.n_hyperplanes)
    forms = [base.forms[i] for i in idx]
    ess, center_dim = essentialize(arr)
    ess_base = ess.base if multi else ess
    rank, expected = _reference_essential_forms(forms)
    assert rank == arr.rank()
    assert center_dim + ess.dim == arr.dim
    assert ess.dim == rank
    assert ess_base.forms == expected
    if multi:
        assert ess.mult == tuple(arr.mult[i] for i in idx)
    lat = intersection_lattice(CentralArrangement(arr.dim, tuple(forms)))
    ess_lat = intersection_lattice(ess_base)
    assert [f.mask for f in ess_lat.flats] == [f.mask for f in lat.flats]
    assert ess_lat.moebius == lat.moebius


_IDENTITY5 = [[int(i == j) for j in range(5)] for i in range(5)]
# the braid arrangement A5 essentialized: x_i - x_j and x_i in dimension 5
_BRAID_ESS5 = [
    [int(k == i) - int(k == j) for k in range(5)] for i in range(5) for j in range(i + 1, 5)
] + _IDENTITY5


@st.composite
def _rank4_arrangements(draw):
    """An arrangement of rank 4, essential in dimension 4 or not in
    dimension 5, a hyperplane index, a degree bound (None, 1 or 2) and
    whether tameness is asserted."""
    dim, forms = draw(
        _central_forms(min_dim=4, max_dim=4, max_forms=7, coeff=1).filter(
            lambda d: canonicalize(d[1], d[0]).rank() == 4
        )
    )
    if draw(st.booleans()):
        forms = _embed(forms, draw(st.lists(st.integers(-2, 2), min_size=4, max_size=4)))
        dim += 1
    arr = canonicalize(forms, dim)
    h0 = draw(st.integers(0, arr.n_hyperplanes - 1))
    return arr, h0, draw(st.sampled_from((None, 1, 2))), draw(st.booleans())


@settings(max_examples=30, deadline=None)
@given(_rank4_arrangements())
@example((CORPUS["braid-ess4"].arrangement, 0, None, False))
@example((CORPUS["braid-ess4"].arrangement, 0, 3, True))
@example((canonicalize(_IDENTITY5, 5), 2, None, False))
@example((canonicalize(_BRAID_ESS5, 5), 0, 2, False))
@example((canonicalize(_embed(CORPUS["braid-ess4"].arrangement.forms, (2, 0, -1, 1)), 5), 1, None, False))
@example((canonicalize(_embed(_IDENTITY5, (1, 2, 0, 0, 3)), 6), 0, 1, False))
def test_comparison_tameness_tags_match_the_searches(drawn):
    # compare_coefficients reads both tags off the restriction's verdict,
    # Unknown included, essential or not; the searches must agree with
    # it.  The examples add a free input with more than four hyperplanes,
    # a bound below its exponents, rank-4 restrictions (the boolean
    # 5-space, and essentialized A5, whose restriction is Unknown within
    # the bound 2), and non-essential inputs of rank 4 and 5.
    arr, h0, bound, asserted = drawn
    report = compare_coefficients(arr, h0, bound, asserted)
    restriction = ziegler_restriction(arr, h0)
    assert report.tame_arrangement == tameness_classify(arr, bound, asserted)
    assert report.tame_restriction == tameness_classify(restriction, bound, asserted)


@st.composite
def _rank3_arrangements(draw):
    """An essential arrangement of rank 3 (entries in -2..2, at most 7
    hyperplanes) and a hyperplane index."""
    dim, forms = draw(
        _central_forms(min_dim=3, max_dim=3, max_forms=7, coeff=2).filter(
            lambda d: canonicalize(d[1], d[0]).rank() == 3
        )
    )
    return canonicalize(forms, dim), draw(st.integers(0, len(forms) - 1))


@settings(max_examples=40, deadline=None)
@given(_rank3_arrangements())
@example((CORPUS["boolean4"].arrangement, CORPUS["boolean4"].h0))
@example((CORPUS["braid-ess4"].arrangement, CORPUS["braid-ess4"].h0))
@example((CORPUS["generic45"].arrangement, CORPUS["generic45"].h0))
def test_freeness_criteria_agree(drawn):
    # Free implies MCA, and at rank 3 MCA is equivalent to freeness; at
    # rank 4 the comparison reads freeness off its tameness tag.  The
    # examples are the rank-4 corpus entries.
    arr, h0 = drawn
    direct = find_free_basis(simple_multiarrangement(arr))
    report = compare_coefficients(arr, h0)
    answers = [abe_yoshinaga_free_check(arr, h0)]
    if arr.rank() == 3:
        answers.append(yoshinaga_3d(arr, h0))
        assert report.mca is direct.is_free
    else:
        assert (report.tame_arrangement.reason == "verified-free") is direct.is_free
    for verdict in answers:
        assert verdict.status == direct.status
        assert verdict.exponents == (direct.exponents if direct.is_free else None)


def _reflection(kind, n):
    """The reflection arrangement A_n (essentialized), B_n or D_n in R^n:
    x_i - x_j, then x_i + x_j (B, D), then x_i (A, B)."""
    pairs = list(combinations(range(n), 2))
    forms = [[int(k == i) - int(k == j) for k in range(n)] for i, j in pairs]
    if kind in "BD":
        forms += [[int(k == i) + int(k == j) for k in range(n)] for i, j in pairs]
    if kind in "AB":
        forms += [[int(k == i) for k in range(n)] for i in range(n)]
    return canonicalize(forms, n)


_REFLECTION = [_reflection("A", n) for n in range(2, 6)] + [
    _reflection(kind, n) for kind, low in (("B", 2), ("D", 3)) for n in range(low, 6)
]


@st.composite
def _named_arrangements(draw):
    """A reflection arrangement of rank at most 5 or the arrangement of a
    corpus entry, and a hyperplane index."""
    arr = draw(st.sampled_from(_REFLECTION + [e.arrangement for e in CORPUS.values()]))
    return arr, draw(st.integers(0, arr.n_hyperplanes - 1))


# five planes through the z-axis, z = 0 and x + 2z = 0: chi_0 = (t - 3)^2
# splits, yet A is not free (b_2 = 9, sigma_2 = 8 at h0 = 0), so no plane
# of A may have a restriction with 4 lines
_SPLIT_NOT_FREE3 = canonicalize(
    [[1, 1, 0], [0, 0, 1], [1, 2, 0], [1, -1, 0], [0, 1, 0], [2, 1, 0], [1, 0, 2]], 3
)


def test_reflection_arrangements_are_divisionally_free():
    # Coxeter arrangements are inductively free, hence divisionally free;
    # _SPLIT_NOT_FREE3 is not free, so it is not divisionally free either
    for arr in _REFLECTION + [_SPLIT_NOT_FREE3]:
        lattice = intersection_lattice(arr)
        got = criteria._divisionally_free(lattice, reduced_char_poly(arr, lattice))
        assert got is (arr is not _SPLIT_NOT_FREE3)


@settings(max_examples=60, deadline=None)
@given(st.one_of(_rank3_arrangements(), _rank4_arrangements().map(lambda d: d[:2]),
                 _named_arrangements()))
@example((_SPLIT_NOT_FREE3, 0))
@example((_reflection("B", 5), 0))
@example((_reflection("D", 5), 3))
def test_divisional_freeness_agrees_with_the_search(drawn):
    # compare_coefficients reads a divisionally free A off L(A); with that
    # proof switched off the search of A'' and the localization sweep must
    # give the same report, and the global verdict must be Free with the
    # nonzero roots of chi_0 as exponents
    arr, h0 = drawn
    report = compare_coefficients(arr, h0)
    real = criteria._bounded_search
    searched = []

    def search(*args, **kwargs):
        searched.append(real(*args, **kwargs))
        return searched[-1]

    with mock.patch.object(criteria, "_divisionally_free", return_value=False), \
            mock.patch.object(criteria, "_bounded_search", search):
        assert compare_coefficients(arr, h0) == report
    lattice = intersection_lattice(arr)
    chi0 = reduced_char_poly(arr, lattice)
    roots = chi0.nonnegative_roots()
    if roots is not None and criteria._divisionally_free(lattice, chi0):
        top, = searched
        assert top.is_free
        assert tuple(top.exponents) == tuple(r for r in roots if r)


def _divisionally_free_by_walks(lattice, chi0):
    """Reference for criteria._divisionally_free: every chi(A^Y) summed over
    the walk of A^Y, the last (rank 2) step's too, and nothing memoized."""
    dim, rank = lattice.ambient_dim, lattice.rank

    def chi(restricted, codim):
        coeffs = [0] * (dim - codim + 1)
        keys, mu = _walk(restricted)
        for c, z in keys:
            coeffs[dim - codim - c] += mu[z]
        return IntPoly(coeffs)

    def chain_from(restricted, codim):
        if rank - codim <= 2:
            return True
        here = chi(restricted, codim)
        covers = (_restrict(restricted, row) for row in restricted)
        return any(not here.divmod_monic(chi(above, codim + 1))[1].coeffs
                   and chain_from(above, codim + 1) for above in covers)

    assert chi(_keys(lattice.flats[0].rows), 0) == chi0 * IntPoly((-1, 1))
    return chain_from(_keys(lattice.flats[0].rows), 0)


@settings(max_examples=80, deadline=None)
@given(_central_forms(max_dim=5))
@example((3, _reflection("B", 3).forms))
@example((4, _reflection("D", 4).forms))
@example((4, _reflection("A", 4).forms))
@example((3, _SPLIT_NOT_FREE3.forms))
def test_divisional_freeness_reads_the_last_chi_off_the_lines(drawn):
    # the last step of a chain takes chi of a rank-2 restriction from its
    # number of lines; walking it gives the same answer
    dim, forms = drawn
    arr = canonicalize(forms, dim)
    lattice = intersection_lattice(arr)
    chi0 = reduced_char_poly(arr, lattice)
    assert criteria._divisionally_free(lattice, chi0) is _divisionally_free_by_walks(lattice, chi0)


@st.composite
def _essential_multiarrangements(draw):
    """An essential multiarrangement of rank 3 or 4 with at most 6
    hyperplanes, multiplicities 1-3, and a hyperplane index.  The forms are
    two forms u, v with entries in -1..1, up to three of u + v, u - v,
    u + 2v, 2u + v (so a codim-2 flat may lie on four or five of them), and
    others with entries in -1..1."""
    dim = draw(st.sampled_from((3, 4)))
    form = st.lists(st.integers(-1, 1), min_size=dim, max_size=dim).filter(any)
    u, v = draw(form), draw(form)
    pencil = draw(st.lists(st.sampled_from(((1, 1), (1, -1), (1, 2), (2, 1))), max_size=3))
    forms = [u, v] + [[a * x + b * y for x, y in zip(u, v)] for a, b in pencil]
    forms += draw(st.lists(form, max_size=6 - len(forms)))
    by_hyperplane = {}  # proportional forms are one hyperplane: keep the first
    for f in forms:
        if any(f):
            by_hyperplane.setdefault(normalize_form(f), f)
    arr = canonicalize(list(by_hyperplane.values()), dim)
    assume(arr.rank() == dim)
    mult = draw(st.lists(st.integers(1, 3), min_size=arr.n_hyperplanes, max_size=arr.n_hyperplanes))
    return multiarrangement(arr, mult), draw(st.integers(0, arr.n_hyperplanes - 1))


# four planes through the z-axis with multiplicities (2, 2, 1, 1), and z = 0:
# the z-axis has no closed form (four lines, none of half of |m| = 6, not
# all simple), so the sweep must localize it and run the rank-2 probe; the
# same four through x = y = 0 in 4-space, with z = 0 and w = 0
_PROBE3 = multiarrangement(
    canonicalize([[1, 0, 0], [0, 1, 0], [1, 1, 0], [1, -1, 0], [0, 0, 1]], 3), (2, 2, 1, 1, 1)
)
_PROBE4 = multiarrangement(
    canonicalize([[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0], [1, -1, 0, 0], [0, 0, 1, 0],
                  [0, 0, 0, 1]], 4),
    (2, 2, 1, 1, 1, 2),
)


@settings(max_examples=40, deadline=None)
@given(_essential_multiarrangements())
@example((_PROBE3, 4))
@example((_PROBE4, 0))
def test_sweep_reads_closed_forms_where_the_search_agrees(drawn):
    # every per-flat product of the sweep is the product of the exponents
    # a search of that localization finds; only the flats of codim >= 3
    # below the center and the rank-2 probe cases are localized (the
    # center is the input itself, which sigma_per_flat searches before the
    # sweep).  A bound that admits every exponent leaves compare's report
    # as it is.
    multi, h0 = drawn
    flats = intersection_lattice(multi.base).flats
    expected = {}
    for flat in flats:
        verdict = find_free_basis(localize_and_essentialize(multi, flat))
        expected[flat] = prod(verdict.exponents) if verdict.is_free else None
    reached = []
    real = derivations.localize_and_essentialize

    def localize(m, flat):
        reached.append(flat)
        return real(m, flat)

    with mock.patch.object(derivations, "localize_and_essentialize", localize):
        assert sigma_per_flat(multi) == expected
    local = [[m for i, m in enumerate(multi.mult) if x.mask >> i & 1] for x in flats]
    probes = {
        x for x, ms in zip(flats, local)
        if x.codim == 2 and len(ms) > 3 and max(ms) > 1 and 2 * max(ms) < sum(ms)
    }
    assert set(reached) == {x for x in flats[:-1] if x.codim > 2} | probes
    assert probes or multi not in (_PROBE3, _PROBE4)
    report = compare_coefficients(multi.base, h0)
    bounded = compare_coefficients(multi.base, h0, multi.base.n_hyperplanes)
    bounded.degree_bound = None
    assert bounded == report


def _full_width_new_generators(gens, kernel, monos, rank, d):
    """Reference for `derivations._new_generators`: the span test on the
    full component-major rows of the degree-d piece, every shifted
    generator written out over all rank * N positions."""
    n_monos = len(monos)
    monos_index = {m: k for k, m in enumerate(monos)}
    span = _Echelon()
    for g in gens:
        for shift in monomials(rank, d - g.degree):
            row = [0] * (rank * n_monos)
            for i, comp in enumerate(g.components):
                for exps, c in comp.items():
                    moved = tuple(a + b for a, b in zip(exps, shift))
                    row[i * n_monos + monos_index[moved]] = c
            span.add(row)
    return [
        derivations._field_from_vector(vec, monos, rank)
        for vec in kernel
        if span.add([vec.get(c, 0) for c in range(rank * n_monos)])
    ]


@st.composite
def _small_multiarrangements(draw, min_rank=2):
    """A multiarrangement of rank r = min_rank..4 (multiplicities 1-3 up
    to rank 2, 1-2 at rank 3, 1 at rank 4) with at most r + 2 hyperplanes,
    entries in -2..2, essential or with one extra coordinate, and a degree
    bound (None, 1 or 2)."""
    rank = draw(st.integers(min_rank, 4))
    dim, forms = draw(
        _central_forms(min_dim=rank, max_dim=rank, max_forms=rank + 2, coeff=2).filter(
            lambda d: canonicalize(d[1], d[0]).rank() == d[0]
        )
    )
    if draw(st.booleans()):
        forms = _embed(forms, draw(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)))
        dim += 1
    mult = draw(st.lists(st.integers(1, min(3, 5 - rank)), min_size=len(forms), max_size=len(forms)))
    return multiarrangement(canonicalize(forms, dim), mult), draw(st.sampled_from((None, 1, 2)))


_WIDE = linalg._PRIMES


@settings(max_examples=120, deadline=None)
@given(_small_multiarrangements(), st.sampled_from((_WIDE, (3,), (3, 5, 7))))
@example((simple_multiarrangement(CORPUS["braid-ess4"].arrangement), None), _WIDE)
@example((simple_multiarrangement(CORPUS["braid-ess4"].arrangement), 2), _WIDE)
@example((simple_multiarrangement(CORPUS["generic34"].arrangement), None), _WIDE)
@example((multiarrangement(canonicalize(_IDENTITY5[:4], 5), [2, 1, 3, 1]), 1), _WIDE)
@example((multiarrangement(canonicalize([[1, 0], [0, 1], [1, 1], [1, -1]], 2), [2, 2, 2, 2]), None), _WIDE)
@example((multiarrangement(canonicalize([[1, 0], [0, 1], [1, 1]], 2), [1, 1, 6]), None), _WIDE)
@example((multiarrangement(canonicalize([[1, 0], [0, 1], [1, 1]], 2), [12, 13, 12]), None), _WIDE)
@example((multiarrangement(canonicalize([[0, 1], [1, 1], [1, -2]], 2), [1, 3, 3]), None), (3,))
@example((multiarrangement(canonicalize([[0, 1], [1, 1], [1, -2]], 2), [1, 3, 3]), None), (3, 5, 7))
def test_free_column_span_selects_the_full_width_generators(drawn, primes):
    # The span test on the kernel's free columns, read off the free columns
    # of one certified kernel, must pick the same generators as the test on
    # full rows, so the status, exponents, basis and witness agree.  The
    # examples cover Free, Unknown under a bound, NotFree, a non-essential
    # input, and rank 2 with d1 = d2 = 4, with d1 = 2 below the probe
    # degree 3, and with exponents (18, 19).  With p = 3, 5 or 7 the span
    # rows often lose rank mod p, so a span kernel needs the lift, CRT, the
    # exact check or the fallback: free columns read off one prime's RREF
    # alone give a wrong basis on the last two examples.
    multi, bound = drawn
    with mock.patch.object(linalg, "_PRIMES", primes):
        verdict = find_free_basis(multi, bound)
        with mock.patch.object(derivations, "_new_generators", _full_width_new_generators):
            assert find_free_basis(multi, bound) == verdict


def _full_scan(multi, bound, kernels):
    """Reference for the rank-2 search of `find_free_basis`: the graded
    kernel and its new generators at every degree 1..bound, until two
    generators are found.  kernels memoizes the kernels by degree.
    Returns (status, exponents, basis reprs, bound)."""
    gens = []
    for d in range(1, bound + 1):
        if d not in kernels:
            kernels[d] = derivations._graded_kernel(multi, d)
        gens += derivations._new_generators(gens, *kernels[d], 2, d)
        if len(gens) >= 2:
            degrees = tuple(g.degree for g in gens)
            free = len(gens) == 2 and sum(degrees) == multi.total and saito_check(gens, multi)
            return ("Free" if free else "NotFree"), degrees, [repr(g) for g in gens], None
    if bound >= multi.total:
        return "NotFree", None, None, None
    return "Unknown", None, None, bound


@st.composite
def _rank2_multiarrangements(draw):
    """3-5 lines in the plane with entries in -3..3 and multiplicities 1-6."""
    _, forms = draw(
        _central_forms(min_dim=2, max_dim=2, max_forms=5).filter(lambda d: len(d[1]) >= 3)
    )
    mult = draw(st.lists(st.integers(1, 6), min_size=len(forms), max_size=len(forms)))
    return multiarrangement(canonicalize(forms, 2), mult)


@settings(max_examples=30, deadline=None)
@given(_rank2_multiarrangements())
@example(multiarrangement(canonicalize([[1, 0], [0, 1], [1, 1]], 2), [12, 13, 12]))
@example(multiarrangement(canonicalize([[1, 0], [0, 1], [1, 1]], 2), [1, 1, 6]))
@example(multiarrangement(canonicalize([[2, 3], [3, -1], [1, 1], [1, -2]], 2), [2, 2, 2, 2]))
def test_rank2_search_matches_the_full_scan(multi):
    # The rank-2 search computes kernels only at the probe degree and the
    # two exponents; under every bound it must give the full scan's status,
    # exponents, basis and bound, compute no kernel twice, and none above
    # the bound.  The examples have exponents (18, 19), (2, 6) with
    # d1 below the probe degree, and (4, 4) with an empty probe kernel.
    kernels = {}
    for bound in range(multi.total + 2):
        degrees = []
        real = derivations._graded_kernel

        def spy(m, d):
            degrees.append(d)
            return real(m, d)

        with mock.patch.object(derivations, "_graded_kernel", spy):
            verdict = find_free_basis(multi, bound)
        assert len(set(degrees)) == len(degrees) <= 3
        assert all(1 <= d <= bound for d in degrees)
        basis = None if verdict.basis is None else [repr(g) for g in verdict.basis]
        got = (verdict.status, verdict.exponents, basis, verdict.bound)
        assert got == _full_scan(multi, bound, kernels)


@st.composite
def _rank2_lines(draw):
    """2-6 lines in the plane with entries in -3..3 and multiplicities 1-8."""
    _, forms = draw(
        _central_forms(min_dim=2, max_dim=2, max_forms=6).filter(lambda d: len(d[1]) >= 2)
    )
    mult = draw(st.lists(st.integers(1, 8), min_size=len(forms), max_size=len(forms)))
    return multiarrangement(canonicalize(forms, 2), mult)


def _needs_the_probe(mult):
    """No closed form applies: not simple, no line with m_H >= |m|/2, and
    more than three lines."""
    return max(mult) > 1 and 2 * max(mult) < sum(mult) and len(mult) > 3


_FOUR_LINES = [[1, 0], [0, 1], [1, 1], [1, -1]]


@settings(max_examples=60, deadline=None)
@given(_rank2_lines())
@example(multiarrangement(canonicalize(_FOUR_LINES + [[1, 2]], 2), [1] * 5))
@example(multiarrangement(canonicalize([[1, 0], [1, 3]], 2), [3, 5]))
@example(multiarrangement(canonicalize(_FOUR_LINES, 2), [4, 1, 2, 1]))
@example(multiarrangement(canonicalize([[1, 0], [0, 1], [1, 1]], 2), [4, 5, 6]))
@example(multiarrangement(canonicalize(_FOUR_LINES, 2), [2, 2, 2, 2]))
@example(multiarrangement(canonicalize(_FOUR_LINES, 2), [3, 1, 2, 1]))
def test_rank2_exponents_match_the_basis_search(multi):
    # The exponents that callers without a basis read must be those of the
    # generators the basis search finds, and those of a full scan of every
    # degree.  A closed form computes no kernel; the probe computes one.
    # The examples: simple, two lines, a heavy line with m_H = |m|/2, three
    # balanced lines, and the probe at an even |m| (empty kernel) and at an
    # odd |m| with m_H = (|m| - 1)/2.
    degrees = []
    real = derivations._graded_kernel

    def spy(m, d):
        degrees.append(d)
        return real(m, d)

    with mock.patch.object(derivations, "_graded_kernel", spy):
        exponents = derivations._exponents_by_theorem(multi)
    assert degrees == ([(multi.total + 1) // 2 - 1] if _needs_the_probe(multi.mult) else [])
    assert exponents == find_free_basis(multi).exponents == _full_scan(multi, multi.total, {})[1]


def _symbolic_saito(basis, multi):
    """Reference for the verdict of `saito_check` on fields of D(A,m):
    the expanded determinant det(theta_i(x_j)) equals c * Q(A,m) for a
    nonzero constant c."""
    if any(theta.is_zero for theta in basis):
        return False
    det_poly = mp_determinant([list(theta.components) for theta in basis])
    q = defining_polynomial(multi)
    if set(det_poly) != set(q):
        return False
    e0 = next(iter(q))
    c = Fraction(det_poly[e0], q[e0])
    return all(det_poly[e] == c * q[e] for e in q)


def _shifted_field(theta, exps):
    """x**exps * theta."""
    return PolyVectorField([
        {tuple(a + b for a, b in zip(e, exps)): c for e, c in comp.items()}
        for comp in theta.components
    ])


def _added_fields(theta, other):
    return PolyVectorField([mp_add_inplace(dict(p), q) for p, q in zip(theta.components, other.components)])


@st.composite
def _free_multiarrangements(draw):
    """A free multiarrangement: a rank-2 one, the boolean arrangement with
    multiplicities 1-3, or B3, essentialized A3 or the supersolvable
    corpus entry, the last three under an invertible {-1, 0, 1} change of
    coordinates."""
    kind = draw(st.sampled_from(("rank2", "boolean3", "B3", "A3-ess", "supersolvable3")))
    if kind == "rank2":
        return draw(_rank2_multiarrangements())
    if kind == "boolean3":
        mult = draw(st.lists(st.integers(1, 3), min_size=3, max_size=3))
        return multiarrangement(CORPUS["boolean3"].arrangement, mult)
    forms = _FREE3[kind][0] if kind in _FREE3 else CORPUS[kind].arrangement.forms
    matrix = draw(_matrices3(1))
    moved = [[sum(f[i] * matrix[i][j] for i in range(3)) for j in range(3)] for f in forms]
    return simple_multiarrangement(canonicalize(moved, 3))


@settings(max_examples=25, deadline=None)
@given(_free_multiarrangements())
@example(simple_multiarrangement(canonicalize(_B3, 3)))
@example(multiarrangement(canonicalize([[1, 0], [0, 1], [1, 1]], 2), [1, 1, 6]))
def test_evaluated_saito_verdict_matches_the_expanded_determinant(multi):
    # saito_check decides c != 0 in det = c * Q(A,m) from one evaluation;
    # the expanded determinant must agree on the found basis and on the
    # fields made from it by replacing theta_i with x * theta_k, or with
    # x**a * theta_k + x**b * theta_l of theta_i's degree (a sum of two).
    # The sums keep the degrees summing to |m|, so only the determinant
    # decides them: a basis when k or l is i, else det = 0.
    basis = list(find_free_basis(multi).basis)
    dim = multi.dim

    def power(g):
        return (g,) + (0,) * (dim - 1)

    candidates = [basis]
    for i, k in product(range(dim), repeat=2):
        x = tuple(int(v == (i + k) % dim) for v in range(dim))
        candidates.append(basis[:i] + [_shifted_field(basis[k], x)] + basis[i + 1:])
        for l in range(k, dim):
            gap_k, gap_l = (basis[i].degree - basis[j].degree for j in (k, l))
            if min(gap_k, gap_l) >= 0:
                summed = _added_fields(
                    _shifted_field(basis[k], power(gap_k)), _shifted_field(basis[l], power(gap_l))
                )
                candidates.append(basis[:i] + [summed] + basis[i + 1:])
    decided_by_det = {True: 0, False: 0}
    for fields in candidates:
        expected = _symbolic_saito(fields, multi)
        assert saito_check(fields, multi) is expected
        if sum(theta.degree for theta in fields) == multi.total:
            decided_by_det[expected] += 1
    assert decided_by_det[True] and decided_by_det[False]


def _expanded_residue(exps, alpha, power):
    """alpha_j**|exps| * x**exps as a polynomial in z = alpha(x) and the
    non-pivot variables, {(e, exps of the rest): int} for z-degree
    e < power, by expanding (z - w)**exps[j] with w = alpha - alpha_j x_j."""
    j = next(i for i, a in enumerate(alpha) if a)
    aj = exps[j]
    minus_w = mp_from_linear([-a if i != j else 0 for i, a in enumerate(alpha)])
    base = tuple(0 if i == j else a for i, a in enumerate(exps))
    out = {}
    for e in range(min(power, aj + 1)):
        scale = comb(aj, e) * alpha[j] ** (sum(exps) - aj)
        rest = {(0,) * len(alpha): 1}
        for _ in range(aj - e):
            rest = mp_mul(rest, minus_w)
        for mono, c in rest.items():
            out[(e, tuple(a + b for a, b in zip(base, mono)))] = scale * c
    return out


@settings(max_examples=40, deadline=None)
@given(
    _central_forms(min_dim=2, max_dim=4, max_forms=5).flatmap(
        lambda d: st.tuples(
            st.just(d),
            st.lists(st.integers(1, 8), min_size=len(d[1]), max_size=len(d[1])),
            st.integers(0, 6),
        )
    )
)
@example(((3, [[2, 3, -1], [0, 3, 1], [1, 0, 0]]), [9, 1, 2], 3))
@example(((2, [[1, 0], [0, 1]]), [7, 5], 3))
@example(((3, [[0, 0, 1], [1, 1, 0], [0, 1, 0]]), [8, 6, 2], 4))
def test_table_rows_match_the_per_monomial_rows(drawn):
    # The constraint rows written from one substitution table per
    # (form, multiplicity, degree) must have the keys, columns and values
    # of rows built from one residue per monomial, and each residue must
    # be the direct expansion of (z - w)**a_j.  The first example has
    # pivot coefficient 2 and multiplicity 9 > d + 1; the others have
    # coordinate forms (w = 0, so only the 0th power of -w is nonzero)
    # with multiplicity above the degree.
    (dim, forms), mult, d = drawn
    multi = multiarrangement(canonicalize(forms, dim), mult)
    monos = monomials(dim, d)
    expected = {}
    for h in multi.effective():
        alpha, power = multi.base.forms[h], multi.mult[h]
        for k, mono in enumerate(monos):
            residues = monomial_residue_mod_linear_power(mono, alpha, power)
            assert residues == _expanded_residue(mono, alpha, power)
            for key, val in residues.items():
                row = expected.setdefault((h,) + key, {})
                for i, a in enumerate(alpha):
                    if a:
                        row[i * len(monos) + k] = a * val
    assert derivations._constraint_rows(multi, d, monos) == expected


def _d_forms(n):
    """D_n: x_i - x_j and x_i + x_j."""
    return [[int(k == i) - s * int(k == j) for k in range(n)]
            for s in (1, -1) for i in range(n) for j in range(i + 1, n)]


_D4 = canonicalize(_d_forms(4), 4)
_B4 = canonicalize(_d_forms(4) + [f[:4] for f in _IDENTITY5[:4]], 4)
# six planes with no three through a line: not free, and its only
# derivations of degree 2 are x * theta_E, y * theta_E and z * theta_E
_GENERIC6 = canonicalize([[0, 1, 0], [0, 1, 2], [2, -1, 1], [1, 0, 2], [1, 2, -1], [0, 1, 1]], 3)


def _partitions(total, parts, minimum=1):
    """Nondecreasing tuples of `parts` integers >= minimum summing to total."""
    if parts == 0:
        return [()] if total == 0 else []
    out = []
    for first in range(minimum, total // parts + 1):
        for rest in _partitions(total - first, parts - 1, first):
            out.append((first,) + rest)
    return out


def _hilbert_function(exponents, rank, degrees):
    return [sum(monomial_count(rank, d - e) for e in exponents) for d in degrees]


def _partition_stop(rank, total, dims):
    """Reference for the full scan's stop rule: the first degree d at
    which no exponent partition of |m| into rank parts has the graded
    dimensions dims[:d] of degrees 1..d, or None."""
    partitions = _partitions(total, rank)
    for d, dim in enumerate(dims, 1):
        partitions = [e for e in partitions if _hilbert_function(e, rank, [d]) == [dim]]
        if not partitions:
            return d
    return None


def _hilbert_stop(rank, total, dims):
    found = ()
    for d, dim in enumerate(dims, 1):
        found = derivations._hilbert_exponents(found, rank, total, d, dim)
        if found is None:
            return d
    return None


@st.composite
def _graded_dimensions(draw):
    """rank 1-5, |m| <= 18, and the dimensions of degrees 1..|m| of a free
    module with drawn exponents, one of them moved by -1, 0 or +1, or an
    arbitrary sequence of small dimensions."""
    rank = draw(st.integers(1, 5))
    total = draw(st.integers(rank, 18))
    if draw(st.booleans()):
        dims = _hilbert_function(draw(st.sampled_from(_partitions(total, rank))), rank, range(1, total + 1))
        dims[draw(st.integers(0, total - 1))] += draw(st.sampled_from((-1, 0, 1)))
    else:
        dims = draw(st.lists(st.integers(0, 12), max_size=total))
    return rank, total, dims


@settings(max_examples=300, deadline=None)
@given(_graded_dimensions())
@example((3, 9, [0, 0, 3, 9, 18, 30, 45, 63, 84]))
@example((3, 9, [1, 2]))
@example((2, 4, [0, 3]))
@example((2, 6, [0, 0, 1]))
def test_hilbert_stop_rule_matches_the_partition_filter(drawn):
    # The full scan ends NotFree at the first degree whose dimensions fit
    # no free module; reading the exponents off the Hilbert function must
    # stop exactly where filtering every partition of |m| does.  The
    # examples: exponents (3, 3, 3), which never stop; B3's (1, 3, 5) with
    # one dimension too few at degree 2 (a negative count); three exponents
    # at degree 2 of rank 2; and an exponent 3 of rank 2 that leaves 3 of
    # |m| = 6 for one exponent above 3.
    rank, total, dims = drawn
    assert _hilbert_stop(rank, total, dims) == _partition_stop(rank, total, dims)


def _verdict_fields(verdict):
    basis = None if verdict.basis is None else [repr(g) for g in verdict.basis]
    return verdict.status, verdict.exponents, basis, verdict.witness, verdict.bound


@st.composite
def _seeded_searches(draw):
    """A rank-3 or rank-4 arrangement A, or its Ziegler restriction A''
    onto a drawn hyperplane; two candidate multisets: the roots of chi(A)
    (of chi_0(A) for A''), or a drawn partition of |m| into rank-many
    parts when those are not nonnegative integers, and that multiset with
    one entry raised by one and another lowered by one; a degree bound
    (None, 2 or 3)."""
    rank = draw(st.integers(3, 4))
    dim, forms = draw(
        _central_forms(min_dim=rank, max_dim=rank, max_forms=rank + 3, coeff=5 - rank).filter(
            lambda d: canonicalize(d[1], d[0]).rank() == d[0]
        )
    )
    arr = canonicalize(forms, dim)
    if draw(st.booleans()):
        multi, chi = simple_multiarrangement(arr), char_poly(arr)
    else:
        multi = ziegler_restriction(arr, draw(st.integers(0, len(forms) - 1)))
        chi = reduced_char_poly(arr)
    ess, _ = essentialize(multi)
    seed = chi.nonnegative_roots() or list(
        draw(st.sampled_from(_partitions(ess.total, ess.dim)))
    )
    i, j = draw(st.lists(st.integers(0, len(seed) - 1), min_size=2, max_size=2, unique=True))
    wrong = list(seed)
    wrong[i] += 1
    wrong[j] -= 1
    return multi, (tuple(seed), tuple(wrong)), draw(st.sampled_from((None, 2, 3)))


@settings(max_examples=40, deadline=None)
@given(_seeded_searches())
@example((ziegler_restriction(_D4, 0), ((3, 3, 5), (3, 4, 4)), None))
@example((simple_multiarrangement(_D4), ((1, 3, 3, 5), (1, 2, 4, 5)), None))
@example((simple_multiarrangement(canonicalize(_B3, 3)), ((1, 3, 5), (1, 4, 4)), None))
@example((simple_multiarrangement(canonicalize(_B3, 3)), ((1, 3, 5), (2, 3, 4)), 3))
@example((simple_multiarrangement(CORPUS["generic45"].arrangement), ((1, 1, 1, 2), (1, 1, 2, 1)), None))
@example((ziegler_restriction(CORPUS["generic45"].arrangement, 0), ((1, 1, 2), (2, 1, 1)), None))
@example((simple_multiarrangement(_GENERIC6), ((2, 2, 2), (1, 2, 3)), None))
def test_targeted_scan_matches_the_full_scan(drawn):
    # Seeded with candidate exponents, the search must give the full
    # scan's status, exponents, basis, witness and bound, compute no kernel
    # twice and none above the bound; seeded with the exponents of a free
    # answer, it computes kernels at their distinct degrees alone.  The
    # examples: D4's A'' and D4 with the roots of chi_0 and chi, B3 also
    # under a bound below its top exponent, generic45 and its A'' (not
    # free), and six generic planes seeded with (2, 2, 2), where the
    # degree-2 kernel has three new generators that fail Saito's criterion.
    multi, seeds, bound = drawn
    full = _verdict_fields(find_free_basis(multi, bound))
    real = derivations._graded_kernel
    for seed in seeds:
        degrees = []

        def spy(m, d):
            degrees.append(d)
            return real(m, d)

        with mock.patch.object(derivations, "_graded_kernel", spy):
            verdict = find_free_basis(multi, bound, seed)
        assert _verdict_fields(verdict) == full
        assert len(set(degrees)) == len(degrees)
        assert all(1 <= d <= (multi.total if bound is None else bound) for d in degrees)
        positive = sorted(d for d in seed if d > 0)
        if verdict.is_free and multi.rank() >= 3 and positive == [d for d in verdict.exponents if d]:
            assert degrees == sorted(set(positive))


@settings(max_examples=40, deadline=None)
@given(st.one_of(_rank3_arrangements(), _rank4_arrangements().map(lambda d: d[:2])))
@example((CORPUS["braid-ess4"].arrangement, 0))
@example((canonicalize(_B3, 3), 0))
@example((_B4, 0))
@example((_D4, 0))
def test_free_arrangement_chi0_is_the_product_over_restriction_exponents(drawn):
    # Terao's factorization and Ziegler's theorem: a free A has
    # chi_0(A,t) = prod (t - d_i) over the exponents of A''; a center adds
    # zeros to both.  The examples are A4 (essentialized), B3, B4 and D4.
    arr, h0 = drawn
    if find_free_basis(simple_multiarrangement(arr)).is_free:
        restriction = find_free_basis(ziegler_restriction(arr, h0))
        assert restriction.is_free
        assert reduced_char_poly(arr) == IntPoly.from_roots(restriction.exponents)


@settings(max_examples=40, deadline=None)
@given(_small_multiarrangements(min_rank=1).map(lambda d: d[0]))
@example(multiarrangement(canonicalize(_IDENTITY5[:1], 5), [3]))
@example(multiarrangement(canonicalize([[1, 0], [0, 1], [1, 1]], 2), [2, 2, 1]))
@example(simple_multiarrangement(canonicalize(_B3, 3)))
@example(simple_multiarrangement(_D4))
@example(simple_multiarrangement(_GENERIC6))
def test_every_free_basis_passes_the_public_saito_check(multi):
    # Whatever the candidates (none, the roots of chi of the base
    # arrangement or the most balanced partition of |m| when chi does not
    # split, or that multiset with its first entry lowered and its last
    # raised), a Free verdict's basis lies in D(A,m) of the model searched,
    # has the nonzero exponents as degrees, and passes the public
    # saito_check.  The examples: one plane of multiplicity 3 in dimension
    # 5, three lines (2, 2, 1), B3, D4, and six generic planes, whose
    # degree-2 kernel has three new generators that fail Saito's criterion.
    ess, _ = essentialize(multi)
    roots = char_poly(multi.base).nonnegative_roots()
    if roots is None:
        roots = [0] * (multi.dim - ess.dim) + list(_partitions(ess.total, ess.dim)[-1])
    wrong = list(roots)
    wrong[0] -= 1
    wrong[-1] += 1
    for candidates in (None, tuple(roots), tuple(wrong)):
        verdict = find_free_basis(multi, None, candidates)
        if not verdict.is_free:
            continue
        assert all(derivation_membership(theta, verdict.essential) for theta in verdict.basis)
        assert [theta.degree for theta in verdict.basis] == [e for e in verdict.exponents if e]
        assert saito_check(verdict.basis, verdict.essential)
