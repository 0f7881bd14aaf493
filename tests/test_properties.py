"""Randomized structural checks (exact assertions only): fixed-seed loops,
and Hypothesis properties that shrink a failure to a minimal input."""

import random
from collections import Counter
from fractions import Fraction
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from arrangements import (
    CORPUS,
    AffineArrangement,
    BadPrime,
    IntPoly,
    abe_yoshinaga_free_check,
    b_coefficients,
    canonicalize,
    chamber_count,
    char_poly,
    char_poly_recursion,
    compare_coefficients,
    decone,
    essentialize,
    find_free_basis,
    finite_field_char_poly,
    intersection_lattice,
    localize_and_essentialize,
    moebius_bruteforce,
    multiarrangement,
    rank2_exponents,
    region_count_recursion,
    saito_check,
    simple_multiarrangement,
    tameness_classify,
    yoshinaga_3d,
    ziegler_restriction,
)
from arrangements import derivations
from arrangements.core import CentralArrangement, normalize_affine, normalize_form
from arrangements.linalg import _Echelon, echelon
from arrangements.polynomials import monomials
from arrangements.restriction import _restriction_flats
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
    # moebius_bruteforce evaluates the defining recursion over all subsets
    lat = intersection_lattice(arr)
    mu = moebius_bruteforce(arr)
    assert sorted(mu) == sorted(f.equations for f in lat.flats)
    for flat, value in zip(lat.flats, lat.moebius):
        assert mu[flat.equations] == value


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
    ncols = restriction.dim + 1
    table = {}
    for flat, mu in zip(lat.flats, lat.moebius):
        ech = echelon([r[:-1] + (Fraction(0),) for r in flat.equations], ncols)
        equations = ech.rref()
        contained = frozenset(
            i for i, f in enumerate(restriction.base.forms)
            if ech.contains(tuple(f) + (0,))
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


def _reference_essential_forms(forms, dim):
    """Each form's coordinates in the canonical Fraction RREF basis of the
    forms' span, made primitive: (rank, forms)."""
    rows = echelon(forms, dim).rref()
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
    rank, expected = _reference_essential_forms(forms, arr.dim)
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


def _full_width_new_generators(gens, kernel, monos, rank, d):
    """Reference for `derivations._new_generators`: the span test on the
    full component-major rows of the degree-d piece, every shifted
    generator written out over all rank * N positions."""
    n_monos = len(monos)
    monos_index = {m: k for k, m in enumerate(monos)}
    span = _Echelon(rank * n_monos)
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
        if span.add(list(vec))
    ]


@st.composite
def _small_multiarrangements(draw):
    """A multiarrangement of rank r = 3 (multiplicities 1-3) or 4
    (multiplicities 1-2) with at most r + 2 hyperplanes, essential or with
    one extra coordinate, and a degree bound (None, 1 or 2)."""
    rank = draw(st.integers(3, 4))
    dim, forms = draw(
        _central_forms(min_dim=rank, max_dim=rank, max_forms=rank + 2, coeff=2).filter(
            lambda d: canonicalize(d[1], d[0]).rank() == d[0]
        )
    )
    if draw(st.booleans()):
        forms = _embed(forms, draw(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)))
        dim += 1
    mult = draw(st.lists(st.integers(1, 5 - rank), min_size=len(forms), max_size=len(forms)))
    return multiarrangement(canonicalize(forms, dim), mult), draw(st.sampled_from((None, 1, 2)))


@settings(max_examples=60, deadline=None)
@given(_small_multiarrangements())
@example((simple_multiarrangement(CORPUS["braid-ess4"].arrangement), None))
@example((simple_multiarrangement(CORPUS["braid-ess4"].arrangement), 2))
@example((simple_multiarrangement(CORPUS["generic34"].arrangement), None))
@example((multiarrangement(canonicalize(_IDENTITY5[:4], 5), [2, 1, 3, 1]), 1))
def test_free_column_span_selects_the_full_width_generators(drawn):
    # The span test on the kernel's free columns must pick the same
    # generators as the test on full rows, so the status, exponents, basis
    # and witness agree.  The examples cover Free, Unknown under a bound,
    # NotFree, and a non-essential input.
    multi, bound = drawn
    verdict = find_free_basis(multi, bound)
    with mock.patch.object(derivations, "_new_generators", _full_width_new_generators):
        assert find_free_basis(multi, bound) == verdict
