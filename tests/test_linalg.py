"""The certified modular kernel (`linalg.nullspace`) against the exact
integer-elimination path it falls back to."""

import json
from fractions import Fraction
from math import gcd, prod
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arrangements import canonicalize, derivation_space_dim, derivations, linalg, multiarrangement
from arrangements.polynomials import monomials
from conftest import random_central, seeded


@st.composite
def sparse_matrices(draw):
    """Small integer matrices as sparse rows.  Appended combinations of
    drawn rows make the rank deficient; the occasional large entry gives
    kernels that rational reconstruction cannot lift; unit rows start
    chains of columns forced to zero."""
    ncols = draw(st.integers(1, 7))
    entries = st.integers(-4, 4) | st.integers(-(10**6), 10**6)
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=6))
    if rows:
        for _ in range(draw(st.integers(0, 3))):
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            rows.append([s * x + t * y for x, y in zip(a, b)])
    rows = [{c: v for c, v in enumerate(r) if v} for r in rows]
    # Unit rows, and two-entry rows that a unit row's column reduces to a
    # single entry; entries divisible by 3 vanish mod the tiny prime.
    column, nonzero = st.integers(0, ncols - 1), st.integers(-6, 6).filter(bool)
    for _ in range(draw(st.integers(0, 2))):
        c, other = draw(column), draw(column)
        rows.append({c: draw(nonzero)})
        if other != c:
            rows.append({c: draw(nonzero), other: draw(nonzero)})
    return draw(st.permutations(rows)), ncols


@pytest.mark.parametrize(
    "primes", [linalg._PRIMES, (3,), (3, 5, 7)], ids=["31-bit", "tiny", "tiny-crt"]
)
@settings(max_examples=80, deadline=None)
@given(sparse_matrices())
@example(([{0: 3, 1: 1}, {1: 1}], 2))
@example(([{0: 1, 1: 1}, {0: 1, 1: 6, 2: 1}], 3))
@example(([{0: 4, 1: 1}, {0: 1, 1: 4}], 2))
def test_nullspace_matches_exact_elimination(primes, matrix):
    # With p = 3, 5 or 7 the rank mod p often drops below the rank over Q,
    # and the pivot lists differ between the primes: the exact check must
    # reject a wrong lift, CRT must combine only matching pivot lists, and
    # the fallback take over when every prime fails.
    rows, ncols = matrix
    with mock.patch.object(linalg, "_PRIMES", primes):
        basis = linalg.nullspace(rows, ncols)
    assert basis == linalg._exact_nullspace(rows, ncols)
    # what `derivations` reads: the largest key of a vector is its free
    # column, increasing along the basis, positive there, and gcd 1
    free = [max(v) for v in basis]
    assert free == sorted(set(free))
    for v, f in zip(basis, free):
        assert v[f] > 0 and gcd(*v.values()) == 1


@st.composite
def nonzero_matrices(draw):
    """Matrices with every entry nonzero, the densest input there is."""
    ncols = draw(st.integers(1, 7))
    row = st.lists(st.integers(-9, 9).filter(bool), min_size=ncols, max_size=ncols)
    return [dict(enumerate(r)) for r in draw(st.lists(row, min_size=1, max_size=6))], ncols


def _d4_degree_4():
    """The constraint rows of D(D4) in degree 4: 180 x 140, rank 112."""
    data = json.loads((Path(__file__).parent / "bases" / "D4.json").read_text())
    multi = multiarrangement(canonicalize(data["hyperplanes"], data["dim"]), [1] * 12)
    monos = monomials(4, 4)
    rows = derivations._constraint_rows(multi, 4, monos)
    return [row for _, row in sorted(rows.items())], 4 * len(monos)


_D4_DEGREE_4 = _d4_degree_4()
# `_SPARSE_ENTRY_COST` that forces each engine of `_rref_mod`: the rows go
# to the dense loop before the first pivot, or never.
_HANDOFFS = {"first-pivot": 10**9, "never": 0}


@pytest.mark.parametrize("handoff", list(_HANDOFFS))
@pytest.mark.parametrize(
    "primes", [linalg._PRIMES, (3,), (3, 5, 7)], ids=["31-bit", "tiny", "tiny-crt"]
)
@settings(max_examples=40, deadline=None)
@given(sparse_matrices() | nonzero_matrices())
@example(_D4_DEGREE_4)
@example(([{0: 3}], 2))  # nothing left mod 3: no pivot for either engine
def test_dense_handoff_keeps_the_rref(handoff, primes, matrix):
    # The RREF mod p is unique, so the sparse and the dense engine must
    # both give the dense reduction from column 0.  The engine is chosen
    # once, before any pivot: the dense loop runs at most once per prime,
    # on the unreduced residues, and never when the sparse cost is 0.
    rows, ncols = matrix
    dense_rref, calls = linalg._dense_rref, []

    def recording_dense_rref(m, p):
        calls.append(m.copy())
        return dense_rref(m, p)

    with mock.patch.object(linalg, "_SPARSE_ENTRY_COST", _HANDOFFS[handoff]), \
            mock.patch.object(linalg, "_dense_rref", recording_dense_rref), \
            mock.patch.object(linalg, "_PRIMES", primes):
        for p in primes:
            calls.clear()
            assert linalg._rref_mod(rows, ncols, p) == dense_rref(linalg._dense(rows, ncols, p), p)
            assert len(calls) <= (handoff == "first-pivot")
            assert all(np.array_equal(m, linalg._dense(rows, ncols, p)) for m in calls)
            if matrix is _D4_DEGREE_4:
                assert len(calls) == (handoff == "first-pivot")
        assert linalg.nullspace(rows, ncols) == linalg._exact_nullspace(rows, ncols)


@pytest.fixture
def spies(monkeypatch):
    """Records the modulus of every lift and counts the exact fallbacks."""
    lifts, fallbacks = [], []
    real_lift, real_exact = linalg._lift, linalg._exact_nullspace

    def recording_lift(vecs, m):
        w = real_lift(vecs, m)
        lifts.append((m, w is not None))
        return w

    def counting_exact(rows, ncols):
        fallbacks.append(ncols)
        return real_exact(rows, ncols)

    monkeypatch.setattr(linalg, "_lift", recording_lift)
    monkeypatch.setattr(linalg, "_exact_nullspace", counting_exact)
    return lifts, fallbacks


def test_rank_drop_mod_p_is_rejected(spies):
    # Rank 2 over Q, rank 1 mod 5; no row has a single entry, so the whole
    # system reaches the mod-p RREF.  The first kernel vector mod 5, (2, 1),
    # does not lift; the second, (1, 1), lifts and fails the exact check.
    lifts, fallbacks = spies
    for rows, lifted in ([{0: 3, 1: 1}, {0: 1, 1: 2}], False), ([{0: 1, 1: -1}, {0: 1, 1: 4}], True):
        lifts.clear()
        fallbacks.clear()
        with mock.patch.object(linalg, "_PRIMES", (5,)):
            assert linalg.nullspace(rows, 2) == []
        assert lifts == [(5, lifted)] and fallbacks == [2]
        with mock.patch.object(linalg, "_PRIMES", linalg._PRIMES[:1]):
            assert linalg.nullspace(rows, 2) == []
        assert fallbacks == [2]


def test_single_entry_rows_are_solved_before_the_prime(spies):
    # {1: 1} forces column 1 to 0, which leaves {0: 3} forcing column 0:
    # the kernel is trivial whatever the prime, 3 included.
    rows, ncols = [{0: 3, 1: 1}, {1: 1}], 2
    assert linalg._forced_zero_columns(rows) == {0, 1}
    with mock.patch.object(linalg, "_PRIMES", (3,)):
        assert linalg.nullspace(rows, ncols) == []
    assert spies[1] == []


# Pivots (0, 1) over Q and mod 3, 7, 11; (0, 2) mod 5, where the first two
# columns are dependent.  The kernel vector (1, -1, 5) needs a modulus above
# 2 * 5**2 to lift, so 3 * 7 fails and 3 * 7 * 11 lifts.
_DEPENDENT_MOD_5 = [{0: 1, 1: 1}, {0: 1, 1: 6, 2: 1}]
# Rank 2 over Q and mod 7, rank 1 mod 3 (the determinant is 15); column 2
# is in no row, so the kernel is spanned by its unit vector.
_RANK_1_MOD_3 = [{0: 4, 1: 1}, {0: 1, 1: 4}]


@pytest.mark.parametrize(
    "rows, primes, moduli, kernel",
    [
        (_DEPENDENT_MOD_5, (5, 3, 7, 11), [5, 3, 21, 231], [{0: 1, 1: -1, 2: 5}]),
        (_DEPENDENT_MOD_5, (3, 5, 7, 11), [3, 21, 231], [{0: 1, 1: -1, 2: 5}]),
        (_RANK_1_MOD_3, (3, 7, 11), [3, 7], [{2: 1}]),
    ],
    ids=["earlier-list-replaces", "later-list-skipped", "longer-list-replaces"],
)
def test_crt_combines_only_the_best_pivot_list(spies, rows, primes, moduli, kernel):
    lifts, fallbacks = spies
    with mock.patch.object(linalg, "_PRIMES", primes):
        assert linalg.nullspace(rows, 3) == kernel
    assert [m for m, _ in lifts] == moduli
    assert lifts[-1] == (moduli[-1], True) and fallbacks == []


@pytest.fixture
def kernels(monkeypatch):
    """Every (rows, ncols, basis) that `derivations` gets from `nullspace`."""
    out = []
    real_nullspace = linalg.nullspace

    def recording_nullspace(rows, ncols):
        basis = real_nullspace(rows, ncols)
        out.append((rows, ncols, basis))
        return basis

    monkeypatch.setattr(derivations, "nullspace", recording_nullspace)
    return out


def _assert_crt_lifts(kernels, lifts, fallbacks):
    assert kernels and fallbacks == []
    assert any(m in linalg._PRIMES and not ok for m, ok in lifts)  # one prime fails
    assert any(m not in linalg._PRIMES and ok for m, ok in lifts)  # CRT lifts
    for rows, ncols, basis in kernels:
        assert basis == linalg._exact_nullspace(rows, ncols)


def test_failed_reconstruction_returns_the_exact_basis(spies, kernels):
    # The top degrees of {x, y, x+y} with m = (12, 13, 12) have kernel
    # entries beyond what one 31-bit prime reconstructs; the primes
    # combined by CRT lift them without exact elimination.
    multi = multiarrangement(canonicalize([[1, 0], [0, 1], [1, 1]], 2), [12, 13, 12])
    verdict = derivations.find_free_basis(multi)
    assert verdict.exponents == (18, 19)
    _assert_crt_lifts(kernels, *spies)


def test_crt_lifts_the_transformed_b3_kernel(spies, kernels):
    # The degree-6 kernel of B3-transformed has 67-bit entries: five primes
    # are needed before the lift succeeds.
    data = json.loads((Path(__file__).parent / "bases" / "B3-transformed.json").read_text())
    multi = multiarrangement(canonicalize(data["hyperplanes"], data["dim"]), data["mult"])
    derivations._graded_kernel(multi, 6)
    _assert_crt_lifts(kernels, *spies)
    assert max(abs(x) for v in kernels[0][2] for x in v.values()).bit_length() == 67
    assert max(m for m, ok in spies[0] if ok) == prod(linalg._PRIMES[:5])


@st.composite
def certificates(draw):
    """Sparse rows with a basis of their kernel, [D*I | A] against the
    columns of [-A; D*I], columns shuffled; sometimes one basis entry is off
    by one.  Entries up to 2**31 give digits of the packed check from a few
    bits to 65."""
    r, k = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entries = st.integers(-9, 9) | st.integers(-(2**31), 2**31)
    d = draw(entries.filter(bool))
    a = draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=r, max_size=r))
    order = draw(st.permutations(range(r + k)))
    rows = [[d * (i == j) for j in range(r)] + a[i] for i in range(r)]
    basis = [[-a[i][j] for i in range(r)] + [d * (i == j) for i in range(k)] for j in range(k)]
    if draw(st.booleans()):
        basis[draw(st.integers(0, k - 1))][draw(st.integers(0, r + k - 1))] += 1
    rows = [{order[c]: v for c, v in enumerate(row) if v} for row in rows]
    basis = [{c: x for c in range(r + k) if (x := v[order.index(c)])} for v in basis]
    return rows, basis


@settings(max_examples=150, deadline=None)
@given(certificates())
@example(([{0: 2**31, 1: 2**31}], [{0: 2**31, 1: -(2**31)}]))
def test_packed_certificate_matches_python_ints(pair):
    rows, basis = pair
    exact = all(sum(v * b.get(c, 0) for c, v in row.items()) == 0 for row in rows for b in basis)
    assert linalg._kills(rows, basis) == exact


_CARRY_SHIFTS = (0, 1, 5, 31, 63, 64)


@pytest.mark.parametrize(
    "rows, basis",
    [
        # 2**32 * 2**32 wraps to 0 in int64
        ([{0: 2**32}], [{0: 2**32}]),
        # -2**k in digit 0 is cancelled by a 1 in digit 1 if the digits
        # are one bit narrower than |row . v| needs
        *(([{0: 1}], [{0: -(2**k)}, {0: 1}]) for k in _CARRY_SHIFTS),
    ],
    ids=["int64-wrap", *(f"carry-{k}" for k in _CARRY_SHIFTS)],
)
def test_packed_certificate_refuses_wraps_and_carries(rows, basis):
    assert not linalg._kills(rows, basis)


def test_graded_kernels_match_exact_path_with_non_unit_pivots():
    rng = seeded(4404)
    checked = 0
    while checked < 5:
        arr = random_central(rng, dim=3, max_hyperplanes=6)
        if arr.rank() < 3 or all(next(a for a in f if a) == 1 for f in arr.forms):
            continue
        multi = multiarrangement(arr, [rng.randint(1, 3) for _ in arr.forms])
        for d in range(6):
            kernel = derivations._graded_kernel(multi, d)[0]
            dim = derivation_space_dim(multi, d)
            with mock.patch.object(linalg, "_PRIMES", ()):
                assert derivations._graded_kernel(multi, d)[0] == kernel
                assert derivation_space_dim(multi, d) == dim
        checked += 1


@pytest.mark.parametrize(
    "rows",
    [[[1, 2]], [[1], [2]], [[1, 0], [0]], [[Fraction(1, 2)]], [[1.0]]],
    ids=["wide", "tall", "ragged", "fraction", "float"],
)
def test_det_refuses_a_non_square_or_non_integer_matrix(rows):
    with pytest.raises(ValueError, match="square integer matrix"):
        linalg.det(rows)
