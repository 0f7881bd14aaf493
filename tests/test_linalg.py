"""The certified modular kernel (`linalg.nullspace`) against the exact
integer-elimination path it falls back to."""

from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arrangements import canonicalize, derivation_space_dim, derivations, linalg, multiarrangement
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


@pytest.mark.parametrize("primes", [linalg._PRIMES, (3,)], ids=["31-bit", "tiny"])
@settings(max_examples=80, deadline=None)
@given(sparse_matrices())
@example(([{0: 3, 1: 1}, {1: 1}], 2))
def test_nullspace_matches_exact_elimination(primes, matrix):
    # With p = 3 the rank mod p often drops below the rank over Q; the
    # exact check must then reject the lift and the fallback take over.
    rows, ncols = matrix
    with mock.patch.object(linalg, "_PRIMES", primes):
        assert linalg.nullspace(rows, ncols) == linalg._exact_nullspace(rows, ncols)


def test_rank_drop_mod_p_is_rejected():
    # No row has a single entry, so the whole system reaches the mod-p RREF.
    rows, ncols = [{0: 3, 1: 1}, {0: 1, 1: 2}], 2  # rank 2 over Q, rank 1 mod 5
    assert linalg._modular_nullspace(rows, ncols, 5) is None
    assert linalg._modular_nullspace(rows, ncols, linalg._PRIMES[0]) == []


def test_single_entry_rows_are_solved_before_the_prime():
    # {1: 1} forces column 1 to 0, which leaves {0: 3} forcing column 0:
    # the kernel is trivial whatever the prime, 3 included.
    rows, ncols = [{0: 3, 1: 1}, {1: 1}], 2
    assert linalg._forced_zero_columns(rows) == {0, 1}
    assert linalg._modular_nullspace(rows, ncols, 3) == []


def test_failed_reconstruction_returns_the_exact_basis(monkeypatch):
    # The top degrees of {x, y, x+y} with m = (12, 13, 12) have kernel
    # entries beyond what one 31-bit prime reconstructs.
    multi = multiarrangement(canonicalize([[1, 0], [0, 1], [1, 1]], 2), [12, 13, 12])
    lifts, kernels = [], []
    real_lift, real_nullspace = linalg._lift, linalg.nullspace

    def recording_lift(v, p):
        w = real_lift(v, p)
        lifts.append(w is not None)
        return w

    def recording_nullspace(rows, ncols):
        basis = real_nullspace(rows, ncols)
        kernels.append((rows, ncols, basis))
        return basis

    monkeypatch.setattr(linalg, "_lift", recording_lift)
    monkeypatch.setattr(derivations, "nullspace", recording_nullspace)
    verdict = derivations.find_free_basis(multi)
    assert verdict.exponents == (18, 19)
    assert not all(lifts)
    for rows, ncols, basis in kernels:
        assert basis == linalg._exact_nullspace(rows, ncols)


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
