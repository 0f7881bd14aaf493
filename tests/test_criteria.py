"""Tameness tags, coefficient comparison, MCA and freeness criteria."""

import pytest

import arrangements.criteria as criteria
from arrangements import (
    CORPUS,
    IndexOutOfRange,
    SigmaStatus,
    TheoremViolation,
    WrongRank,
    abe_yoshinaga_free_check,
    b_coefficients,
    compare_coefficients,
    decone,
    elementary_symmetric,
    find_free_basis,
    mca_check,
    sigma_coefficients,
    simple_multiarrangement,
    tameness_classify,
    yoshinaga_3d,
    ziegler_restriction,
)
from conftest import make


GENERIC46 = make(
    [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [1, 1, 1, 1],
        [1, 2, 4, 8],
    ],
    4,
)


def test_tameness_rank_three_or_less():
    tag = tameness_classify(CORPUS["generic34"].arrangement)
    assert tag.is_tame
    assert "rank" in tag.reason


def test_tameness_verified_free():
    tag = tameness_classify(CORPUS["braid-ess4"].arrangement)
    assert tag.is_tame
    assert "free" in tag.reason


def test_tameness_user_asserted_and_unknown():
    assert not tameness_classify(GENERIC46).is_tame
    tag = tameness_classify(GENERIC46, user_asserted=True)
    assert tag.is_tame
    assert "user" in tag.reason


def test_compare_generic34():
    entry = CORPUS["generic34"]
    report = compare_coefficients(entry.arrangement, entry.h0)
    assert list(report.table.b) == [1, 3, 3]
    assert [s.value for s in report.table.sigma] == [1, 3, 2]
    assert report.inequality == (True, True, True)
    assert report.chamber_bound == (7, 6)
    assert report.mca is False
    assert report.tame_arrangement.is_tame
    assert report.tame_restriction.is_tame
    assert report.all_sigma_exact
    # strict at i = 2
    assert report.table.b[2] > report.table.sigma[2].value


def test_compare_braid_ess3_equality():
    report = compare_coefficients(CORPUS["braid-ess3"].arrangement, 0)
    assert list(report.table.b) == [1, 5, 6]
    assert [s.value for s in report.table.sigma] == [1, 5, 6]
    assert report.chamber_bound == (12, 12)
    assert report.mca is True


def test_compare_generic45_unresolved_top_degree():
    report = compare_coefficients(CORPUS["generic45"].arrangement, 0)
    assert [s.value for s in report.table.sigma] == [1, 4, 6, None]
    assert report.inequality == (True, True, True, None)
    assert report.chamber_bound == (15, None)
    assert report.mca is None
    assert not report.all_sigma_exact
    assert not report.tame_arrangement.is_tame
    assert report.tame_restriction.is_tame  # rank-3 restriction


def test_compare_records_user_assertion():
    report = compare_coefficients(
        CORPUS["generic45"].arrangement, 0, assert_tame=True
    )
    assert report.tame_arrangement.is_tame
    assert "user" in report.tame_arrangement.reason


def test_compare_per_flat_inequality_where_locally_free():
    # b_i^X >= sigma_i^X per flat (all localizations here are rank <= 2,
    # hence verified free).
    for name in ("generic34", "braid-ess3", "supersolvable3"):
        entry = CORPUS[name]
        report = compare_coefficients(entry.arrangement, entry.h0)
        assert report.table.per_flat
        for flat, cell in report.table.per_flat.items():
            assert cell["sigma"] is not None
            assert cell["b"] >= cell["sigma"] >= 0


def test_compare_requires_dim_two():
    with pytest.raises(WrongRank):
        compare_coefficients(make([[1]], 1), 0)
    # dim 2 with rank 1 is legal: ziegler restriction is empty, sigma = (1, 0)
    report = compare_coefficients(make([[1, 0]], 2), 0)
    assert list(report.table.b) == [1, 0]
    assert [s.value for s in report.table.sigma] == [1, 0]
    assert report.mca is True


def test_compare_computes_the_ziegler_restriction_once(monkeypatch):
    import arrangements.restriction as restriction

    calls = []
    original = restriction.ziegler_restriction

    def counting(arr, h0):
        calls.append(h0)
        return original(arr, h0)

    monkeypatch.setattr(criteria, "ziegler_restriction", counting)
    monkeypatch.setattr(restriction, "ziegler_restriction", counting)
    report = compare_coefficients(CORPUS["braid-ess3"].arrangement, 0)
    assert list(report.table.b) == [1, 5, 6]
    assert calls == [0]


@pytest.mark.parametrize(
    "compare", [compare_coefficients, b_coefficients], ids=["compare_coefficients", "b_coefficients"]
)
def test_compare_rejects_an_empty_arrangement_on_the_index(compare):
    # No hyperplane means no h0: the index check runs before chi0, which
    # has no (t - 1) factor here.
    with pytest.raises(IndexOutOfRange, match="the arrangement has no hyperplanes"):
        compare(make([], 3), 0)


@pytest.mark.parametrize(
    "check", [compare_coefficients, b_coefficients, mca_check, abe_yoshinaga_free_check]
)
def test_ziegler_restriction_is_the_one_check_of_a_pair(check):
    # a dim-1 input and an index out of range fail in ziegler_restriction,
    # and the index is checked first
    cases = [
        (make([[1]], 1), 0, WrongRank, "Ziegler restriction needs ambient dimension"),
        (CORPUS["braid-ess3"].arrangement, 6, IndexOutOfRange, "outside 0..5"),
        (make([[1]], 1), 1, IndexOutOfRange, "outside 0..0"),
        (CORPUS["braid-ess3"].arrangement, True, IndexOutOfRange, "index True outside 0..5"),
    ]
    for arr, h0, error, message in cases:
        with pytest.raises(error, match=message) as info:
            check(arr, h0)
        assert [e.name for e in info.traceback].count("ziegler_restriction") == 1


def test_theorem_violation_guard_fires_on_bad_sigma(monkeypatch):
    # Force an impossible sigma vector through the comparison; with both
    # tameness tags Tame the guard must refuse to emit the report.
    def bogus(ess, verdict, products):
        return (SigmaStatus(1, "definition"), SigmaStatus(5, "definition"))

    monkeypatch.setattr(criteria, "_sigma_column", bogus)
    with pytest.raises(TheoremViolation):
        compare_coefficients(make([[1, 0]], 2), 0)  # genuine b = (1, 0)


def test_compare_fills_the_per_flat_sigma_of_a_non_essential_input():
    # x, y, z, x+y, x+z, y+z in Q^4: rank 3, so A'' (at h0 = 0) has a
    # one-dimensional center; the sweep still resolves every flat of
    # L(A''), and each level of the per-flat sigma column sums to sigma.
    arr = make(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 1, 0, 0], [1, 0, 1, 0], [0, 1, 1, 0]],
        4,
    )
    report = compare_coefficients(arr, 0)
    sigma = [s.value for s in report.table.sigma]
    assert sigma == [1, 5, 6, 0]
    cells = sorted((x.codim, cell["sigma"]) for x, cell in report.table.per_flat.items())
    assert [v for _, v in cells] == [1, 1, 2, 2, 6]
    for k, value in enumerate(sigma):
        assert sum(v for codim, v in cells if codim == k) == value


def test_mca_check_values():
    assert mca_check(CORPUS["braid-ess3"].arrangement, 0) is True
    assert mca_check(CORPUS["boolean3"].arrangement, 0) is True
    assert mca_check(CORPUS["generic34"].arrangement, 3) is False
    assert mca_check(CORPUS["generic45"].arrangement, 0) is None


def test_yoshinaga_3d_acceptance_cases():
    braid = CORPUS["braid-ess3"].arrangement
    verdict = yoshinaga_3d(braid, 0)
    assert verdict.is_free
    assert verdict.exponents == (1, 2, 3)

    boolean3 = CORPUS["boolean3"].arrangement
    verdict = yoshinaga_3d(boolean3, 0)
    assert verdict.is_free
    assert verdict.exponents == (1, 1, 1)

    generic = CORPUS["generic34"].arrangement
    verdict = yoshinaga_3d(generic, 3)
    assert verdict.is_not_free
    assert "7" in verdict.witness and "6" in verdict.witness


def test_yoshinaga_3d_checks_the_pair_first():
    # the (A, h0) check comes before the rank: index, then central input
    with pytest.raises(IndexOutOfRange, match="^hyperplane index 99 outside 0..9$"):
        yoshinaga_3d(CORPUS["braid-ess4"].arrangement, 99)
    with pytest.raises(TypeError, match="needs a central arrangement$"):
        yoshinaga_3d(decone(CORPUS["braid-ess4"].arrangement, 0), 0)


def test_yoshinaga_3d_rejects_other_ranks():
    with pytest.raises(WrongRank):
        yoshinaga_3d(CORPUS["boolean2"].arrangement, 0)
    with pytest.raises(WrongRank):
        yoshinaga_3d(CORPUS["braid-ess4"].arrangement, 0)
    with pytest.raises(WrongRank):
        yoshinaga_3d(make([[1, 0, 0], [0, 1, 0]], 3), 0)


def test_abe_yoshinaga_acceptance_cases():
    verdict = abe_yoshinaga_free_check(CORPUS["boolean4"].arrangement, 0)
    assert verdict.is_free
    assert verdict.exponents == (1, 1, 1, 1)

    verdict = abe_yoshinaga_free_check(CORPUS["braid-ess4"].arrangement, 0)
    assert verdict.is_free
    assert verdict.exponents == (1, 2, 3, 4)

    verdict = abe_yoshinaga_free_check(CORPUS["generic34"].arrangement, 3)
    assert verdict.is_not_free


def test_abe_yoshinaga_unknown_passthrough():
    # At bound 1 the braid-ess4 restriction search is inconclusive (several
    # exponent profiles survive the degree-1 dimension count), so the
    # criterion must pass the Unknown through.
    verdict = abe_yoshinaga_free_check(
        CORPUS["braid-ess4"].arrangement, 0, degree_bound=1
    )
    assert verdict.is_unknown
    assert verdict.bound == 1


def test_criteria_agree_with_direct_search_on_rank3_corpus():
    for name in ("boolean3", "braid-ess3", "generic34", "supersolvable3"):
        entry = CORPUS[name]
        arr = entry.arrangement
        direct = find_free_basis(simple_multiarrangement(arr))
        y3 = yoshinaga_3d(arr, entry.h0)
        ay = abe_yoshinaga_free_check(arr, entry.h0)
        assert y3.is_free == direct.is_free == ay.is_free
        if direct.is_free:
            assert sorted(y3.exponents) == sorted(direct.exponents)
            assert sorted(ay.exponents) == sorted(direct.exponents)


def test_verified_free_implies_mca():
    for entry in CORPUS.values():
        if entry.mult:
            continue
        arr = entry.arrangement
        if find_free_basis(simple_multiarrangement(arr)).is_free:
            assert mca_check(arr, entry.h0) is True


def test_b2_vs_sigma2_without_tameness_hypothesis():
    # b_2 >= sigma_2 whenever sigma_2 is exact, including rank-4 inputs
    # with no tameness tag.
    for arr, h0 in [
        (CORPUS["generic45"].arrangement, 0),
        (GENERIC46, 0),
        (CORPUS["braid-ess4"].arrangement, 0),
    ]:
        report = compare_coefficients(arr, h0)
        sigma2 = report.table.sigma[2]
        assert sigma2.exact
        assert report.table.b[2] >= sigma2.value


def test_ziegler_restriction_sigma_of_free_parent():
    # For free A with exponents (1, e_2, ..., e_l), sigma of the Ziegler
    # restriction equals the elementary symmetric functions of the e_i.
    for name in ("boolean3", "boolean4", "braid-ess3", "braid-ess4", "supersolvable3"):
        entry = CORPUS[name]
        arr = entry.arrangement
        verdict = find_free_basis(simple_multiarrangement(arr))
        assert verdict.is_free
        rest = sorted(verdict.exponents)[1:]
        sigma = sigma_coefficients(ziegler_restriction(arr, entry.h0))
        for k, status in enumerate(sigma):
            assert status.value == elementary_symmetric(rest, k)
