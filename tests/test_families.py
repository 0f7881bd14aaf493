"""Closed-form families: freeness, exponents and chi from the literature,
and the paper's corollary (free implies b = sigma, so MCA) at every h0.

- Graphic arrangements {x_i - x_j : ij in E} are free exactly when the graph
  is chordal (Stanley 1972).
- Jozefiak-Sagan D_l^k = {x_i +- x_j} with x_1, ..., x_k has exponents
  1, 3, ..., 2l - 3, l - 1 + k (J. Alg. Combin. 2, 1993).
- The cone of the Shi arrangement of type A_{n-1} has exponents
  (0, 1, n, ..., n) and chi = t (t - 1) (t - n)^(n-1) (Yoshinaga, Invent.
  Math. 157, 2004); so is the cone of the Catalan arrangement free.
"""

from itertools import combinations

import pytest

from arrangements import (
    IntPoly,
    canonicalize,
    char_poly,
    compare_coefficients,
    find_free_basis,
    parse_report,
    serialize_report,
    simple_multiarrangement,
)


def _graphic(n, edges):
    forms = []
    for i, j in edges:
        form = [0] * n
        form[i], form[j] = 1, -1
        forms.append(form)
    return canonicalize(forms, n)


def _cycle(n):
    return [(i, (i + 1) % n) for i in range(n)]


def _jozefiak_sagan(ell, k):
    forms = []
    for i, j in combinations(range(ell), 2):
        for sign in (-1, 1):
            form = [0] * ell
            form[i], form[j] = 1, sign
            forms.append(form)
    forms += [[int(c == i) for c in range(ell)] for i in range(k)]
    return canonicalize(forms, ell)


def _deformation_cone(n, shifts):
    """The cone of {x_i - x_j = c : i < j, c in shifts} in Q^n: the forms
    x_i - x_j - c z and the hyperplane at infinity z = 0."""
    forms = []
    for i, j in combinations(range(n), 2):
        for c in shifts:
            form = [0] * (n + 1)
            form[i], form[j], form[n] = 1, -1, -c
            forms.append(form)
    forms.append([0] * n + [1])
    return canonicalize(forms, n + 1)


FREE = {
    "4-cycle+chord": (_graphic(4, _cycle(4) + [(0, 2)]), (0, 1, 2, 2)),
    "D3^1": (_jozefiak_sagan(3, 1), (1, 3, 3)),
    "D3^2": (_jozefiak_sagan(3, 2), (1, 3, 4)),
    "D4^1": (_jozefiak_sagan(4, 1), (1, 3, 4, 5)),
    "D4^3": (_jozefiak_sagan(4, 3), (1, 3, 5, 6)),
    "Shi-3": (_deformation_cone(3, (0, 1)), (0, 1, 3, 3)),
    "Shi-4": (_deformation_cone(4, (0, 1)), (0, 1, 4, 4, 4)),
    "Catalan-3": (_deformation_cone(3, (-1, 0, 1)), (0, 1, 4, 5)),
}


@pytest.mark.parametrize("name", sorted(FREE))
def test_free_family_exponents_and_chi(name):
    # chi splits over the exponents: t (t - 1) (t - 2)^2 for the chordal
    # 4-cycle, t (t - 1) (t - n)^(n-1) for the Shi cones
    arr, exponents = FREE[name]
    verdict = find_free_basis(simple_multiarrangement(arr))
    assert verdict.is_free
    assert verdict.exponents == exponents
    assert char_poly(arr) == IntPoly.from_roots(exponents)


@pytest.mark.parametrize("n", [4, 5])
def test_cycle_graphs_are_not_free(n):
    verdict = find_free_basis(simple_multiarrangement(_graphic(n, _cycle(n))))
    assert verdict.is_not_free
    assert verdict.witness


@pytest.mark.parametrize("name", sorted(FREE))
def test_free_implies_mca_at_every_h0(name):
    # the paper's corollary: a free A has b = sigma, so sum b = sum sigma
    arr, _ = FREE[name]
    for h0 in range(arr.n_hyperplanes):
        report = compare_coefficients(arr, h0)
        sigma = tuple(s.value for s in report.table.sigma)
        assert tuple(report.table.b) == sigma, h0
        assert report.mca is True, h0


def test_four_cycle_is_tame_and_not_mca_at_every_h0():
    # rank 3, so tame: sigma <= b holds, with sigma_2 = 2 < b_2 = 3
    arr = _graphic(4, _cycle(4))
    for h0 in range(arr.n_hyperplanes):
        report = compare_coefficients(arr, h0)
        assert report.tame_arrangement.is_tame
        assert tuple(report.table.b) == (1, 3, 3, 0)
        assert tuple(s.value for s in report.table.sigma) == (1, 3, 2, 0)
        assert report.mca is False


MEMBERS = {name: arr for name, (arr, _) in FREE.items()}
MEMBERS.update((f"{n}-cycle", _graphic(n, _cycle(n))) for n in (4, 5))


@pytest.mark.parametrize("name", sorted(MEMBERS))
def test_report_round_trip_at_h0_0(name):
    # the 5-cycle leaves sigma_3 unresolved, so its report holds nulls
    report = compare_coefficients(MEMBERS[name], 0)
    assert parse_report(serialize_report(report)) == report
