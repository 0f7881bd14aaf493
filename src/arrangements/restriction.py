"""Deconing, Ziegler restriction, localization and the lattice map rho.

Both dA = decone(A, h0) (on the chart {alpha = 1}, alpha = alpha_{h0}) and
A'' = ziegler_restriction(A, h0) (on H0 = ker alpha) come from the
lattice's restriction step, onto the row (alpha, -1) and onto (alpha, 0):
the pivot x_j of alpha is eliminated, which turns a hyperplane beta into
the integer normal alpha_j*beta_i - alpha_i*beta_j, with the constant
-beta_j on the chart.  Coordinate conventions, fixed once so results are
reproducible: both keep the positions i != j, in order, as coordinates.
Both list their hyperplanes by the lowest bit of their masks, which is
their first hyperplane of A other than h0 (_onto sorts on it): dA follows
A, and a hyperplane of A'' has the size of its mask as multiplicity.

The per-flat decomposition needs only L(A), because a flat is identified
by its hyperplane set (its lattice mask):

* the flats of the deconing are the flats X of L(A) not inside H0, with
  the same Moebius values (every flat containing such an X is not inside
  H0 either), which the lattice's walk found by Weisner's rule;
* the flats of L(A'') are the part of L(A) inside H0, one codimension
  lower.  The hyperplanes of A'' are the codimension-2 flats Z inside H0,
  in order of their first hyperplane other than h0, and a flat inside H0 lies
  on Z exactly when mask(Z) is inside its mask.  Only the flats are read
  off: no caller needs Moebius values of L(A'');
* the b of a flat X of L(A'') is |mu(X')| for its parent flat X' in L(A).
  It sums |mu(Y)| over the flats Y of the deconing with rho(Y) = X: the Y
  off H0 with Y v H0 = X', which are the flats that X' covers off H0.
  Weisner's theorem at the atom H0 sums their mu to -mu(X'), and they
  share one sign, so their |mu| sum to |mu(X')|.

rho(Y) = Y cap H0, the public map, builds no lattice.  It walks the same
restriction step from A, each time onto a key holding a hyperplane of Y not
yet reached: the walk reaches the flat of L(A) on Y's hyperplanes in
codim(Y) steps exactly when Y is a flat of the deconing, and one step more,
onto the key holding h0, reaches Y cap H0, on the hyperplanes of A'' whose
masks lie inside its mask.
"""

from __future__ import annotations

from .core import (AffineArrangement, CentralArrangement, Multiarrangement, _Value, _refuse_affine,
                   _refuse_simple, essentialize)
from .errors import FlatNotInLattice, IndexOutOfRange, TheoremViolation, WrongRank
from .lattice import Flat, _chi0_walk, _keys, _member, _restrict, hyperplane_rows
from .linalg import _pivot_col


def _check_index(arr, h0):
    _refuse_affine(arr, "an (A, h0) pair")
    n = arr.n_hyperplanes
    if isinstance(h0, bool) or not isinstance(h0, int) or not 0 <= h0 < n:
        where = f" outside 0..{n - 1}" if n else ": the arrangement has no hyperplanes"
        raise IndexOutOfRange(f"hyperplane index {h0}{where}")


def _onto(arr, h0, constant):
    """(j, the restriction of A onto the row alpha_{h0} + (constant,)), with j
    the pivot position of alpha; every key is zero at j, in lowest-bit order."""
    target = tuple(arr.forms[h0]) + (constant,)
    kept = _restrict(_keys(hyperplane_rows(arr)), target)
    return _pivot_col(target), dict(sorted(kept.items(), key=lambda kv: kv[1] & -kv[1]))


def decone(arr, h0):
    """Affine arrangement cut out on the chart {alpha_{h0} = 1}."""
    _check_index(arr, h0)
    j, kept = _onto(arr, h0, -1)
    return AffineArrangement(
        arr.dim - 1, tuple((row[:j] + row[j + 1 : -1], -row[-1]) for row in kept)
    )


def ziegler_restriction(arr, h0):
    """Restriction onto H0 with multiplicity the number of colliding
    hyperplanes; the one check of an (A, h0) pair, index first."""
    _check_index(arr, h0)
    if arr.dim < 2:
        raise WrongRank("Ziegler restriction needs ambient dimension at least 2")
    j, kept = _onto(arr, h0, 0)
    base = CentralArrangement(arr.dim - 1, tuple(row[:j] + row[j + 1 : -1] for row in kept))
    return Multiarrangement(base, tuple(bits.bit_count() for bits in kept.values()))


def localize_and_essentialize(multi, flat):
    """Essentialization of the localization (A_X, m_X) at a flat X of the
    intersection lattice of multi.base (FlatNotInLattice for any other)."""
    _refuse_simple(multi, "localization")
    if not _member(flat, hyperplane_rows(multi.base)):
        raise FlatNotInLattice("not a flat of the arrangement's intersection lattice")
    mult = tuple(m if flat.mask >> i & 1 else 0 for i, m in enumerate(multi.mult))
    return essentialize(Multiarrangement(multi.base, mult))[0]


def _restriction_flats(keys, h0, restriction):
    """(the flats of L(A''), parents) read off the (codim, mask) keys of
    L(A) as the module docstring says: the flats in (codim, mask) order, and
    parents holding the mask in L(A) of each flat, in the same order."""
    bit = 1 << h0
    inside = [(c, m) for c, m in keys if m & bit]
    # A'' in ziegler_restriction's order: by the first hyperplane other than h0
    traces = sorted((z for c, z in inside if c == 2), key=lambda z: (z ^ bit) & -(z ^ bit))
    keyed = sorted(
        (c - 1, sum(1 << i for i, z in enumerate(traces) if z & y == z), y) for c, y in inside
    )
    rows = hyperplane_rows(restriction.base)
    return tuple(Flat(c, m, rows) for c, m, _ in keyed), tuple(y for _, _, y in keyed)


def rho(arr, h0, flat):
    """The codimension-preserving map L(dA) -> L(A''), Y -> Y cap H0, by the
    restriction walk of the module docstring; FlatNotInLattice for a Y that
    is no flat of decone(arr, h0)."""
    restriction = ziegler_restriction(arr, h0)
    member = _member(flat, hyperplane_rows(decone(arr, h0)))
    # hyperplane k of the deconing is k (k < h0) or k + 1 of arr: shift bits >= h0;
    # a non-member walks nowhere
    want = flat.mask + (flat.mask >> h0 << h0) if member else 0
    mask, steps, keys = 0, 0, _keys(hyperplane_rows(arr))
    while row := next((row for row, bits in keys.items() if bits & want), None):
        mask, steps, keys = mask | keys[row], steps + 1, _restrict(keys, row)
    if not member or (mask, steps) != (want, flat.codim):
        raise FlatNotInLattice(f"not a flat of the deconing's lattice: {flat}")
    mask |= next(bits for bits in keys.values() if bits >> h0 & 1)
    kept = _onto(arr, h0, 0)[1].values()
    image = sum(1 << i for i, bits in enumerate(kept) if bits & mask == bits)
    return Flat(flat.codim, image, hyperplane_rows(restriction.base))


class CoefficientTable(_Value):
    """b- and sigma-coefficient vectors with their per-flat decomposition.

    b[i] is the absolute coefficient of t**(l-1-i) in the reduced
    characteristic polynomial; sigma is filled by the criteria layer (None
    until then).  per_flat maps flats of the Ziegler restriction to
    {"b": int, "sigma": int | None}.
    """

    _fields = ("b", "sigma", "per_flat")

    def __init__(self, b, sigma=None, per_flat=None):
        self.b = b
        self.sigma = sigma
        self.per_flat = {} if per_flat is None else per_flat


def b_coefficients(arr, h0):
    """b-vector of A plus its decomposition over flats of A'' through rho.

    b_i^X sums |mu(Y)| over the flats Y of L(A) not inside H0 (the flats
    of the deconing, with the same Moebius values) with rho(Y) = X, which
    is |mu(X')| for the parent flat X' of X in L(A) (module docstring).
    TheoremViolation is raised unless sum_X b_i^X = b_i.
    """
    return _b_table(arr, h0, ziegler_restriction(arr, h0))[0]


def _b_vector(chi0, ell):
    """(b_0, ..., b_{l-1}): the absolute coefficients of chi0, from t**(l-1)
    down."""
    return tuple(abs(chi0.coefficient(ell - 1 - i)) for i in range(ell))


def _b_table(arr, h0, restriction):
    """(the CoefficientTable of b_coefficients, chi0), from one walk of A;
    the table's per_flat keys are the flats of L(A''), in order."""
    chi0, keys, mu = _chi0_walk(arr)
    flats, parents = _restriction_flats(keys, h0, restriction)
    ell = arr.dim
    b = _b_vector(chi0, ell)
    table = {x: {"b": abs(mu[y]), "sigma": None} for x, y in zip(flats, parents)}
    if tuple(sum(c["b"] for x, c in table.items() if x.codim == i) for i in range(ell)) != b:
        raise TheoremViolation("per-flat b decomposition disagrees with chi0")
    return CoefficientTable(b=b, sigma=None, per_flat=table), chi0
