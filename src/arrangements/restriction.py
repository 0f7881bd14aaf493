"""Deconing, Ziegler restriction, localization and the lattice map rho.

Both dA = decone(A, h0) (on the chart {alpha = 1}, alpha = alpha_{h0}) and
A'' = ziegler_restriction(A, h0) (on H0 = ker alpha) come from the
lattice's restriction step, onto the row (alpha, -1) and onto (alpha, 0):
the pivot x_j of alpha is eliminated, which turns a hyperplane beta into
the integer normal alpha_j*beta_i - alpha_i*beta_j, with the constant
-beta_j on the chart.  Coordinate conventions, fixed once so results are
reproducible: both keep the positions i != j, in order, as coordinates.
The hyperplanes of dA follow those of A; those of A'' come in order of
their first hyperplane of A other than h0, with multiplicity the number
of hyperplanes of A restricting to them.

The per-flat decomposition needs only L(A), because a flat is identified
by its hyperplane set (its lattice mask):

* the flats of the deconing are the flats X of L(A) not inside H0, with
  the same Moebius values (every flat containing such an X is not inside
  H0 either), which intersection_lattice found by Weisner's rule;
* the flats of L(A'') are the part of L(A) inside H0, one codimension
  lower.  The hyperplanes of A'' are the codimension-2 flats Z inside H0,
  in order of their first hyperplane other than h0, and a flat inside H0 lies
  on Z exactly when mask(Z) is inside its mask.  Only the flats are read
  off: no caller needs Moebius values of L(A'');
* rho(X) = X cap H0 is the flat one level up whose mask holds h0 and X's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import AffineArrangement, CentralArrangement, Multiarrangement, _essential_forms
from .errors import FlatNotInLattice, IndexOutOfRange, TheoremViolation, WrongRank
from .lattice import (Flat, _member, _restrict, hyperplane_rows, intersection_lattice,
                      reduced_char_poly)
from .linalg import _pivot_col


def _check_index(arr, h0):
    n = arr.n_hyperplanes
    if not isinstance(h0, int) or not 0 <= h0 < n:
        where = f" outside 0..{n - 1}" if n else ": the arrangement has no hyperplanes"
        raise IndexOutOfRange(f"hyperplane index {h0}{where}")


def _onto(arr, h0, constant):
    """(j, the restriction of A onto the row alpha_{h0} + (constant,)), with j
    the pivot position of alpha; every key is zero at j."""
    keys = _restrict((row, 1 << h) for h, row in enumerate(hyperplane_rows(arr)))
    target = tuple(arr.forms[h0]) + (constant,)
    return _pivot_col(target), _restrict(keys.items(), target)


def decone(arr, h0):
    """Affine arrangement cut out on the chart {alpha_{h0} = 1}."""
    _check_index(arr, h0)
    j, kept = _onto(arr, h0, -1)
    return AffineArrangement(
        arr.dim - 1, tuple((row[:j] + row[j + 1 : -1], -row[-1]) for row in kept)
    )


def ziegler_restriction(arr, h0):
    """Restriction onto H0 with multiplicity the number of colliding hyperplanes."""
    _check_index(arr, h0)
    if arr.dim < 2:
        raise WrongRank("Ziegler restriction needs ambient dimension at least 2")
    j, kept = _onto(arr, h0, 0)
    base = CentralArrangement(arr.dim - 1, tuple(row[:j] + row[j + 1 : -1] for row in kept))
    return Multiarrangement(base, tuple(bits.bit_count() for bits in kept.values()))


def localize_and_essentialize(multi, flat):
    """Essentialization of the localization (A_X, m_X) at a flat X of the
    intersection lattice of multi.base (FlatNotInLattice for any other)."""
    if not _member(flat, hyperplane_rows(multi.base)):
        raise FlatNotInLattice("not a flat of the arrangement's intersection lattice")
    idx = [i for i, m in enumerate(multi.mult) if m > 0 and flat.mask >> i & 1]
    rank, forms = _essential_forms([multi.base.forms[i] for i in idx], multi.dim)
    return Multiarrangement(
        CentralArrangement(rank, forms), tuple(multi.mult[i] for i in idx)
    )


def _restriction_flats(lattice, h0, restriction):
    """(the flats of L(A''), rho) read off L(A) as the module docstring says:
    the flats in (codim, mask) order, and rho mapping the mask of each flat
    of L(A) not inside H0 to one of them."""
    bit = 1 << h0
    inside = {}  # codim in L(A) -> masks of the flats inside H0
    for flat in lattice.flats:
        if flat.mask & bit:
            inside.setdefault(flat.codim, []).append(flat.mask)
    # A'' in ziegler_restriction's order: by the first hyperplane other than h0
    traces = sorted(inside.get(2, ()), key=lambda z: (z ^ bit) & -(z ^ bit))
    keyed = sorted(
        (codim - 1, sum(1 << i for i, z in enumerate(traces) if z & y == z), y)
        for codim, ys in inside.items()
        for y in ys
    )
    rows = hyperplane_rows(restriction.base)
    flats = tuple(Flat(c, m, rows) for c, m, _ in keyed)
    by_parent = {k[2]: f for k, f in zip(keyed, flats)}
    image = {}
    for flat in lattice.flats:
        if not flat.mask & bit:
            want = flat.mask | bit
            meet = next((y for y in inside.get(flat.codim + 1, ()) if y & want == want), None)
            if meet is None:
                raise TheoremViolation("no flat one level up meets H0; this is a bug")
            image[flat.mask] = by_parent[meet]
    return flats, image


def rho(arr, h0, flat, dA_lattice=None):
    """The codimension-preserving map L(dA) -> L(A'').

    A flat Y of the deconing lies on the hyperplanes of arr that contain
    the flat X of L(A) with Y = X cap {alpha_{h0} = 1}, and maps to
    X cap H0.  Each call builds L(A), which L(A'') is read off; pass the
    lattice of decone(arr, h0) to skip building that one as well.
    """
    lat = dA_lattice if dA_lattice is not None else intersection_lattice(decone(arr, h0))
    # hyperplane k of the deconing is k (k < h0) or k + 1 of arr: shift bits >= h0
    mask = lat.lookup(flat).mask
    mask += mask >> h0 << h0
    zr = ziegler_restriction(arr, h0)
    return _restriction_flats(intersection_lattice(arr), h0, zr)[1][mask]


@dataclass
class CoefficientTable:
    """b- and sigma-coefficient vectors with their per-flat decomposition.

    b[i] is the absolute coefficient of t**(l-1-i) in the reduced
    characteristic polynomial; sigma is filled by the criteria layer (None
    until then).  per_flat maps flats of the Ziegler restriction to
    {"b": int, "sigma": int | None}.
    """

    b: tuple
    sigma: tuple | None = None
    per_flat: dict = field(default_factory=dict)


def b_coefficients(arr, h0):
    """b-vector of A plus its decomposition over flats of A'' through rho.

    b_i^X sums |mu(Y)| over the flats Y of L(A) not inside H0 (the flats
    of the deconing, with the same Moebius values) with rho(Y) = X.
    TheoremViolation is raised unless sum_X b_i^X = b_i.
    """
    if arr.dim < 2:
        raise WrongRank("coefficient comparison needs ambient dimension at least 2")
    lat = intersection_lattice(arr)
    return _b_table(reduced_char_poly(arr, lat), lat, h0, ziegler_restriction(arr, h0))[0]


def _b_vector(chi0, ell):
    """(b_0, ..., b_{l-1}): the absolute coefficients of chi0, from t**(l-1)
    down."""
    return tuple(abs(chi0.coefficient(ell - 1 - i)) for i in range(ell))


def _b_table(chi0, lattice, h0, restriction):
    """(the CoefficientTable of b_coefficients, the flats of L(A'')), from
    chi0 and L(A)."""
    flats, image = _restriction_flats(lattice, h0, restriction)
    ell = lattice.ambient_dim
    b = _b_vector(chi0, ell)
    per = {}
    for flat, mu in zip(lattice.flats, lattice.moebius):
        x = image.get(flat.mask)
        if x is not None:
            per[x] = per.get(x, 0) + abs(mu)
    if tuple(sum(v for x, v in per.items() if x.codim == i) for i in range(ell)) != b:
        raise TheoremViolation("per-flat b decomposition disagrees with chi0")
    table = {x: {"b": v, "sigma": None} for x, v in per.items()}
    return CoefficientTable(b=b, sigma=None, per_flat=table), flats
