"""Deconing, Ziegler restriction, localization and the lattice map rho.

Coordinate conventions, fixed once so results are reproducible: with j the
pivot position of alpha = alpha_{h0}, both decone(A, h0) (on the chart
{alpha = 1}) and ziegler_restriction(A, h0) (on H0 = ker alpha) keep the
positions i != j, in order, as coordinates.  Eliminating x_j turns a
hyperplane beta into the integer normal alpha_j*beta_i - alpha_i*beta_j,
with the constant -beta_j on the chart.

The per-flat decomposition needs only L(A), because a flat is identified
by its hyperplane set (its lattice mask):

* the flats of the deconing are the flats X of L(A) not inside H0, with
  the same Moebius values (every flat containing such an X is not inside
  H0 either);
* L(A'') is the part of L(A) inside H0, one codimension lower.  Its
  hyperplanes are the codimension-2 flats Z inside H0, in order of their
  first hyperplane other than h0, and a flat inside H0 lies on Z exactly
  when mask(Z) is inside its mask;
* rho(X) = X cap H0 is the flat one level up whose mask holds h0 and X's.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .core import (
    AffineArrangement,
    CentralArrangement,
    Multiarrangement,
    _essential_forms,
    normalize_affine,
    normalize_form,
)
from .errors import FlatNotInLattice, IndexOutOfRange, TheoremViolation, WrongRank
from .lattice import _lattice, hyperplane_rows, intersection_lattice, reduced_char_poly


def _check_index(arr, h0):
    if not isinstance(h0, int) or not 0 <= h0 < arr.n_hyperplanes:
        raise IndexOutOfRange(
            f"hyperplane index {h0} outside 0..{arr.n_hyperplanes - 1}"
        )


def _pivot(form):
    return next(i for i, c in enumerate(form) if c != 0)


def _traces(arr, h0):
    """Integer normals of the other hyperplanes' traces on H0, in order.

    With j the pivot position of alpha = alpha_{h0}, hyperplane beta gives
    (alpha_j*beta_i - alpha_i*beta_j for i != j, beta_j).
    """
    _check_index(arr, h0)
    alpha = arr.forms[h0]
    j = _pivot(alpha)
    kept = [i for i in range(arr.dim) if i != j]
    return [
        ([alpha[j] * beta[i] - alpha[i] * beta[j] for i in kept], beta[j])
        for h, beta in enumerate(arr.forms)
        if h != h0
    ]


def decone(arr, h0):
    """Affine arrangement cut out on the chart {alpha_{h0} = 1}."""
    return AffineArrangement(
        arr.dim - 1,
        tuple(normalize_affine(normal, -bj) for normal, bj in _traces(arr, h0)),
    )


def ziegler_restriction(arr, h0):
    """Restriction onto H0 with multiplicity the number of colliding hyperplanes."""
    traces = _traces(arr, h0)
    if arr.dim < 2:
        raise WrongRank("Ziegler restriction needs ambient dimension at least 2")
    mult = Counter(normalize_form(normal) for normal, _ in traces)  # in first-seen order
    base = CentralArrangement(arr.dim - 1, tuple(mult))
    return Multiarrangement(base, tuple(mult.values()))


def localize_and_essentialize(multi, flat):
    """Essentialization of the localization (A_X, m_X) at a flat X of the
    intersection lattice of multi.base (FlatNotInLattice for any other)."""
    if flat.rows != hyperplane_rows(multi.base):
        raise FlatNotInLattice("not a flat of the arrangement's intersection lattice")
    idx = [i for i in sorted(flat.contained) if multi.mult[i] > 0]
    rank, forms = _essential_forms([multi.base.forms[i] for i in idx], multi.dim)
    return Multiarrangement(
        CentralArrangement(rank, forms), tuple(multi.mult[i] for i in idx)
    )


def _restriction_lattice(lattice, h0, restriction):
    """(L(A''), rho) read off L(A) as the module docstring says; rho maps the
    mask of each flat of L(A) not inside H0 to a flat of L(A'')."""
    bit = 1 << h0
    inside = {}  # codim in L(A) -> masks of the flats inside H0
    for flat, mask in zip(lattice.flats, lattice.masks):
        if mask & bit:
            inside.setdefault(flat.codim, []).append(mask)
    # A'' in ziegler_restriction's order: by the first hyperplane other than h0
    traces = sorted(inside.get(2, ()), key=lambda z: (z ^ bit) & -(z ^ bit))
    keyed = sorted(
        (codim - 1, sum(1 << i for i, z in enumerate(traces) if z & y == z), y)
        for codim, ys in inside.items()
        for y in ys
    )
    rows = hyperplane_rows(restriction.base)
    sub = _lattice(lattice.ambient_dim - 1, [k[:2] for k in keyed], rows)
    by_parent = {k[2]: f for k, f in zip(keyed, sub.flats)}
    image = {}
    for flat, mask in zip(lattice.flats, lattice.masks):
        if mask & bit:
            continue
        want = mask | bit
        meet = next((y for y in inside.get(flat.codim + 1, ()) if y & want == want), None)
        if meet is None:
            raise TheoremViolation("no flat one level up meets H0; this is a bug")
        image[mask] = by_parent[meet]
    return sub, image


def rho(arr, h0, flat, dA_lattice=None):
    """The codimension-preserving map L(dA) -> L(A'').

    A flat Y of the deconing lies on the hyperplanes of arr that contain
    the flat X of L(A) with Y = X cap {alpha_{h0} = 1}, and maps to
    X cap H0.  Each call builds L(A), which L(A'') is read off; pass the
    lattice of decone(arr, h0) to skip building that one as well.
    """
    lat = dA_lattice if dA_lattice is not None else intersection_lattice(decone(arr, h0))
    # hyperplane k of the deconing is hyperplane k (k < h0) or k + 1 of arr
    mask = sum(1 << (k + (k >= h0)) for k in lat.lookup(flat).contained)
    zr = ziegler_restriction(arr, h0)
    return _restriction_lattice(intersection_lattice(arr), h0, zr)[1][mask]


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


def b_coefficients(arr, h0, lattice=None, chi0=None):
    """b-vector of A plus its decomposition over flats of A'' through rho.

    b_i^X sums |mu(Y)| over the flats Y of L(A) not inside H0 (the flats
    of the deconing, with the same Moebius values) with rho(Y) = X.
    TheoremViolation is raised unless sum_X b_i^X = b_i.  Pass the
    intersection lattice of arr and its reduced characteristic polynomial
    to reuse them.
    """
    if arr.dim < 2:
        raise WrongRank("coefficient comparison needs ambient dimension at least 2")
    lat = lattice if lattice is not None else intersection_lattice(arr)
    if chi0 is None:
        chi0 = reduced_char_poly(arr, lat)
    return _b_table(chi0, lat, h0, ziegler_restriction(arr, h0))[0]


def _b_vector(chi0, ell):
    """(b_0, ..., b_{l-1}): the absolute coefficients of chi0, from t**(l-1)
    down."""
    return tuple(abs(chi0.coefficient(ell - 1 - i)) for i in range(ell))


def _b_table(chi0, lattice, h0, restriction):
    """(the CoefficientTable of b_coefficients, L(A'')), from chi0 and L(A)."""
    sub, image = _restriction_lattice(lattice, h0, restriction)
    ell = lattice.ambient_dim
    b = _b_vector(chi0, ell)
    per = {}
    for mask, mu in zip(lattice.masks, lattice.moebius):
        if mask in image:
            per[image[mask]] = per.get(image[mask], 0) + abs(mu)
    if tuple(sum(v for x, v in per.items() if x.codim == i) for i in range(ell)) != b:
        raise TheoremViolation("per-flat b decomposition disagrees with chi0")
    table = {x: {"b": v, "sigma": None} for x, v in per.items()}
    return CoefficientTable(b=b, sigma=None, per_flat=table), sub
