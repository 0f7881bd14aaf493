"""Deconing, Ziegler restriction, localization and the lattice map rho.

Coordinate conventions, fixed once so results are reproducible:

* decone(A, h0) works in the chart {alpha_0 = 1}.  With j the pivot position
  of alpha_0, the chart coordinates are y_k = x_{i_k} for the positions
  i_1 < ... < i_{l-1} different from j.
* ziegler_restriction(A, h0) uses the same positions as coordinates on
  H0 = ker(alpha_0), via the kernel basis v_i = e_i - (alpha_i/alpha_j) e_j.

Because both charts use the identical coordinate positions, the direction
space of an affine flat of the deconed arrangement is read off by simply
dropping the constant terms of its equations; that is the map rho.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .core import (
    AffineArrangement,
    CentralArrangement,
    Multiarrangement,
    _EssentialMap,
    normalize_affine,
    normalize_form,
)
from .errors import FlatNotInLattice, IndexOutOfRange, TheoremViolation, WrongRank
from .lattice import Flat, intersection_lattice, reduced_char_poly
from .linalg import echelon, inverse, vec_mat


def _check_index(arr, h0):
    if not isinstance(h0, int) or not 0 <= h0 < arr.n_hyperplanes:
        raise IndexOutOfRange(
            f"hyperplane index {h0} outside 0..{arr.n_hyperplanes - 1}"
        )


def _pivot(form):
    return next(i for i, c in enumerate(form) if c != 0)


def decone(arr, h0):
    """Affine arrangement cut out on the chart {alpha_{h0} = 1}."""
    _check_index(arr, h0)
    ell = arr.dim
    alpha = arr.forms[h0]
    j = _pivot(alpha)
    kept = [i for i in range(ell) if i != j]
    # change of coordinates y = T x with y_k the kept positions, y_l = alpha(x)
    rows = [[Fraction(1) if c == i else Fraction(0) for c in range(ell)] for i in kept]
    rows.append([Fraction(c) for c in alpha])
    tinv = inverse(rows)
    out = []
    for h, form in enumerate(arr.forms):
        if h == h0:
            continue
        beta = vec_mat(form, tinv)
        out.append(normalize_affine(beta[:-1], -beta[-1]))
    return AffineArrangement(ell - 1, tuple(out))


def ziegler_restriction(arr, h0):
    """Restriction onto H0 with multiplicity the number of colliding hyperplanes."""
    _check_index(arr, h0)
    ell = arr.dim
    if ell < 2:
        raise WrongRank("Ziegler restriction needs ambient dimension at least 2")
    alpha = arr.forms[h0]
    j = _pivot(alpha)
    kept = [i for i in range(ell) if i != j]
    aj = alpha[j]
    order = []
    mult = {}
    for h, form in enumerate(arr.forms):
        if h == h0:
            continue
        gamma = [Fraction(form[i]) - Fraction(alpha[i] * form[j], aj) for i in kept]
        restricted = normalize_form(gamma)
        if restricted not in mult:
            order.append(restricted)
            mult[restricted] = 0
        mult[restricted] += 1
    base = CentralArrangement(ell - 1, tuple(order))
    return Multiarrangement(base, tuple(mult[f] for f in order))


def flat_contains(outer, inner):
    """True iff the flat `outer` contains the flat `inner` as a point set.

    Works for central and affine flats alike: outer >= inner exactly when
    every defining equation of outer lies in the span of inner's equations.
    """
    if not outer.equations:
        return True
    ncols = len(outer.equations[0])
    span = echelon(inner.equations, ncols)
    return all(span.contains(r) for r in outer.equations)


def localize_and_essentialize(multi, flat):
    """Essentialization of the localization (A_X, m_X) at a central flat X."""
    dim = multi.dim
    for r in flat.equations:
        if len(r) != dim + 1:
            raise FlatNotInLattice("flat equations do not match the ambient dimension")
        if r[dim] != 0:
            raise FlatNotInLattice("localization needs a central flat")
    span = echelon([r[:dim] for r in flat.equations], dim)
    if span.rank != flat.codim:
        raise FlatNotInLattice("equation rank differs from the stated codimension")
    through = [i for i in range(multi.base.n_hyperplanes)
               if span.contains(multi.base.forms[i])]
    if echelon([multi.base.forms[i] for i in through], dim).rank != flat.codim:
        raise FlatNotInLattice(
            "flat is not an intersection of hyperplanes of the arrangement"
        )
    idx = [i for i in through if multi.mult[i] > 0]
    forms = [multi.base.forms[i] for i in idx]
    emap = _EssentialMap(forms, dim)
    new_forms = tuple(normalize_form(emap.push_form(f)) for f in forms)
    base = CentralArrangement(emap.rank, new_forms)
    return Multiarrangement(base, tuple(multi.mult[i] for i in idx))


def _direction_flat(flat, restriction):
    """Flat of the Ziegler restriction spanned by the directions of an
    affine flat of the deconed arrangement (shared-coordinate convention)."""
    amb = restriction.dim
    rows = [r[:-1] + (Fraction(0),) for r in flat.equations]
    ech = echelon(rows, amb + 1)
    key = ech.rref()
    contained = frozenset(
        i for i, f in enumerate(restriction.base.forms)
        if ech.contains(tuple(f) + (0,))
    )
    image = Flat(key, len(key), contained)
    if image.codim != flat.codim:
        raise TheoremViolation("direction space dropped rank; this is a bug")
    return image


def rho(arr, h0, flat, dA_lattice=None):
    """The codimension-preserving map L(dA) -> L(A'').

    Pass the lattice of decone(arr, h0) to skip revalidation when mapping
    many flats of the same arrangement.
    """
    restriction = ziegler_restriction(arr, h0)
    lat = dA_lattice if dA_lattice is not None else intersection_lattice(decone(arr, h0))
    return _direction_flat(lat.lookup(flat), restriction)


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


def b_coefficients(arr, h0, restriction=None):
    """b-vector of A plus its decomposition over flats of A'' through rho.

    b_i^X sums |mu(Y)| over the flats Y of the deconed arrangement with
    rho(Y) = X.  The identity sum_X b_i^X = b_i ties the two pipelines
    (lattice of A versus lattice of dA) together; TheoremViolation is
    raised if it fails.  Pass ziegler_restriction(arr, h0) to reuse it.
    """
    ell = arr.dim
    if ell < 2:
        raise WrongRank("coefficient comparison needs ambient dimension at least 2")
    chi0 = reduced_char_poly(arr)
    b = tuple(abs(chi0.coefficient(ell - 1 - i)) for i in range(ell))
    if restriction is None:
        restriction = ziegler_restriction(arr, h0)
    lat = intersection_lattice(decone(arr, h0))
    per = {}
    for flat, mu in zip(lat.flats, lat.moebius):
        image = _direction_flat(flat, restriction)
        per[image] = per.get(image, 0) + abs(mu)
    sums = [0] * ell
    for image, val in per.items():
        sums[image.codim] += val
    if tuple(sums) != b:
        raise TheoremViolation("per-flat b decomposition disagrees with chi0")
    table = {x: {"b": v, "sigma": None} for x, v in per.items()}
    return CoefficientTable(b=b, sigma=None, per_flat=table)
