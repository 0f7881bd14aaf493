"""Arrangement data types and input canonicalization.

A hyperplane through the origin is stored as the primitive integer vector of
its defining linear form with positive leading entry, which makes equality of
hyperplanes a tuple comparison.  Affine hyperplanes a.x = c store (a, c)
jointly primitive under the same sign convention.  Rational input is
scaled to integers here, once; everything downstream works on integer
rows.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch, DuplicateHyperplane, ZeroForm
from .linalg import echelon, primitive_vector
from .polynomials import signed_sum


@dataclass(frozen=True)
class CentralArrangement:
    """Finite set of distinct linear hyperplanes through the origin (ZeroForm
    on a zero form, DuplicateHyperplane on two proportional forms)."""

    dim: int
    forms: tuple  # tuple of primitive integer coefficient tuples

    def __post_init__(self):
        if self.dim < 0:
            raise DimensionMismatch("dimension must be nonnegative")
        for f in self.forms:
            if len(f) != self.dim:
                raise DimensionMismatch(
                    f"form {f} has {len(f)} coefficients, expected {self.dim}"
                )
        _distinct(map(normalize_form, self.forms))

    @property
    def n_hyperplanes(self):
        return len(self.forms)

    def rank(self):
        """Codimension of the common intersection of all hyperplanes."""
        return echelon(self.forms, self.dim).rank if self.forms else 0

    def is_essential(self):
        return self.rank() == self.dim

    def __repr__(self):
        return f"CentralArrangement(dim={self.dim}, n={len(self.forms)})"


@dataclass(frozen=True)
class AffineArrangement:
    """Finite set of distinct affine hyperplanes a.x = c (ZeroForm on a zero
    normal, DuplicateHyperplane on two proportional hyperplanes)."""

    dim: int
    hyperplanes: tuple  # tuple of (normal tuple, constant) pairs, jointly primitive

    def __post_init__(self):
        for normal, _c in self.hyperplanes:
            if len(normal) != self.dim:
                raise DimensionMismatch(
                    f"normal {normal} has {len(normal)} coefficients, expected {self.dim}"
                )
        _distinct(normalize_affine(normal, c) for normal, c in self.hyperplanes)

    @property
    def n_hyperplanes(self):
        return len(self.hyperplanes)

    def __repr__(self):
        return f"AffineArrangement(dim={self.dim}, n={len(self.hyperplanes)})"


@dataclass(frozen=True)
class Multiarrangement:
    """Central arrangement with a nonnegative multiplicity per hyperplane.

    Hyperplanes of multiplicity zero stay in the base for structural
    consistency but are invisible to every algebraic computation.
    """

    base: CentralArrangement
    mult: tuple

    def __post_init__(self):
        if len(self.mult) != self.base.n_hyperplanes:
            raise DimensionMismatch("one multiplicity per hyperplane required")
        if any(m < 0 for m in self.mult):
            raise ValueError("multiplicities must be nonnegative")

    @property
    def dim(self):
        return self.base.dim

    @property
    def total(self):
        """|m|, the degree of the defining polynomial."""
        return sum(self.mult)

    def effective(self):
        """Indices of hyperplanes with positive multiplicity."""
        return tuple(i for i, m in enumerate(self.mult) if m > 0)

    def rank(self):
        """Codimension of the intersection of the positive-multiplicity
        hyperplanes."""
        forms = [self.base.forms[i] for i in self.effective()]
        return echelon(forms, self.dim).rank if forms else 0

    def is_essential(self):
        return self.rank() == self.dim

    def __repr__(self):
        return f"Multiarrangement(dim={self.dim}, n={self.base.n_hyperplanes}, |m|={self.total})"


def normalize_form(raw):
    """Primitive integer vector with positive leading entry; ZeroForm if zero."""
    try:
        return primitive_vector(raw)
    except ValueError as exc:
        raise ZeroForm(str(exc)) from None


def canonicalize(raw_forms, dim):
    """Build a CentralArrangement from raw rational coefficient vectors.

    Scaling is quotiented out, so proportional inputs collide and raise
    DuplicateHyperplane with both offending positions.  Input order is kept,
    and each form is checked in turn, so the first bad one is reported.
    """

    def form(idx, raw):
        if len(raw) != dim:
            raise DimensionMismatch(
                f"form {idx} has {len(raw)} coefficients, expected {dim}"
            )
        return normalize_form(raw)

    return CentralArrangement(dim, _distinct(form(idx, raw) for idx, raw in enumerate(raw_forms)))


def _distinct(keys):
    """The tuple of keys, drawn one at a time; DuplicateHyperplane with both
    positions at the first key equal to an earlier one."""
    seen = {}
    for idx, key in enumerate(keys):
        if key in seen:
            raise DuplicateHyperplane(seen[key], idx)
        seen[key] = idx
    return tuple(seen)


def normalize_affine(normal, constant):
    """Jointly primitive (normal, constant) with positive leading normal entry."""
    vec = list(normal) + [constant]
    if not any(normal):
        raise ZeroForm("affine hyperplane needs a nonzero normal")
    prim = primitive_vector(vec)
    if next(v for v in prim[:-1] if v != 0) < 0:
        prim = tuple(-v for v in prim)
    return prim[:-1], prim[-1]


def multiarrangement(arrangement, mult):
    return Multiarrangement(arrangement, tuple(int(m) for m in mult))


def simple_multiarrangement(arrangement):
    """The arrangement viewed with all multiplicities equal to one."""
    return Multiarrangement(arrangement, (1,) * arrangement.n_hyperplanes)


def var_names(dim):
    if dim <= 4:
        return ("x", "y", "z", "w")[:dim]
    return tuple(f"x{i + 1}" for i in range(dim))


def form_to_string(form, names=None):
    return signed_sum(zip(form, names or var_names(len(form))))


def _essential_forms(forms, dim):
    """Integer forms rewritten in coordinates on their span.

    Returns (rank, new forms): each form's entries at the pivot columns of
    the forms' echelon, made primitive.  The canonical RREF basis of the
    span is the identity at those columns, so the entries there are
    exactly the form's coordinates in that basis.
    """
    pivots = echelon(forms, dim).pivots
    return len(pivots), tuple(normalize_form([f[p] for p in pivots]) for f in forms)


def essentialize(arr):
    """Essentialization of a central arrangement or multiarrangement.

    Returns (essential object, center_dim).  For a multiarrangement the
    multiplicity-zero hyperplanes are dropped, since the essential model only
    carries the algebraically visible part.
    """
    multi = isinstance(arr, Multiarrangement)
    base = arr.base if multi else arr
    idx = arr.effective() if multi else range(base.n_hyperplanes)
    rank, forms = _essential_forms([base.forms[i] for i in idx], arr.dim)
    if rank == arr.dim and len(forms) == base.n_hyperplanes:
        return arr, 0
    ess = CentralArrangement(rank, forms)
    if multi:
        ess = Multiarrangement(ess, tuple(arr.mult[i] for i in idx))
    return ess, arr.dim - rank
