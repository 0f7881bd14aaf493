"""Arrangement data types and input canonicalization.

A hyperplane through the origin is stored as the primitive integer vector of
its defining linear form with positive leading entry, which makes equality of
hyperplanes a tuple comparison.  Affine hyperplanes a.x = c store (a, c)
jointly primitive under the same sign convention.  Rational input is
scaled to integers here, once; everything downstream works on integer
rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import index

from .errors import DimensionMismatch, DuplicateHyperplane, ZeroForm
from .linalg import echelon, primitive_vector
from .polynomials import signed_sum


class _Value:
    """Base of the package's plain value classes.

    A subclass lists its fields in `_fields` and sets them in its own
    __init__ (a frozen one through object.__setattr__).  Two instances are
    equal when they are of the same class and their fields are equal
    (another class gives NotImplemented), and repr reads
    Name(field=value, ...).  Instances are mutable, so unhashable.
    """

    _fields = ()
    __hash__ = None

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class _Frozen(_Value):
    """A value class whose fields never change: it hashes its fields, and
    assigning or deleting an attribute raises AttributeError."""

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"{self.__class__.__qualname__} is frozen: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{self.__class__.__qualname__} is frozen: cannot delete {name!r}")


class CentralArrangement(_Frozen):
    """Finite set of distinct linear hyperplanes through the origin (ZeroForm
    on a zero form, DuplicateHyperplane on two proportional forms).

    forms: tuple of primitive integer coefficient tuples.
    """

    _fields = ("dim", "forms")

    def __init__(self, dim, forms):
        _check_dim(dim)
        for f in forms:
            if len(f) != dim:
                raise DimensionMismatch(
                    f"form {f} has {len(f)} coefficients, expected {dim}"
                )
            _require_ints(f)
        _distinct(map(normalize_form, forms))
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "forms", forms)

    @property
    def n_hyperplanes(self):
        return len(self.forms)

    def rank(self):
        """Codimension of the common intersection of all hyperplanes."""
        return echelon(self.forms).rank

    def is_essential(self):
        return self.rank() == self.dim

    def __repr__(self):
        return f"CentralArrangement(dim={self.dim}, n={len(self.forms)})"


class AffineArrangement(_Frozen):
    """Finite set of distinct affine hyperplanes a.x = c (ZeroForm on a zero
    normal, DuplicateHyperplane on two proportional hyperplanes).

    hyperplanes: tuple of (normal tuple, constant) pairs, jointly primitive.
    """

    _fields = ("dim", "hyperplanes")

    def __init__(self, dim, hyperplanes):
        _check_dim(dim)
        for normal, c in hyperplanes:
            if len(normal) != dim:
                raise DimensionMismatch(
                    f"normal {normal} has {len(normal)} coefficients, expected {dim}"
                )
            _require_ints((*normal, c))
        _distinct(normalize_affine(normal, c) for normal, c in hyperplanes)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "hyperplanes", hyperplanes)

    @property
    def n_hyperplanes(self):
        return len(self.hyperplanes)

    def __repr__(self):
        return f"AffineArrangement(dim={self.dim}, n={len(self.hyperplanes)})"


class Multiarrangement(_Frozen):
    """Central arrangement with a nonnegative multiplicity per hyperplane.

    Hyperplanes of multiplicity zero stay in the base for structural
    consistency but are invisible to every algebraic computation.
    """

    _fields = ("base", "mult")

    def __init__(self, base, mult):
        _refuse_affine(base, "a multiarrangement")
        if len(mult) != base.n_hyperplanes:
            raise DimensionMismatch("one multiplicity per hyperplane required")
        if not all(isinstance(m, int) and not isinstance(m, bool) for m in mult):
            raise TypeError(f"multiplicities {mult} must be ints")
        if any(m < 0 for m in mult):
            raise ValueError("multiplicities must be nonnegative")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "mult", mult)

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
        return echelon(forms).rank

    def is_essential(self):
        return self.rank() == self.dim

    def __repr__(self):
        return f"Multiarrangement(dim={self.dim}, n={self.base.n_hyperplanes}, |m|={self.total})"


def _refuse_affine(arr, what):
    if isinstance(arr, AffineArrangement):
        raise TypeError(f"{what} needs a central arrangement")


def _refuse_simple(multi, what):
    if not isinstance(multi, Multiarrangement):
        raise TypeError(f"{what} needs a Multiarrangement")


def _check_dim(dim):
    """TypeError unless dim is an int other than a bool, as fileio reads a
    dim; DimensionMismatch if it is negative."""
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise TypeError(f"dimension {dim!r} must be an int")
    if dim < 0:
        raise DimensionMismatch("dimension must be nonnegative")


def _count(x):
    """operator.index(x), which numpy ints pass, except that a bool is no count."""
    if isinstance(x, bool):
        raise TypeError(f"{x!r} is a bool, not a count")
    return index(x)


def _require_ints(row):
    """TypeError unless row holds only ints, no bool; rational forms enter by canonicalize."""
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in row):
        raise TypeError(f"{row} has a non-integer entry; build rational forms with canonicalize")


def _integer_row(raw):
    """A rational row times the lcm of its denominators: integers, and raw
    itself when it holds only ints.  A bool entry raises TypeError."""
    if all(type(x) is int for x in raw):
        return raw
    if any(isinstance(x, bool) for x in raw):
        raise TypeError(f"{raw} has a bool entry, not a rational number")
    fracs = [Fraction(x) for x in raw]
    denom = lcm(*(x.denominator for x in fracs))
    return [x.numerator * (denom // x.denominator) for x in fracs]


def normalize_form(raw):
    """Primitive integer vector with positive leading entry; ZeroForm if zero."""
    try:
        return primitive_vector(_integer_row(raw))
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
    if not any(normal):
        raise ZeroForm("affine hyperplane needs a nonzero normal")
    # the normal is nonzero, so primitive_vector's sign is the normal's
    prim = primitive_vector(_integer_row(list(normal) + [constant]))
    return prim[:-1], prim[-1]


def multiarrangement(arrangement, mult):
    return Multiarrangement(arrangement, tuple(map(_count, mult)))


def simple_multiarrangement(arrangement):
    """The arrangement viewed with all multiplicities equal to one."""
    return Multiarrangement(arrangement, (1,) * arrangement.n_hyperplanes)


def var_names(dim):
    if dim <= 4:
        return ("x", "y", "z", "w")[:dim]
    return tuple(f"x{i + 1}" for i in range(dim))


def form_to_string(form, names=None):
    return signed_sum(zip(form, names or var_names(len(form))))


def _essential_forms(forms):
    """Integer forms rewritten in coordinates on their span.

    Returns (rank, new forms): each form's entries at the pivot columns of
    the forms' echelon, made primitive.  The canonical RREF basis of the
    span is the identity at those columns, so the entries there are
    exactly the form's coordinates in that basis.
    """
    pivots = echelon(forms).pivots
    return len(pivots), tuple(normalize_form([f[p] for p in pivots]) for f in forms)


def essentialize(arr):
    """Essentialization of a central arrangement or multiarrangement.

    Returns (essential object, center_dim).  For a multiarrangement the
    multiplicity-zero hyperplanes are dropped, since the essential model only
    carries the algebraically visible part.
    """
    _refuse_affine(arr, "essentialization")
    multi = isinstance(arr, Multiarrangement)
    base = arr.base if multi else arr
    idx = arr.effective() if multi else range(base.n_hyperplanes)
    rank, forms = _essential_forms([base.forms[i] for i in idx])
    if rank == arr.dim and len(forms) == base.n_hyperplanes:
        return arr, 0
    ess = CentralArrangement(rank, forms)
    if multi:
        ess = Multiarrangement(ess, tuple(arr.mult[i] for i in idx))
    return ess, arr.dim - rank
