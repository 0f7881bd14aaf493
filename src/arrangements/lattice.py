"""Intersection lattices, Moebius values and characteristic polynomials.

A nonempty flat is the intersection of the hyperplanes that contain it, so
the set of those hyperplanes, an int bitmask, identifies it for central and
affine arrangements alike: flats compare and hash on it, and lattices index
them by it.  The lattice is built level by level on integer rows: the flats
of codimension k+1 are the covers of the codimension-k flats X, one per
class of hyperplanes not containing X whose rows, reduced against X's
echelon, are proportional; the class is the cover's new hyperplane set.  A
reduced row that is a nonzero constant means X cap H is empty (H is
parallel to X).  Every flat arises this way, so the 2**n subset
enumeration is never needed, and Moebius values are read off the masks.

Flats are ordered by (codimension, mask).  A flat's equations (the
canonical RREF of its hyperplanes' rows over exact rationals, each row of
length dim+1 reading sum(row[i] * x_i) + row[dim] = 0) are computed on
first use: only output and the check of a looked-up flat read them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .core import AffineArrangement, CentralArrangement
from .errors import FlatNotInLattice, NonzeroRemainder
from .linalg import _Echelon, _pivot_col, echelon
from .polynomials import IntPoly


@dataclass(frozen=True, init=False)
class Flat:
    """A nonempty intersection of hyperplanes, identified by its hyperplane set.

    codim: codimension; contained: indices of all hyperplanes of the
    ambient arrangement that vanish on the flat; equality and hashing read
    these two only.  rows: the integer rows of every hyperplane of the
    ambient arrangement, shared by the flats of one lattice (None for a
    flat built from its equations).  equations: canonical RREF rows
    (Fraction tuples of length dim+1), computed from rows on first use.
    """

    codim: int
    contained: frozenset

    def __init__(self, equations, codim, contained, rows=None):
        # frozen: set attributes the way cached_property sets equations
        self.__dict__.update(codim=codim, contained=frozenset(contained), rows=rows)
        if equations is not None:
            self.__dict__["equations"] = equations

    @cached_property
    def equations(self):
        own = [self.rows[j] for j in self.contained]
        return echelon(own, len(self.rows[0]) if own else 0).rref()


def hyperplane_rows(arr):
    """Augmented equation rows of an arrangement's hyperplanes."""
    if isinstance(arr, CentralArrangement):
        return [tuple(f) + (0,) for f in arr.forms]
    return [tuple(normal) + (-c,) for normal, c in arr.hyperplanes]


@dataclass
class IntersectionLattice:
    """All flats of an arrangement, with Moebius values.

    flats are ordered by codimension, then by mask, the int bitmask of the
    hyperplanes containing the flat (bit j for hyperplane j); moebius and
    masks are parallel to flats.  The partial order is reverse inclusion:
    X <= Y means X contains Y, which is equivalent to mask(X) being a
    subset of mask(Y).
    """

    ambient_dim: int
    flats: tuple
    moebius: tuple
    masks: tuple

    def level(self, codim):
        return [f for f in self.flats if f.codim == codim]

    def level_sizes(self):
        sizes = {}
        for f in self.flats:
            sizes[f.codim] = sizes.get(f.codim, 0) + 1
        return sizes

    @cached_property
    def _index(self):
        return {m: i for i, m in enumerate(self.masks)}

    def index_of(self, flat):
        """Position of the flat with flat's hyperplane set and equations, or None."""
        i = self._index.get(sum(1 << j for j in flat.contained))
        if i is None or (self.flats[i] is not flat and self.flats[i].equations != flat.equations):
            return None
        return i

    def lookup(self, flat):
        i = self.index_of(flat)
        if i is None:
            raise FlatNotInLattice(f"no flat with these hyperplanes and equations: {flat}")
        return self.flats[i]

    def moebius_of(self, flat):
        return self.moebius[self.index_of(self.lookup(flat))]

    @property
    def rank(self):
        return max(f.codim for f in self.flats)


def intersection_lattice(arr):
    """Enumerate all flats and fill Moebius values by the defining recursion."""
    dim = arr.dim
    rows = hyperplane_rows(arr)
    n = len(rows)

    found = {0: _Echelon(dim + 1)}  # hyperplane mask -> integer echelon
    current = found
    while current:
        nxt = {}
        for mask, ech in current.items():
            # hyperplanes off X with proportional reduced rows meet X in
            # the same cover, so each cover is built once from X
            covers = {}
            for j in range(n):
                if not mask >> j & 1:
                    red = ech.reduce(rows[j])
                    if red[_pivot_col(red)] < 0:
                        red = [-v for v in red]
                    key = tuple(red)
                    covers[key] = covers.get(key, 0) | 1 << j
            for red, bits in covers.items():
                if _pivot_col(red) == dim:
                    continue  # X cap H is empty
                cover = mask | bits
                if cover not in nxt:
                    nxt[cover] = ech.with_row(red)
        found.update(nxt)
        current = nxt

    keys = sorted((ech.rank, mask) for mask, ech in found.items())
    return _lattice(dim, keys, rows)


def _lattice(dim, keys, rows):
    """The lattice of the flats with these sorted (codim, mask) keys."""
    n = len(rows)
    flats = tuple(
        Flat(None, c, (j for j in range(n) if m >> j & 1), rows) for c, m in keys
    )
    # mu(top) = 1; mu(X) = -sum of mu(Y) over flats Y strictly containing X,
    # that is of lower codimension with a hyperplane set inside X's.
    mu = [1]
    for i in range(1, len(keys)):
        codim, xmask = keys[i]
        acc = 0
        for j in range(i):
            if keys[j][0] == codim:
                break
            if keys[j][1] & xmask == keys[j][1]:
                acc += mu[j]
        mu.append(-acc)
    return IntersectionLattice(dim, flats, tuple(mu), tuple(m for _, m in keys))


def char_poly(arr, lattice=None):
    """Characteristic polynomial: sum of mu(X) * t**dim(X) over all flats."""
    lat = lattice if lattice is not None else intersection_lattice(arr)
    coeffs = [0] * (arr.dim + 1)
    for flat, mu in zip(lat.flats, lat.moebius):
        coeffs[arr.dim - flat.codim] += mu
    return IntPoly(coeffs)


def reduced_char_poly(arr, lattice=None):
    """chi(A,t) / (t-1) for a central arrangement; the division is exact."""
    if not isinstance(arr, CentralArrangement):
        raise TypeError("reduced characteristic polynomial needs a central arrangement")
    if arr.n_hyperplanes == 0:
        raise NonzeroRemainder("empty arrangement: chi = t**dim has no (t-1) factor")
    chi = char_poly(arr, lattice)
    quotient, remainder = chi.divmod_monic(IntPoly((-1, 1)))
    if remainder.coeffs:
        raise NonzeroRemainder(
            f"chi(A,t) = {chi} is not divisible by t-1; this is a bug"
        )
    return quotient


def chamber_count(arr, lattice=None):
    """Number of chambers of the real complement: (-1)**dim * chi(-1)."""
    chi = char_poly(arr, lattice)
    return (-1) ** arr.dim * chi(-1)
