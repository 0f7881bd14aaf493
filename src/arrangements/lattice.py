"""Intersection lattices, Moebius values and characteristic polynomials.

A nonempty flat is the intersection of the hyperplanes that contain it, so
the set of those hyperplanes, an int bitmask, identifies it for central and
affine arrangements alike.  The lattice is built level by level on integer
rows: the flats of codimension k+1 are the covers of the codimension-k
flats X, one per class of hyperplanes not containing X whose rows, reduced
against X's echelon, are proportional; the class is the cover's new
hyperplane set.  A reduced row that is a nonzero constant means X cap H is
empty (H is parallel to X).  Every flat arises this way, so the 2**n subset
enumeration is never needed, and Moebius values are read off the masks.

Flats are ordered by (codimension, mask).  Each flat's output form,
equations, is the canonical reduced row echelon form of its defining rows
over exact rationals, computed once per flat; it keys lookups.  Each
equation row has length dim+1 and reads sum(row[i] * x_i) + row[dim] = 0;
central flats carry a zero constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .core import AffineArrangement, CentralArrangement
from .errors import FlatNotInLattice, NonzeroRemainder
from .linalg import _Echelon, _pivot_col, _to_int_row
from .polynomials import IntPoly


@dataclass(frozen=True)
class Flat:
    """A nonempty intersection of hyperplanes.

    equations: canonical RREF rows (Fraction tuples of length dim+1);
    codim: rank of the equations; contained: indices of all hyperplanes
    of the ambient arrangement that vanish on the flat.
    """

    equations: tuple
    codim: int
    contained: frozenset

    def __repr__(self):
        return f"Flat(codim={self.codim}, hyperplanes={sorted(self.contained)})"


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
        return {f.equations: i for i, f in enumerate(self.flats)}

    def index_of(self, flat):
        return self._index.get(flat.equations)

    def lookup(self, flat):
        idx = self.index_of(flat)
        if idx is None:
            raise FlatNotInLattice(f"no flat with the given equations: {flat}")
        return self.flats[idx]

    def moebius_of(self, flat):
        idx = self.index_of(flat)
        if idx is None:
            raise FlatNotInLattice(f"no flat with the given equations: {flat}")
        return self.moebius[idx]

    @property
    def rank(self):
        return max(f.codim for f in self.flats)


def intersection_lattice(arr):
    """Enumerate all flats and fill Moebius values by the defining recursion."""
    dim = arr.dim
    rows = [_to_int_row(r) for r in hyperplane_rows(arr)]
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

    masks = sorted(found, key=lambda m: (found[m].rank, m))
    flats = []
    for mask in masks:
        equations = found[mask].rref()
        contained = frozenset(j for j in range(n) if mask >> j & 1)
        flats.append(Flat(equations, len(equations), contained))
    # mu(top) = 1; mu(X) = -sum of mu(Y) over flats Y strictly containing X,
    # that is of lower codimension with a hyperplane set inside X's.
    mu = [1]
    for i in range(1, len(flats)):
        xmask, codim = masks[i], flats[i].codim
        acc = 0
        for j in range(i):
            if flats[j].codim == codim:
                break
            if masks[j] & xmask == masks[j]:
                acc += mu[j]
        mu.append(-acc)
    return IntersectionLattice(dim, tuple(flats), tuple(mu), tuple(masks))


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
