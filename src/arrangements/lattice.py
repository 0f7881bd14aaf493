"""Intersection lattices, Moebius values and characteristic polynomials.

Flats are keyed by the canonical reduced row echelon form of their defining
equations over exact rationals, so deduplication and lookup are plain tuple
comparisons.  Each equation row has length dim+1 and reads
sum(row[i] * x_i) + row[dim] = 0; central flats carry a zero constant.

The lattice is built level by level: the flats of codimension k+1 are the
intersections X cap H over codimension-k flats X and hyperplanes H not
containing X.  Every flat arises this way, so the 2**n subset enumeration is
never needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .core import AffineArrangement, CentralArrangement
from .errors import FlatNotInLattice, NonzeroRemainder
from .linalg import _Echelon, echelon
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


def _is_inconsistent(ech, dim):
    return any(all(r[j] == 0 for j in range(dim)) and r[dim] != 0 for r in ech.rows)


def _make_flat(ech, rows, dim):
    key = ech.rref()
    contained = frozenset(
        i for i, row in enumerate(rows) if ech.contains(row)
    )
    return Flat(key, len(key), contained)


@dataclass
class IntersectionLattice:
    """All flats of an arrangement, with Moebius values.

    flats are in canonical order (codimension ascending, then lexicographic
    on the echelon key); moebius is parallel to flats.  The partial order is
    reverse inclusion: X <= Y means X contains Y, which is equivalent to
    contained(X) being a subset of contained(Y).
    """

    ambient_dim: int
    flats: tuple
    moebius: tuple

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
    rows = hyperplane_rows(arr)
    n = len(rows)

    top = Flat((), 0, frozenset())
    flats = {(): top}
    current = [top]
    while current:
        nxt = {}
        for flat in current:
            base = echelon(flat.equations, dim + 1)
            for h in range(n):
                if h in flat.contained:
                    continue
                ech = _Echelon(dim + 1)
                for r in base.rows:
                    ech.add(r)
                ech.add(rows[h])
                if _is_inconsistent(ech, dim):
                    continue
                key = ech.rref()
                if key in flats or key in nxt:
                    continue
                nxt[key] = _make_flat(ech, rows, dim)
        flats.update(nxt)
        current = list(nxt.values())

    ordered = sorted(flats.values(), key=lambda f: (f.codim, f.equations))
    # mu(top) = 1; mu(X) = -sum of mu(Y) over flats Y strictly containing X.
    mu = []
    for i, x in enumerate(ordered):
        if x.codim == 0:
            mu.append(1)
            continue
        acc = 0
        for j in range(i):
            y = ordered[j]
            if y.codim < x.codim and y.contained <= x.contained:
                acc += mu[j]
        mu.append(-acc)
    return IntersectionLattice(dim, tuple(ordered), tuple(mu))


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
