"""Shared helpers for the test suite."""

import random
from fractions import Fraction

from arrangements import (
    PolyVectorField,
    canonicalize,
    intersection_lattice,
    ziegler_restriction,
)
from arrangements.errors import ArrangementError
from arrangements.polynomials import mp_const, mp_from_linear, mp_mul
from arrangements.restriction import _restriction_flats


def make(forms, dim):
    return canonicalize(forms, dim)


def random_central(rng, dim=None, max_hyperplanes=7):
    """A random central arrangement with small rational coefficients.

    Draws pairwise non-proportional forms; dimension defaults to a random
    choice of 2 or 3.
    """
    if dim is None:
        dim = rng.choice((2, 3))
    n = rng.randint(1, max_hyperplanes)
    forms = []
    guard = 0
    while len(forms) < n:
        guard += 1
        if guard > 500:
            break
        form = tuple(
            Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(dim)
        )
        if all(v == 0 for v in form):
            continue
        try:
            canonicalize(forms + [form], dim)
        except ArrangementError:
            continue
        forms.append(form)
    return canonicalize(forms, dim)


def seeded(seed):
    return random.Random(seed)


def mp_pow(p, k):
    """p**k for a sparse polynomial p."""
    nvars = len(next(iter(p))) if p else 0
    out = mp_const(nvars, 1)
    for _ in range(k):
        out = mp_mul(out, p)
    return out


def defining_polynomial(multi):
    """Q(A,m): the product of alpha_H**m(H) over effective hyperplanes."""
    out = {(0,) * multi.dim: 1}
    for i in multi.effective():
        out = mp_mul(out, mp_pow(mp_from_linear(multi.base.forms[i]), multi.mult[i]))
    return out


def euler_field(dim):
    """The field x_1 d/dx_1 + ... + x_dim d/dx_dim."""
    comps = []
    for i in range(dim):
        e = [0] * dim
        e[i] = 1
        comps.append({tuple(e): 1})
    return PolyVectorField(comps)


def rho_images(arr, h0, dA_lattice):
    """{flat of dA_lattice: its image in L(A'')}, by the lattice route.

    The reference for `rho`: each flat goes to the flat of L(A'') read off
    L(A) below its join with H0, the first flat of L(A) on h0 and on the
    flat's hyperplanes.
    """
    lattice = intersection_lattice(arr)
    flats, parents = _restriction_flats(lattice, h0, ziegler_restriction(arr, h0))
    by_parent = dict(zip(parents, flats))
    out = {}
    for flat in dA_lattice.flats:
        # hyperplane k of the deconing is hyperplane k (k < h0) or k + 1 of arr
        want = sum(1 << (k + (k >= h0)) for k in flat.contained) | 1 << h0
        join = next(x for x in lattice.flats if x.mask & want == want)
        out[flat] = by_parent[join.mask]
    return out
