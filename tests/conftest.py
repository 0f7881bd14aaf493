"""Shared helpers for the test suite."""

import random
from fractions import Fraction

from arrangements import canonicalize, intersection_lattice, rho, ziegler_restriction
from arrangements.errors import ArrangementError
from arrangements.restriction import _restriction_lattice


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


def rho_images(arr, h0, dA_lattice):
    """{flat of dA_lattice: rho(flat)}, from one L(A).

    `rho` builds L(A) per call, so mapping every flat through it would
    build one lattice per flat; the map is computed once instead, and `rho`
    itself is checked on the last flat.
    """
    restriction = ziegler_restriction(arr, h0)
    image = _restriction_lattice(intersection_lattice(arr), h0, restriction)[1]
    # hyperplane k of the deconing is hyperplane k (k < h0) or k + 1 of arr
    out = {
        flat: image[sum(1 << (k + (k >= h0)) for k in flat.contained)]
        for flat in dA_lattice.flats
    }
    last = dA_lattice.flats[-1]
    assert rho(arr, h0, last, dA_lattice) == out[last]
    return out
