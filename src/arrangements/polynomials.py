"""Polynomial arithmetic used across the library.

Two representations live here:

* IntPoly: dense univariate polynomials in t with integer coefficients
  (characteristic polynomials and friends).
* mp_* helpers: sparse multivariate polynomials as dicts mapping exponent
  tuples to integer coefficients (derivation components, and the residues
  modulo powers of a linear form that define D(A,m)).  Plain dicts keep
  the hot paths cheap.
"""

from __future__ import annotations

from math import comb
from operator import add, index


def signed_sum(terms, sep="*"):
    """Render (coefficient, body) pairs as "c*body + body - c" in the given
    order, skipping zero coefficients; an empty body is a constant term, sep
    joins a coefficient other than 1 to its body, and no terms give "0"."""
    parts = []
    for c, body in terms:
        if c == 0:
            continue
        mag = abs(c)
        term = str(mag) if not body else body if mag == 1 else f"{mag}{sep}{body}"
        if parts:
            parts.append(("+ " if c > 0 else "- ") + term)
        else:
            parts.append(term if c > 0 else "-" + term)
    return " ".join(parts) if parts else "0"


class IntPoly:
    """Univariate polynomial with exact integer coefficients.

    coeffs[k] is the coefficient of t**k; trailing zeros are stripped so the
    leading coefficient is nonzero unless the polynomial is zero.  Coefficients
    and roots go through operator.index: a float or Fraction raises TypeError.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [index(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def monomial(cls, degree, coeff=1):
        return cls((0,) * degree + (coeff,))

    @classmethod
    def from_roots(cls, roots):
        """Product of (t - r) over the given integer roots."""
        poly = cls((1,))
        for r in roots:
            poly = poly * cls((-index(r), 1))
        return poly

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def coefficient(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly(
            [self.coefficient(k) + other.coefficient(k) for k in range(n)]
        )

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly(
            [self.coefficient(k) - other.coefficient(k) for k in range(n)]
        )

    def __mul__(self, other):
        out = [0] * max(len(self.coeffs) + len(other.coeffs) - 1, 0)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPoly(out)

    def divmod_monic(self, divisor):
        """Quotient and remainder by a monic divisor, exact over the integers."""
        if not divisor.is_monic():
            raise ValueError("divisor must be monic")
        rem = list(self.coeffs)
        d = divisor.degree
        q = [0] * max(len(rem) - d, 0)
        for k in range(len(rem) - d - 1, -1, -1):
            factor = rem[k + d]
            q[k] = factor
            if factor:
                for j, c in enumerate(divisor.coeffs):
                    rem[k + j] -= factor * c
        return IntPoly(q), IntPoly(rem[:d])

    def nonnegative_roots(self):
        """The roots r_1 <= ... <= r_n when self = prod (t - r_i) over
        nonnegative integers, else None.  Such roots sum to minus the
        coefficient of t**(n - 1), which bounds each of them."""
        if not self.is_monic():
            return None
        roots, rest = [], self
        for r in range(-self.coefficient(self.degree - 1) + 1):
            while rest.degree > 0 and rest(r) == 0:
                rest = rest.divmod_monic(IntPoly((-r, 1)))[0]
                roots.append(r)
        return roots if rest.degree == 0 else None

    def to_string(self, sep="*"):
        """The polynomial in t, highest degree first; sep joins a coefficient
        to its power of t ("2*t^2" by default, "2t^2" with sep="")."""
        return signed_sum(
            ((self.coeffs[k], "" if k == 0 else "t" if k == 1 else f"t^{k}")
             for k in range(self.degree, -1, -1)),
            sep,
        )

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"IntPoly({self})"


# ---------------------------------------------------------------------------
# Sparse multivariate polynomials: dict {exponent tuple: coefficient}
# ---------------------------------------------------------------------------

def mp_const(nvars, c):
    if c == 0:
        return {}
    return {(0,) * nvars: c}


def mp_from_linear(coeffs):
    """Linear form sum(c_i * x_i) as a sparse polynomial."""
    n = len(coeffs)
    out = {}
    for i, c in enumerate(coeffs):
        if c != 0:
            e = [0] * n
            e[i] = 1
            out[tuple(e)] = c
    return out


def mp_add_inplace(acc, poly, scale=1):
    for e, c in poly.items():
        v = acc.get(e, 0) + scale * c
        if v == 0:
            acc.pop(e, None)
        else:
            acc[e] = v
    return acc


def mp_mul(p, q):
    out = {}
    for ep, cp in p.items():
        for eq, cq in q.items():
            e = tuple(a + b for a, b in zip(ep, eq))
            v = out.get(e, 0) + cp * cq
            if v == 0:
                out.pop(e, None)
            else:
                out[e] = v
    return out


def mp_determinant(matrix):
    """Determinant of a matrix of sparse polynomials by cofactor expansion.

    The package no longer calls it: `saito_check` evaluates the Saito
    determinant at one integer point, and the tests compare that verdict
    against this symbolic one.
    """
    n = len(matrix)
    if n == 0:
        return mp_const(0, 1)
    if n == 1:
        return dict(matrix[0][0])
    out = {}
    for j in range(n):
        entry = matrix[0][j]
        if not entry:
            continue
        minor = [
            [matrix[i][k] for k in range(n) if k != j] for i in range(1, n)
        ]
        term = mp_mul(entry, mp_determinant(minor))
        mp_add_inplace(out, term, 1 if j % 2 == 0 else -1)
    return out


def monomials(nvars, degree):
    """All exponent tuples of the given total degree, lexicographically
    decreasing.  The order is part of the library's determinism contract."""
    if nvars == 0:
        return [()] if degree == 0 else []
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), degree, nvars)
    return out


def monomial_count(nvars, degree):
    if degree < 0:
        return 0
    if nvars == 0:
        return 1 if degree == 0 else 0
    return comb(degree + nvars - 1, nvars - 1)


def residue_table(alpha, power, degree):
    """The substitution table of a linear form, a power m and a degree d.

    With j the pivot (first nonzero) position of alpha, z = alpha(x) and
    w = sum_{i != j} alpha_i x_i, x_j = (z - w)/alpha_j, so
    alpha_j**d * x_j**k = alpha_j**(d - k) * (z - w)**k.  Entry k lists the
    terms of that expansion with z-degree e < m as (e, w_exps, value):
    value = alpha_j**(d - k) * C(k, e) * [coefficient of x**w_exps in
    (-w)**(k - e)], and w_exps has a zero in the pivot slot.  The residue
    of a degree-d monomial x**a is entry a_j with a's other exponents added
    to each w_exps (`monomial_residue_mod_linear_power`).
    """
    n = len(alpha)
    j = next(i for i, c in enumerate(alpha) if c != 0)
    minus_w = mp_from_linear([-c if i != j else 0 for i, c in enumerate(alpha)])
    powers = [mp_const(n, 1)]  # the nonzero powers of -w: only the 0th when w = 0
    while minus_w and len(powers) <= degree:
        powers.append(mp_mul(powers[-1], minus_w))
    table = []
    for k in range(degree + 1):
        scale = alpha[j] ** (degree - k)
        table.append([
            (e, mono, comb(k, e) * scale * c)
            for e in range(max(0, k + 1 - len(powers)), min(power, k + 1))
            for mono, c in powers[k - e].items()
        ])
    return table


def _shifted_residue(entry, exps, j):
    """{(e, exps + w_exps with a zero pivot slot): value} over a table
    entry: the residue of x**exps when the entry is the one of exps[j]."""
    base = list(exps)
    base[j] = 0
    return {(e, tuple(map(add, base, mono))): v for e, mono, v in entry}


def monomial_residue_mod_linear_power(exps, alpha, power):
    """Expansion of a monomial in coordinates adapted to a linear form.

    With z = alpha(x) and j the pivot (first nonzero) position of alpha, the
    monomial x**exps rewrites as a polynomial in z and the remaining
    variables.  Returns {(e, reduced_exps): int}, the terms of
    alpha_j**|exps| * x**exps with z-degree e < power; reduced_exps has a
    zero in the pivot slot.  A key fixes |exps| = e + |reduced_exps|, so
    the monomials sharing a key share the scale, and alpha**power divides
    a polynomial iff these residues all cancel.  It is entry exps[j] of
    `residue_table(alpha, power, |exps|)`, shifted by the other exponents.
    """
    j = next(i for i, c in enumerate(alpha) if c != 0)
    return _shifted_residue(residue_table(alpha, power, sum(exps))[exps[j]], exps, j)


def mp_divisible_by_linear_power(poly, alpha, power):
    """True iff alpha(x)**power divides the polynomial exactly: the
    residues of its terms, one substitution table per degree, cancel."""
    if power == 0 or not poly:
        return True
    j = next(i for i, c in enumerate(alpha) if c != 0)
    tables = {}
    acc = {}
    for exps, c in poly.items():
        d = sum(exps)
        if d not in tables:
            tables[d] = residue_table(alpha, power, d)
        residues = _shifted_residue(tables[d][exps[j]], exps, j)
        for key, v in residues.items():
            s = acc.get(key, 0) + c * v
            if s == 0:
                acc.pop(key, None)
            else:
                acc[key] = s
    return not acc


def mp_format(poly, var_names):
    """Human-readable rendering, monomials in the canonical order."""
    return signed_sum(
        (c, "*".join(name if e == 1 else f"{name}^{e}"
                     for name, e in zip(var_names, exps) if e))
        for exps, c in sorted(poly.items(), key=lambda kv: kv[0], reverse=True)
    )
