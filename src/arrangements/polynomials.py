"""Polynomial arithmetic used across the library.

Two representations live here:

* IntPoly: dense univariate polynomials in t with integer coefficients
  (characteristic polynomials and friends).
* mp_* helpers: sparse multivariate polynomials as dicts mapping exponent
  tuples to integer coefficients (derivation components, Saito
  determinants).  Plain dicts keep the hot paths cheap; only
  mp_proportionality returns a rational.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb


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
    leading coefficient is nonzero unless the polynomial is zero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def monomial(cls, degree, coeff=1):
        return cls((0,) * degree + (coeff,))

    @classmethod
    def from_roots(cls, roots):
        """Product of (t - r) over the given integer roots."""
        poly = cls((1,))
        for r in roots:
            poly = poly * cls((-int(r), 1))
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

    def __neg__(self):
        return IntPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if not self.coeffs or not other.coeffs:
            return IntPoly.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
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


def mp_pow(p, k):
    nvars = len(next(iter(p))) if p else 0
    out = mp_const(nvars, 1)
    for _ in range(k):
        out = mp_mul(out, p)
    return out


def mp_degree(poly):
    return max((sum(e) for e in poly), default=-1)


def mp_proportionality(p, q):
    """Rational c with p == c*q, or None if the polynomials are not proportional.

    q must be nonzero.
    """
    if not q:
        raise ValueError("reference polynomial is zero")
    if not p:
        return Fraction(0)
    e0, c0 = next(iter(q.items()))
    if e0 not in p:
        return None
    c = Fraction(p[e0], 1) / Fraction(c0, 1)
    for e, v in q.items():
        if p.get(e, 0) != c * v:
            return None
    if len(p) != len(q):
        return None
    return c


def mp_determinant(matrix):
    """Determinant of a matrix of sparse polynomials by cofactor expansion."""
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


def linear_powers(alpha, top):
    """[(-w)**0, (-w)**1, ..., (-w)**top] for w = sum_{i != j} alpha_i x_i,
    j the pivot (first nonzero) position of alpha, each power from the
    previous one: the table `monomial_residue_mod_linear_power` reads."""
    j = next(i for i, c in enumerate(alpha) if c != 0)
    w = mp_from_linear([-c if i != j else 0 for i, c in enumerate(alpha)])
    out = [mp_const(len(alpha), 1)]
    for _ in range(top):
        out.append(mp_mul(out[-1], w))
    return out


def monomial_residue_mod_linear_power(exps, alpha, power, powers=None):
    """Expansion of a monomial in coordinates adapted to a linear form.

    With z = alpha(x) and j the pivot (first nonzero) position of alpha, the
    monomial x**exps rewrites as a polynomial in z and the remaining
    variables.  Returns {(e, reduced_exps): int}, the terms of
    alpha_j**|exps| * x**exps with z-degree e < power; reduced_exps has a
    zero in the pivot slot.  A key fixes |exps| = e + |reduced_exps|, so
    the monomials sharing a key share the scale, and alpha**power divides
    a polynomial iff these residues all cancel.  powers is the table of
    `linear_powers(alpha, top)` for some top >= exps[j], shared by callers
    that expand many monomials against one form; it is built when omitted.
    """
    j = next(i for i, c in enumerate(alpha) if c != 0)
    aj = exps[j]
    base = list(exps)
    base[j] = 0
    base = tuple(base)
    if powers is None:
        powers = linear_powers(alpha, aj)
    # x_j = (z - w)/c_j with w = sum_{i != j} alpha_i x_i; powers[k] = (-w)**k
    # alpha_j**|exps| * x_j**aj = alpha_j**(|exps| - aj) * (z - w)**aj
    cj_pow = alpha[j] ** (sum(exps) - aj)
    out = {}
    for e in range(min(power, aj + 1)):
        rest = powers[aj - e]
        binom = comb(aj, e) * cj_pow
        for mono, c in rest.items():
            key = (e, tuple(a + b for a, b in zip(base, mono)))
            v = out.get(key, 0) + binom * c
            if v == 0:
                out.pop(key, None)
            else:
                out[key] = v
    return out


def mp_divisible_by_linear_power(poly, alpha, power):
    """True iff alpha(x)**power divides the polynomial exactly."""
    if power == 0 or not poly:
        return True
    powers = linear_powers(alpha, mp_degree(poly))
    acc = {}
    for exps, c in poly.items():
        residues = monomial_residue_mod_linear_power(exps, alpha, power, powers)
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
