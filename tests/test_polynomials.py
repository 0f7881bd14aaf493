"""Integer polynomials in t, and divisibility by powers of a linear form on
integer residues."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arrangements.core import normalize_form
from arrangements.polynomials import (
    IntPoly,
    mp_add_inplace,
    mp_divisible_by_linear_power,
    mp_from_linear,
    mp_mul,
    monomial_residue_mod_linear_power,
)
from conftest import mp_pow


@pytest.mark.parametrize("x", [Fraction(3, 2), Fraction(2), 2.7, 2.0, "2"], ids=repr)
def test_int_poly_takes_integers_only(x):
    # a coefficient or root that is no integer is refused, never truncated
    for build in (lambda: IntPoly([x, 1]), lambda: IntPoly.monomial(2, x),
                  lambda: IntPoly.from_roots([x])):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            build()
    # numpy integers are integers
    poly = IntPoly([np.int64(-6), np.int32(1)])
    assert poly.coeffs == (-6, 1) and all(type(c) is int for c in poly.coeffs)
    assert IntPoly.from_roots([np.int64(6)]) == poly


def test_divmod_monic_refuses_a_non_monic_divisor():
    for divisor in (IntPoly([1, 2]), IntPoly([3]), IntPoly([])):
        with pytest.raises(ValueError, match="divisor must be monic"):
            IntPoly([1, 0, 1]).divmod_monic(divisor)


@st.composite
def _divisibility_cases(draw):
    """A linear form alpha whose pivot entry is not +-1, a power m >= 1, a
    nonzero polynomial f whose terms need not share a degree, a linear form
    beta not proportional to alpha and an exponent k >= 1."""
    nvars = draw(st.integers(2, 3))
    pivot = draw(st.integers(0, nvars - 1))
    alpha = [0] * pivot + [draw(st.sampled_from((-3, -2, 2, 3)))]
    alpha += draw(st.lists(st.integers(-3, 3), min_size=nvars - pivot - 1,
                           max_size=nvars - pivot - 1))
    beta = draw(
        st.lists(st.integers(-3, 3), min_size=nvars, max_size=nvars).filter(
            lambda b: any(b) and normalize_form(b) != normalize_form(alpha)
        )
    )
    exps = st.tuples(*[st.integers(0, 2)] * nvars)
    f = draw(st.dictionaries(exps, st.integers(-4, 4).filter(bool), min_size=1, max_size=4))
    return alpha, draw(st.integers(1, 3)), f, beta, draw(st.integers(1, 3))


@settings(max_examples=80, deadline=None)
@given(_divisibility_cases())
@example(([0, 2, 1], 2, {(1, 0, 0): 1, (0, 0, 0): 3}, [1, 0, 0], 1))
def test_divisibility_by_a_linear_power(case):
    alpha, m, f, beta, k = case
    lin = mp_from_linear(alpha)
    multiple = mp_mul(mp_pow(lin, m), f)
    assert mp_divisible_by_linear_power(multiple, alpha, m)
    # alpha**m divides alpha**(m-1) * beta**k only if alpha divides beta**k
    off = mp_mul(mp_pow(lin, m - 1), mp_pow(mp_from_linear(beta), k))
    assert not mp_divisible_by_linear_power(mp_add_inplace(dict(multiple), off), alpha, m)
    for exps in list(f) + list(multiple):
        residues = monomial_residue_mod_linear_power(exps, alpha, m)
        assert all(type(v) is int for v in residues.values())
