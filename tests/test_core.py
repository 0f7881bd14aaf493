"""Arrangement construction, normalization and essentialization."""

from fractions import Fraction

import numpy as np
import pytest

from arrangements import (
    AffineArrangement,
    CentralArrangement,
    DimensionMismatch,
    DuplicateHyperplane,
    Multiarrangement,
    ZeroForm,
    canonicalize,
    essentialize,
    form_to_string,
    multiarrangement,
    simple_multiarrangement,
    var_names,
)
from arrangements.core import normalize_affine, normalize_form


def test_normalize_form_scaling_and_sign():
    assert normalize_form((2, -4)) == (1, -2)
    assert normalize_form((Fraction(1, 2), Fraction(-3, 4))) == (2, -3)
    assert normalize_form((-1, 2)) == (1, -2)
    assert normalize_form((0, -5, 0)) == (0, 1, 0)


def test_normalize_form_rejects_zero():
    with pytest.raises(ZeroForm):
        normalize_form((0, 0))


def test_canonicalize_keeps_order_and_normalizes():
    arr = canonicalize([[0, 3], [2, -2]], 2)
    assert arr.forms == ((0, 1), (1, -1))
    assert arr.dim == 2
    assert arr.n_hyperplanes == 2


def test_canonicalize_detects_proportional_forms():
    with pytest.raises(DuplicateHyperplane) as info:
        canonicalize([[1, 0], [0, 1], [Fraction(-1, 2), 0]], 2)
    assert info.value.first == 0
    assert info.value.second == 2


def test_canonicalize_checks_lengths():
    with pytest.raises(DimensionMismatch):
        canonicalize([[1, 0, 0]], 2)


@pytest.mark.parametrize("entry", [Fraction(1, 2), Fraction(2, 1), 0.5, 1.0])
def test_constructors_refuse_non_integer_entries(entry):
    # the classes hold integer rows; rational forms go through canonicalize
    with pytest.raises(TypeError, match="canonicalize"):
        CentralArrangement(2, ((entry, 0), (0, 1)))
    with pytest.raises(TypeError, match="canonicalize"):
        AffineArrangement(2, (((entry, 0), 1), ((0, 1), 0)))
    with pytest.raises(TypeError, match="canonicalize"):
        AffineArrangement(2, (((1, 0), entry), ((0, 1), 0)))
    # the length check comes first
    with pytest.raises(DimensionMismatch):
        CentralArrangement(3, ((entry, 0), (0, 1)))
    arr = canonicalize([[entry, 0], [0, 1]], 2)
    assert arr.rank() == 2
    # multiplicities are ints too: none is truncated, and numpy ints convert
    for mult in ((entry, 1), ("2", 1)):
        with pytest.raises(TypeError):
            Multiarrangement(arr, mult)
        with pytest.raises(TypeError):
            multiarrangement(arr, list(mult))
    converted = multiarrangement(arr, [np.int64(2), 1]).mult
    assert converted == (2, 1) and type(converted[0]) is int


@pytest.mark.parametrize(
    "build",
    [
        lambda: canonicalize([(1, 0), (0, 1)], 2.0),
        lambda: CentralArrangement(Fraction(2), ((1, 0), (0, 1))),
        lambda: canonicalize([(1,)], True),
        lambda: AffineArrangement(2.0, (((1, 0), 1),)),
        lambda: AffineArrangement(np.int64(2), (((1, 0), 1),)),
    ],
    ids=["float", "Fraction", "bool", "affine-float", "affine-numpy"],
)
def test_constructors_refuse_a_dim_that_is_not_an_int(build):
    # as fileio reads a dim: 2.0 would reach char_poly and fail there
    with pytest.raises(TypeError, match="dimension"):
        build()


def test_a_bool_is_no_multiplicity():
    # operator.index(True) is 1; numpy ints still convert
    arr = canonicalize([[1, 0], [0, 1], [1, 1]], 2)
    with pytest.raises(TypeError):
        multiarrangement(arr, [True, 2, 1])
    with pytest.raises(TypeError):
        Multiarrangement(arr, (True, 2, 1))
    assert multiarrangement(arr, [np.int64(1), 2, 1]).mult == (1, 2, 1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: CentralArrangement(2, ((True, False), (0, 1))),
        lambda: AffineArrangement(1, (((1,), False),)),
        lambda: AffineArrangement(2, (((1, 0), 0), ((True, 1), 0))),
        lambda: canonicalize([[True, 0], [0, 1]], 2),
        lambda: canonicalize([[Fraction(1, 2), False], [0, 1]], 2),
        lambda: normalize_form([1, False]),
    ],
    ids=["central", "affine-constant", "affine-normal", "canonicalize",
         "canonicalize-rational", "normalize_form"],
)
def test_a_bool_is_no_coefficient(build):
    # as fileio reads a coefficient: operator.index(True) is 1, but True is no number
    with pytest.raises(TypeError, match="True|False"):
        build()


def test_rank_and_essential():
    arr = canonicalize([[1, 0, 0], [0, 1, 0], [1, 1, 0]], 3)
    assert arr.rank() == 2
    assert not arr.is_essential()
    ess, center_dim = essentialize(arr)
    assert center_dim == 1
    assert ess.dim == 2
    assert ess.rank() == 2
    assert ess.n_hyperplanes == 3


def test_essentialize_essential_input_is_identity():
    arr = canonicalize([[1, 0], [0, 1]], 2)
    ess, center_dim = essentialize(arr)
    assert center_dim == 0
    assert ess == arr


def test_multiarrangement_validation():
    arr = canonicalize([[1, 0], [0, 1]], 2)
    with pytest.raises(DimensionMismatch):
        Multiarrangement(arr, (1,))
    with pytest.raises(ValueError):
        Multiarrangement(arr, (1, -1))
    multi = multiarrangement(arr, (2, 0))
    assert multi.total == 2
    assert multi.effective() == (0,)
    assert multi.rank() == 1
    assert not multi.is_essential()


def test_multiarrangement_zero_multiplicities_drop_at_essentialization():
    arr = canonicalize([[1, 0], [0, 1]], 2)
    multi = multiarrangement(arr, (3, 0))
    ess, center_dim = essentialize(multi)
    assert center_dim == 1
    assert ess.base.n_hyperplanes == 1
    assert ess.mult == (3,)


def test_simple_multiarrangement():
    arr = canonicalize([[1, 0], [0, 1], [1, 1]], 2)
    multi = simple_multiarrangement(arr)
    assert multi.mult == (1, 1, 1)
    assert multi.total == 3


def test_var_names_and_form_rendering():
    assert var_names(3) == ("x", "y", "z")
    assert var_names(5) == ("x1", "x2", "x3", "x4", "x5")
    names = var_names(3)
    assert form_to_string((1, -1, 0), names) == "x - y"
    assert form_to_string((2, 0, 3), names) == "2*x + 3*z"
    assert form_to_string((0, 1, 0), names) == "y"


def test_affine_arrangement_validation():
    with pytest.raises(DimensionMismatch):
        AffineArrangement(2, (((1, 0, 0), 1),))
    with pytest.raises(DimensionMismatch):
        AffineArrangement(-1, ())
    assert normalize_affine((0, -2), Fraction(4)) == ((0, 1), -2)
    with pytest.raises(ZeroForm):
        normalize_affine((0, 0), 1)


def test_central_arrangement_is_hashable_value_object():
    a = canonicalize([[1, 0], [0, 1]], 2)
    b = canonicalize([[2, 0], [0, -1]], 2)
    assert a == b
    assert hash(a) == hash(b)
    assert a != CentralArrangement(2, ((1, 0),))
