"""Direct-sum factor descriptions and the two-branch free product formula."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ncfree.errors import ConfigError
from ncfree.factors import (
    FREE_GROUP,
    INTEGER_GROUP,
    MATRIX,
    SCALAR,
    FactorDescription,
    Summand,
    dykema_free_product,
    free_product_with_matrix,
    m3_parameter,
    vn_z_description,
)
from ncfree.model import ModelParams


# ---------------------------------------------------------------------------
# summands and descriptions


def test_summand_validation():
    Summand(1, SCALAR)
    Summand(Fraction(1, 3), MATRIX, 2)
    Summand(1, FREE_GROUP, Fraction(3, 2))
    Summand(1, INTEGER_GROUP)
    for bad in [0, -1, Fraction(3, 2)]:
        with pytest.raises(ConfigError):
            Summand(bad, SCALAR)
    with pytest.raises(ConfigError):
        Summand(1, "wat")
    with pytest.raises(ConfigError):
        Summand(1, MATRIX)
    with pytest.raises(ConfigError):
        Summand(1, MATRIX, 0)
    with pytest.raises(ConfigError):
        Summand(1, MATRIX, Fraction(5, 2))
    with pytest.raises(ConfigError):
        Summand(1, FREE_GROUP, Fraction(1, 2))
    with pytest.raises(ConfigError):
        Summand(1, SCALAR, 2)
    with pytest.raises(ConfigError):
        Summand(1, INTEGER_GROUP, 2)



@pytest.mark.parametrize("size", [True, False])
def test_matrix_summand_refuses_a_bool_size(size):
    # a bool is an int, and Summand(1, MATRIX, True) would display as MTrue
    with pytest.raises(ConfigError, match="matrix summand needs a size"):
        Summand(1, MATRIX, size)

def test_summand_display():
    assert Summand(1, SCALAR).display() == "C"
    assert Summand(1, MATRIX, 3).display() == "M3"
    assert Summand(1, INTEGER_GROUP).display() == "LZ"
    assert Summand(1, FREE_GROUP, Fraction(3, 2)).display() == "LF(3/2)"
    assert Summand(Fraction(1, 3), FREE_GROUP, Fraction(5, 4)).display() == \
        "LF(5/4)[1/3]"
    assert Summand(Fraction(1, 2), MATRIX, 2).display() == "M2[1/2]"


def test_description_validation_and_display():
    desc = FactorDescription((Summand(Fraction(1, 2), SCALAR),
                              Summand(Fraction(1, 2), INTEGER_GROUP)))
    assert desc.display() == "C[1/2] (+) LZ[1/2]"
    with pytest.raises(ConfigError):
        FactorDescription(())
    with pytest.raises(ConfigError):
        FactorDescription((Summand(Fraction(1, 2), SCALAR),))


def test_vn_z_description():
    assert vn_z_description(ModelParams(2)).display() == "C[1/2] (+) LZ[1/2]"
    desc = vn_z_description(ModelParams(3))
    assert desc.summands[0] == Summand(Fraction(2, 3), SCALAR)
    assert desc.summands[1] == Summand(Fraction(1, 3), INTEGER_GROUP)


# ---------------------------------------------------------------------------
# two-branch free product formula


def test_branch_above_threshold_frozen():
    assert dykema_free_product(1, Fraction(1, 2), 2).display() == "LF(3/2)"
    assert dykema_free_product(1, Fraction(1, 3), 3).display() == "LF(13/9)"
    got = dykema_free_product(Fraction(7, 2), Fraction(2, 3), 2)
    # r*a^2 + 2a(1-a) + 1 - 1/d^2 with r=7/2, a=2/3, d=2
    expected = Fraction(7, 2) * Fraction(4, 9) + 2 * Fraction(2, 9) + Fraction(3, 4)
    assert got.summands == (Summand(1, FREE_GROUP, expected),)


def test_branch_below_threshold_frozen():
    got = dykema_free_product(3, Fraction(1, 8), 2)
    assert got.display() == "M2[1/2] (+) LF(21/16)[1/2]"
    assert got.summands[0] == Summand(Fraction(1, 2), MATRIX, 2)
    assert got.summands[1].parameter == Fraction(21, 16)


def test_branch_at_threshold_is_a_single_factor():
    for d in (2, 3, 4):
        for r in (1, Fraction(3, 2), 7):
            got = dykema_free_product(r, Fraction(1, d * d), d)
            assert len(got.summands) == 1
            assert got.summands[0].kind == FREE_GROUP
            assert got.summands[0].weight == 1


@settings(max_examples=200, deadline=None)
@given(st.fractions(min_value=1, max_value=8, max_denominator=30),
       st.integers(2, 6),
       st.fractions(min_value=0, max_value=1, max_denominator=60))
def test_branches_agree_at_the_boundary(r, d, t):
    # below the threshold the surviving factor parameter does not depend on
    # alpha and matches the single-factor branch evaluated at the threshold
    threshold = Fraction(1, d * d)
    boundary = dykema_free_product(r, threshold, d).summands[0].parameter
    if 0 < t < 1:
        alpha = t * threshold
        below = dykema_free_product(r, alpha, d)
        assert len(below.summands) == 2
        matrix_part, factor_part = below.summands
        assert matrix_part == Summand(1 - alpha * d * d, MATRIX, d)
        assert factor_part.weight == alpha * d * d
        assert factor_part.parameter == boundary


def test_dykema_validation():
    with pytest.raises(ConfigError):
        dykema_free_product(Fraction(1, 2), Fraction(1, 2), 2)
    for bad_alpha in [0, 1, 2, Fraction(-1, 3)]:
        with pytest.raises(ConfigError):
            dykema_free_product(1, bad_alpha, 2)
    with pytest.raises(ConfigError):
        dykema_free_product(1, Fraction(1, 2), 1)
    with pytest.raises(ConfigError):
        dykema_free_product(1, Fraction(1, 2), 2.0)


def test_free_product_with_matrix_pipeline():
    desc = vn_z_description(ModelParams(2))
    assert free_product_with_matrix(desc, 2) == \
        dykema_free_product(1, Fraction(1, 2), 2)
    lifted = FactorDescription((Summand(Fraction(2, 3), SCALAR),
                                Summand(Fraction(1, 3), FREE_GROUP, 2)))
    assert free_product_with_matrix(lifted, 3) == \
        dykema_free_product(2, Fraction(1, 3), 3)


def test_free_product_with_matrix_validation():
    single = FactorDescription((Summand(1, SCALAR),))
    with pytest.raises(ConfigError):
        free_product_with_matrix(single, 2)
    swapped = FactorDescription((Summand(Fraction(1, 2), INTEGER_GROUP),
                                 Summand(Fraction(1, 2), SCALAR)))
    with pytest.raises(ConfigError):
        free_product_with_matrix(swapped, 2)
    two_matrix = FactorDescription((Summand(Fraction(1, 2), SCALAR),
                                    Summand(Fraction(1, 2), MATRIX, 2)))
    with pytest.raises(ConfigError):
        free_product_with_matrix(two_matrix, 2)


# ---------------------------------------------------------------------------
# the model's parameter


def test_m3_parameter_frozen_values():
    assert m3_parameter(ModelParams(2)) == Fraction(3, 2)
    assert m3_parameter(ModelParams(3)) == Fraction(13, 9)
    assert m3_parameter(ModelParams(4)) == Fraction(11, 8)


def test_m3_parameter_closed_form_and_shape():
    prev = None
    for n in range(2, 201):
        value = m3_parameter(ModelParams(n))
        assert value == 1 + Fraction(2 * (n - 1), n * n)
        assert value > 1
        if prev is not None:
            assert value < prev
        prev = value
    # tends to 1 from above
    assert prev - 1 < Fraction(2, 200)
