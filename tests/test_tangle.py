from fractions import Fraction

import pytest
import hypothesis.strategies as st
from hypothesis import given

from hkannuli.tangle import (INFINITY, ExtendedRational, RationalTangle, cf_eval,
                             is_integral, meridian_count)

R = RationalTangle.of


def recursive_eval(twists):
    """Independent oracle: literal recursive evaluation over Fraction/None,
    with None playing infinity."""
    value = Fraction(twists[0])
    for a in twists[1:]:
        if value is None:
            value = Fraction(a)  # a + 1/inf = a + 0
        elif value == 0:
            value = None  # a + 1/0 = inf
        else:
            value = a + 1 / value
    return value


class TestCfEval:
    @pytest.mark.parametrize("twists, expected", [
        ((2, 0), "1/2"),
        ((0,), "0/1"),
        ((1, 2, 3), "10/3"),
        ((0, 0), "inf"),
    ])
    def test_examples(self, twists, expected):
        assert str(cf_eval(R(*twists))) == expected

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            RationalTangle(())

    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=7))
    def test_total_lowest_terms_and_matches_recursion(self, twists):
        value = cf_eval(R(*twists))
        oracle = recursive_eval(twists)
        if oracle is None:
            assert value.is_infinite
        else:
            assert (value.numerator, value.denominator) == (oracle.numerator,
                                                            oracle.denominator)
            assert value.denominator > 0

    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=6))
    def test_appending_zero_twist(self, twists):
        # regression against the literal recursion with a trailing zero
        appended = twists + [0]
        value = cf_eval(R(*appended))
        oracle = recursive_eval(appended)
        if oracle is None:
            assert value.is_infinite
        else:
            assert Fraction(value.numerator, value.denominator) == oracle

    def test_mirrored_convention(self):
        for p in range(-30, 31):
            value = cf_eval(R(-p, 2, 0), convention="mirrored")
            if p == 0:
                assert (value.numerator, value.denominator) == (0, 1)
            else:
                assert Fraction(value.numerator, value.denominator) == Fraction(p, 2 * p + 1)
        # literal calibration: p/(2p - 1)
        literal = cf_eval(R(-3, 2, 0))
        assert Fraction(literal.numerator, literal.denominator) == Fraction(3, 5)

    def test_unknown_convention_rejected(self):
        with pytest.raises(ValueError, match="^unknown convention 'other'$"):
            cf_eval(R(1, 2), convention="other")


class TestIsIntegral:
    def test_examples(self):
        assert not is_integral(ExtendedRational.of(1, 2))
        assert is_integral(ExtendedRational.of(5, 1))
        assert not is_integral(INFINITY)
        assert is_integral(INFINITY, infinity_is_integral=True)

    def test_typeM_gate(self):
        integral = [p for p in range(-50, 51)
                    if is_integral(cf_eval(R(-p, 2, 0), "mirrored"), True)]
        assert integral == [-1, 0]


class TestMeridianCount:
    @pytest.mark.parametrize("twists, expected", [
        ((2, 0), 1),
        ((0,), 0),
        ((3,), 3),
    ])
    def test_examples(self, twists, expected):
        assert meridian_count(R(*twists)) == expected


class TestExtendedRational:
    def test_normalization(self):
        assert ExtendedRational.of(2, -4) == ExtendedRational(-1, 2)
        assert ExtendedRational.of(-3, 0) == INFINITY

    def test_invalid_direct_construction(self):
        with pytest.raises(ValueError):
            ExtendedRational(2, 4)
        with pytest.raises(ValueError):
            ExtendedRational(3, 0)
