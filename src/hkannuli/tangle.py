"""Exact rational-tangle arithmetic.

A rational tangle is a nonempty twist vector (a_1, ..., a_n).  Its fraction
is the continued fraction

    [a_1, ..., a_n] = a_n + 1/(a_{n-1} + 1/(... + 1/a_1))

evaluated right-to-left in exact arithmetic with infinity propagation:
1/0 = inf, k + inf = inf, 1/inf = 0.  Infinity is a value, never an error.

Two twist-sign conventions are exposed: ``literal`` evaluates the vector as
given; ``mirrored`` negates the odd-position twists (a_1, a_3, ...) first.
The mirrored convention is the calibration for which the triviality gate
"(-p, 2, 0) is integral" holds exactly on p in {0, -1}; see
:mod:`hkannuli.classify`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Tuple

CONVENTIONS = ("literal", "mirrored")

# The CLI evaluates a twist vector only while prod(|a_i| + 1) is below
# 10^TWIST_DIGIT_BUDGET, so each term of the fraction it prints has at most
# TWIST_DIGIT_BUDGET digits.
TWIST_DIGIT_BUDGET = 4300


@dataclass(frozen=True)
class ExtendedRational:
    """A rational in lowest terms with denominator >= 0; (1, 0) is infinity."""

    numerator: int
    denominator: int

    def __post_init__(self) -> None:
        if self.denominator < 0:
            raise ValueError("denominator must be non-negative")
        if self.denominator == 0:
            if self.numerator != 1:
                raise ValueError("infinity is represented as (1, 0)")
        elif gcd(abs(self.numerator), self.denominator) != 1:
            raise ValueError("fraction not in lowest terms")

    @classmethod
    def of(cls, numerator: int, denominator: int) -> "ExtendedRational":
        if denominator == 0:
            return cls(1, 0)
        if denominator < 0:
            numerator, denominator = -numerator, -denominator
        g = gcd(abs(numerator), denominator)
        return cls(numerator // g, denominator // g)

    @property
    def is_infinite(self) -> bool:
        return self.denominator == 0

    def __str__(self) -> str:
        if self.is_infinite:
            return "inf"
        return f"{self.numerator}/{self.denominator}"


INFINITY = ExtendedRational(1, 0)


@dataclass(frozen=True)
class RationalTangle:
    """Twist vector of a rational tangle; the list must be nonempty."""

    twists: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.twists:
            raise ValueError("a rational tangle needs at least one twist")

    @classmethod
    def of(cls, *twists: int) -> "RationalTangle":
        return cls(tuple(twists))


def _apply_convention(twists: Tuple[int, ...], convention: str) -> Tuple[int, ...]:
    if convention == "literal":
        return twists
    if convention == "mirrored":
        return tuple(-a if i % 2 == 0 else a for i, a in enumerate(twists))
    raise ValueError(f"unknown convention {convention!r}")


def cf_eval(tangle: RationalTangle, convention: str = "literal") -> ExtendedRational:
    """Continued-fraction value of the tangle, in lowest terms.

    Total on every integer vector; returns infinity instead of raising.
    """
    twists = _apply_convention(tangle.twists, convention)
    num, den = twists[0], 1
    for a in twists[1:]:
        # a + 1/(num/den) = (a*num + den) / num; handles num = 0 (1/0 = inf)
        # and the infinite accumulator (den = 0 gives a + inf = inf).
        num, den = a * num + den, num
    return ExtendedRational.of(num, den)


def check_twist_budget(twists: Tuple[int, ...]) -> None:
    """Refuse twists with prod(|a_i| + 1) >= 10^TWIST_DIGIT_BUDGET, naming
    the budget.  The product bounds |numerator| and the denominator of
    :func:`cf_eval`: each step maps (num, den) to (a*num + den, num)."""
    limit, product = 10 ** TWIST_DIGIT_BUDGET, 1
    for a in twists:
        product *= abs(a) + 1
        if product >= limit:
            raise ValueError(
                f"twist product prod(|a_i| + 1) must be below 10^{TWIST_DIGIT_BUDGET}")


def is_integral(value: ExtendedRational, infinity_is_integral: bool = False) -> bool:
    """True iff the value is an integer; infinity counts only when the
    flag is set (both conventions occur in tangle calculus)."""
    if value.is_infinite:
        return infinity_is_integral
    return value.denominator == 1


def meridian_count(tangle: RationalTangle, convention: str = "literal") -> int:
    """Absolute numerator of the tangle fraction: the homology coefficient
    of the lifted equator in the branched double cover."""
    return abs(cf_eval(tangle, convention).numerator)
