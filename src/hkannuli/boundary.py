"""Boundary words of the twisted Moebius-band family in a type-K exterior.

A type-K handlebody-knot carries the data (p, q, delta, rho, beta, lambda,
mu): the non-separating annulus has slope pair (p/q, p*q), delta is the
algebraic intersection of the meridian d_1 with the connector arc s, and
(2*rho/(2*beta+1), lambda, mu) is the merged arc coordinate of the two
half-boundary arcs.  In the basis u = [l_2], v = [l_0] of the handlebody
group, the boundary of the n-th Moebius band is conjugate to

    front * v^(q(n+mu)+delta) * back * u^(lambda+n)

with (front, back) = (A, A^-1), A = (v^q u)^beta, for beta >= 0 and
(u^-1 A' v^q, v^q A'^-1 u^-1), A' = (v^q u)^(-beta-1), for beta < 0: the
arc's d-crossing signs are constant, so rho enters only the validity check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Tuple

from . import arcs
from .freegroup import U, V, Word, concat, generator


# Largest |beta|: the alternating pair has 2|beta| blocks per side, and
# `boundary word` prints all of them.
BETA_BUDGET = 100_000


class ParamError(ValueError):
    """Raised with the list of violated invariants, by name."""

    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("; ".join(violations))


@dataclass(frozen=True)
class TypeKParams:
    """Validated parameter tuple of a type-K separating-annulus family."""

    p: int
    q: int
    delta: int
    rho: int
    beta: int
    lam: int
    mu: int


def params_violations(p: int, q: int, delta: int, rho: int, beta: int,
                      lam: int, mu: int) -> list[str]:
    """All violated invariants, by name; empty means valid.

    Besides the slope-pair and connector congruence constraints, the
    homology of the n = -lambda band forces |mu - lambda| <= 1 when
    beta = 0 and |mu - lambda + 4| <= 1 when beta = -1; parameter tuples
    outside those bands are not realised by any type-K handlebody-knot,
    and the finite exclusion windows below rely on them.
    """
    violations = []
    if p in (0, 1, -1):
        violations.append("slope-pair: p must avoid {0, 1, -1}")
    if q <= 0:
        violations.append("slope-pair: q must be positive")
    else:
        if not 0 <= delta < q:
            violations.append("connector: delta must satisfy 0 <= delta < q")
        elif (p * delta) % q != (-1) % q:
            violations.append("connector: p*delta must be -1 modulo q")
        if gcd(p, q) != 1:
            violations.append("slope-pair: p and q must be coprime")
        if q == 2 and delta != 1:
            violations.append("connector: q = 2 forces delta = 1")
    if rho < 0:
        violations.append("arc-slope: rho must be non-negative")
    elif not arcs.slope_is_valid(rho, beta):
        violations.append("arc-slope: 2*rho and 2*beta+1 must be coprime")
    if beta == 0 and abs(mu - lam) > 1:
        violations.append("homology-claim: beta = 0 forces |mu - lambda| <= 1")
    if beta == -1 and abs(mu - lam + 4) > 1:
        violations.append("homology-claim: beta = -1 forces |mu - lambda + 4| <= 1")
    return violations


def validate_params(p: int, q: int, delta: int, rho: int, beta: int,
                    lam: int, mu: int) -> TypeKParams:
    violations = params_violations(p, q, delta, rho, beta, lam, mu)
    if violations:
        raise ParamError(violations)
    return TypeKParams(p, q, delta, rho, beta, lam, mu)


def k_plus_word(params: TypeKParams, lam_plus: int, mu_plus: int) -> Word:
    """Word of the forward half-boundary arc with split twists
    (lambda_plus, mu_plus):

        Ce^lam_plus * Ahat_beta(Co_hat, Ce, v_hat) * Co_hat^mu_plus * s0

    under l_2 -> u, l_1-hat -> v^q, v_hat -> 1 (the separating-disk loop
    dies in the handlebody group) and the identity connector image.  With
    v_hat dead the interpolating word is the front of the alternating pair.
    """
    front, _ = _alternating_pair(params.q, params.beta)
    return concat(U ** lam_plus, front, V ** (params.q * mu_plus))


def k_minus_word(params: TypeKParams, lam_minus: int, mu_minus: int) -> Word:
    """Word of the return half-boundary arc: the involution swapping the
    two solid tori carries it to the forward arc, which inverts every
    interpolating argument:

        s0 * Co_hat^mu_minus * Ahat_beta(Ce^-1, Co_hat^-1, v_hat^-1) * Ce^lam_minus

    (arguments swapped to (Co_hat^-1, Ce^-1) when beta < 0).  The
    connector image is v^delta, and the middle is the back of the
    alternating pair."""
    _, back = _alternating_pair(params.q, params.beta)
    return concat(V ** (params.delta + params.q * mu_minus), back, U ** lam_minus)


def check_beta_budget(beta: int) -> None:
    """Reject |beta| above BETA_BUDGET, naming the budget."""
    if abs(beta) > BETA_BUDGET:
        raise ValueError(f"|beta| must be at most {BETA_BUDGET}")


# One (q, beta) per census; an entry near the beta budget holds megabytes.
@lru_cache(maxsize=1)
def _alternating_pair(q: int, beta: int) -> Tuple[Word, Word]:
    """(A, A^-1), or (u^-1 A' v^q, v^q A'^-1 u^-1) when beta < 0."""
    check_beta_budget(beta)
    vq = V ** q
    if beta >= 0:
        front = concat(vq, U) ** beta
        return front, front.inverse()
    core = concat(vq, U) ** (-beta - 1)
    return concat(U.inverse(), core, vq), concat(vq, core.inverse(), U.inverse())


def boundary_word(params: TypeKParams, n: int) -> Word:
    """Conjugacy representative of the n-th Moebius band boundary."""
    front, back = _alternating_pair(params.q, params.beta)
    middle = generator("v", params.q * (n + params.mu) + params.delta)
    tail = generator("u", params.lam + n)
    return concat(front, middle, back, tail)


def normalize_negative_beta(params: TypeKParams) -> Tuple[TypeKParams, Word]:
    """Rewrite a beta < 0 family in beta' = -beta - 1 >= 0 form.

    The first/last entries of the induced sequence peel off as u^-1 ... v^q
    and v^-q ... u^-1, absorbing into mu' = mu + 2, lambda' = lambda - 2 and
    an overall conjugation by u.  Returns the new params and the conjugator
    g with  boundary_word(params, n) = g * boundary_word(params', n) * g^-1
    for every n.
    """
    if params.beta >= 0:
        raise ValueError("normalize_negative_beta requires beta < 0")
    normalized = validate_params(params.p, params.q, params.delta, params.rho,
                                 -params.beta - 1, params.lam - 2, params.mu + 2)
    return normalized, U.inverse()


def homology_class(params: TypeKParams) -> Tuple[int, int]:
    """Class of the n = -lambda band boundary on the solid-torus boundary,
    as (Theta, L) with L = q*Delta + delta, Delta = mu - lambda.

    Only derived for beta = 0 (route beta < 0 through
    :func:`normalize_negative_beta` first).  Theta = p*Delta + (p*delta+1)/q
    is integral by the connector congruence, and q*Theta - p*L = 1.
    """
    if params.beta != 0:
        raise ValueError("homology_class is defined in the beta = 0 context")
    delta_twist = params.mu - params.lam
    numerator = params.p * params.delta + 1
    if numerator % params.q != 0:
        raise ArithmeticError("connector congruence violated; params invalid")
    theta = params.p * delta_twist + numerator // params.q
    ell = params.q * delta_twist + params.delta
    return theta, ell


def delta_claim_gamma(p: int, q: int, delta: int, delta_twist: int) -> int:
    """Gamma = p*(q*Delta + delta) + 1, the quantity that must avoid +-2q
    for |Delta| >= 2; its avoidance forces |mu - lambda| <= 1."""
    return p * (q * delta_twist + delta) + 1
