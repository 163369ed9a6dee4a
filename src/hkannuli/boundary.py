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

This word is the product of the two half-boundary arcs

    k_plus(lambda_plus, mu_plus) = u^lambda_plus * front * v^(q*mu_plus)
    k_minus(lambda_minus, mu_minus) = v^(delta + q*mu_minus) * back * u^lambda_minus

at twists (0, n + mu) and (lambda + n, 0): the arc words under l_2 -> u,
l_1-hat -> v^q, v_hat -> 1, with connector images 1 and v^delta.  The
tests hold them as k_plus_word and k_minus_word, checked against a walk
along the arc's crossings.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from . import arcs
from ._record import Record
from .freegroup import U, V, Word, concat, generator


# Largest |beta|: the alternating pair has 2|beta| blocks per side, and
# `boundary word` prints all of them.
BETA_BUDGET = 100_000


class ParamError(ValueError):
    """Raised with the list of violated invariants, by name."""

    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("; ".join(violations))


class TypeKParams(Record):
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


def check_beta_budget(beta: int) -> None:
    """Reject |beta| above BETA_BUDGET, naming the budget."""
    if abs(beta) > BETA_BUDGET:
        raise ValueError(f"|beta| must be at most {BETA_BUDGET}")


# One (q, beta) per census; an entry near the beta budget holds megabytes.
@lru_cache(maxsize=1)
def _alternating_pair(q: int, beta: int) -> tuple[Word, Word]:
    """(A, A^-1), or (u^-1 A' v^q, v^q A'^-1 u^-1) when beta < 0."""
    check_beta_budget(beta)
    vq = V ** q
    if beta >= 0:
        front = concat(vq, U) ** beta
        return front, front.inverse()
    core = concat(vq, U) ** (-beta - 1)
    return concat(U.inverse(), core, vq), concat(vq, core.inverse(), U.inverse())


def boundary_word(params: TypeKParams, n: int) -> Word:
    """Conjugacy representative of the n-th Moebius band boundary:
    concat(k_plus_word(params, 0, n + mu), k_minus_word(params, lambda + n, 0))."""
    front, back = _alternating_pair(params.q, params.beta)
    middle = generator("v", params.q * (n + params.mu) + params.delta)
    tail = generator("u", params.lam + n)
    return concat(front, middle, back, tail)


def normalize_negative_beta(params: TypeKParams) -> tuple[TypeKParams, Word]:
    """Rewrite a beta < 0 family in beta' = -beta - 1 >= 0 form.

    The first/last entries of the induced sequence peel off as u^-1 ... v^q
    and v^-q ... u^-1, absorbing into mu' = mu + 2, lambda' = lambda - 2 and
    an overall conjugation by u.  Returns the new params and the conjugator
    g with  boundary_word(params, n) = g * boundary_word(params', n) * g^-1
    for every n.
    """
    if params.beta >= 0:
        raise ValueError("normalize_negative_beta requires beta < 0")
    # valid in, valid out: |2*beta' + 1| = |2*beta + 1|, and beta' = 0
    # exactly when beta = -1, where mu' - lambda' = mu - lambda + 4
    normalized = TypeKParams(params.p, params.q, params.delta, params.rho,
                             -params.beta - 1, params.lam - 2, params.mu + 2)
    return normalized, U.inverse()


def homology_class(params: TypeKParams) -> tuple[int, int]:
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
