"""Shared test helpers: random valid parameter tuples, adapters from the
letter strings and primitive-orbit table of ``bench/oracle.py`` (which
imports nothing from hkannuli, so the kernel never vouches for itself) to
``Word``, the crossing-by-crossing arc layout, the arc walk that builds arc
words from it, the half-boundary arcs, the homology derivation behind the
parameter bands, and the named decomposition graphs."""

from __future__ import annotations

import random
from collections.abc import Mapping
from math import gcd

import hypothesis.strategies as st

import oracle
from hkannuli import arcs, boundary
from hkannuli._record import Record
from hkannuli.freegroup import U, V, Word, concat, reduce as word_reduce
from hkannuli.jsjgraph import Edge, JsjGraph, NodeKind


def word_strategy(max_blocks: int = 6, max_exp: int = 3):
    exps = st.integers(-max_exp, max_exp).filter(lambda e: e != 0)
    blocks = st.lists(st.tuples(st.sampled_from(["u", "v"]), exps),
                      max_size=max_blocks)
    return st.builds(word_reduce, blocks)


def valid_slopes(max_rho, max_beta):
    """Every valid (rho, beta) with rho <= max_rho and |beta| <= max_beta."""
    return [(rho, beta) for beta in range(-max_beta, max_beta + 1)
            for rho in range(max_rho + 1) if arcs.slope_is_valid(rho, beta)]


def sample_typek_params(rng: random.Random,
                        beta_range=(-5, 5)) -> boundary.TypeKParams:
    """Uniform-ish valid parameter tuple within the acceptance bounds."""
    while True:
        q = rng.randint(1, 10)
        ps = [p for p in range(-20, 21) if abs(p) >= 2 and gcd(p, q) == 1]
        p = rng.choice(ps)
        delta = (-pow(p, -1, q)) % q if q > 1 else 0
        beta = rng.randint(*beta_range)
        rhos = [r for r in range(0, 11) if gcd(2 * r, abs(2 * beta + 1)) == 1]
        if not rhos:
            continue
        rho = rng.choice(rhos)
        lam = rng.randint(-10, 10)
        if beta == 0:
            mu = lam + rng.choice((-1, 0, 1))
        elif beta == -1:
            mu = lam - 4 + rng.choice((-1, 0, 1))
        else:
            mu = rng.randint(-10, 10)
        if abs(mu) > 10:
            continue
        return boundary.validate_params(p, q, delta, rho, beta, lam, mu)


def word_from_codes(codes) -> Word:
    return Word(oracle.blocks_of(codes))


def oracle_is_primitive(word: Word, max_len: int) -> bool:
    """Primitivity of the class of ``word`` by lookup in the oracle's
    primitive-orbit table of cyclic length <= max_len."""
    return oracle.is_primitive(oracle.codes_of(oracle.cyclic_core(word.blocks)[0]), max_len)


# -- the arc walk ---------------------------------------------------------------

ARC_SYMBOLS = ("Ce", "Co_hat", "v_hat", "s0")


class ArcCoordinate(Record):
    """Coordinate (slope, twists): slope 2*rho/(2*beta+1), twists (lam, mu)."""

    rho: int
    beta: int
    lam: int
    mu: int

    def __post_init__(self) -> None:
        if self.rho < 0:
            raise ValueError("rho must be non-negative; the slope sign lives in 2*beta+1")
        if not arcs.slope_is_valid(self.rho, self.beta):
            raise ValueError(
                f"2*rho and 2*beta+1 must be coprime; got rho={self.rho}, beta={self.beta}")


def crossing_duals(rho: int, beta: int) -> tuple[str, ...]:
    """The dual arc met at each extension position, in crossing order."""
    return tuple(dual for dual, _, count in arcs.crossing_runs(rho, beta)
                 for _ in range(count))


def expanded_layout(rho: int, beta: int) -> tuple[tuple[int, ...], ...]:
    """(A, A-hat, kappa, zetas) of the reference arc, read crossing by
    crossing: A-hat is every crossing's sign in order, kappa the 1-based
    positions of the d-crossings in it, A their signs, and each zeta the sum
    of the A-hat entries strictly between two neighbouring kappa positions
    (the ends padded)."""
    crossings = [(dual, sign) for dual, sign, count in arcs.crossing_runs(rho, beta)
                 for _ in range(count)]
    a_hat = tuple(sign for _, sign in crossings)
    kappa = tuple(i for i, (dual, _) in enumerate(crossings, start=1) if dual != "s0p")
    bounds = (0,) + kappa + (len(a_hat) + 1,)
    zetas = tuple(sum(a_hat[lo:hi - 1]) for lo, hi in zip(bounds, bounds[1:]))
    return tuple(a_hat[k - 1] for k in kappa), a_hat, kappa, zetas


def arc_word(coord: ArcCoordinate, images: Mapping[str, Word]) -> Word:
    """Word of the arc with the given coordinate:

        Ce^lambda * Ahat_beta(Co_hat, Ce, v_hat) * Co_hat^mu * s0

    with the interpolating arguments swapped to (Ce, Co_hat, v_hat) when
    beta < 0.  ``images`` assigns a word to each of Ce, Co_hat, v_hat, s0.
    """
    missing = [s for s in ARC_SYMBOLS if s not in images]
    if missing:
        raise ValueError(f"images missing {missing}")
    base, _, zetas = arcs.reference_crossings(coord.rho, coord.beta)
    ce, co, vh, s0 = (images[s] for s in ARC_SYMBOLS)
    if coord.beta >= 0:
        middle = arcs.interpolating(base, zetas, co, ce, vh)
    else:
        middle = arcs.interpolating(base, zetas, ce, co, vh)
    return concat(ce ** coord.lam, middle, co ** coord.mu, s0)


def k_plus_word(params: boundary.TypeKParams, lam_plus: int, mu_plus: int) -> Word:
    """Word of the forward half-boundary arc with split twists
    (lambda_plus, mu_plus):

        Ce^lam_plus * Ahat_beta(Co_hat, Ce, v_hat) * Co_hat^mu_plus * s0

    under l_2 -> u, l_1-hat -> v^q, v_hat -> 1 (the separating-disk loop
    dies in the handlebody group) and the identity connector image.  With
    v_hat dead the interpolating word is the front of the alternating pair.
    """
    front, _ = boundary._alternating_pair(params.q, params.beta)
    return concat(U ** lam_plus, front, V ** (params.q * mu_plus))


def k_minus_word(params: boundary.TypeKParams, lam_minus: int, mu_minus: int) -> Word:
    """Word of the return half-boundary arc: the involution swapping the
    two solid tori carries it to the forward arc, which inverts every
    interpolating argument:

        s0 * Co_hat^mu_minus * Ahat_beta(Ce^-1, Co_hat^-1, v_hat^-1) * Ce^lam_minus

    (arguments swapped to (Co_hat^-1, Ce^-1) when beta < 0).  The
    connector image is v^delta, and the middle is the back of the
    alternating pair."""
    _, back = boundary._alternating_pair(params.q, params.beta)
    return concat(V ** (params.delta + params.q * mu_minus), back, U ** lam_minus)


# -- the homology derivation ----------------------------------------------------
# boundary.params_violations' homology-claim bands: |mu - lambda| <= 1 at
# beta = 0 (and, through normalize_negative_beta, |mu - lambda + 4| <= 1 at
# beta = -1).


def homology_class(params: boundary.TypeKParams) -> tuple[int, int]:
    """Class of the n = -lambda band boundary on the solid-torus boundary,
    as (Theta, L) with L = q*Delta + delta, Delta = mu - lambda.

    Only derived for beta = 0 (route beta < 0 through
    ``normalize_negative_beta`` first).  Theta = p*Delta + (p*delta+1)/q
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


# -- named decomposition graphs -------------------------------------------------
# They carry only text-derivable structure: a punctured Klein bottle has one
# boundary circle and a punctured Moebius band two, so the I-bundle frontier
# contributes that many loop annuli.


def trivial_graph() -> JsjGraph:
    """Single simple piece, no annuli: the totally-geodesic-boundary case."""
    return JsjGraph(nodes=(("x", NodeKind.SIMPLE),), edges=())


def graph_k() -> JsjGraph:
    """Central I-fibered piece over a once-punctured Klein bottle: one
    boundary circle, hence one loop annulus."""
    return JsjGraph(nodes=(("x", NodeKind.IFIBERED),),
                    edges=(Edge("a", "x", "x"),))


def graph_m() -> JsjGraph:
    """Central I-fibered piece over a once-punctured Moebius band: two
    boundary circles, hence two loop annuli."""
    return JsjGraph(nodes=(("x", NodeKind.IFIBERED),),
                    edges=(Edge("a", "x", "x"), Edge("b", "x", "x")))
