"""Shared test helpers: random valid parameter tuples, adapters from the
letter strings and primitive-orbit table of ``bench/oracle.py`` (which
imports nothing from hkannuli, so the kernel never vouches for itself) to
``Word``, the arc walk that builds arc words crossing by crossing, and the
half-boundary arcs."""

from __future__ import annotations

import random
from collections.abc import Mapping
from math import gcd

import hypothesis.strategies as st

import oracle
from hkannuli import arcs, boundary
from hkannuli._record import Record
from hkannuli.freegroup import U, V, Word, concat, reduce as word_reduce


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


def arc_word(coord: ArcCoordinate, images: Mapping[str, Word]) -> Word:
    """Word of the arc with the given coordinate:

        Ce^lambda * Ahat_beta(Co_hat, Ce, v_hat) * Co_hat^mu * s0

    with the interpolating arguments swapped to (Ce, Co_hat, v_hat) when
    beta < 0.  ``images`` assigns a word to each of Ce, Co_hat, v_hat, s0.
    """
    missing = [s for s in ARC_SYMBOLS if s not in images]
    if missing:
        raise ValueError(f"images missing {missing}")
    _, ext = arcs.reference_crossings(coord.rho, coord.beta)
    ce, co, vh, s0 = (images[s] for s in ARC_SYMBOLS)
    if coord.beta >= 0:
        middle = arcs.interpolating(ext, co, ce, vh)
    else:
        middle = arcs.interpolating(ext, ce, co, vh)
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
