"""Shared test helpers: random valid parameter tuples, exhaustive word
enumeration, an independent brute-force primitivity oracle, the arc walk
that builds arc words crossing by crossing, and the half-boundary arcs."""

from __future__ import annotations

import random
from collections.abc import Mapping
from functools import lru_cache
from math import gcd

import hypothesis.strategies as st

from hkannuli import arcs, boundary
from hkannuli._record import Record
from hkannuli.freegroup import U, V, Word, concat, parse_word, reduce as word_reduce

# letter codes 0..3 = u, u^-1, v, v^-1; inverse flips the low bit
_CODE_BLOCK = {0: ("u", 1), 1: ("u", -1), 2: ("v", 1), 3: ("v", -1)}


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
    return word_reduce(_CODE_BLOCK[c] for c in codes)


def canonical_rotation(codes) -> bytes:
    data = bytes(codes)
    if len(data) <= 1:
        return data
    doubled = data + data
    n = len(data)
    return min(doubled[i:i + n] for i in range(n))


def cyclically_reduced_classes(max_len: int) -> dict:
    """One representative letter string per cyclic rotation class, for all
    cyclically reduced words of letter length <= max_len."""
    classes: dict[bytes, tuple] = {}
    for length in range(1, max_len + 1):
        stack = [(c, (c,)) for c in range(4)]
        while stack:
            last, s = stack.pop()
            if len(s) == length:
                if length == 1 or s[0] != (s[-1] ^ 1):
                    classes.setdefault(canonical_rotation(s), s)
                continue
            for nxt in range(4):
                if nxt != (last ^ 1):
                    stack.append((nxt, s + (nxt,)))
    return classes


def _elementary_automorphisms():
    """Generators of the automorphism group, written out independently of
    the implementation under test: Nielsen-style multiplier maps plus the
    swap and the two inversions."""
    images = []
    for mult, fixed in (("u", "v"), ("v", "u")):
        for sign in ("", "^-1"):
            for pattern in ("{x} {a}", "{ainv} {x}", "{ainv} {x} {a}"):
                a = mult if not sign else f"{mult}{sign}"
                ainv = f"{mult}^-1" if not sign else mult
                text = pattern.format(x=fixed, a=a, ainv=ainv)
                images.append({mult: parse_word(mult), fixed: parse_word(text)})
    images.append({"u": parse_word("v"), "v": parse_word("u")})
    images.append({"u": parse_word("u^-1"), "v": parse_word("v")})
    images.append({"u": parse_word("u"), "v": parse_word("v^-1")})
    return images


def _apply(word: Word, images) -> Word:
    blocks = []
    for gen, exp in word.blocks:
        blocks.extend((images[gen] ** exp).blocks)
    return word_reduce(blocks)


def letters(word: Word):
    """Yield single signed letters, e.g. v^2 u^-1 -> (v,1),(v,1),(u,-1)."""
    for gen, exp in word.blocks:
        sign = 1 if exp > 0 else -1
        for _ in range(abs(exp)):
            yield gen, sign


def _codes(word: Word) -> tuple:
    table = {("u", 1): 0, ("u", -1): 1, ("v", 1): 2, ("v", -1): 3}
    return tuple(table[(g, s)] for g, s in letters(word))


@lru_cache(maxsize=None)
def oracle_primitive_classes(max_len: int) -> frozenset:
    """Canonical rotation keys of every primitive conjugacy class of cyclic
    length <= max_len: breadth-first orbit of the generator u under the
    elementary automorphisms, pruned at max_len (peak reduction guarantees
    completeness under the pruning)."""
    from hkannuli.freegroup import cyclic_reduce

    autos = _elementary_automorphisms()
    start = parse_word("u")
    seen = {canonical_rotation(_codes(start))}
    frontier = [start]
    while frontier:
        new = []
        for w in frontier:
            for images in autos:
                core, _ = cyclic_reduce(_apply(w, images))
                if core.is_identity or core.length() > max_len:
                    continue
                key = canonical_rotation(_codes(core))
                if key not in seen:
                    seen.add(key)
                    new.append(core)
        frontier = new
    return frozenset(seen)


def oracle_is_primitive(word: Word, max_len: int = 8) -> bool:
    from hkannuli.freegroup import cyclic_reduce

    core, _ = cyclic_reduce(word)
    if core.length() > max_len:
        raise ValueError("oracle table too small for this word")
    return canonical_rotation(_codes(core)) in oracle_primitive_classes(max_len)


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
