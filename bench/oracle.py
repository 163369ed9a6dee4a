"""Reference computations the benchmark checks answers against.

Nothing here imports hkannuli: every expected answer is derived from the
benchmark's own constructions, so a wrong kernel cannot vouch for itself.

Words are tuples of ``(generator, exponent)`` blocks, as in the program;
letter strings are tuples of codes 0..3 for u, u^-1, v, v^-1 (inverse
flips the low bit).
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

CODE_BLOCK = {0: ("u", 1), 1: ("u", -1), 2: ("v", 1), 3: ("v", -1)}


# -- block words ---------------------------------------------------------------


def reduce_blocks(blocks) -> tuple:
    """Free reduction of a block sequence."""
    stack: list[list] = []
    for gen, exp in blocks:
        if exp == 0:
            continue
        if stack and stack[-1][0] == gen:
            stack[-1][1] += exp
            if stack[-1][1] == 0:
                stack.pop()
        else:
            stack.append([gen, exp])
    return tuple((g, e) for g, e in stack)


def inverse(w: tuple) -> tuple:
    return tuple((g, -e) for g, e in reversed(w))


def mul(*words: tuple) -> tuple:
    return reduce_blocks(b for w in words for b in w)


def cyclic_core(w: tuple) -> tuple:
    """``(core, conj)`` with ``w = conj core conj^-1`` and core cyclically
    reduced."""
    blocks = list(w)
    conj = []
    while len(blocks) >= 2 and blocks[0][0] == blocks[-1][0]:
        gen, head = blocks[0]
        tail = blocks[-1][1]
        conj.append((gen, head))
        blocks = blocks[1:-1]
        if head + tail:
            blocks.append((gen, head + tail))
            break
    return tuple(blocks), reduce_blocks(conj)


def power(w: tuple, k: int) -> tuple:
    """w^k for k >= 0, built on the cyclic core so huge k stay cheap."""
    core, conj = cyclic_core(w)
    if len(core) == 1:
        (gen, exp), = core
        return mul(conj, ((gen, exp * k),) if k else (), inverse(conj))
    return mul(conj, core * k, inverse(conj))


def substitute(w: tuple, images: dict) -> tuple:
    """Image of w under the endomorphism u -> images["u"], v -> images["v"]."""
    parts = []
    for gen, exp in w:
        image = images[gen]
        parts.append(power(image if exp > 0 else inverse(image), abs(exp)))
    return mul(*parts)


def rotate(core: tuple, block: int, split: int) -> tuple:
    """Cyclic rotation of a cyclically reduced word that starts ``split``
    letters into block ``block`` (0 < split < |exponent| splits it)."""
    gen, exp = core[block]
    sign = 1 if exp > 0 else -1
    head, tail = (gen, sign * split), (gen, exp - sign * split)
    return mul((tail,), core[block + 1:], core[:block], (head,))


def letter_length(w: tuple) -> int:
    return sum(abs(e) for _, e in w)


def abelianization(w: tuple) -> tuple:
    return (sum(e for g, e in w if g == "u"), sum(e for g, e in w if g == "v"))


def parse(text: str) -> tuple:
    """Block word from the u/v/U/V syntax with optional ^exponents."""
    blocks = []
    for token in text.split():
        letter, _, exp = token.partition("^")
        e = int(exp) if exp else 1
        blocks.append((letter.lower(), -e if letter.isupper() else e))
    return reduce_blocks(blocks)


def text(w: tuple) -> str:
    """The program's text syntax for a block word."""
    if not w:
        return "1"
    return " ".join(g if e == 1 else f"{g}^{e}" for g, e in w)


# -- letter strings and the primitive-orbit table -----------------------------------


def codes_of(w: tuple) -> tuple:
    out = []
    for gen, exp in w:
        code = (0 if gen == "u" else 2) + (exp < 0)
        out.extend([code] * abs(exp))
    return tuple(out)


def blocks_of(codes) -> tuple:
    return reduce_blocks(CODE_BLOCK[c] for c in codes)


def canonical_rotation(codes) -> bytes:
    data = bytes(codes)
    if len(data) <= 1:
        return data
    doubled = data + data
    return min(doubled[i:i + len(data)] for i in range(len(data)))


def cyclic_classes(max_len: int) -> list:
    """One letter string per rotation class of the cyclically reduced
    words of length 1..max_len, ordered by canonical key."""
    classes: dict = {}
    for length in range(1, max_len + 1):
        stack = [(c,) for c in range(4)]
        while stack:
            s = stack.pop()
            if len(s) == length:
                if length == 1 or s[0] != s[-1] ^ 1:
                    classes.setdefault(canonical_rotation(s), s)
                continue
            stack.extend(s + (c,) for c in range(4) if c != s[-1] ^ 1)
    return [classes[key] for key in sorted(classes)]


def _elementary_automorphisms() -> list:
    """Nielsen multiplier maps x -> xa, a^-1 x, a^-1 x a for every
    multiplier letter a, plus the swap and the two inversions."""
    maps = []
    for mult, fixed in (("u", "v"), ("v", "u")):
        for sign in (1, -1):
            a = ((mult, sign),)
            x = ((fixed, 1),)
            for image in (mul(x, a), mul(inverse(a), x), mul(inverse(a), x, a)):
                maps.append({mult: ((mult, 1),), fixed: image})
    maps.append({"u": (("v", 1),), "v": (("u", 1),)})
    maps.append({"u": (("u", -1),), "v": (("v", 1),)})
    maps.append({"u": (("u", 1),), "v": (("v", -1),)})
    return maps


@lru_cache(maxsize=None)
def primitive_classes(max_len: int) -> frozenset:
    """Canonical keys of every primitive conjugacy class of cyclic length
    <= max_len: the breadth-first orbit of u under the elementary
    automorphisms, pruned at max_len.  Peak reduction (every primitive
    cyclic word reaches a generator through non-increasing lengths) makes
    the pruned search complete."""
    start = (("u", 1),)
    seen = {canonical_rotation(codes_of(start))}
    frontier = [start]
    autos = _elementary_automorphisms()
    while frontier:
        fresh = []
        for w in frontier:
            for images in autos:
                core, _ = cyclic_core(substitute(w, images))
                if not core or letter_length(core) > max_len:
                    continue
                key = canonical_rotation(codes_of(core))
                if key not in seen:
                    seen.add(key)
                    fresh.append(core)
        frontier = fresh
    return frozenset(seen)


def minimal_period(codes) -> int:
    n = len(codes)
    for period in range(1, n + 1):
        if n % period == 0 and tuple(codes[:period]) * (n // period) == tuple(codes):
            return period
    raise ValueError("empty word has no period")


def is_primitive(codes, max_len: int) -> bool:
    """Primitivity of a cyclically reduced letter string, by table lookup."""
    if len(codes) > max_len:
        raise ValueError("word longer than the primitive table")
    return canonical_rotation(codes) in primitive_classes(max_len)


def is_power_of_primitive(codes, max_len: int) -> bool:
    """A cyclically reduced word is a power of a primitive iff its root,
    the shortest period, is primitive."""
    return is_primitive(tuple(codes[:minimal_period(codes)]), max_len)


# -- type-K families -------------------------------------------------------------


def slope_is_valid(rho: int, beta: int) -> bool:
    return rho >= 0 and gcd(2 * rho, abs(2 * beta + 1)) == 1


def exclusion_window(p, q, delta, rho, beta, lam, mu) -> tuple:
    """The finite set of n that may stay inconclusive, from the closed form
    in the paper: beta < 0 shifts to beta' = -beta - 1, lambda' = lambda - 2,
    mu' = mu + 2; with mid(n) = q(n + mu') + delta the window is
    {mid in {0, q}} + {lambda' + n in {0, 1}} for beta' > 0 and
    {|mid| <= 1} + {|lambda' + n| <= 1} for beta' = 0."""
    if beta < 0:
        beta, lam, mu = -beta - 1, lam - 2, mu + 2
    window = set()
    targets = (0, q) if beta > 0 else (-1, 0, 1)
    for target in targets:
        if (target - delta) % q == 0:
            window.add((target - delta) // q - mu)
    window.update((-lam, 1 - lam) if beta > 0 else (-lam - 1, -lam, 1 - lam))
    return tuple(sorted(window))


def flat_inconclusive(q, delta, lam, mu, span) -> tuple:
    """Inconclusive n of a beta' = 0 family, whose boundary words are
    conjugate to v^a u^b with a = q(n + mu) + delta and b = lambda + n: the
    word is a power of a primitive (or trivial) iff |a| <= 1 or |b| <= 1."""
    return tuple(n for n in range(-span, span + 1)
                 if abs(q * (n + mu) + delta) <= 1 or abs(lam + n) <= 1)


# -- rational tangles -------------------------------------------------------------


def continued_fraction(twists, convention: str) -> tuple:
    """(numerator, denominator) of [a_1, ..., a_n] = a_n + 1/(... + 1/a_1),
    in lowest terms with denominator >= 0; (1, 0) is infinity.  The
    mirrored convention negates a_1, a_3, ... first."""
    if convention == "mirrored":
        twists = [-a if i % 2 == 0 else a for i, a in enumerate(twists)]
    num, den = twists[0], 1
    for a in twists[1:]:
        num, den = a * num + den, num
    if den == 0:
        return 1, 0
    if den < 0:
        num, den = -num, -den
    g = gcd(num, den)
    return num // g, den // g
