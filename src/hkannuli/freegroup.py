"""Exact word algebra in the rank-2 free group on generators u, v.

Words are kept in reduced block form: a tuple of ``(generator, exponent)``
pairs with nonzero exponents and distinct adjacent generators.  The empty
tuple is the identity.  All values are immutable and all operations are
pure, so everything here is safe to share between threads.

Text syntax (used by the CLI and the tests): ``u``, ``v``, ``U`` (= u^-1),
``V`` (= v^-1), optional ``^`` integer exponents, juxtaposition, and ``1``
for the identity.  Example: ``v^2 u^-3``.

A cyclically reduced core has a block decomposition that is unique up to
rotation, so two words are conjugate iff the least block rotations of their
cyclic cores agree, and roots are periods of the core's blocks.  Powers
repeat the core's blocks and are then conjugated back.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Tuple

GENERATORS = ("u", "v")

Block = Tuple[str, int]


@dataclass(frozen=True)
class Word:
    """A freely reduced word, stored as blocks ``(generator, exponent)``."""

    blocks: Tuple[Block, ...] = ()

    def __post_init__(self) -> None:
        prev = None
        for gen, exp in self.blocks:
            if gen not in GENERATORS:
                raise ValueError(f"unknown generator {gen!r}")
            if exp == 0:
                raise ValueError("zero exponent in reduced word")
            if gen == prev:
                raise ValueError("adjacent blocks share a generator")
            prev = gen

    # -- basic queries -------------------------------------------------

    @property
    def is_identity(self) -> bool:
        return not self.blocks

    def length(self) -> int:
        """Letter length: the sum of absolute exponents."""
        return sum(abs(exp) for _, exp in self.blocks)

    def exponents(self, gen: str) -> Tuple[int, ...]:
        # a list, not a generator, here and in inverse: tuple() resizes a
        # generator's tuple with realloc, past the free lists it is freed onto
        return tuple([exp for g, exp in self.blocks if g == gen])

    def abelianization(self) -> Tuple[int, int]:
        """Exponent sums ``(u-total, v-total)``."""
        totals = {"u": 0, "v": 0}
        for gen, exp in self.blocks:
            totals[gen] += exp
        return totals["u"], totals["v"]

    # -- group operations ----------------------------------------------

    def inverse(self) -> "Word":
        return Word(tuple([(gen, -exp) for gen, exp in reversed(self.blocks)]))

    def __pow__(self, n: int) -> "Word":
        if len(self.blocks) == 1:
            gen, exp = self.blocks[0]
            return generator(gen, exp * n)
        core, conj = cyclic_reduce(self if n >= 0 else self.inverse())
        n = abs(n)
        # copies of a cyclically reduced core of two or more blocks never merge
        power = core ** n if len(core.blocks) == 1 else Word(core.blocks * n)
        return concat(conj, power, conj.inverse()) if conj.blocks else power

    def __str__(self) -> str:
        return format_word(self)


IDENTITY = Word()


def generator(gen: str, exp: int = 1) -> Word:
    if exp == 0:
        return IDENTITY
    return Word(((gen, exp),))


U = generator("u")
V = generator("v")


def reduce(raw: Iterable[Block]) -> Word:
    """Freely reduce a block sequence: merge runs, drop zero exponents.
    Blocks that merge with nothing are kept as the same tuples."""
    stack: list[Block] = []
    for block in raw:
        gen, exp = block
        if stack and stack[-1][0] == gen:
            exp += stack.pop()[1]
            if exp:
                stack.append((gen, exp))
        elif exp:
            stack.append(block)
    return Word(tuple(stack))


def concat(*words: Word) -> Word:
    blocks: list[Block] = []
    for w in words:
        blocks.extend(w.blocks)
    return reduce(blocks)


def cyclic_reduce(w: Word) -> Tuple[Word, Word]:
    """Split ``w = conjugator * core * conjugator^-1`` with a cyclically
    reduced core (first and last blocks cannot merge); the conjugator is a
    block prefix of w."""
    blocks = w.blocks
    i, j = 0, len(blocks) - 1
    while i < j and blocks[i][0] == blocks[j][0]:
        gen, head = blocks[i]
        total = head + blocks[j][1]
        if total:
            return Word(blocks[i + 1:j] + ((gen, total),)), Word(blocks[:i + 1])
        i, j = i + 1, j - 1
    if not i:
        return w, IDENTITY
    return Word(blocks[i:j + 1]), Word(blocks[:i])


def _conjugacy_key(w: Word) -> Tuple[Block, ...]:
    """Least rotation of the cyclic core's blocks: equal exactly for
    conjugate words; the identity maps to ``()``."""
    blocks = cyclic_reduce(w)[0].blocks
    return min((blocks[i:] + blocks[:i] for i in range(len(blocks))), default=())


def are_conjugate(a: Word, b: Word) -> bool:
    """True iff the cyclic cores are cyclic rotations of one another."""
    return _conjugacy_key(a) == _conjugacy_key(b)


def root(w: Word) -> Tuple[Word, int]:
    """Maximal root: ``w = r^k`` with ``k`` maximal, via period detection
    on the cyclic core's blocks, conjugated back."""
    if w.is_identity:
        raise ValueError("identity has no root decomposition")
    core, conj = cyclic_reduce(w)
    blocks = core.blocks
    n = len(blocks)
    if n == 1:
        gen, exp = blocks[0]
        r_core, k = generator(gen, 1 if exp > 0 else -1), abs(exp)
    else:
        period = next(p for p in range(1, n + 1)
                      if n % p == 0 and blocks == blocks[:p] * (n // p))
        r_core, k = Word(blocks[:period]), n // period
    return concat(conj, r_core, conj.inverse()), k


# -- Whitehead primitivity -------------------------------------------------


def apply_endomorphism(w: Word, images: Mapping[str, Word]) -> Word:
    """Substitute ``images[g]`` for each generator g and reduce."""
    blocks: list[Block] = []
    for gen, exp in w.blocks:
        blocks.extend((images[gen] ** exp).blocks)
    return reduce(blocks)


def _whitehead_maps() -> Tuple[Mapping[str, Word], ...]:
    # Rank-2 type-II Whitehead automorphisms: for multiplier a in
    # {u, u^-1, v, v^-1} the non-multiplier generator x maps to x*a or
    # a^-1*x while a is fixed.  Eight maps in total.  x -> a^-1*x*a is
    # conjugation by a and type-I maps (permutations/inversions) keep the
    # cyclic length, so neither can shorten a word in the descent.
    maps = []
    for mult_gen, fixed_gen in (("u", "v"), ("v", "u")):
        for mult_exp in (1, -1):
            a = generator(mult_gen, mult_exp)
            x = generator(fixed_gen)
            for image in (concat(x, a), concat(a.inverse(), x)):
                maps.append({mult_gen: generator(mult_gen), fixed_gen: image})
    return tuple(maps)


_WHITEHEAD_MAPS: Tuple[Mapping[str, Word], ...] = _whitehead_maps()


def whitehead_minimize(w: Word) -> Word:
    """Greedy descent: apply rank-2 Whitehead automorphisms while the
    cyclic length strictly decreases; returns a minimal cyclic core.  A
    one-block core g^e is already minimal: no type-II map shortens it."""
    current, _ = cyclic_reduce(w)
    improved = True
    while improved and len(current.blocks) > 1:
        improved = False
        for images in _WHITEHEAD_MAPS:
            candidate, _ = cyclic_reduce(apply_endomorphism(current, images))
            if candidate.length() < current.length():
                current = candidate
                improved = True
                break
    return current


def is_primitive(w: Word) -> bool:
    """True iff w belongs to a basis of the rank-2 free group.

    Decided by Whitehead descent: w is primitive iff the minimum cyclic
    length reachable by length-decreasing Whitehead automorphisms is 1.
    """
    return whitehead_minimize(w).length() == 1


def is_power_of_primitive(w: Word) -> bool:
    """True iff ``w = r^k`` for some primitive r (and some k >= 1)."""
    if w.is_identity:
        raise ValueError("identity is excluded from the power criterion")
    r, _ = root(w)
    return is_primitive(r)


def cho_koda_criterion(w: Word) -> bool:
    """Syntactic certificate that w is NOT a power of a primitive element.

    On the cyclic core written as alternating u/v blocks, fire iff

    * both generators' exponent lists are non-constant, or
    * both generators carry some exponent of absolute value > 1.

    Either condition forces the cyclic word to contain a generator together
    with its inverse, or squares of both generators, which no power of a
    primitive can do.  Evaluated on exponent multisets so the answer is
    rotation-, conjugation- and inversion-invariant.  ``False`` is
    inconclusive.  Words in one generator (and the identity) return False.
    """
    core, _ = cyclic_reduce(w)
    u_exps = core.exponents("u")
    v_exps = core.exponents("v")
    if not u_exps or not v_exps:
        return False
    varied = len(set(u_exps)) > 1 and len(set(v_exps)) > 1
    squares = any(abs(e) > 1 for e in u_exps) and any(abs(e) > 1 for e in v_exps)
    return varied or squares


# -- text syntax ------------------------------------------------------------

_TOKEN = re.compile(r"\s*([uvUV])(?:\^(-?\d+))?\s*")

# Most digits an integer in word or graph text may have: CPython's lowest
# settable int/str conversion limit, so PYTHONINTMAXSTRDIGITS cannot move it.
DIGIT_BUDGET = 640
_DIGIT_LIMIT = 10 ** DIGIT_BUDGET
_DIGIT_ERROR = f"integers must have at most {DIGIT_BUDGET} digits"


def excerpt(text: str) -> str:
    """``repr`` of at most 40 characters of text, for error messages."""
    return repr(text) if len(text) <= 40 else repr(text[:40]) + "..."


def check_digit_budget(*texts: str) -> None:
    """Refuse integer texts past :data:`DIGIT_BUDGET` digits before ``int`` reads them."""
    if any(sum(map(str.isdigit, text)) > DIGIT_BUDGET for text in texts):
        raise ValueError(_DIGIT_ERROR)


def parse_word(text: str) -> Word:
    """Parse the u/v/U/V text syntax; ``1`` denotes the identity."""
    stripped = text.strip()
    if stripped == "1" or stripped == "":
        return IDENTITY
    check_digit_budget(*re.findall(r"\d+", stripped))  # every exponent is such a run
    blocks: list[Block] = []
    pos = 0
    while pos < len(stripped):
        match = _TOKEN.match(stripped, pos)
        if not match:
            raise ValueError(f"cannot parse word at {excerpt(stripped[pos:])}")
        letter, exp_text = match.groups()
        exp = 1 if exp_text is None else int(exp_text)
        gen = letter.lower()
        if letter.isupper():
            exp = -exp
        blocks.append((gen, exp))
        pos = match.end()
    word = reduce(blocks)
    if any(abs(exp) >= _DIGIT_LIMIT for _, exp in word.blocks):
        raise ValueError(_DIGIT_ERROR)  # merged blocks, as in u^9...9 u^9...9
    return word


def format_word(w: Word) -> str:
    """Deterministic text form, re-parseable by :func:`parse_word`."""
    if w.is_identity:
        return "1"
    parts = []
    for gen, exp in w.blocks:
        parts.append(gen if exp == 1 else f"{gen}^{exp}")
    return " ".join(parts)
