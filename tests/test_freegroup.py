import itertools
import random

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

import oracle
from conftest import oracle_is_primitive, word_from_codes, word_strategy
from hkannuli import freegroup
from hkannuli.freegroup import (DIGIT_BUDGET, IDENTITY, Word, _conjugacy_key,
                                are_conjugate, cho_koda_criterion, concat,
                                cyclic_reduce, format_word, is_power_of_primitive,
                                is_primitive, parse_word, reduce, root,
                                whitehead_minimize)
from math import gcd

W = parse_word


class TestReduce:
    @pytest.mark.parametrize("raw, expected", [
        ([("u", 1), ("u", -1)], "1"),
        ([("v", 2), ("v", 1), ("u", 3)], "v^3 u^3"),
        ([("u", 1), ("v", 1), ("v", -1), ("u", 2)], "u^3"),
    ])
    def test_examples(self, raw, expected):
        assert format_word(reduce(raw)) == expected

    def test_unmerged_blocks_kept(self):
        raw = [("u", 2), ("v", 1), ("v", 3), ("u", -1), ("v", 0), ("u", 5)]
        blocks = reduce(raw).blocks
        assert blocks == (("u", 2), ("v", 4), ("u", 4))
        assert blocks[0] is raw[0] and blocks[1] is not raw[1]

    def test_word_invariants_enforced(self):
        with pytest.raises(ValueError):
            Word((("u", 0),))
        with pytest.raises(ValueError):
            Word((("u", 1), ("u", 2)))


class TestGroupOps:
    def test_concat_examples(self):
        assert concat(W("u v"), W("V u")) == W("u^2")
        assert W("v^2 u^3").inverse() == W("u^-3 v^-2")

    @given(word_strategy())
    def test_inverse_cancels(self, w):
        assert concat(w, w.inverse()) == IDENTITY

    @given(word_strategy(), word_strategy(), word_strategy())
    def test_associative(self, a, b, c):
        assert concat(concat(a, b), c) == concat(a, concat(b, c))

    @given(word_strategy(max_blocks=3))
    def test_power_matches_repeated_product(self, w):
        acc = IDENTITY
        for k in range(5):
            assert w ** k == acc
            acc = concat(acc, w)
        assert w ** -3 == (w ** 3).inverse()


class TestCyclicReduce:
    @pytest.mark.parametrize("text, core, conj", [
        ("u v U", "v", "u"),
        ("v^2 u^3", "v^2 u^3", "1"),
        ("U v^2 u^3 v u", "u^3 v^3", "U v^2"),
    ])
    def test_examples(self, text, core, conj):
        got_core, got_conj = cyclic_reduce(W(text))
        assert (format_word(got_core), got_conj) == (core, W(conj))

    @given(word_strategy())
    def test_reconstructs_and_core_is_cyclically_reduced(self, w):
        core, conj = cyclic_reduce(w)
        assert concat(conj, core, conj.inverse()) == w
        blocks = core.blocks
        if len(blocks) >= 2:
            assert blocks[0][0] != blocks[-1][0]


def test_power_and_cyclic_reduce_exhaustive():
    # every reduced word of at most 4 blocks with exponents in {-2, -1, 1, 2}
    words = [IDENTITY]
    for count in range(1, 5):
        for gens in ("uv", "vu"):
            for exps in itertools.product((-2, -1, 1, 2), repeat=count):
                words.append(Word(tuple((gens[i % 2], e) for i, e in enumerate(exps))))
    assert len(words) == 681
    for w in words:
        core, conj = cyclic_reduce(w)
        assert w.blocks[:len(conj.blocks)] == conj.blocks
        assert concat(conj, core, conj.inverse()) == w
        assert len(core.blocks) < 2 or core.blocks[0][0] != core.blocks[-1][0]
        for n in range(-4, 5):
            base = w if n >= 0 else w.inverse()
            assert w ** n == concat(*[base] * abs(n)), (w, n)


class TestConjugacy:
    def test_examples(self):
        assert are_conjugate(W("u v"), W("v u"))
        assert not are_conjugate(W("u v"), W("U v"))
        assert are_conjugate(W("u^1000000000 v"), W("v u^1000000000"))

    @given(word_strategy(), word_strategy())
    def test_conjugation(self, w, g):
        assert are_conjugate(w, concat(g, w, g.inverse()))

    def test_cyclic_word_equality_and_hash(self):
        # the conjugacy key stands for a cyclic word: equal, with equal
        # hashes, exactly on a conjugacy class, and it decodes to the
        # canonical rotation of the cyclic core
        a = _conjugacy_key(W("u v^2 U"))
        b = _conjugacy_key(W("v^2"))
        assert a == b and hash(a) == hash(b)
        assert Word(a) == W("v^2")
        assert are_conjugate(W("u v^2 U"), W("v^2"))
        assert a != _conjugacy_key(W("v^-2"))
        assert not are_conjugate(W("u v^2 U"), W("v^-2"))


class TestRoot:
    def test_examples(self):
        assert root(W("u^4")) == (W("u"), 4)
        assert root(W("u v") ** 3) == (W("u v"), 3)
        assert root(W("u v u v^2")) == (W("u v u v^2"), 1)
        assert root(W("u^1000000000 v") ** 3) == (W("u^1000000000 v"), 3)

    def test_identity_rejected(self):
        with pytest.raises(ValueError):
            root(IDENTITY)

    @given(word_strategy(max_blocks=4), st.integers(1, 5))
    @settings(max_examples=60)
    def test_power_round_trip(self, r, k):
        if r.is_identity or root(r)[1] != 1:
            return
        assert root(r ** k) == (r, k)


def test_blocks_agree_with_letter_reference():
    # every cyclic class of letter length <= 8: the block key is one value
    # per class, and the root is the minimal letter period of the class
    classes = oracle.cyclic_classes(8)
    keys = set()
    for codes in classes:
        n = len(codes)
        key = _conjugacy_key(word_from_codes(codes))
        for i in range(1, n):
            assert _conjugacy_key(word_from_codes(codes[i:] + codes[:i])) == key
        keys.add(key)
        period = next(p for p in range(1, n + 1)
                      if n % p == 0 and codes == codes[:p] * (n // p))
        assert root(word_from_codes(codes)) == (word_from_codes(codes[:period]),
                                                n // period)
    assert len(keys) == len(classes) == 1386


class TestPrimitivity:
    @pytest.mark.parametrize("text, expected", [
        ("u", True),
        ("v u^2", True),
        ("u v U V", False),
    ])
    def test_examples(self, text, expected):
        assert is_primitive(W(text)) is expected

    def test_identity_not_primitive(self):
        assert not is_primitive(IDENTITY)

    def test_abelianization_necessary(self):
        for codes in oracle.cyclic_classes(6):
            w = word_from_codes(codes)
            if is_primitive(w):
                assert gcd(*w.abelianization()) == 1, format_word(w)

    def test_agrees_with_nielsen_orbit_oracle(self):
        # exhaustive comparison on every conjugacy class of length <= 10
        classes = oracle.cyclic_classes(10)
        for codes in classes:
            w = word_from_codes(codes)
            assert is_primitive(w) == oracle_is_primitive(w, 10), format_word(w)
        assert len(classes) == 9518

    def test_maps_are_the_twelve_without_conjugations(self):
        # each multiplier a contributes x -> x a and x -> a^-1 x; the third
        # reference map, x -> a^-1 x a, is conjugation by a
        twelve = oracle._elementary_automorphisms()[:12]
        assert tuple({gen: image.blocks for gen, image in images.items()}
                     for images in freegroup._whitehead_maps()) == tuple(
            images for i, images in enumerate(twelve) if i % 3 != 2)

    def test_descent_matches_twelve_map_reference(self):
        """The descent returns the same word as the greedy first-improving
        descent over the twelve maps that include the conjugations, on
        every class of length <= 8 and on seeded multi-block words."""
        twelve = oracle._elementary_automorphisms()[:12]

        def reference(w):
            current, _ = oracle.cyclic_core(w)
            improved = True
            while improved:
                improved = False
                for images in twelve:
                    candidate, _ = oracle.cyclic_core(oracle.substitute(current, images))
                    if oracle.letter_length(candidate) < oracle.letter_length(current):
                        current, improved = candidate, True
                        break
            return current

        words = [word_from_codes(codes) for codes in oracle.cyclic_classes(8)]
        rng = random.Random(59)
        for _ in range(400):
            blocks = [("uv"[i % 2], rng.choice((-3, -2, -1, 1, 2, 3)))
                      for i in range(rng.randint(2, 8))]
            words.append(reduce(blocks))
        for w in words:
            assert whitehead_minimize(w).blocks == reference(w.blocks), format_word(w)

    @given(word_strategy(max_blocks=4, max_exp=2), word_strategy(max_blocks=3, max_exp=2))
    @settings(max_examples=60)
    def test_conjugation_and_inversion_invariance(self, w, g):
        conjugated = concat(g, w, g.inverse())
        assert is_primitive(w) == is_primitive(conjugated) == is_primitive(w.inverse())
        if not w.is_identity:
            assert (is_power_of_primitive(w)
                    == is_power_of_primitive(conjugated)
                    == is_power_of_primitive(w.inverse()))
        assert (cho_koda_criterion(w)
                == cho_koda_criterion(conjugated)
                == cho_koda_criterion(w.inverse()))


class TestPowerOfPrimitive:
    @pytest.mark.parametrize("text, expected", [
        ("u^5", True),
        ("v^2 u^3", False),
        ("v u^2", True),
    ])
    def test_examples(self, text, expected):
        assert is_power_of_primitive(W(text)) is expected

    def test_identity_rejected(self):
        with pytest.raises(ValueError):
            is_power_of_primitive(IDENTITY)

    def test_agrees_with_nielsen_orbit_oracle(self):
        # exhaustive comparison on every conjugacy class of length <= 10:
        # the oracle tests the minimal letter period against its table
        for codes in oracle.cyclic_classes(10):
            w = word_from_codes(codes)
            assert is_power_of_primitive(w) == oracle.is_power_of_primitive(codes, 10), \
                format_word(w)


class TestChoKoda:
    @pytest.mark.parametrize("text, expected", [
        ("u^2 v^3", True),
        ("u v", False),
        ("u v U V", True),
        ("u^7", False),
        ("1", False),
    ])
    def test_examples(self, text, expected):
        assert cho_koda_criterion(W(text)) is expected

    def test_sound_on_small_words(self):
        # spot soundness; the exhaustive length-10 sweep lives in acceptance
        for codes in oracle.cyclic_classes(7):
            w = word_from_codes(codes)
            if cho_koda_criterion(w):
                assert not is_power_of_primitive(w), format_word(w)
                assert not oracle.is_power_of_primitive(codes, 7), format_word(w)


class TestTextSyntax:
    @pytest.mark.parametrize("text, expected", [
        ("v^2 u^-3", "v^2 u^-3"),
        ("uvUV", "u v u^-1 v^-1"),
        ("U^2", "u^-2"),
        ("1", "1"),
        ("  ", "1"),
        ("u^0 v", "v"),
    ])
    def test_parse(self, text, expected):
        assert format_word(parse_word(text)) == expected

    @pytest.mark.parametrize("bad", ["w", "u^", "u*v", "2u", "u^1.5"])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_word(bad)

    @given(word_strategy())
    def test_round_trip(self, w):
        assert parse_word(format_word(w)) == w

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_digit_budget(self, sign):
        at_budget = "9" * DIGIT_BUDGET
        assert parse_word(f"u^{sign}{at_budget}") == Word((("u", int(sign + at_budget)),))
        for text in (f"u^{sign}{at_budget}9", f"v^{sign}" + "9" * 5000,
                     f"u^{sign}{at_budget} u^{sign}{at_budget}"):  # merged past it
            with pytest.raises(ValueError, match="^integers must have at most 640 digits$"):
                parse_word(text)

    @given(st.lists(st.builds("{}{}".format, st.sampled_from("uvUV"), st.one_of(
               st.just(""), st.integers(-10 ** 12, 10 ** 12).map("^{}".format))), max_size=8),
           st.text("uvUV^- 0123456789", max_size=3), st.integers(0, 8),
           st.sampled_from(["", " "]))
    @settings(max_examples=300, deadline=None)
    def test_fuzz_parse_word(self, tokens, noise, at, sep):
        """Text over the grammar's alphabet parses to a word that round-trips
        through format_word, or is refused with ValueError."""
        tokens.insert(at, noise)  # at most one piece off the grammar
        text = sep.join(tokens)
        try:
            w = parse_word(text)
        except ValueError:
            return
        assert parse_word(format_word(w)) == w
