"""Tests of the benchmark itself: deterministic generators and oracles that
agree with hand-checked cases.  Run with ``python3 -m pytest bench``."""

import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def test_word_algebra():
    w = oracle.parse("u^2 v U^2")
    assert w == (("u", 2), ("v", 1), ("u", -2))
    assert oracle.cyclic_core(w) == ((("v", 1),), (("u", 2),))
    assert oracle.mul(w, oracle.inverse(w)) == ()
    assert oracle.power(oracle.parse("u v"), 3) == oracle.parse("u v u v u v")
    assert oracle.power(w, 2) == oracle.parse("u^2 v^2 u^-2")
    assert oracle.rotate(oracle.parse("u^3 v^2"), 0, 1) == oracle.parse("u^2 v^2 u")
    assert oracle.substitute(oracle.parse("u v^-1"), {"u": oracle.parse("u v"),
                                                      "v": oracle.parse("v")}) == (("u", 1),)
    assert oracle.text(oracle.parse("v^-2 u")) == "v^-2 u" and oracle.text(()) == "1"


def test_class_counts():
    assert len(oracle.cyclic_classes(9)) == 3582
    assert len(oracle.cyclic_classes(10)) == 9518
    # length 1: u, U, v, V; length 2: the four squares and u v, u V, U v, U V
    assert len(oracle.cyclic_classes(2)) == 4 + 4 + 4


def test_primitive_table_hand_cases():
    def prim(text):
        core, _ = oracle.cyclic_core(oracle.parse(text))
        return oracle.is_primitive(oracle.codes_of(core), 8)

    for text in ("u", "V", "u v", "u^-1 v", "u^2 v", "v u^5", "u v u v^2", "u^2 v u v"):
        assert prim(text), text
    for text in ("u^2", "u^2 v^2", "u v u^-1 v^-1", "u^2 v^3", "u v u v^-1", "u v u v"):
        assert not prim(text), text
    # 4 letters of length 1, 4 classes of length 2 (u v and its sign variants)
    assert len(oracle.primitive_classes(2)) == 8


def test_power_of_primitive_oracle():
    def ipp(text):
        return oracle.is_power_of_primitive(oracle.codes_of(oracle.parse(text)), 10)

    assert ipp("u^3") and ipp("u v u v") and ipp("u^2 v u^2 v u^2 v")
    assert not ipp("u^2 v^2") and not ipp("u v U v")
    assert ipp("u v^2 u v")  # a rotation of the primitive u v u v^2
    assert oracle.minimal_period(oracle.codes_of(oracle.parse("u v u v"))) == 2


def test_words_long_base_words():
    for text in workloads.NONPRIMITIVE:
        codes = oracle.codes_of(oracle.cyclic_core(oracle.parse(text))[0])
        assert not oracle.is_power_of_primitive(codes, 10), text
    for a, b in workloads.NONCONJUGATE:
        wa, wb = oracle.parse(a), oracle.parse(b)
        assert oracle.abelianization(wa) == oracle.abelianization(wb)
        assert (oracle.canonical_rotation(oracle.codes_of(wa))
                != oracle.canonical_rotation(oracle.codes_of(wb)))


def test_catalogue_chains_are_automorphisms():
    shapes = workloads.Shapes(seed=3)
    for _ in range(20):
        chain, _ = shapes.place(workloads.U, 300)
        for n in (1, 2, -1):
            for g in (workloads.U, workloads.V):
                core, _ = oracle.cyclic_core(chain.image(g, n))
                if oracle.letter_length(core) <= 10:
                    assert oracle.is_primitive(oracle.codes_of(core), 10)


def test_census_closed_forms():
    five_two = workloads.FIVE_TWO
    assert oracle.exclusion_window(**five_two) == (-2, -1, 0, 1)
    assert oracle.flat_inconclusive(1, 0, 1, 0, 10) == (-2, -1, 0, 1)
    # beta > 0, q = 3, delta = 1, lambda = 2, mu = 0: mid(n) = 3n + 1 hits 0 or 3
    # nowhere, so the window is just {-lambda, 1 - lambda}
    assert oracle.exclusion_window(p=2, q=3, delta=1, rho=1, beta=1, lam=2, mu=0) == (-2, -1)
    # beta = -2 normalises to beta' = 1, lambda' = lambda - 2, mu' = mu + 2
    assert (oracle.exclusion_window(p=2, q=1, delta=0, rho=1, beta=-2, lam=3, mu=-1)
            == oracle.exclusion_window(p=2, q=1, delta=0, rho=1, beta=1, lam=1, mu=1))


def test_continued_fraction():
    assert oracle.continued_fraction([1, 2, 3], "literal") == (10, 3)
    assert oracle.continued_fraction([-3, 2, 0], "mirrored") == (3, 7)
    assert oracle.continued_fraction([2, 0], "literal") == (1, 2)
    assert oracle.continued_fraction([0, 0], "literal") == (1, 0)


def _describe(rounds, count):
    return [[op.inputs for op in next(rounds)] for _ in range(count)]


def test_generators_are_deterministic():
    for name in ("census", "words-long", "words-short"):
        make = workloads.WORKLOADS[name]
        first = _describe(make(7, None), 2)
        assert first == _describe(make(7, None), 2), name
        assert first != _describe(make(8, None), 2), name


def test_cli_pool_is_fixed_and_recorded():
    pool = workloads.cli_pool()
    assert pool == workloads.cli_pool()
    digests = json.loads(workloads.DIGEST_FILE.read_text())
    assert {workloads.key(inv.argv) for inv in pool} == set(digests)
    assert {inv.stratum for inv in pool} == set(workloads.CLI_ROUND)
    subcommands = {inv.argv[:2] for inv in pool if inv.stratum != "reject-2"}
    assert subcommands == {
        ("tangle", "eval"), ("arcs", "crossings"), ("boundary", "word"),
        ("classify", "type-k"), ("classify", "type-m"), ("classify", "type-s"),
        ("classify", "em"), ("word", "primitive"), ("word", "power"),
        ("word", "conjugate"), ("jsj", "validate"), ("example", "five-two")}
    for inv in pool:
        violating = inv.stratum == "jsj" and "violating" in inv.argv[2]
        expected = {"reject-1": 1, "reject-2": 2}.get(inv.stratum, int(violating))
        assert inv.exit_code == expected, inv.argv


def test_census_families_valid_and_stratified():
    rng = random.Random(5)
    for beta in workloads.CENSUS_BETAS:
        family = workloads.sample_family(rng, beta)
        assert family["beta"] == beta
        assert 1 <= family["q"] <= 10 and 2 <= abs(family["p"]) <= 20
        assert abs(family["lam"]) <= 10 and abs(family["mu"]) <= 10
        assert oracle.slope_is_valid(family["rho"], beta)


def test_tail_percentile():
    assert run.tail(list(range(1, 101))) == (90.0, 90)
    assert run.tail(list(range(1, 1001))) == (99.0, 990)
    assert run.tail(list(range(1, 100_001)))[0] == 99.0
    assert run.tail(list(range(1, 12))) == (0.0, 11)
