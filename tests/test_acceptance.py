"""Acceptance gate: one test per criterion, each printing a PASS line with
its measured runtime.  Every tolerance is exact; the runtime budgets are
asserted where stated."""

import random
import time
from math import gcd

import pytest

import oracle
from conftest import (delta_claim_gamma, expanded_layout, homology_class,
                      sample_typek_params, trivial_graph, word_from_codes)
from hkannuli import arcs, boundary, classify
from hkannuli.classify import AnnulusType
from hkannuli.freegroup import (U, V, cho_koda_criterion, concat, format_word,
                                is_power_of_primitive, parse_word)
from hkannuli.jsjgraph import Edge, JsjGraph, NodeKind, validate
from hkannuli.tangle import RationalTangle, cf_eval, is_integral

FIVE_TWO = classify.FIVE_TWO_PARAMS
SAMPLE_COUNT = 1000


@pytest.fixture(scope="module")
def sampled_params():
    rng = random.Random(20260810)
    return [sample_typek_params(rng) for _ in range(SAMPLE_COUNT)]


def _report(number: int, message: str, started: float) -> None:
    print(f"PASS criterion {number}: {message} [{time.time() - started:.2f}s]")


def test_criterion_1_five_two_reproduction():
    started = time.time()
    for n in range(-100, 101):
        assert boundary.boundary_word(FIVE_TWO, n) == concat(V ** n, U ** (n + 1))
    inconclusive = [n for n in range(-100, 101)
                    if not classify.classify_typeK_annulus(FIVE_TWO, n).certified]
    assert inconclusive == [-2, -1, 0, 1]
    report = classify.typeK_census(FIVE_TWO, 100)
    assert report.total_non_certified == 5
    elapsed = time.time() - started
    assert elapsed < 1.0, f"runtime budget exceeded: {elapsed:.2f}s"
    _report(1, "boundary words v^n u^(n+1), inconclusive set {1,0,-1,-2}, "
               "census total 5", started)


def test_criterion_2_typek_window_bound(sampled_params):
    started = time.time()
    for params in sampled_params:
        window = classify.non_type41_window(params)
        assert len(window) <= 4, (params, window)
        window_set = set(window)
        for n in range(-200, 201):
            outcome = classify.classify_typeK_annulus(params, n)
            if not outcome.certified:
                assert n in window_set, (params, n)
    elapsed = time.time() - started
    assert elapsed < 60.0, f"runtime budget exceeded: {elapsed:.2f}s"
    _report(2, f"{SAMPLE_COUNT} random families: |window| <= 4 and every n "
               "outside it certified", started)


def test_criterion_3_delta_claim_grid():
    started = time.time()
    for p in [p for p in range(-50, 51) if abs(p) >= 2]:
        for q in range(1, 51):
            if gcd(p, q) != 1:
                continue  # no valid delta exists
            delta = (-pow(p, -1, q)) % q if q > 1 else 0
            for dt in [d for d in range(-10, 11) if abs(d) >= 2]:
                gamma = delta_claim_gamma(p, q, delta, dt)
                assert abs(gamma) != 2 * q, (p, q, delta, dt)
    elapsed = time.time() - started
    assert elapsed < 5.0, f"runtime budget exceeded: {elapsed:.2f}s"
    _report(3, "Gamma = p(q Delta + delta) + 1 avoids +-2q on the full grid",
            started)


def test_criterion_4_cho_koda_soundness():
    started = time.time()
    fired = 0
    for codes in oracle.cyclic_classes(10):
        w = word_from_codes(codes)
        if cho_koda_criterion(w):
            fired += 1
            assert not is_power_of_primitive(w), format_word(w)
            assert not oracle.is_power_of_primitive(codes, 10), format_word(w)
    assert fired == 8494
    elapsed = time.time() - started
    assert elapsed < 60.0, f"runtime budget exceeded: {elapsed:.2f}s"
    _report(4, f"zero false positives over all length <= 10 words "
               f"({fired} certificates checked)", started)


def test_criterion_5_interpolating_anchors():
    started = time.time()
    x, y, z = parse_word("u"), parse_word("v"), parse_word("v u^2")
    for rho in range(0, 51):
        base0, _, zetas0 = arcs.reference_crossings(rho, 0)
        assert arcs.interpolating(base0, zetas0, x, y, z) == z ** rho
        base1, _, zetas1 = arcs.reference_crossings(rho, -1)
        assert arcs.interpolating(base1, zetas1, x, y, z) == concat(x.inverse(), z ** -rho, y)
    for beta in range(-5, 0):
        for rho in range(0, 51):
            if not arcs.slope_is_valid(rho, beta):
                continue
            base, kappa, _ = arcs.reference_crossings(rho, beta)
            _, a_hat, _, _ = expanded_layout(rho, beta)
            assert a_hat[0] == -1 and a_hat[-1] == 1
            assert kappa[0] == 1 and kappa[-1] == len(a_hat)
            assert base[0] == -1 and base[-1] == 1
    _report(5, "A-hat_0 = z^rho, A-hat_-1 = x^-1 z^-rho y, and the -1/+1 "
               "first/last entries sit inside A", started)


def test_criterion_6_negative_beta_normalization():
    started = time.time()
    rng = random.Random(424242)
    for _ in range(200):
        params = sample_typek_params(rng, beta_range=(-5, -1))
        normalized, witness = boundary.normalize_negative_beta(params)
        for n in range(-5, 6):
            before = boundary.boundary_word(params, n)
            after = boundary.boundary_word(normalized, n)
            assert before == concat(witness, after, witness.inverse())
    _report(6, "200 negative-beta families conjugate to their normalized "
               "forms for n in [-5, 5]", started)


def test_criterion_7_unit_determinant(sampled_params):
    started = time.time()
    for params in sampled_params:
        delta_twist = params.mu - params.lam
        theta = params.p * delta_twist + (params.p * params.delta + 1) // params.q
        ell = params.q * delta_twist + params.delta
        assert (params.p * params.delta + 1) % params.q == 0
        assert params.q * theta - params.p * ell == 1
        if params.beta == 0:
            assert homology_class(params) == (theta, ell)
    _report(7, "q*Theta - p*(q Delta + delta) = 1 for every sampled family",
            started)


def test_criterion_8_typem_endpoints():
    started = time.time()
    for p in range(-200, 201):
        expected = AnnulusType.T3_2ii if p in (0, -1) else AnnulusType.T3_2i
        assert classify.classify_typeM(p) is expected
        gate = is_integral(cf_eval(RationalTangle.of(-p, 2, 0), "mirrored"),
                           infinity_is_integral=True)
        assert gate == (p in (0, -1))
    _report(8, "type 3-2ii exactly on p in {0, -1}; calibrated tangle gate "
               "agrees", started)


def test_criterion_9_types_classifier():
    started = time.time()
    assert classify.classify_typeS(3, 2) == (AnnulusType.T3_2ii, AnnulusType.T3_2i)
    with pytest.raises(classify.ExternalFactError):
        classify.classify_typeS(2, 1)
    _report(9, "(p,q) = (3,2) gives (3-2ii, 3-2i); q = 1 demands the external "
               "triviality fact", started)


def test_criterion_10_em_polynomial_identity():
    started = time.time()
    for l in range(-10, 11):
        for m in range(-10, 11):
            for p in range(-10, 11):
                assert (2 * m * p * l - 2 * p - p * l - m * l + 1
                        == 2 * l * m * p - l * p - l * m - 2 * p + 1)
    rng = random.Random(8)
    for _ in range(500):
        e = classify.EmParams(*(rng.randint(-10, 10) for _ in range(4)))
        o_alpha, o_beta = classify.em_invariants(e)
        is_m = classify.em_jsj_graph(e, "plus") is classify.EmGraph.GRAPH_M
        assert is_m == (o_alpha != 2 and o_beta != 2)
    _report(10, "statement and proof polynomials agree; graph-M iff both "
                "orders differ from 2", started)


def test_criterion_11_jsj_validator():
    started = time.time()

    def hub(*edges):
        # s is declared only where an edge meets it, so every graph is connected
        seifert = (("s", NodeKind.SEIFERT),) if any("s" in (e.a, e.b) for e in edges) else ()
        return JsjGraph((("x", NodeKind.IFIBERED),) + seifert, tuple(edges))

    loop_21 = hub(Edge("a", "x", "x", label=AnnulusType.T2_1))
    assert any(v.rule == "loop-edge-law" for v in validate(loop_21))

    bigon_32i = hub(Edge("a", "x", "s", label=AnnulusType.T3_2i),
                    Edge("b", "x", "s", label=AnnulusType.T3_3i))
    assert any(v.rule == "bigon-threethree-law" for v in validate(bigon_32i))

    edge_41 = hub(Edge("a", "x", "s", label=AnnulusType.T4_1))
    assert any(v.rule == "fourone-noncharacteristic-law" for v in validate(edge_41))

    assert validate(trivial_graph()) == []
    _report(11, "loop 2-1, bigon 3-2i, and edge 4-1 each rejected by the "
                "right law; trivial graph accepted", started)
