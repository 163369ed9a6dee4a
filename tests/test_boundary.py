import itertools
import random

import pytest

import oracle
from conftest import (ArcCoordinate, arc_word, k_minus_word, k_plus_word,
                      sample_typek_params, valid_slopes)
from hkannuli import arcs, boundary
from hkannuli.boundary import (ParamError, TypeKParams, boundary_word,
                               delta_claim_gamma, homology_class,
                               normalize_negative_beta, params_violations,
                               validate_params)
from hkannuli.freegroup import (IDENTITY, U, V, are_conjugate, concat,
                                format_word, parse_word)

W = parse_word
FIVE_TWO = TypeKParams(p=2, q=1, delta=0, rho=0, beta=0, lam=1, mu=0)


def arc_walked_pair(q, rho, beta):
    """Reference: alternate v^q and u along the d-crossings of the reference
    arc, with the arguments swapped for beta < 0."""
    seq, _ = arcs.reference_crossings(rho, beta)
    vq = V ** q
    if beta >= 0:
        return (arcs.alternating(seq, vq, U),
                arcs.alternating(seq, U.inverse(), vq.inverse()))
    return (arcs.alternating(seq, U, vq),
            arcs.alternating(seq, vq.inverse(), U.inverse()))


def arc_walked_k_plus(params, lam_plus, mu_plus):
    """Reference: the forward arc word under l_2 -> u, l_1-hat -> v^q,
    v_hat -> 1 and the identity connector image."""
    coord = ArcCoordinate(params.rho, params.beta, lam_plus, mu_plus)
    images = {"Ce": U, "Co_hat": V ** params.q, "v_hat": IDENTITY, "s0": IDENTITY}
    return arc_word(coord, images)


def arc_walked_k_minus(params, lam_minus, mu_minus):
    """Reference: s0 * Co_hat^mu_minus * Ahat_beta(Ce^-1, Co_hat^-1, v_hat^-1)
    * Ce^lam_minus with connector image v^delta, arguments swapped for beta < 0."""
    _, ext = arcs.reference_crossings(params.rho, params.beta)
    ce, co = U, V ** params.q
    if params.beta >= 0:
        middle = arcs.interpolating(ext, ce.inverse(), co.inverse(), IDENTITY)
    else:
        middle = arcs.interpolating(ext, co.inverse(), ce.inverse(), IDENTITY)
    return concat(V ** params.delta, co ** mu_minus, middle, ce ** lam_minus)


class TestValidation:
    def test_valid_examples(self):
        validate_params(p=3, q=2, delta=1, rho=0, beta=0, lam=0, mu=0)
        validate_params(p=2, q=3, delta=1, rho=0, beta=0, lam=0, mu=0)

    def test_p_unit_rejected(self):
        with pytest.raises(ParamError) as info:
            validate_params(p=1, q=1, delta=0, rho=0, beta=0, lam=0, mu=0)
        assert any("p must avoid" in v for v in info.value.violations)

    @pytest.mark.parametrize("kwargs, fragment", [
        (dict(p=3, q=2, delta=0, rho=0, beta=0, lam=0, mu=0), "q = 2 forces delta = 1"),
        (dict(p=2, q=4, delta=1, rho=0, beta=0, lam=0, mu=0), "coprime"),
        (dict(p=3, q=5, delta=2, rho=0, beta=0, lam=0, mu=0), "-1 modulo q"),
        (dict(p=3, q=2, delta=3, rho=0, beta=0, lam=0, mu=0), "0 <= delta < q"),
        (dict(p=3, q=2, delta=1, rho=3, beta=1, lam=0, mu=0), "2*beta+1"),
        (dict(p=3, q=2, delta=1, rho=0, beta=0, lam=0, mu=5), "|mu - lambda| <= 1"),
        (dict(p=3, q=2, delta=1, rho=0, beta=-1, lam=0, mu=0), "|mu - lambda + 4| <= 1"),
    ])
    def test_violations_by_name(self, kwargs, fragment):
        assert any(fragment in v for v in params_violations(**kwargs))

    def test_delta_zero_iff_q_one(self):
        # p*delta = -1 (mod q) with 0 <= delta < q forces delta = 0 <=> q = 1
        assert not params_violations(p=5, q=1, delta=0, rho=0, beta=0, lam=0, mu=0)
        assert params_violations(p=5, q=3, delta=0, rho=0, beta=0, lam=0, mu=0)


class TestBoundaryWord:
    def test_five_two_specialization(self):
        for n in range(-100, 101):
            assert boundary_word(FIVE_TWO, n) == concat(V ** n, U ** (n + 1))

    def test_five_two_base_cases(self):
        assert boundary_word(FIVE_TWO, 0) == U
        assert format_word(boundary_word(FIVE_TWO, 5)) == "v^5 u^6"

    def test_vanishing_middle_powers(self):
        # q(n + mu) + delta = 0 and lambda + n = 0 leaves Alt * Alt
        params = validate_params(p=2, q=1, delta=0, rho=1, beta=2, lam=3, mu=3)
        n = -3
        assert params.q * (n + params.mu) + params.delta == 0
        front, back = boundary._alternating_pair(params.q, params.beta)
        assert boundary_word(params, n) == concat(front, back)

    def test_closed_form_pair_matches_arc_walk(self):
        cases = [(q, rho, beta) for q in range(1, 9) for rho, beta in valid_slopes(39, 12)]
        assert len(cases) == 6416
        for q, rho, beta in cases:
            assert boundary._alternating_pair(q, beta) == arc_walked_pair(q, rho, beta), \
                (q, rho, beta)

    def test_boundary_word_matches_arc_walk(self):
        # p in {-3, -2, 2, 3} reaches every valid delta for q <= 4
        connectors = set()
        for q, p, delta, (rho, beta), lam, mu in itertools.product(
                range(1, 5), (-3, -2, 2, 3), range(4), valid_slopes(3, 3),
                range(-3, 4), range(-3, 4)):
            if params_violations(p, q, delta, rho, beta, lam, mu):
                continue
            connectors.add((q, delta))
            front, back = arc_walked_pair(q, rho, beta)
            params = TypeKParams(p, q, delta, rho, beta, lam, mu)
            for n in range(-3, 4):
                expected = concat(front, V ** (q * (n + mu) + delta), back, U ** (lam + n))
                assert boundary_word(params, n) == expected, (params, n)
        assert connectors == {(1, 0), (2, 1), (3, 1), (3, 2), (4, 1), (4, 3)}

    def test_abelianization_against_letter_counting(self):
        rng = random.Random(11)
        for _ in range(60):
            params = sample_typek_params(rng)
            n = rng.randint(-8, 8)
            word = boundary_word(params, n)
            codes = oracle.codes_of(word.blocks)  # u, u^-1, v, v^-1 are 0..3
            counts = [codes.count(c) for c in range(4)]
            assert (counts[0] - counts[1], counts[2] - counts[3]) == word.abelianization()
            mid = params.q * (n + params.mu) + params.delta
            if params.beta >= 0:
                assert word.abelianization() == (params.lam + n, mid)
            else:
                assert word.abelianization() == (params.lam + n - 2, mid + 2 * params.q)


class TestHalfBoundaryArcs:
    def test_beta_zero_k_plus(self):
        params = validate_params(p=3, q=2, delta=1, rho=2, beta=0, lam=0, mu=0)
        assert k_plus_word(params, 3, 1) == W("u^3 v^2")

    def test_closed_form_matches_arc_walk(self):
        # the words do not read p, and delta = q - 1 is a valid connector for every q
        cases = 0
        for q, (rho, beta) in itertools.product(range(1, 5), valid_slopes(12, 6)):
            params = TypeKParams(q + 1, q, q - 1, rho, beta, 0, 0)
            for a, b in itertools.product(range(-2, 3), repeat=2):
                assert k_plus_word(params, a, b) == arc_walked_k_plus(params, a, b), \
                    (params, a, b)
                assert k_minus_word(params, a, b) == arc_walked_k_minus(params, a, b), \
                    (params, a, b)
                cases += 1
        assert cases == 13400

    def test_boundary_word_is_arc_product(self):
        # exact equality, not conjugacy: the closed form is the paper's product
        cases = 0
        for q, p, delta, beta, lam, mu in itertools.product(
                range(1, 5), (2, -3), range(4), range(-4, 5), range(-2, 3), range(-2, 3)):
            rho = next(r for r in range(3) if arcs.slope_is_valid(r, beta))
            if params_violations(p, q, delta, rho, beta, lam, mu):
                continue
            params = TypeKParams(p, q, delta, rho, beta, lam, mu)
            for n in range(-3, 4):
                product = concat(k_plus_word(params, 0, n + mu), k_minus_word(params, lam + n, 0))
                assert boundary_word(params, n) == product, (params, n)
                cases += 1
        assert cases == 6685

    def test_rho_beyond_crossing_budget(self):
        far = validate_params(p=3, q=2, delta=1, rho=1_000_001, beta=1, lam=0, mu=0)
        near = validate_params(p=3, q=2, delta=1, rho=1, beta=1, lam=0, mu=0)
        assert k_plus_word(far, 0, 0) == k_plus_word(near, 0, 0) == W("v^2 u")
        assert k_minus_word(far, 1, -1) == k_minus_word(near, 1, -1) == W("v^-1 u^-1 v^-2 u")

    def test_composite_matches_boundary_word(self):
        rng = random.Random(5)
        for _ in range(25):
            params = sample_typek_params(rng)
            lam_plus = rng.randint(-3, 3)
            mu_plus = rng.randint(-3, 3)
            lam_minus = params.lam - lam_plus
            mu_minus = params.mu - mu_plus
            kp = k_plus_word(params, lam_plus, mu_plus)
            km = k_minus_word(params, lam_minus, mu_minus)
            for n in range(-10, 11):
                composite = concat(kp, (V ** params.q) ** n, km, U ** n)
                assert are_conjugate(composite, boundary_word(params, n))

    def test_moebius_base_word(self):
        # n = 0 with trivial twisting: the order-zero band boundary
        params = FIVE_TWO
        kp = k_plus_word(params, params.lam, 0)
        km = k_minus_word(params, 0, params.mu)
        assert are_conjugate(concat(kp, km), boundary_word(params, 0))


class TestBetaBudget:
    @pytest.mark.parametrize("beta", [100_001, -100_001])
    def test_over_budget_rejected(self, beta):
        params = validate_params(p=3, q=2, delta=1, rho=1, beta=beta, lam=0, mu=0)
        for build in (lambda: boundary_word(params, 0), lambda: k_plus_word(params, 0, 0),
                      lambda: k_minus_word(params, 0, 0)):
            with pytest.raises(ValueError, match=r"^\|beta\| must be at most 100000$"):
                build()

    def test_at_budget(self):
        params = validate_params(p=3, q=2, delta=1, rho=1, beta=-100_000, lam=0, mu=0)
        assert len(boundary_word(params, 0).blocks) == 4 * 100_000 - 1

    def test_pair_cache_keeps_one_entry(self):
        # a census reads one (q, beta); more entries would keep megabytes each
        boundary._alternating_pair.cache_clear()
        for beta in range(20_000, 20_005):
            boundary._alternating_pair(2, beta)
        assert boundary._alternating_pair.cache_info().currsize <= 1


class TestNormalization:
    @pytest.mark.parametrize("beta, expected", [(-1, 0), (-3, 2)])
    def test_beta_shift(self, beta, expected):
        mu = -4 if beta == -1 else 0
        params = validate_params(p=3, q=2, delta=1, rho=1, beta=beta, lam=0, mu=mu)
        normalized, witness = normalize_negative_beta(params)
        assert normalized.beta == expected
        assert (normalized.lam, normalized.mu) == (params.lam - 2, params.mu + 2)
        assert witness == U.inverse()

    def test_rewrite_is_valid(self):
        families = 0
        for q, p, delta, beta, lam, mu in itertools.product(
                range(1, 5), range(-7, 8), range(4), range(-4, 0), range(-2, 3), range(-2, 3)):
            rho = next(r for r in range(3) if arcs.slope_is_valid(r, beta))
            if params_violations(p, q, delta, rho, beta, lam, mu):
                continue
            normalized, _ = normalize_negative_beta(TypeKParams(p, q, delta, rho, beta, lam, mu))
            fields = (p, q, delta, rho, -beta - 1, lam - 2, mu + 2)
            assert params_violations(*fields) == [], fields
            assert normalized == validate_params(*fields)
            families += 1
        assert families == 2496

    def test_rejects_nonnegative_beta(self):
        with pytest.raises(ValueError):
            normalize_negative_beta(FIVE_TWO)

    def test_conjugacy_witness(self):
        rng = random.Random(23)
        for _ in range(40):
            params = sample_typek_params(rng, beta_range=(-5, -1))
            normalized, witness = normalize_negative_beta(params)
            for n in range(-5, 6):
                before = boundary_word(params, n)
                after = boundary_word(normalized, n)
                assert before == concat(witness, after, witness.inverse())


class TestHomology:
    def test_examples(self):
        params = validate_params(p=3, q=2, delta=1, rho=0, beta=0, lam=2, mu=2)
        assert homology_class(params) == (2, 1)
        params = validate_params(p=2, q=3, delta=1, rho=0, beta=0, lam=0, mu=0)
        assert homology_class(params) == (1, 1)

    def test_unit_determinant(self):
        rng = random.Random(3)
        for _ in range(200):
            params = sample_typek_params(rng, beta_range=(0, 0))
            theta, ell = homology_class(params)
            assert params.q * theta - params.p * ell == 1

    def test_requires_beta_zero(self):
        params = validate_params(p=3, q=2, delta=1, rho=1, beta=1, lam=0, mu=0)
        with pytest.raises(ValueError):
            homology_class(params)


class TestDeltaClaim:
    @pytest.mark.parametrize("args, expected", [
        ((2, 1, 0, 2), 5),
        ((-2, 3, 1, -2), 11),
        ((7, 5, 2, 0), 15),  # Delta = 0 reduces to p*delta + 1
    ])
    def test_examples(self, args, expected):
        assert delta_claim_gamma(*args) == expected

    def test_small_sweep_avoids_two_q(self):
        from math import gcd
        for p in list(range(-12, -1)) + list(range(2, 13)):
            for q in range(1, 13):
                if gcd(p, q) != 1:
                    continue
                delta = (-pow(p, -1, q)) % q if q > 1 else 0
                for dt in list(range(-6, -1)) + list(range(2, 7)):
                    assert abs(delta_claim_gamma(p, q, delta, dt)) != 2 * q
