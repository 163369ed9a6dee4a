import itertools
import random

import pytest

import oracle
from conftest import oracle_is_primitive, sample_typek_params
from hkannuli import boundary, classify, freegroup
from hkannuli.classify import (AnnulusType, CensusEntry, EmGraph, EmParams,
                               ExternalFactError, Verdict, classify_typeK_annulus,
                               classify_typeM, classify_typeS, em_invariants,
                               em_jsj_graph, non_type41_window, typeK_census)
from hkannuli.freegroup import cho_koda_criterion, format_word, is_primitive, root

FIVE_TWO = classify.FIVE_TWO_PARAMS


class TestTypeKClassifier:
    def test_five_two_certified(self):
        outcome = classify_typeK_annulus(FIVE_TWO, 5)
        assert outcome.certified and outcome.criterion == "cho-koda"

    @pytest.mark.parametrize("n, witness", [
        (0, "u"),
        (1, "v u^2"),
        (-1, "v^-1"),
        (-2, "v^-2 u^-1"),
    ])
    def test_five_two_inconclusive_witnesses(self, n, witness):
        outcome = classify_typeK_annulus(FIVE_TWO, n)
        assert outcome.verdict is Verdict.INCONCLUSIVE
        assert format_word(outcome.witness) == witness

    def test_identity_word_is_inconclusive(self):
        params = boundary.validate_params(p=2, q=1, delta=0, rho=0, beta=0,
                                          lam=0, mu=0)
        outcome = classify_typeK_annulus(params, 0)
        assert outcome.verdict is Verdict.INCONCLUSIVE
        assert outcome.witness.is_identity


class TestWindow:
    def test_five_two_window(self):
        assert non_type41_window(FIVE_TWO) == (-2, -1, 0, 1)

    def test_positive_beta_large_q(self):
        params = boundary.validate_params(p=3, q=4, delta=1, rho=1, beta=2,
                                          lam=0, mu=0)
        window = non_type41_window(params)
        assert len(window) <= 2  # first union empty since 0 < delta < q

    def test_bound_and_soundness(self):
        rng = random.Random(97)
        for _ in range(120):
            params = sample_typek_params(rng)
            window = non_type41_window(params)
            assert len(window) <= 4
            for n in range(-200, 201):
                outcome = classify_typeK_annulus(params, n)
                if not outcome.certified:
                    assert n in window, (params, n)


def grid_families():
    """Every valid family with q <= 6, |beta| <= 6 and lambda, mu in [-4, 4],
    at every valid delta.  The words read neither p nor rho, which enter only
    the validity check, so one admissible value of each stands for all:
    p = -1/delta modulo q from [2, q + 1], and rho = 1, valid for every beta."""
    for q in range(1, 7):
        for delta in range(q):
            p = next((p for p in range(2, q + 2) if (p * delta + 1) % q == 0), None)
            if p is None:
                continue
            for beta, lam, mu in itertools.product(range(-6, 7), range(-4, 5), range(-4, 5)):
                if not boundary.params_violations(p, q, delta, 1, beta, lam, mu):
                    yield boundary.TypeKParams(p, q, delta, 1, beta, lam, mu)


def reference_census(params, span):
    """Entries and inconclusive n of the census, one word per n."""
    entries = tuple(CensusEntry(n, classify_typeK_annulus(params, n))
                    for n in range(-span, span + 1))
    return entries, tuple(e.n for e in entries if not e.outcome.certified)


class TestClosedForm:
    def test_window_sound_on_grid(self):
        """Exhaustive on the grid: every n outside the window fires the
        word-level Cho-Koda criterion, the evidence the census records there.
        The window is the closed form of ``oracle.exclusion_window``, and on
        the flat families (beta in {0, -1}, shifted to lambda - 2, mu + 2 at
        beta = -1) the census spares exactly ``oracle.flat_inconclusive``."""
        families = flat = 0
        for params in grid_families():
            window = non_type41_window(params)
            assert len(window) <= 4, params
            assert window == oracle.exclusion_window(*params._astuple()), params
            for n in range(-12, 13):
                if n not in window:
                    assert cho_koda_criterion(boundary.boundary_word(params, n)), (params, n)
            if params.beta in (0, -1):
                shift = 2 if params.beta == -1 else 0
                expected = oracle.flat_inconclusive(params.q, params.delta, params.lam - shift,
                                                    params.mu + shift, 12)
                assert typeK_census(params, 12).inconclusive == expected, params
                flat += 1
            families += 1
        assert families == 11172
        assert flat == 480

    def test_inconclusive_witness_is_primitive_root_on_grid(self):
        """Exhaustive on the grid: a window word the criterion spares is the
        identity or a power of a primitive, the root that is its witness."""
        inconclusive = oracle_checked = 0
        for params in grid_families():
            for n in non_type41_window(params):
                outcome = classify_typeK_annulus(params, n)
                if outcome.certified:
                    continue
                inconclusive += 1
                word = boundary.boundary_word(params, n)
                if word.is_identity:
                    assert outcome.witness.is_identity, (params, n)
                    continue
                witness = outcome.witness
                assert witness == root(word)[0] and is_primitive(witness), (params, n)
                # the longest witness core on the grid has 18 letters
                assert oracle_is_primitive(witness, 18), (params, n)
                oracle_checked += 1
        assert (inconclusive, oracle_checked) == (13040, 12947)

    def test_census_needs_no_descent(self, monkeypatch):
        def refuse(w):
            raise AssertionError("the census ran the Whitehead descent")

        monkeypatch.setattr(freegroup, "whitehead_minimize", refuse)
        assert typeK_census(FIVE_TWO, 100).inconclusive == (-2, -1, 0, 1)
        rng = random.Random(47)
        for _ in range(200):
            params = sample_typek_params(rng)
            report = typeK_census(params, 30)
            assert set(report.inconclusive) <= set(report.window), params

    def test_census_matches_per_n_reference(self):
        rng = random.Random(41)
        families = [FIVE_TWO] + [sample_typek_params(rng) for _ in range(150)]
        families += [sample_typek_params(rng, beta_range=(-1, 0)) for _ in range(50)]
        for params in families:
            report = typeK_census(params, 30)
            entries, inconclusive = reference_census(params, 30)
            assert report.entries == entries, params
            assert report.inconclusive == inconclusive, params
            assert report.window == non_type41_window(params)
            assert report.certified_count == len(entries) - len(inconclusive)

    def test_census_builds_no_word(self, monkeypatch):
        """The verdicts come from the window's case analysis: at span 1 and at
        the span budget the census classifies no n, builds no boundary word
        and no entry."""
        rng = random.Random(43)
        families = [FIVE_TWO] + [sample_typek_params(rng) for _ in range(100)]
        spared = {params: [n for n in non_type41_window(params)
                           if not classify_typeK_annulus(params, n).certified]
                  for params in families}

        def refuse(*args):
            raise AssertionError("the census built a word, an outcome or an entry")

        for namespace, name in [(classify, "classify_typeK_annulus"),
                                (boundary, "boundary_word"), (classify, "CensusEntry")]:
            monkeypatch.setattr(namespace, name, refuse)
        for params in families:
            for span in (1, classify.SPAN_BUDGET):
                report = typeK_census(params, span)
                in_span = tuple(n for n in spared[params] if -span <= n <= span)
                assert report.inconclusive == in_span, (params, span)
                assert report.certified_count == 2 * span + 1 - len(in_span)

    @pytest.mark.parametrize("beta", [-100_000, -5, -1, 0, 3, 100_000])
    def test_census_constructs_no_word(self, monkeypatch, beta):
        """Not even the conjugator of the beta < 0 rewriting: a census at the
        span budget constructs no Word at any beta."""
        # rho = 1 is a valid arc slope at every beta
        params = boundary.validate_params(3, 2, 1, 1, beta, 0, -4 if beta == -1 else 0)
        built = []
        post_init = freegroup.Word.__post_init__

        def counted(word):
            built.append(word.blocks)
            post_init(word)

        monkeypatch.setattr(freegroup.Word, "__post_init__", counted)
        typeK_census(params, classify.SPAN_BUDGET)
        assert built == []

    def test_window_entries_witness_only_inconclusive(self, monkeypatch):
        calls = []
        per_n = classify.classify_typeK_annulus

        def counted(params, n):
            calls.append(n)
            return per_n(params, n)

        monkeypatch.setattr(classify, "classify_typeK_annulus", counted)
        rng = random.Random(53)
        for params in [FIVE_TWO] + [sample_typek_params(rng) for _ in range(100)]:
            for span in (1, 1000):
                report = typeK_census(params, span)
                assert calls == []
                entries = report.window_entries
                assert calls == list(report.inconclusive), (params, span)
                calls.clear()
                assert [e.n for e in entries] == [n for n in report.window
                                                  if -span <= n <= span]
                for e in entries:
                    assert e.outcome.certified == (e.n not in report.inconclusive)
        # a window reaching past the span: only the n inside it are read
        report = typeK_census(FIVE_TWO, 1)
        assert report.window == (-2, -1, 0, 1)
        assert report.inconclusive == (-1, 0, 1)
        assert (report.entries, report.inconclusive) == reference_census(FIVE_TWO, 1)

    def test_census_inconclusive_matches_criterion_on_grid(self):
        """Exhaustive on the grid: a window n is inconclusive in the census
        exactly when the word-level criterion spares its word."""
        for params in grid_families():
            report = typeK_census(params, 12)
            assert all(-12 <= n <= 12 for n in report.window), params
            spared = tuple(n for n in report.window
                           if not classify_typeK_annulus(params, n).certified)
            assert report.inconclusive == spared, params


class TestCensus:
    def test_five_two_attains_bound(self):
        report = typeK_census(FIVE_TWO, 100)
        assert report.inconclusive == (-2, -1, 0, 1)
        assert report.total_non_certified == 5
        assert report.nonseparating_type is AnnulusType.T3_3i
        assert report.certified_count == 201 - 4

    def test_positive_beta_census(self):
        params = boundary.validate_params(p=3, q=4, delta=1, rho=1, beta=2,
                                          lam=0, mu=0)
        report = typeK_census(params, 50)
        assert len(report.inconclusive) <= 2
        assert set(report.inconclusive) <= set(report.window)

    def test_bad_span_rejected(self):
        with pytest.raises(ValueError, match="^span must be positive$"):
            typeK_census(FIVE_TWO, 0)
        with pytest.raises(ValueError, match="^span must be at most 100000$"):
            typeK_census(FIVE_TWO, 100_001)

    def test_beta_budget(self):
        for beta in (100_001, -100_001):
            params = boundary.validate_params(p=3, q=2, delta=1, rho=1, beta=beta,
                                              lam=0, mu=0)
            with pytest.raises(ValueError, match=r"^\|beta\| must be at most 100000$"):
                typeK_census(params, 1)

    def test_known_types_table(self):
        assert classify.FIVE_TWO_KNOWN_TYPES == {
            0: AnnulusType.T3_2ii, -1: AnnulusType.T3_2ii,
            1: AnnulusType.T3_2i, -2: AnnulusType.T3_2i,
        }


class TestTypeM:
    def test_endpoints(self):
        assert classify_typeM(0) is AnnulusType.T3_2ii
        assert classify_typeM(-1) is AnnulusType.T3_2ii
        assert classify_typeM(3) is AnnulusType.T3_2i

    def test_total_and_gate_agreement(self):
        for p in range(-60, 61):
            kind = classify_typeM(p)
            assert kind in (AnnulusType.T3_2i, AnnulusType.T3_2ii)
            assert (kind is AnnulusType.T3_2ii) == classify.typeM_tangle_gate(p)


class TestTypeS:
    def test_q_greater_one(self):
        assert classify_typeS(3, 2) == (AnnulusType.T3_2ii, AnnulusType.T3_2i)

    def test_q_one_needs_external_fact(self):
        assert classify_typeS(2, 1, cV_trivial=True) == (
            AnnulusType.T3_2ii, AnnulusType.T3_2ii)
        assert classify_typeS(2, 1, cV_trivial=False) == (
            AnnulusType.T3_2i, AnnulusType.T3_2i)
        with pytest.raises(ExternalFactError):
            classify_typeS(2, 1)

    def test_precondition(self):
        with pytest.raises(ValueError):
            classify_typeS(1, 2)
        with pytest.raises(ValueError):
            classify_typeS(3, 0)


class TestEm:
    def test_invariants(self):
        assert em_invariants(EmParams(2, 5, 7, 9))[0] == 2
        assert em_invariants(EmParams(3, 1, 0, 1)) == (3, 1)
        assert em_invariants(EmParams(0, 4, 4, 4))[0] == 0

    def test_statement_and_proof_polynomials_agree(self):
        for l in range(-10, 11):
            for m in range(-10, 11):
                for p in range(-10, 11):
                    stated = 2 * m * p * l - 2 * p - p * l - m * l + 1
                    proved = 2 * l * m * p - l * p - l * m - 2 * p + 1
                    assert stated == proved

    def test_graph_selection(self):
        assert em_jsj_graph(EmParams(2, 1, 0, 1), "plus") is EmGraph.GRAPH_K
        assert em_jsj_graph(EmParams(3, 1, 0, 1), "plus") is EmGraph.GRAPH_M
        assert em_jsj_graph(EmParams(3, 1, 0, 1), "minus") is EmGraph.GRAPH_K
        with pytest.raises(ValueError):
            em_jsj_graph(EmParams(3, 1, 0, 1), "sideways")

    def test_graph_matches_order_condition(self):
        rng = random.Random(1)
        for _ in range(300):
            e = EmParams(*(rng.randint(-10, 10) for _ in range(4)))
            o_alpha, o_beta = em_invariants(e)
            expect_m = o_alpha != 2 and o_beta != 2
            assert (em_jsj_graph(e, "plus") is EmGraph.GRAPH_M) == expect_m
