from fractions import Fraction
from math import gcd

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from conftest import (ARC_SYMBOLS, ArcCoordinate, arc_word, crossing_duals, valid_slopes,
                      word_strategy)
from hkannuli import arcs
from hkannuli.arcs import (PairedUnitSequence, SequenceExtension, _crossing_events,
                           alternating, interpolating, reference_crossings)
from hkannuli.freegroup import IDENTITY, concat, format_word, parse_word

W = parse_word


def dual_kinds(beta):
    """Closed form for the duals of the paired-sequence entries:
    alternating, first in d_o for beta > 0 and in d_e for beta < 0."""
    first, second = ("d_o", "d_e") if beta > 0 else ("d_e", "d_o")
    return tuple(first if i % 2 == 0 else second for i in range(2 * abs(beta)))


def identity_images():
    return {s: IDENTITY for s in ARC_SYMBOLS}


def sorted_crossings(rho, beta):
    """Reference order: every crossing keyed by its exact height on the
    straight segment, then sorted; beta < 0 adds the half-circuit records."""
    def column(k):
        return "d_o" if k % 2 == 1 else "d_e"

    denominator = abs(2 * beta + 1)
    columns = 2 * beta if beta >= 0 else 2 * abs(beta) - 2
    row_sign = 1 if beta >= 0 else -1
    line = [(Fraction(2 * rho * k, denominator), column(k), 1)
            for k in range(1, columns + 1)]
    line += [(Fraction(m), "s0p", row_sign) for m in range(1, 2 * rho, 2)]
    line.sort(key=lambda ev: ev[0])
    events = tuple((dual, sign) for _, dual, sign in line)
    return events if beta >= 0 else (("d_e", -1),) + events + (("d_o", 1),)


class TestTypes:
    def test_coordinate_validation(self):
        ArcCoordinate(2, 1, 0, 0)
        with pytest.raises(ValueError):
            ArcCoordinate(3, 1, 0, 0)  # gcd(6, 3) = 3
        with pytest.raises(ValueError):
            ArcCoordinate(-1, 0, 0, 0)
        with pytest.raises(ValueError):
            ArcCoordinate(0, 2, 0, 0)  # slope 0 needs 2*beta+1 = +-1

    def test_sequence_validation(self):
        PairedUnitSequence((1, -1))
        with pytest.raises(ValueError):
            PairedUnitSequence((1,))
        with pytest.raises(ValueError):
            PairedUnitSequence((1, 2))
        assert SequenceExtension((1, 1, -1), (1, 3)).base == PairedUnitSequence((1, -1))
        for entries, kappa in [((1, 2, -1), (1, 3)),   # not a unit
                               ((1, 1, -1), (1,)),     # odd kappa
                               ((1, 1, -1), (3, 1)),   # not increasing
                               ((1, 1, -1), (1, 4))]:  # out of range
            with pytest.raises(ValueError):
                SequenceExtension(entries, kappa)


class TestReferenceCrossings:
    def test_crossing_cache_keeps_one_entry(self):
        # `arcs crossings` reads one (rho, beta); more entries would keep megabytes each
        arcs._crossing_events.cache_clear()
        for rho in range(99_001, 99_011, 2):
            reference_crossings(rho, 0)
        assert arcs._crossing_events.cache_info().currsize <= 1

    def test_beta_zero(self):
        for rho in range(0, 8):
            seq, ext = reference_crossings(rho, 0)
            assert seq.entries == ()
            assert ext.entries == (1,) * rho
            assert ext.kappa == ()

    def test_beta_minus_one(self):
        for rho in range(0, 8):
            seq, ext = reference_crossings(rho, -1)
            assert seq.entries == (-1, 1)
            assert ext.entries == (-1,) + (-1,) * rho + (1,)
            assert ext.kappa == (1, rho + 2)

    def test_zero_slope(self):
        seq, ext = reference_crossings(0, 0)
        assert seq.entries == () and ext.entries == ()

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            reference_crossings(3, 1)
        with pytest.raises(ValueError):
            reference_crossings(0, 3)
        with pytest.raises(ValueError, match="^rho must be non-negative$"):
            reference_crossings(-1, 0)

    def test_floor_counts_match_sorted_heights(self):
        pairs = list(valid_slopes(100, 20))
        assert len(pairs) == 3320
        for rho, beta in pairs:
            runs = _crossing_events(rho, beta)
            expanded = tuple((dual, sign) for dual, sign, count in runs for _ in range(count))
            assert expanded == sorted_crossings(rho, beta), (rho, beta)
            # maximal runs: a column is one crossing, and no two neighbours share a dual
            assert all(count >= 1 and (dual == "s0p" or count == 1)
                       for dual, _, count in runs), (rho, beta)
            assert all(a[0] != b[0] for a, b in zip(runs, runs[1:])), (rho, beta)
            assert len(runs) <= 4 * abs(beta) + 1, (rho, beta)

    def test_counts_and_alternation(self):
        for rho, beta in valid_slopes(8, 8):
            seq, ext = reference_crossings(rho, beta)
            assert len(seq.entries) == 2 * abs(beta)
            assert ext.sigma == 2 * abs(beta) + rho
            # geometric dual assignment alternates and matches the closed form
            d_duals = tuple(d for d in crossing_duals(rho, beta) if d != "s0p")
            assert d_duals == dual_kinds(beta)
            if beta > 0:
                assert d_duals[0] == "d_o"
            if beta < 0:
                assert d_duals[0] == "d_e"
            assert all(d_duals[i] != d_duals[i + 1] for i in range(len(d_duals) - 1))

    def test_negative_beta_endpoints_inside_base(self):
        for rho, beta in valid_slopes(8, 8):
            if beta >= 0:
                continue
            seq, ext = reference_crossings(rho, beta)
            assert ext.kappa[0] == 1 and ext.kappa[-1] == ext.sigma
            assert ext.entries[0] == -1 and ext.entries[-1] == 1
            assert seq.entries[0] == -1 and seq.entries[-1] == 1

    def test_straight_line_sign_constancy(self):
        # one sign per dual family along a single lift segment
        for rho, beta in valid_slopes(20, 20):
            if beta <= 0:
                continue
            seq, _ = reference_crossings(rho, beta)
            assert len(set(seq.entries)) == 1


class TestWordFunctions:
    def test_alternating_examples(self):
        empty = PairedUnitSequence(())
        assert alternating(empty, W("u"), W("v")) == IDENTITY
        ones = PairedUnitSequence((1, 1))
        assert alternating(ones, W("u"), W("v")) == W("u v")
        mixed = PairedUnitSequence((1, -1, -1, 1))
        assert alternating(mixed, W("v^2"), W("u")) == W("v^2 U v^-2 u")

    @given(word_strategy(max_blocks=3, max_exp=2), word_strategy(max_blocks=3, max_exp=2))
    @settings(max_examples=40)
    def test_substitution_identity(self, x, y):
        for rho, beta in valid_slopes(4, 3):
            seq, ext = reference_crossings(rho, beta)
            assert interpolating(ext, x, y, IDENTITY) == alternating(seq, x, y)

    def test_interpolating_anchors(self):
        x, y, z = W("u"), W("v"), W("u v^-1")
        for rho in range(0, 51):
            _, ext0 = reference_crossings(rho, 0)
            assert interpolating(ext0, x, y, z) == z ** rho
            _, ext1 = reference_crossings(rho, -1)
            assert interpolating(ext1, x, y, z) == concat(x.inverse(), z ** -rho, y)

    def test_zetas(self):
        _, ext = reference_crossings(1, -2)
        assert ext.entries == (-1, 1, -1, 1, 1)
        assert ext.kappa == (1, 2, 4, 5)
        assert ext.zetas() == (0, 0, -1, 0, 0)


class TestArcWord:
    def test_trivial_arc(self):
        images = identity_images()
        images["s0"] = W("v^3")
        coord = ArcCoordinate(0, 0, 0, 0)
        assert arc_word(coord, images) == W("v^3")

    @pytest.mark.parametrize("rho, lam, mu, q, delta, expected", [
        (2, 3, 1, 2, 1, "u^3 v^3"),   # beta = 0: u^lam v^(q mu + delta)
        (0, -1, 2, 1, 0, "u^-1 v^2"),
    ])
    def test_beta_zero_collapse(self, rho, lam, mu, q, delta, expected):
        images = {"Ce": W("u"), "Co_hat": W(f"v^{q}"), "v_hat": IDENTITY,
                  "s0": W(f"v^{delta}") if delta else IDENTITY}
        coord = ArcCoordinate(rho, 0, lam, mu)
        assert format_word(arc_word(coord, images)) == expected

    def test_beta_minus_one_closed_form(self):
        q, delta = 3, 2
        images = {"Ce": W("u"), "Co_hat": W(f"v^{q}"), "v_hat": IDENTITY,
                  "s0": W(f"v^{delta}")}
        coord = ArcCoordinate(2, -1, 0, 0)
        assert arc_word(coord, images) == W(f"U v^{q + delta}")

    def test_missing_image_rejected(self):
        with pytest.raises(ValueError):
            arc_word(ArcCoordinate(0, 0, 0, 0), {"Ce": IDENTITY})
