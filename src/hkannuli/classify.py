"""Classification pipelines for non-characteristic annuli.

The separating annuli of a type-K handlebody-knot are certified to be of
type 4-1 through a one-directional algebraic criterion: if the boundary
word is not a power of a primitive element, the annulus is of type 4-1.
On boundary words the Cho-Koda criterion decides this; a word it spares
is ``inconclusive``, with its primitive root as witness.  That never
means "not type 4-1"; settling those
cases takes geometric input (knot triviality, symmetry) outside this
calculus, and the library only ships the known answers for the worked
5_2 example as static data.

The census takes every verdict from the case analysis of the exclusion
window (:func:`non_type41_window`): Cho-Koda certifies every n outside it,
and the same analysis names the at most four n inside it that the criterion
spares.  A census builds no boundary word and costs O(1) whatever its span
and beta; a spared n's word is built, and its root taken, only when its
witness is read.

The type-M and type-S handlebody-knots have exactly two non-characteristic
annuli and closed-form classifiers; the tangle-constructed knots feeding
type 4-1 annuli are classified into two ambient graph shapes by the two
cyclic-cokernel orders (|l|, |2lmp - lp - lm - 2p + 1|).
"""

from __future__ import annotations

import enum

from . import boundary
from ._record import Record
from .boundary import TypeKParams
from .freegroup import IDENTITY, Word, cho_koda_criterion, root
from .tangle import RationalTangle, cf_eval, is_integral


class AnnulusType(str, enum.Enum):
    T1 = "1"
    T2_1 = "2-1"
    T2_2 = "2-2"
    T3_1 = "3-1"
    T3_2i = "3-2i"
    T3_2ii = "3-2ii"
    T3_3i = "3-3i"
    T3_3ii = "3-3ii"
    T4_1 = "4-1"
    T4_2 = "4-2"


class Verdict(str, enum.Enum):
    TYPE_4_1 = "type-4-1"
    INCONCLUSIVE = "inconclusive"


class ClassificationOutcome(Record):
    """Certified type 4-1 (with the criterion that fired) or inconclusive
    (with the primitive root as witness; the identity word witnesses the
    degenerate nullhomotopic case)."""

    verdict: Verdict
    criterion: str | None = None
    witness: Word | None = None

    @property
    def certified(self) -> bool:
        return self.verdict is Verdict.TYPE_4_1

    @property
    def evidence(self) -> str:
        """The criterion that fired, or the witness word as text."""
        return self.criterion if self.certified else str(self.witness)


# The outcome of every n outside the exclusion window, shared by the census.
CHO_KODA = ClassificationOutcome(Verdict.TYPE_4_1, criterion="cho-koda")


def classify_typeK_annulus(params: TypeKParams, n: int) -> ClassificationOutcome:
    """Certify the n-th separating annulus as type 4-1 by Cho-Koda; a word
    it spares is a power of a primitive (:func:`non_type41_window`), and its
    root witnesses the inconclusive verdict."""
    word = boundary.boundary_word(params, n)
    if cho_koda_criterion(word):
        return CHO_KODA
    witness = IDENTITY if word.is_identity else root(word)[0]
    return ClassificationOutcome(Verdict.INCONCLUSIVE, None, witness)  # no criterion


def non_type41_window(params: TypeKParams) -> tuple[int, ...]:
    """Explicit finite exclusion set: Cho-Koda certifies every n outside it.

    beta < 0 is first rewritten in beta' >= 0 form (same n indexing; the
    words are conjugate and the criterion reads only the cyclic core).  The
    word is A v^m A^-1 u^t with A = (v^q u)^beta', m = q(n + mu') + delta
    and t = lambda' + n:

    * beta' > 0: { m in {0, q} } union { t in {0, 1} }.  For m, t != 0
      nothing cancels (A ends in u, A^-1 starts with u^-1) and the word,
      from v^q to u^t, is cyclically reduced with u-exponents {1, -1, t} and
      v-exponents {q, m, -q}: both non-constant, so the criterion fires,
      also at the window's m = q and t = 1.
    * beta' = 0: { |m| <= 1 } union { |t| <= 1 }, exactly the n where the
      core v^m u^t, one block of each generator, does not fire.

    Both sets have at most four elements: the first is empty or a pair for
    beta' > 0, and for beta' = 0 the two windows overlap because
    |mu' - lambda'| <= 1.

    Every word the criterion spares is 1 or a power of a primitive element,
    so the criterion decides the census (for beta >= 0 with any q != 0,
    validated or not):

    * beta' > 0: m = 0 leaves u^t, and t = 0 leaves a conjugate of v^m.
    * beta' = 0: a spared core v^m u^t has |m| <= 1 or |t| <= 1, so it is
      one block g^e, or v^(+-1) u^t, or v^m u^(+-1); the last two are
      primitive, forming a basis with u and with v respectively.

    So the spared n are exactly those with m = 0 or t = 0 for beta' > 0,
    and the whole window for beta' = 0; :func:`typeK_census` reads them off
    the same analysis.
    """
    return _window_and_spared(params)[0]


def _window_and_spared(params: TypeKParams) -> tuple[tuple[int, ...], set[int]]:
    """The sorted window and the n in it that Cho-Koda spares, by the case
    analysis of :func:`non_type41_window`."""
    if params.beta < 0:
        params, _ = boundary.normalize_negative_beta(params)
    if params.beta == 0:
        window = spared = _hits(params, (-1, 0, 1), (-1, 0, 1))
    else:
        # (m targets, t targets) of the window and of the spared n, side by side
        window, spared = _hits(params, (0, params.q), (0, 1)), _hits(params, (0,), (0,))
    return tuple(sorted(window)), spared


def _hits(params: TypeKParams, m_targets: tuple[int, ...],
          t_targets: tuple[int, ...]) -> set[int]:
    """The n with m = q(n + mu) + delta in m_targets or t = lambda + n in
    t_targets."""
    q, delta = params.q, params.delta
    # q(n + mu) + delta = m has a solution iff q | m - delta
    hits = {(m - delta) // q - params.mu for m in m_targets if (m - delta) % q == 0}
    hits.update(t - params.lam for t in t_targets)
    return hits


def classify_typeM(p: int) -> AnnulusType:
    """Type of the companion non-characteristic annulus next to the type
    4-1 one: 3-2ii exactly for p in {0, -1}, else 3-2i."""
    return AnnulusType.T3_2ii if p in (0, -1) else AnnulusType.T3_2i


def typeM_tangle_gate(p: int) -> bool:
    """Triviality gate behind :func:`classify_typeM`: whether the tangle
    (-p, 2, 0) is integral under the mirrored sign calibration."""
    value = cf_eval(RationalTangle.of(-p, 2, 0), convention="mirrored")
    return is_integral(value, infinity_is_integral=True)


class ExternalFactError(ValueError):
    """A knot-triviality fact must be supplied from outside the calculus."""


def classify_typeS(p: int, q: int,
                   cV_trivial: bool | None = None
                   ) -> tuple[AnnulusType, AnnulusType]:
    """Types of the two non-characteristic annuli of a type-S exterior.

    For q > 1 the Seifert structure decides: the core on one side is
    trivial and on the other a (p, q)-torus knot, giving (3-2ii, 3-2i).
    For q = 1 the two cores are equivalent knots, so both annuli share one
    type, decided by the externally supplied triviality fact.
    """
    if p in (0, 1, -1):
        raise ValueError("slope pair requires p outside {0, 1, -1}")
    if q <= 0:
        raise ValueError("slope pair requires q > 0")
    if q > 1:
        return AnnulusType.T3_2ii, AnnulusType.T3_2i
    if cV_trivial is None:
        raise ExternalFactError(
            "external knot-triviality fact required: q = 1 is not decidable from (p, q)")
    kind = AnnulusType.T3_2ii if cV_trivial else AnnulusType.T3_2i
    return kind, kind


class EmParams(Record):
    """Integer quadruple of the four-tangle knot construction.

    The excluded quadruples live in an external table that is not encoded
    here; every computation over EmParams attaches a warning instead of
    rejecting inputs.
    """

    l: int
    m: int
    n: int
    p: int


EM_WARNING = ("the excluded (l, m, n, p) quadruples are not encoded; "
              "results assume the quadruple is admissible")


def em_invariants(e: EmParams) -> tuple[int, int]:
    """Cokernel orders (|l|, |2lmp - lp - lm - 2p + 1|) of the two
    annulus inclusions in the plus-side exterior."""
    l, m, p = e.l, e.m, e.p
    return abs(l), abs(2 * l * m * p - l * p - l * m - 2 * p + 1)


class EmGraph(str, enum.Enum):
    GRAPH_K = "graph-K"  # ambient graph of the punctured-Klein-bottle kind
    GRAPH_M = "graph-M"  # ambient graph of the punctured-Moebius-band kind


def em_jsj_graph(e: EmParams, side: str) -> EmGraph:
    """Ambient graph shape of the induced handlebody-knot on the given
    side: the minus side always yields graph-K; the plus side yields
    graph-M iff neither cokernel order equals 2."""
    if side == "minus":
        return EmGraph.GRAPH_K
    if side != "plus":
        raise ValueError("side must be 'plus' or 'minus'")
    o_alpha, o_beta = em_invariants(e)
    if o_alpha != 2 and o_beta != 2:
        return EmGraph.GRAPH_M
    return EmGraph.GRAPH_K


# -- census -----------------------------------------------------------------


class CensusEntry(Record):
    n: int
    outcome: ClassificationOutcome


class CensusReport(Record):
    """A census of the n with |n| <= span.  Only the inconclusive n, the
    window n inside the span that Cho-Koda spares, are stored; every other
    n is certified by Cho-Koda.  No witness is stored: reading
    ``window_entries`` or ``entries`` builds them."""

    params: TypeKParams
    span: int
    window: tuple[int, ...]
    inconclusive: tuple[int, ...]
    # the non-separating annulus of every type-K family; see typeK_census
    nonseparating_type = AnnulusType.T3_3i

    @property
    def entries(self) -> tuple[CensusEntry, ...]:
        """One entry per n, built on every read: O(span)."""
        window = {e.n: e.outcome for e in self.window_entries}
        return tuple([CensusEntry(n, window.get(n, CHO_KODA))
                      for n in range(-self.span, self.span + 1)])

    @property
    def window_entries(self) -> tuple[CensusEntry, ...]:
        """One entry per window n inside the span, built on every read: an
        inconclusive n's word is built for its witness root, O(|beta|) each;
        every other n reads the shared Cho-Koda outcome."""
        # a list, not a generator: see Word.inverse
        return tuple([CensusEntry(n, classify_typeK_annulus(self.params, n)
                                  if n in self.inconclusive else CHO_KODA)
                      for n in self.window if -self.span <= n <= self.span])

    @property
    def certified_count(self) -> int:
        return 2 * self.span + 1 - len(self.inconclusive)

    @property
    def total_non_certified(self) -> int:
        return len(self.inconclusive) + 1


# Largest census span.  The census does not grow with the span; reading
# ``entries`` and the CLI's --json output, one record per n, do.
SPAN_BUDGET = 100_000


def typeK_census(params: TypeKParams, span: int) -> CensusReport:
    """Classify every separating annulus with |n| <= span and account for
    the unique non-separating annulus.

    Every verdict comes from the case analysis of
    :func:`non_type41_window`: Cho-Koda certifies every n outside the
    window, and of the at most four n inside it, the analysis names those
    the criterion spares.  No boundary word is built, so the cost is O(1)
    whatever the span and beta.  Reading ``window_entries`` builds the word
    and root of each inconclusive n, O(|beta|) each, and reading
    ``entries`` is O(span) besides.

    The non-separating annulus has slope pair (p/q, pq) with p not in
    {0, +-1}; a nontrivial slope rules out type 3-3ii, so it is 3-3i.
    """
    if span <= 0:
        raise ValueError("span must be positive")
    if span > SPAN_BUDGET:
        raise ValueError(f"span must be at most {SPAN_BUDGET}")
    boundary.check_beta_budget(params.beta)  # the census builds no word at all
    window, spared = _window_and_spared(params)
    inconclusive = tuple([n for n in window if n in spared and -span <= n <= span])
    if len(inconclusive) > 4:
        raise AssertionError("more than four inconclusive separating annuli")
    # positional records here and in classify_typeK_annulus: keywords take
    # Record's slower binding path, once per census
    return CensusReport(params, span, window, inconclusive)


# -- the worked 5_2 example --------------------------------------------------

# The sharp-bound example: exactly four inconclusive separating annuli plus
# the non-separating one attain the bound of five.  Boundary words
# v^n u^(n+1); p only enters through the slope pair, not the words, so any
# admissible value works here.
FIVE_TWO_PARAMS = TypeKParams(p=2, q=1, delta=0, rho=0, beta=0, lam=1, mu=0)

# Types of the four annuli the algebra cannot certify, settled by knot
# triviality of the n = 0 core, the trefoil core at n = 1, and the symmetry
# swapping n and -n-1.  Known-answer data, not computed.
FIVE_TWO_KNOWN_TYPES = {
    0: AnnulusType.T3_2ii,
    -1: AnnulusType.T3_2ii,
    1: AnnulusType.T3_2i,
    -2: AnnulusType.T3_2i,
}
