"""Arc calculus in the 4-punctured sphere.

An arc from the marked point on C_e to the one on C_o is classified, up to
boundary Dehn twists, by its slope r = 2*rho/(2*beta + 1); the coordinate
adds the twist integers (lambda, mu).  Lifting to the plane punctured at
the integer lattice, the reference arc of slope r becomes

* the straight segment from (eps, 0) to (2*beta + 1 - eps, 2*rho) when
  beta >= 0, and
* a clockwise half-circuit of the start puncture, then the straight segment
  from (-eps, 0) to (2*beta + 1 + eps, 2*rho), then a half-circuit of the
  end puncture, when beta < 0.

Crossings with the vertical dual arcs on integer columns (even column =
d_e, odd column = d_o) and with the horizontal duals on odd rows (s_0')
are counted in integers, as for a Christoffel word: with d = |2*beta + 1|
the straight segment meets the d - 1 columns k = 1..d-1 at heights
2*rho*k/d, and one floor division per column counts the odd rows below.
No two crossings tie and eps is never materialised: gcd(2*rho, d) = 1 and
0 < k < d make 2*rho*k/d a non-integer.

Crossing signs.  Signs are constant per lift segment, one sign per dual
family: the straight segment of a beta >= 0 lift crosses every dual at +1;
the straight segment of a beta < 0 lift crosses d-duals at +1 and s_0' at
-1; the leading half-circuit crosses d_e at -1 and the trailing one
crosses d_o at +1.  This is the unique constant-per-segment assignment
compatible with the two closed forms below and with the first/last-entry
signs of the beta < 0 sequence, and it is what makes the negative-beta
normalisation an exact conjugation (see :mod:`hkannuli.boundary`).

Closed-form anchors used to pin the conventions:

* beta = 0:   interpolate(A-hat, x, y, z) = z^rho
* beta = -1:  interpolate(A-hat, x, y, z) = x^-1 z^-rho y
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from ._record import Record
from .freegroup import Word, concat

# Largest crossing count 2*|beta| + rho.  The crossings come as O(|beta|)
# runs, so the budget bounds the output: at it, `arcs crossings --json`
# prints 8 MB in 0.2 s (beta = 0) to 19 MB in 1.5 s (rho = 1) on a shared
# 2-core machine.
CROSSING_BUDGET = 1_000_000


def slope_is_valid(rho: int, beta: int) -> bool:
    return rho >= 0 and gcd(2 * rho, abs(2 * beta + 1)) == 1


class PairedUnitSequence(Record):
    """+-1 sequence of even length 2*tau recording the d-arc crossings."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.entries) % 2:
            raise ValueError("a paired unit sequence has even length")
        if not set(self.entries) <= {1, -1}:
            raise ValueError("entries must be +1 or -1")


class SequenceExtension(Record):
    """Extension of a paired unit sequence by interpolated crossings.

    ``kappa`` (1-based, strictly increasing, of even length) locates the
    base entries inside ``entries``; the base is read off along it.
    """

    entries: tuple[int, ...]
    kappa: tuple[int, ...]

    def __post_init__(self) -> None:
        if not set(self.entries) <= {1, -1}:
            raise ValueError("entries must be +1 or -1")
        if len(self.kappa) % 2:
            raise ValueError("kappa must have even length")
        if any(k2 <= k1 for k1, k2 in zip(self.kappa, self.kappa[1:])):
            raise ValueError("kappa must be strictly increasing")
        if any(not 1 <= k <= self.sigma for k in self.kappa):
            raise ValueError("kappa out of range")

    @property
    def base(self) -> PairedUnitSequence:
        return PairedUnitSequence(tuple(self.entries[k - 1] for k in self.kappa))

    @property
    def sigma(self) -> int:
        return len(self.entries)

    def zetas(self) -> tuple[int, ...]:
        """Interpolation exponents zeta_0..zeta_{2 tau}: sums of entries
        strictly between consecutive kappa positions (ends padded)."""
        bounds = (0,) + self.kappa + (self.sigma + 1,)
        return tuple(
            sum(self.entries[lo:hi - 1])
            for lo, hi in zip(bounds, bounds[1:])
        )


# One (rho, beta) per call: at the crossing budget with a small rho, an
# entry holds a million runs.
@lru_cache(maxsize=1)
def _crossing_events(rho: int, beta: int) -> tuple[tuple[str, int, int], ...]:
    """Ordered maximal runs (dual, sign, count) of the reference-arc lift's
    crossings.

    Duals are "d_o"/"d_e" for integer-column crossings (odd/even column)
    and "s0p" for odd-row crossings.  A column run is one crossing and the
    rows between two columns are one run, so there are at most 4*|beta| + 1
    runs whatever rho.  Exactly (2*rho*k + d) // (2*d) odd rows lie below
    column k; the rows left over up to rho follow the last column.
    """
    if rho < 0:
        raise ValueError("rho must be non-negative")
    if not slope_is_valid(rho, beta):
        raise ValueError(
            f"invalid slope: gcd(2*rho, |2*beta+1|) != 1 for rho={rho}, beta={beta}")
    if 2 * abs(beta) + rho > CROSSING_BUDGET:
        raise ValueError(f"crossing count 2*|beta| + rho must be at most {CROSSING_BUDGET}")
    d = abs(2 * beta + 1)
    row_sign = 1 if beta >= 0 else -1
    columns = (("d_e", 1, 1), ("d_o", 1, 1))  # shared: a column builds no tuple
    line: list[tuple[str, int, int]] = []
    rows = 0
    # the segment meets d - 1 columns: 2*beta of them, or 2*|beta| - 2
    for k in range(1, d):
        below = (2 * rho * k + d) // (2 * d)
        if below > rows:
            line.append(("s0p", row_sign, below - rows))
            rows = below
        line.append(columns[k % 2])
    if rho > rows:
        line.append(("s0p", row_sign, rho - rows))
    if beta >= 0:
        return tuple(line)
    # beta < 0: the straight segment runs between two half-circuits of the
    # end punctures, which contribute fixed leading/trailing records.
    return (("d_e", -1, 1),) + tuple(line) + (("d_o", 1, 1),)


def crossing_runs(rho: int, beta: int) -> tuple[tuple[str, int, int], ...]:
    """The crossings of the reference arc of slope 2*rho/(2*beta+1), in
    order, as maximal runs (dual, sign, count): O(|beta|) runs for the
    2*|beta| + rho crossings.  Rejects what :func:`reference_crossings` does."""
    return _crossing_events(rho, beta)


def base_layout(runs) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """(A, kappa, zetas) read off crossing runs: the signs of the d-crossings,
    their 1-based positions in A-hat, and the s0' sign sums before, between
    and after them (see :meth:`SequenceExtension.zetas`)."""
    base, kappa, zetas = [], [], []
    position = zeta = 0
    for dual, sign, count in runs:
        position += count
        if dual == "s0p":
            zeta += sign * count
        else:  # a d-crossing run is one crossing
            base.append(sign)
            kappa.append(position)
            zetas.append(zeta)
            zeta = 0
    zetas.append(zeta)
    return tuple(base), tuple(kappa), tuple(zetas)


def _expand(runs, field: int) -> tuple:
    """One field of each run, repeated count times."""
    items: list = []
    for run in runs:
        items += (run[field],) * run[2]
    return tuple(items)


def reference_crossings(rho: int, beta: int) -> tuple[PairedUnitSequence, SequenceExtension]:
    """Crossing data of the reference arc of slope 2*rho/(2*beta+1).

    Returns the paired unit sequence A (the 2*|beta| d-crossings) and its
    extension A-hat (all 2*|beta| + rho crossings, in order along the arc).
    Rejects (rho, beta) violating the coprimality invariant.
    """
    runs = _crossing_events(rho, beta)
    base, kappa, _ = base_layout(runs)
    return PairedUnitSequence(base), SequenceExtension(_expand(runs, 1), kappa)


def alternating(seq: PairedUnitSequence, x: Word, y: Word) -> Word:
    """x^{v_1} y^{v_2} ... x^{v_{2 tau - 1}} y^{v_{2 tau}}, freely reduced."""
    parts = []
    for i, exp in enumerate(seq.entries):
        parts.append((x if i % 2 == 0 else y) ** exp)
    return concat(*parts)


def interpolating(ext: SequenceExtension, x: Word, y: Word, z: Word) -> Word:
    """z^{zeta_0} x^{v_1} z^{zeta_1} y^{v_2} ... z^{zeta_{2 tau}}, reduced."""
    zetas = ext.zetas()
    parts = [z ** zetas[0]]
    for i, exp in enumerate(ext.base.entries):
        parts.append((x if i % 2 == 0 else y) ** exp)
        parts.append(z ** zetas[i + 1])
    return concat(*parts)
