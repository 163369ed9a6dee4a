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

Closed-form anchors, with (A, kappa, zetas) = reference_crossings(rho, beta):

* beta = 0:   interpolating(A, zetas, x, y, z) = z^rho
* beta = -1:  interpolating(A, zetas, x, y, z) = x^-1 z^-rho y
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .freegroup import Word, concat

# Largest crossing count 2*|beta| + rho.  The crossings come as O(|beta|)
# runs, so the budget bounds the output: at it, `arcs crossings --json`
# prints 8 MB in 0.2 s (beta = 0) to 19 MB in 1.5 s (rho = 1) on a shared
# 2-core machine.
CROSSING_BUDGET = 1_000_000


def slope_is_valid(rho: int, beta: int) -> bool:
    return rho >= 0 and gcd(2 * rho, abs(2 * beta + 1)) == 1


# One (rho, beta) per call: at the crossing budget with a small rho, an
# entry holds a million runs, which `arcs crossings` reads twice.
@lru_cache(maxsize=1)
def crossing_runs(rho: int, beta: int) -> tuple[tuple[str, int, int], ...]:
    """The crossings of the reference arc of slope 2*rho/(2*beta+1), in
    order, as maximal runs (dual, sign, count).

    Duals are "d_o"/"d_e" for integer-column crossings (odd/even column)
    and "s0p" for odd-row crossings.  A column run is one crossing and the
    rows between two columns are one run, so the 2*|beta| + rho crossings
    come as at most 4*|beta| + 1 runs.  Exactly (2*rho*k + d) // (2*d) odd
    rows lie below column k; the rows left over up to rho follow the last
    column.  Rejects a negative rho, a slope that breaks the coprimality
    invariant, and more than CROSSING_BUDGET crossings.
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


# `bench/tracing.py`'s CACHES reads the cache under this old name; the
# alias goes when that table is rewritten.
_crossing_events = crossing_runs


def reference_crossings(rho: int, beta: int) -> tuple[tuple[int, ...], ...]:
    """(A, kappa, zetas) of the reference arc of slope 2*rho/(2*beta+1):
    the signs of the d-crossings, their 1-based positions among all
    crossings (A-hat), and the s0' sign sums before, between and after
    them: zeta_0..zeta_{2 tau}.  Rejects what :func:`crossing_runs` does."""
    base, kappa, zetas = [], [], []
    position = zeta = 0
    for dual, sign, count in crossing_runs(rho, beta):
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


def alternating(signs: tuple[int, ...], x: Word, y: Word) -> Word:
    """x^{v_1} y^{v_2} ... x^{v_{2 tau - 1}} y^{v_{2 tau}}, freely reduced."""
    return concat(*[(x if i % 2 == 0 else y) ** exp for i, exp in enumerate(signs)])


def interpolating(signs: tuple[int, ...], zetas: tuple[int, ...],
                  x: Word, y: Word, z: Word) -> Word:
    """z^{zeta_0} x^{v_1} z^{zeta_1} y^{v_2} ... z^{zeta_{2 tau}}, reduced.
    ``zetas`` has one entry more than ``signs``."""
    head, *tail = zetas
    parts = [z ** head]
    for i, (exp, zeta) in enumerate(zip(signs, tail, strict=True)):
        parts += [(x if i % 2 == 0 else y) ** exp, z ** zeta]
    return concat(*parts)
