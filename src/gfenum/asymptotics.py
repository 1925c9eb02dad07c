"""Growth rate of the primitive counts.

The only module that touches floating point: everything upstream is exact
integer or rational arithmetic, and rounding enters exactly where decimal
answers are reported.

The primitive gap series has a simple pole at y = 1/r inside the unit
disk, where r is the real root of r**4 = r**3 + 1 in (1, 2).  The ratio
P_m / r**m therefore tends to a finite constant, computed here two ways:
analytically from the closed rational form, and by extrapolating exact
series partial sums toward the pole.  The partial sums come from the split
of the closed form into its pole part and a periodic cubic part: the pole
part is jumped ahead to the last term and walked back, so they take O(1)
memory and no cache.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from itertools import accumulate
from operator import mul

from .generators import _P_FACTORS, _P_NUMERATOR, primitive_counts
from .series import _Frozen


def _quartic(r: float) -> float:
    return r ** 4 - r ** 3 - 1.0


@lru_cache(maxsize=None)
def growth_root() -> float:
    """The real root of r**4 - r**3 - 1 in (1, 2), by Newton's method from r = 2.

    On [1, 2] the quartic is increasing, convex and positive at 2, so each
    step lowers r toward the root; the first step that does not lower r ends it.
    """
    r = 2.0
    while (step := r - _quartic(r) / (4.0 * r ** 3 - 3.0 * r ** 2)) < r:
        r = step
    return r


def _evaluate(poly: dict[int, int], y: float) -> float:
    """sum_d c_d * y**d, added left to right in increasing degree (`sum` compensates on 3.12+)."""
    total = 0.0
    for d, c in sorted(poly.items()):
        total += c * y ** d
    return total


@lru_cache(maxsize=None)
def growth_constant() -> float:
    """lim_m P_m / r**m, as the residue-style limit of (1 - r*y) times the gap series.

    At y = 1/r only the 1 - y - y**4 factor of the closed form vanishes;
    its limit against 1 - r*y is r**4 / (r**3 + 4) by first-order expansion,
    which avoids the catastrophic cancellation of evaluating next to the pole.
    """
    r = growth_root()
    y = 1.0 / r
    numerator = _evaluate(_P_NUMERATOR, y)
    plain_factors = math.prod(_evaluate(factor, y) for factor in _P_FACTORS[:4])
    vanishing_limit = r ** 4 / (r ** 3 + 4.0)
    return numerator * vanishing_limit / plain_factors


# The gap series split at its pole: for m >= 2, 49 * (P_m - 1) = a_m + e_m.  The pole part
# a_m = [y**m] 49A/(1 - y - y**4) has 49A = 51 + 16y + 46y**2 + 22y**3; the periodic part
# is 72 * e_m = 49m**3 - 490m**2 + b*m + g with (g, b) = _PERIODIC[m % 6].
_POLE = (51, 16, 46, 22)
_PERIODIC = ((-7200, 336), (-8534, 623), (-7296, 364), (-8082, 483), (-7064, 476), (-7590, 511))


def _pole_window(top: int) -> tuple[int, int, int, int]:
    """(a_top, a_{top-1}, a_{top-2}, a_{top-3}) in O(log top) big-integer products.

    a_m = a_{m-1} + a_{m-4}, so a_{n+k} is the map z**i -> a_{i+k} applied to
    z**n mod z**4 - z**3 - 1 (Fiduccia), taken here by square-and-multiply.
    """
    p = (1, 0, 0, 0)
    for bit in bin(top)[2:]:
        p0, p1, p2, p3 = p  # p**2, its z**4..z**6 folded down by z**4 = z**3 + 1
        q4, q5, q6 = 2 * p1 * p3 + p2 * p2, 2 * p2 * p3, p3 * p3
        p = (p0 * p0 + q4 + q5 + q6, 2 * p0 * p1 + q5 + q6, 2 * p0 * p2 + p1 * p1 + q6,
             2 * (p0 * p3 + p1 * p2) + q4 + q5 + q6)
        if bit == "1":
            p = (p[3], p[0], p[1], p[2] + p[3])
    # a_{-3} .. a_3: run backward, a_{k-4} = a_k - a_{k-1} = 49A_k for k = 1, 2, 3
    lead = (*_POLE[1:], *accumulate(_POLE))
    return tuple(sum(map(mul, p, lead[k : k + 4])) for k in (3, 2, 1, 0))


_MAX_OFFSET = 0.08
_NODE_RATIO = 0.65
_NODES = 10
_MAX_TAIL = 1e-6
_SCALE = 0.70  # any value below 1/r keeps the rescaled sweep bounded
_EXACT_BELOW = 328  # from here on 0 <= e_m < 2**(bits(a_m) - 134)
_GUARD = (1 << 64) - 1


def growth_constant_from_series(terms: int = 14000) -> float:
    """The same limit, from exact partial sums extrapolated toward the pole.

    Evaluates (1 - r*y) times the degree-``terms`` partial sum at
    y = 1/r - t for a geometric ladder of offsets t = 0.08 * 0.65**i,
    i < 10, and removes the Taylor error terms with Neville extrapolation
    to t = 0.  The extrapolated function is analytic there, so the ladder
    converges fast; the error left is the series tail, which tracks
    (1 - r*t_min)**terms at the smallest offset t_min = 0.08 * 0.65**9
    (measured: 1.2e-5 at 6,034 terms, 1.3e-7 at 8,000, 4.8e-12 at
    14,000).  ValueError is raised when that bound exceeds 1e-6, that is
    for ``terms`` below 6,034.

    The ten partial sums run side by side as Horner chains from the last
    term down.  Term m is c_m = P_m - 1 = (a_m + e_m) / 49 for m >= 2,
    scaled by 0.7**m so nothing overflows: its top 64 bits, rounded to a
    double, times a power of two.  That rounds twice, and the pinned bits
    depend on it (2**64 + 2**11 + 1 gives 2**64, not 2**64 + 2**12).
    a_m is jumped ahead to m = ``terms`` and walked back by
    a_{m-4} = a_m - a_{m-1}.  From m = 328 on, 0 <= e_m < 2**t for
    t = bits(a_m) - 134, so e_m carries at most one into bit t of a_m;
    unless a_m's 64 bits from bit t are all ones, c_m's top bits are
    a_m's top 70 bits floored by 49.  Other terms take c_m exactly.  The
    route holds a few numbers (a 20 KiB tracemalloc peak at 20,000
    terms), fills no cache, and a repeat call costs a cold one.
    """
    r = growth_root()
    offsets = [_MAX_OFFSET * _NODE_RATIO ** i for i in range(_NODES)]
    tail = (1.0 - r * offsets[-1]) ** terms
    if tail > _MAX_TAIL:
        raise ValueError(f"terms={terms} leaves a series tail bound of {tail:.4g} > {_MAX_TAIL:g}")
    scale, exact_below, guard = _SCALE, _EXACT_BELOW, _GUARD
    log2_scale = math.log2(scale)
    floor, ldexp = math.floor, math.ldexp
    g0, g1, g2, g3, g4, g5, g6, g7, g8, g9 = [(1.0 / r - t) / scale for t in offsets]
    h0 = h1 = h2 = h3 = h4 = h5 = h6 = h7 = h8 = h9 = 0.0
    a, a1, a2, a3 = _pole_window(terms)
    for m in range(terms, -1, -1):
        if m >= exact_below and (w := a >> (t := a.bit_length() - 134)) & guard != guard:
            top, shift = (w >> 64) // 49, t + 64
            if top >> 64:
                top, shift = top >> 1, shift + 1
        else:
            g, b = _PERIODIC[m % 6]
            c = (a + (((49 * m - 490) * m + b) * m + g) // 72) // 49 if m > 1 else 0
            shift = max(c.bit_length() - 64, 0)
            top = c >> shift
        exponent = shift + m * log2_scale
        whole = floor(exponent)
        s = ldexp(float(top) * 2.0 ** (exponent - whole), whole)
        h0 = h0 * g0 + s
        h1 = h1 * g1 + s
        h2 = h2 * g2 + s
        h3 = h3 * g3 + s
        h4 = h4 * g4 + s
        h5 = h5 * g5 + s
        h6 = h6 * g6 + s
        h7 = h7 * g7 + s
        h8 = h8 * g8 + s
        h9 = h9 * g9 + s
        a, a1, a2, a3 = a1, a2, a3, a - a1
    sums = (h0, h1, h2, h3, h4, h5, h6, h7, h8, h9)
    table = [(1.0 - r * (1.0 / r - t)) * h for t, h in zip(offsets, sums)]
    for level in range(1, _NODES):
        for i in range(_NODES - level):
            t_lo, t_hi = offsets[i], offsets[i + level]
            table[i] = (t_lo * table[i + 1] - t_hi * table[i]) / (t_lo - t_hi)
    return table[0]


def max_ratio_degree() -> int:
    """The largest m whose r**m is a finite double (2,202): the upper limit of ratio_table."""
    return int(math.log(sys.float_info.max) / math.log(growth_root()))


def ratio_table(max_m: int) -> list[tuple[int, float]]:
    """(m, P_m / r**m) for m = 1 .. max_m, a convergence diagnostic, for 2 <= max_m <= 2,202."""
    if not 2 <= max_m <= max_ratio_degree():
        raise ValueError(f"max_m must be in [2, {max_ratio_degree()}]")
    r = growth_root()
    counts = primitive_counts(max_m)
    return [(m, counts[m - 1] / r ** m) for m in range(1, max_m + 1)]


class AsymptoticReport(_Frozen):
    """Growth root, limit constant and convergence diagnostics."""

    _fields = ("root", "constant", "quartic_residual", "reciprocal_residual", "ratios")


def asymptotic_report(max_m: int = 40) -> AsymptoticReport:
    r = growth_root()
    return AsymptoticReport(
        r,
        growth_constant(),
        abs(_quartic(r)),
        abs(1.0 - 1.0 / r - 1.0 / r ** 4),
        tuple(ratio_table(max_m)),
    )
