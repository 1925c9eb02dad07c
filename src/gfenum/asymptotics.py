"""Growth rate of the primitive counts.

The only module that touches floating point: everything upstream is exact
integer or rational arithmetic, and rounding enters exactly where decimal
answers are reported.

The primitive gap series has a simple pole at y = 1/r inside the unit
disk, where r is the real root of r**4 = r**3 + 1 in (1, 2).  The ratio
P_m / r**m therefore tends to a finite constant, computed here two ways:
analytically from the closed rational form, and by extrapolating exact
series partial sums toward the pole, streamed in O(terms) memory and not cached.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import Iterable, Iterator

from .generators import _P_FACTORS, _P_NUMERATOR, _expand_uni, primitive_counts
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


def _gap_coeffs(terms: int) -> Iterator[int]:
    """p_closed(terms)'s coefficients in order: the kernel divides by the first four factors
    (below 2**37 at 20,000 terms), then 1 - y - y**4 is its lag loop on a window of four."""
    c1 = c2 = c3 = c4 = 0
    for x in _expand_uni(_P_NUMERATOR, _P_FACTORS[:4], terms).coeffs:
        c1, c2, c3, c4 = x + c1 + c4, c1, c2, c3  # c_m = x_m + c_{m-1} + c_{m-4}
        yield c1


def _scaled_floats(coeffs: Iterable[int], scale: float) -> list[float]:
    """c_m * scale**m as floats, via exponent bookkeeping, reading coeffs once in order.

    The raw coefficients overflow float far before the truncations used
    here, but c_m * scale**m stays bounded when scale * r < 1, so each
    term is assembled from a 64-bit mantissa and a power-of-two exponent.
    That rounds twice: the shift cuts c_m to its top 64 bits and float()
    rounds those to 53, so where the cut bits hold a tie the mantissa can
    end one ulp from c_m rounded once (2**64 + 2**11 + 1 gives 2**64, not
    2**64 + 2**12).  The pinned bits of the series route depend on this
    rounding.
    """
    log2_scale = math.log2(scale)
    floor, ldexp = math.floor, math.ldexp
    out = []
    for m, c in enumerate(coeffs):  # c = 0 gives ldexp(0.0, whole) == 0.0
        bits = c.bit_length()
        shift = bits - 64 if bits > 64 else 0
        exponent = shift + m * log2_scale
        whole = floor(exponent)
        out.append(ldexp(float(c >> shift) * 2.0 ** (exponent - whole), whole))
    return out


_MAX_OFFSET = 0.08
_NODE_RATIO = 0.65
_NODES = 10
_MAX_TAIL = 1e-6


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
    for ``terms`` below 6,034.  Partial sums are evaluated by a Horner
    scheme rescaled so nothing overflows double precision.  The exact
    coefficients are streamed, not kept: O(terms) memory (1.5 MiB peak at
    20,000), no use of p_closed's cache, and a repeat call costs a cold one.
    """
    r = growth_root()
    offsets = [_MAX_OFFSET * _NODE_RATIO ** i for i in range(_NODES)]
    tail = (1.0 - r * offsets[-1]) ** terms
    if tail > _MAX_TAIL:
        raise ValueError(f"terms={terms} leaves a series tail bound of {tail:.4g} > {_MAX_TAIL:g}")
    scale = 0.70  # any value below 1/r keeps the rescaled sweep bounded
    coeffs = _scaled_floats(_gap_coeffs(terms), scale)
    values = []
    for t in offsets:
        y = 1.0 / r - t
        growth = y / scale
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * growth + c
        values.append((1.0 - r * y) * acc)
    table = list(values)
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
