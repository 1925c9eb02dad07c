"""Exact generating-function engine for graded enumeration conjectures.

Computes, with exact rational arithmetic throughout, the bigraded
dimensions beta(m, u) of primitive diagram spaces, the primitive counts
P_m, the knot and framed-knot invariant counts V_m and F_m obtained from
them by Euler transforms, and the weight/depth counts of irreducible
multiple zeta values and alternating Euler sums.  A verification layer
replays every tabulated reference value, and a CLI exposes each table.
"""

__version__ = "0.1.0"

from .series import (
    BiSeries,
    IndexOutOfRange,
    UniSeries,
    WeightMismatch,
)
from .generators import (
    BetaTable,
    UnsupportedColumn,
    UnsupportedDiagonal,
    beta_table,
    build_b,
    floor_formula_col0,
    floor_formula_diag1,
    floor_formula_diag2,
    g_series,
    h_series,
    p_closed,
    p_from_b,
    primitive_counts,
)
from .transforms import (
    PRODUCT_OF_INVERSES,
    PRODUCT_PLAIN,
    NegativeExponent,
    NonIntegerExponent,
    NonUnitConstant,
    euler_expand,
    peel_bi,
    peel_uni,
)
from .mzv import (
    CrossCheckError,
    MzvCounts,
    build_eul_rhs,
    build_mzv_rhs,
    mzv_counts,
)
from .asymptotics import (
    AsymptoticReport,
    asymptotic_report,
    growth_constant,
    growth_constant_from_series,
    growth_root,
    max_ratio_degree,
    ratio_table,
)
from .verify import ReferenceEntry, VerificationReport, run_all

__all__ = [
    "AsymptoticReport",
    "BetaTable",
    "BiSeries",
    "CrossCheckError",
    "IndexOutOfRange",
    "MzvCounts",
    "NegativeExponent",
    "NonIntegerExponent",
    "NonUnitConstant",
    "PRODUCT_OF_INVERSES",
    "PRODUCT_PLAIN",
    "ReferenceEntry",
    "UniSeries",
    "UnsupportedColumn",
    "UnsupportedDiagonal",
    "VerificationReport",
    "WeightMismatch",
    "asymptotic_report",
    "beta_table",
    "build_b",
    "build_eul_rhs",
    "build_mzv_rhs",
    "euler_expand",
    "floor_formula_col0",
    "floor_formula_diag1",
    "floor_formula_diag2",
    "g_series",
    "growth_constant",
    "growth_constant_from_series",
    "growth_root",
    "h_series",
    "max_ratio_degree",
    "mzv_counts",
    "p_closed",
    "p_from_b",
    "peel_bi",
    "peel_uni",
    "primitive_counts",
    "ratio_table",
    "run_all",
    "__version__",
]
