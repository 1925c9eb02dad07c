"""Exact generating-function engine for graded enumeration conjectures.

Computes, with exact rational arithmetic throughout, the bigraded
dimensions beta(m, u) of primitive diagram spaces, the primitive counts
P_m, the knot and framed-knot invariant counts V_m and F_m obtained from
them by Euler transforms, and the weight/depth counts of irreducible
multiple zeta values and alternating Euler sums.  A verification layer
replays every tabulated reference value, and a CLI exposes each table.

Importing the package loads none of its modules: each public name is
imported from its module on first use (PEP 562), then kept here.
"""

from importlib import import_module

__version__ = "0.1.0"

# Module -> the public names it defines
_EXPORTS = {
    "series": ("BiSeries", "IndexOutOfRange", "UniSeries"),
    "generators": (
        "BetaTable", "UnsupportedDiagonal", "beta_table", "build_b", "floor_formula_col0",
        "floor_formula_diag1", "floor_formula_diag2", "g_series", "p_closed", "p_from_b",
        "primitive_counts",
    ),
    "transforms": ("NegativeExponent", "NonIntegerExponent", "NonUnitConstant", "euler_expand"),
    "mzv": ("CrossCheckError", "MzvCounts", "build_mzv_rhs", "mzv_counts"),
    "asymptotics": (
        "AsymptoticReport", "asymptotic_report", "growth_constant",
        "growth_constant_from_series", "growth_root", "max_ratio_degree", "ratio_table",
    ),
    "verify": ("ReferenceEntry", "VerificationReport", "run_all"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF) + ["__version__"]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later reads are a plain lookup
    return value


def __dir__() -> list[str]:
    return list(__all__)
