"""Exact truncated power series containers over the rationals.

A univariate series stores dense coefficients up to a declared truncation
order.  A bivariate series stores the triangle of monomials x**j * y**k
with j*weight_x + k*weight_y <= max_weight.  Reading outside the stored
region raises IndexOutOfRange instead of returning zero, so a stale or
too-short truncation fails loudly rather than producing silent zeros.

Coefficients are exact values, never floats (every library path makes
Python ints), and are stored as given.  Series values are immutable after
construction.  The containers index, and a univariate one also
truncates; they have no arithmetic: the library expands every series
with the division kernel in `generators` and the Euler-transform pair
in `transforms`, and the dense algebra that checks those kernels is a
test oracle.
"""

from __future__ import annotations

from typing import Sequence

Coeff = int


class IndexOutOfRange(IndexError):
    """Coefficient requested outside the declared truncation region."""


class _Record:
    """A container with field-wise ``==`` and ``repr`` over its class's ``_fields``.

    The constructor takes one value per field and sets them in ``_fields`` order.
    """

    _fields: tuple[str, ...] = ()

    def __init__(self, *values: object) -> None:
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__qualname__} takes {len(self._fields)} fields, "
                            f"got {len(values)}")
        self.__dict__.update(zip(self._fields, values))

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"


class _Frozen(_Record):
    """A hashable `_Record` whose fields are set once, at construction."""

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())


class UniSeries(_Frozen):
    """Power series in one variable, exact through degree ``trunc_order``."""

    _fields = ("trunc_order", "coeffs")

    def __init__(self, trunc_order: int, coeffs: Sequence[Coeff]) -> None:
        if trunc_order < 0:
            raise ValueError("truncation order must be >= 0")
        if len(coeffs) != trunc_order + 1:
            raise ValueError("need exactly trunc_order + 1 coefficients")
        # direct sets: every cut builds one, and the base's constructor is slower
        object.__setattr__(self, "trunc_order", trunc_order)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __getitem__(self, degree: int) -> Coeff:
        if not 0 <= degree <= self.trunc_order:
            raise IndexOutOfRange(
                f"degree {degree} is outside the truncation region [0, {self.trunc_order}]"
            )
        return self.coeffs[degree]

    def truncate(self, trunc_order: int) -> UniSeries:
        if trunc_order > self.trunc_order:
            raise IndexOutOfRange(
                f"cannot extend truncation {self.trunc_order} to {trunc_order}"
            )
        return UniSeries(trunc_order, self.coeffs[: trunc_order + 1])


def _row_length(weight_x: int, weight_y: int, max_weight: int, j: int) -> int:
    return (max_weight - j * weight_x) // weight_y + 1


class BiSeries(_Frozen):
    """Power series in two weighted variables, truncated by total weight.

    The coefficient of x**j * y**k is stored iff
    j*weight_x + k*weight_y <= max_weight; ``coeffs[j][k]`` indexes it.
    Rows may be given as lists; construction stores them as tuples.
    """

    _fields = ("weight_x", "weight_y", "max_weight", "coeffs")

    def __init__(
        self, weight_x: int, weight_y: int, max_weight: int, coeffs: Sequence[Sequence[Coeff]]
    ) -> None:
        if weight_x < 1 or weight_y < 1:
            raise ValueError("variable weights must be positive integers")
        if max_weight < 0:
            raise ValueError("max_weight must be >= 0")
        if len(coeffs) != max_weight // weight_x + 1:
            raise ValueError("row count does not match the weight bound")
        rows = tuple(tuple(row) for row in coeffs)
        for j, row in enumerate(rows):
            width = _row_length(weight_x, weight_y, max_weight, j)
            if len(row) != width:
                raise ValueError(f"row {j} must hold exactly {width} coefficients")
        super().__init__(weight_x, weight_y, max_weight, rows)

    def __getitem__(self, index: tuple[int, int]) -> Coeff:
        j, k = index
        if j < 0 or k < 0 or j * self.weight_x + k * self.weight_y > self.max_weight:
            raise IndexOutOfRange(
                f"monomial ({j}, {k}) is outside the weight bound {self.max_weight}"
            )
        return self.coeffs[j][k]


def _zero_rows(weight_x: int, weight_y: int, max_weight: int) -> list[list[Coeff]]:
    return [
        [0] * _row_length(weight_x, weight_y, max_weight, j)
        for j in range(max_weight // weight_x + 1)
    ]
