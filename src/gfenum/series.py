"""Exact truncated power series containers over the rationals.

A univariate series stores dense coefficients up to a declared truncation
order.  A bivariate series stores the triangle of monomials x**j * y**k
with j*weight_x + k*weight_y <= max_weight.  Reading outside the stored
region raises IndexOutOfRange instead of returning zero, so a stale or
too-short truncation fails loudly rather than producing silent zeros.

Coefficients are exact values, never floats (every library path makes
Python ints), and are stored as given.  Series values are immutable after
construction.  The containers index, truncate and substitute; they
have no arithmetic: the library expands every series with the
division kernel in `generators` and the Euler-transform pair in
`transforms`, and the dense algebra that checks those kernels is a test
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

Coeff = int


class WeightMismatch(ValueError):
    """A bivariate series carries variable weights the operation does not support."""


class IndexOutOfRange(IndexError):
    """Coefficient requested outside the declared truncation region."""


@dataclass(frozen=True)
class UniSeries:
    """Power series in one variable, exact through degree ``trunc_order``."""

    trunc_order: int
    coeffs: tuple[Coeff, ...]

    def __post_init__(self) -> None:
        if self.trunc_order < 0:
            raise ValueError("truncation order must be >= 0")
        if len(self.coeffs) != self.trunc_order + 1:
            raise ValueError("need exactly trunc_order + 1 coefficients")
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

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


@dataclass(frozen=True)
class BiSeries:
    """Power series in two weighted variables, truncated by total weight.

    The coefficient of x**j * y**k is stored iff
    j*weight_x + k*weight_y <= max_weight; ``coeffs[j][k]`` indexes it.
    Rows may be given as lists; construction stores them as tuples.
    """

    weight_x: int
    weight_y: int
    max_weight: int
    coeffs: tuple[tuple[Coeff, ...], ...]

    def __post_init__(self) -> None:
        if self.weight_x < 1 or self.weight_y < 1:
            raise ValueError("variable weights must be positive integers")
        if self.max_weight < 0:
            raise ValueError("max_weight must be >= 0")
        jmax = self.max_weight // self.weight_x
        if len(self.coeffs) != jmax + 1:
            raise ValueError("row count does not match the weight bound")
        rows = tuple(tuple(row) for row in self.coeffs)
        for j, row in enumerate(rows):
            width = _row_length(self.weight_x, self.weight_y, self.max_weight, j)
            if len(row) != width:
                raise ValueError(f"row {j} must hold exactly {width} coefficients")
        object.__setattr__(self, "coeffs", rows)

    def __getitem__(self, index: tuple[int, int]) -> Coeff:
        j, k = index
        if j < 0 or k < 0 or j * self.weight_x + k * self.weight_y > self.max_weight:
            raise IndexOutOfRange(
                f"monomial ({j}, {k}) is outside the weight bound {self.max_weight}"
            )
        return self.coeffs[j][k]

    def nonzero_terms(self) -> Iterator[tuple[int, int, Coeff]]:
        for j, row in enumerate(self.coeffs):
            for k, c in enumerate(row):
                if c != 0:
                    yield j, k, c

    def truncate(self, max_weight: int) -> BiSeries:
        if max_weight > self.max_weight:
            raise IndexOutOfRange(
                f"cannot extend weight bound {self.max_weight} to {max_weight}"
            )
        rows = [
            row[: _row_length(self.weight_x, self.weight_y, max_weight, j)]
            for j, row in enumerate(self.coeffs[: max_weight // self.weight_x + 1])
        ]
        return BiSeries(self.weight_x, self.weight_y, max_weight, tuple(rows))

    def substitute_x(self) -> UniSeries:
        """Evaluate at x = y**2, valid for weights (2, 1) only.

        The substitution maps x**j * y**k to y**(2j + k), which is the total
        weight, so the result is exact through the same bound.
        """
        if (self.weight_x, self.weight_y) != (2, 1):
            raise WeightMismatch(
                "x = y**2 substitution preserves truncation only for weights (2, 1)"
            )
        out: list[Coeff] = [0] * (self.max_weight + 1)
        for j, k, c in self.nonzero_terms():
            out[2 * j + k] += c
        return UniSeries(self.max_weight, tuple(out))


def _zero_rows(weight_x: int, weight_y: int, max_weight: int) -> list[list[Coeff]]:
    return [
        [0] * _row_length(weight_x, weight_y, max_weight, j)
        for j in range(max_weight // weight_x + 1)
    ]
