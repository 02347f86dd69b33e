"""Exact arithmetic on integer vectors and matrices.

Roots are tuples of ints, morphisms are unimodular integer matrices stored
as tuples of rows.  Everything stays in exact arithmetic; Fractions appear
only transiently while inverting.
"""

from __future__ import annotations

import operator
from fractions import Fraction

Vector = tuple[int, ...]
Matrix = tuple[Vector, ...]


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def basis_vector(n: int, j: int) -> Vector:
    return tuple(1 if k == j else 0 for k in range(n))


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m))


def mat_vec(m: Matrix, v: Vector) -> Vector:
    return tuple(sum(map(operator.mul, row, v)) for row in m)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols = transpose(b)
    return tuple(tuple(sum(map(operator.mul, row, col)) for col in cols) for row in a)


def mat_col(m: Matrix, j: int) -> Vector:
    return tuple(row[j] for row in m)


def mat_inverse(m: Matrix) -> Matrix:
    """Invert an integer matrix whose inverse is again integral.

    Raises ValueError if the matrix is singular or the inverse has a
    non-integer entry (i.e. the determinant is not a unit).
    """
    n = len(m)
    aug = [[Fraction(m[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        p = aug[col][col]
        aug[col] = [x / p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    inv = []
    for i in range(n):
        row = []
        for j in range(n, 2 * n):
            x = aug[i][j]
            if x.denominator != 1:
                raise ValueError("matrix is not invertible over the integers")
            row.append(int(x))
        inv.append(tuple(row))
    return tuple(inv)


def neg(v: Vector) -> Vector:
    return tuple(-x for x in v)


def is_nonneg(v: Vector) -> bool:
    return all(x >= 0 for x in v)


def is_nonpos(v: Vector) -> bool:
    return all(x <= 0 for x in v)


def is_zero(v: Vector) -> bool:
    return all(x == 0 for x in v)


def height(v: Vector) -> int:
    """Sum of absolute coordinate values."""
    return sum(abs(x) for x in v)
