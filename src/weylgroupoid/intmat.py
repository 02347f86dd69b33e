"""Exact arithmetic on integer vectors and matrices.

Roots are tuples of ints, morphisms are unimodular integer matrices stored
as tuples of rows.  Everything stays in integer arithmetic, inversion
included.

A reflection matrix (scheme.reflection_from_coefficients(i, c)) differs
from the identity in row i only, and that row is the coefficient vector
c, so the one reflection kernel below changes one coordinate instead of
forming a dense product.
"""

from __future__ import annotations

import operator

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


def mat_inverse(m: Matrix) -> Matrix:
    """Invert an integer matrix whose inverse is again integral.

    Fraction-free Gauss-Jordan elimination (Bareiss) on [m | I]: every
    division is exact, and at the end the left half is d times the
    identity, d = +-det(m), and the right half is d times the inverse.
    Raises ValueError if the matrix is singular or the inverse has a
    non-integer entry (i.e. the determinant is not a unit).
    """
    n = len(m)
    aug = [list(m[i]) + [int(i == j) for j in range(n)] for i in range(n)]
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        prow = aug[col]
        p = prow[col]
        for r in range(n):
            if r != col:
                f = aug[r][col]
                aug[r] = [(p * x - f * y) // prev for x, y in zip(aug[r], prow)]
        prev = p
    if any(x % prev for row in aug for x in row[n:]):
        raise ValueError("matrix is not invertible over the integers")
    return tuple(tuple(x // prev for x in row[n:]) for row in aug)


def reflect_vector(i: int, c: Vector, v: Vector) -> Vector:
    """reflection_from_coefficients(i, c) times v: coordinate i becomes c.v
    (c[i] is -1, so c is the matrix's row i), and no other changes."""
    x = sum(map(operator.mul, c, v))
    return v[:i] + (x,) + v[i + 1 :]


def neg(v: Vector) -> Vector:
    return tuple(-x for x in v)


def is_nonneg(v: Vector) -> bool:
    return all(x >= 0 for x in v)


def is_zero(v: Vector) -> bool:
    return all(x == 0 for x in v)


def height(v: Vector) -> int:
    """Sum of absolute coordinate values."""
    return sum(abs(x) for x in v)
