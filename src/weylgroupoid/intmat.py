"""Exact arithmetic on integer vectors and matrices.

Roots are tuples of ints, morphisms are unimodular integer matrices stored
as tuples of rows.  Everything stays in integer arithmetic, inversion
included.

A reflection matrix (scheme.reflection_from_coefficients(i, c)) differs
from the identity in row i only, so the three reflection kernels below
touch only the coordinate or the rows that change instead of forming a
dense product.
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


def mat_col(m: Matrix, j: int) -> Vector:
    return tuple(row[j] for row in m)


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
    """reflection_from_coefficients(i, c) times v.

    Only coordinate i changes: it becomes c.v, with -1 standing at
    position i whatever c[i] holds.
    """
    x = sum(map(operator.mul, c, v)) - (c[i] + 1) * v[i]
    return v[:i] + (x,) + v[i + 1 :]


def reflect_rows(i: int, c: Vector, m: Matrix) -> Matrix:
    """reflection_from_coefficients(i, c) times m.

    Only row i changes: it becomes the sum of c[k] * m[k], with -1 in
    place of c[i].
    """
    acc = [-x for x in m[i]]
    for k, ck in enumerate(c):
        if ck and k != i:
            acc = [x + ck * y for x, y in zip(acc, m[k])]
    return m[:i] + (tuple(acc),) + m[i + 1 :]


def reflect_columns(m: Matrix, i: int, c: Vector) -> Matrix:
    """m times reflection_from_coefficients(i, c).

    Row r gains m[r][i] * (c - e_i) with -1 in place of c[i], so only
    column i and the columns where c is nonzero change, and rows with a
    zero in column i are reused unchanged.
    """
    changed = [(k, ck) for k, ck in enumerate(c) if ck and k != i]
    out = []
    for row in m:
        x = row[i]
        if x:
            new = list(row)
            for k, ck in changed:
                new[k] += x * ck
            new[i] = -x
            row = tuple(new)
        out.append(row)
    return tuple(out)


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
