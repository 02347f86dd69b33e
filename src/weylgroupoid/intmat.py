"""Exact arithmetic on integer vectors and matrices.

Roots are tuples of ints, morphisms are unimodular integer matrices stored
as tuples of rows.  Everything stays in integer arithmetic, inversion
included: mat_inverse only swaps rows, negates rows and adds integer
multiples of one row to another, so no entry is ever a fraction.

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
    return tuple([tuple([sum(map(operator.mul, row, col)) for col in cols]) for row in a])


def mat_inverse(m: Matrix) -> Matrix:
    """Invert an integer matrix whose inverse is again integral.

    Gauss-Jordan elimination on [m | I] by integer row operations only:
    swapping two rows, negating one, subtracting an integer multiple of
    one from another.  Each changes the determinant by a sign at most.
    Column by column, the rows not yet holding a pivot are reduced
    Euclid-style: the row whose entry has the smallest absolute value
    takes from every other row with a nonzero entry (rows with a zero
    entry are skipped) the multiple of itself that leaves that entry
    smaller in absolute value, until one nonzero entry is left, the
    pivot; a pass with a +-1 pivot leaves it so at once.  The loop is
    bounded: the smallest absolute entry is a positive integer that
    strictly falls on every pass.  A column with no pivot means m is
    singular, which is decided over the whole triangularization first;
    then a pivot other than +-1 means the determinant, +- the pivots'
    product, is not a unit.  Otherwise the +-1 pivots clear the entries
    above them, and the right half is the inverse.  Raises ValueError if
    the matrix is singular or the inverse has a non-integer entry (i.e.
    the determinant is not a unit).
    """
    n = len(m)
    aug = [list(m[i]) + [int(i == j) for j in range(n)] for i in range(n)]
    for col in range(n):
        while True:
            live = [r for r in range(col, n) if aug[r][col]]
            if not live:
                raise ValueError("matrix is singular")
            p = min(live, key=lambda r: abs(aug[r][col]))
            if len(live) == 1:
                break
            prow = aug[p]
            d = prow[col]
            for r in live:
                if r != p:
                    q = aug[r][col] // d
                    aug[r] = [x - q * y for x, y in zip(aug[r], prow)]
            if d in (1, -1):  # every other live entry is now zero
                break
        aug[col], aug[p] = aug[p], aug[col]
    if any(abs(aug[col][col]) != 1 for col in range(n)):
        raise ValueError("matrix is not invertible over the integers")
    for col in reversed(range(n)):
        prow = aug[col]
        if prow[col] < 0:
            prow = aug[col] = [-x for x in prow]
        for r in range(col):
            f = aug[r][col]
            if f:
                aug[r] = [x - f * y for x, y in zip(aug[r], prow)]
    return tuple(tuple(row[n:]) for row in aug)


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
