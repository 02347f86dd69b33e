import pytest

from weylgroupoid.intmat import (
    height,
    identity_matrix,
    mat_inverse,
    mat_mul,
    mat_vec,
    transpose,
)


def test_mat_mul_and_vec():
    m = ((1, 2), (0, 1))
    assert mat_vec(m, (3, 4)) == (11, 4)
    assert mat_mul(m, m) == ((1, 4), (0, 1))


def test_mat_mul_and_vec_non_square():
    a = ((1, 2, 3), (4, 5, 6))  # 2 x 3
    b = ((1, 0), (0, 1), (2, -1))  # 3 x 2
    assert mat_mul(a, b) == ((7, -1), (16, -1))
    assert mat_mul(b, a) == ((1, 2, 3), (4, 5, 6), (-2, -1, 0))
    assert mat_vec(a, (1, -1, 2)) == (5, 11)
    assert mat_vec(b, (3, 1)) == (3, 1, 5)
    assert transpose(a) == ((1, 4), (2, 5), (3, 6))


def test_mat_inverse_unimodular():
    m = ((2, 1), (1, 1))
    inv = mat_inverse(m)
    assert mat_mul(m, inv) == identity_matrix(2)
    assert mat_mul(inv, m) == identity_matrix(2)


def test_mat_inverse_rejects_singular():
    with pytest.raises(ValueError, match="singular"):
        mat_inverse(((1, 1), (1, 1)))


def test_mat_inverse_rejects_non_integer():
    with pytest.raises(ValueError, match="integers"):
        mat_inverse(((2, 0), (0, 1)))


def test_mat_inverse_takes_euclid_steps():
    # column 0 holds 3 and 2: the row of 2 reduces the other to 1, which
    # then clears it; the determinant is -1
    assert mat_inverse(((3, 5), (2, 3))) == ((-3, 5), (2, -3))


def test_mat_inverse_decides_singular_before_non_unit_pivots():
    # the first pivot, 2, is no unit, but the second column has no pivot
    with pytest.raises(ValueError, match="^matrix is singular$"):
        mat_inverse(((2, 2), (2, 2)))


def test_height():
    assert height((1, -2, 3)) == 6
