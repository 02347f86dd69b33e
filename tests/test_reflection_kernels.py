"""The one-row reflection kernels and the integer inverse against dense products."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weylgroupoid as wg
from weylgroupoid.groupoid import _times_generator
from weylgroupoid.intmat import (
    identity_matrix,
    mat_inverse,
    mat_mul,
    mat_vec,
    reflect_columns,
    reflect_vector,
)
from weylgroupoid.scheme import reflection_from_coefficients, reflection_matrix

E6 = (
    (2, -1, 0, 0, 0, 0),
    (-1, 2, -1, 0, 0, 0),
    (0, -1, 2, -1, 0, -1),
    (0, 0, -1, 2, -1, 0),
    (0, 0, 0, -1, 2, 0),
    (0, 0, -1, 0, 0, 2),
)
# built once here: hypothesis strategies cannot take fixtures
SCHEMES = {
    "example": wg.rank3_example(),
    "BI3": wg.generate_roots(wg.from_bicharacter(((3, 2, 0), (0, 3, 2), (0, 0, 3)), 12, 6), 30),
    "BI2": wg.generate_roots(wg.from_bicharacter(((2, 1), (0, 2)), 12, 3), 30),
    "E6": wg.generate_roots(wg.from_cartan(E6), 30),
}

PROPERTY = settings(derandomize=True, database=None, max_examples=200, deadline=None)


@st.composite
def _kernel_case(draw):
    n = draw(st.integers(1, 8))
    i = draw(st.integers(0, n - 1))
    ints = st.integers(-5, 5)
    # c[i] is arbitrary: the reflection matrix puts -1 there whatever it holds
    c = tuple(draw(st.lists(st.integers(-3, 4), min_size=n, max_size=n)))
    v = tuple(draw(st.lists(ints, min_size=n, max_size=n)))
    m = tuple(tuple(draw(st.lists(ints, min_size=n, max_size=n))) for _ in range(n))
    return i, c, v, m


@PROPERTY
@given(_kernel_case())
def test_kernels_equal_dense_products(case):
    i, c, v, m = case
    r = reflection_from_coefficients(i, c)
    assert reflect_vector(i, c, v) == mat_vec(r, v)
    assert reflect_columns(m, i, c) == mat_mul(m, r)


@st.composite
def _reflection_product(draw):
    """A random product of reflections: unimodular, rank 1 to 8."""
    n = draw(st.integers(1, 8))
    p = identity_matrix(n)
    for _ in range(draw(st.integers(0, 12))):
        i = draw(st.integers(0, n - 1))
        c = tuple(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
        p = mat_mul(reflection_from_coefficients(i, c), p)
    return p


@PROPERTY
@given(_reflection_product(), st.data())
def test_mat_inverse_is_two_sided(p, data):
    n = len(p)
    inv = mat_inverse(p)
    assert mat_mul(p, inv) == identity_matrix(n)
    assert mat_mul(inv, p) == identity_matrix(n)
    # doubling one row doubles the determinant: +-2 is not a unit
    k = data.draw(st.integers(0, n - 1))
    doubled = tuple(tuple(2 * x for x in row) if r == k else row for r, row in enumerate(p))
    with pytest.raises(ValueError, match="not invertible over the integers"):
        mat_inverse(doubled)
    # a row repeated, or zeroed when there is no other row, is singular
    j = data.draw(st.integers(0, n - 1))
    src = p[j] if j != k else tuple(0 for _ in range(n))
    singular = tuple(src if r == k else row for r, row in enumerate(p))
    with pytest.raises(ValueError, match="singular"):
        mat_inverse(singular)


@st.composite
def _scheme_word(draw):
    name = draw(st.sampled_from(sorted(SCHEMES)))
    s = SCHEMES[name]
    base = draw(st.integers(0, s.n_objects - 1))
    letters = tuple(draw(st.lists(st.integers(0, s.rank - 1), max_size=20)))
    return s, wg.Word(base, letters)


@PROPERTY
@given(_scheme_word())
def test_element_of_word_equals_dense_product(case):
    s, w = case
    matrix, obj = identity_matrix(s.rank), w.base
    for i in reversed(w.letters):
        matrix = mat_mul(reflection_matrix(s, i, obj), matrix)
        obj = s.action[i][obj]
    assert wg.element_of_word(s, w) == wg.GroupoidElement(w.base, obj, matrix)


@PROPERTY
@given(_scheme_word(), st.data())
def test_times_generator_equals_compose(case, data):
    s, w = case
    g = wg.element_of_word(s, w)
    j = data.draw(st.integers(0, s.rank - 1))
    want = wg.compose(g, wg.generator_element(s, j, wg.act(s, j, g.source)))
    assert _times_generator(s, g, j) == want
