"""The one-row reflection kernel, the integer inverse and the root tables
against dense products and brute force."""

import dataclasses
import functools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weylgroupoid as wg
from weylgroupoid.groupoid import _append_generator, _element
from weylgroupoid.intmat import (
    identity_matrix,
    mat_inverse,
    mat_mul,
    mat_vec,
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
E8 = (
    (2, -1, 0, 0, 0, 0, 0, 0),
    (-1, 2, -1, 0, 0, 0, 0, 0),
    (0, -1, 2, -1, 0, 0, 0, 0),
    (0, 0, -1, 2, -1, 0, 0, 0),
    (0, 0, 0, -1, 2, -1, 0, -1),
    (0, 0, 0, 0, -1, 2, -1, 0),
    (0, 0, 0, 0, 0, -1, 2, 0),
    (0, 0, 0, 0, -1, 0, 0, 2),
)
# schemes without root tables, whose words evaluate by reflect_vector
MATRIX_SCHEMES = {
    # affine A1 cut at height 10
    "truncated": wg.generate_roots(wg.from_cartan(((2, -2), (-2, 2))), 10),
    "unmaterialized": wg.from_bicharacter(((3, 2, 0), (0, 3, 2), (0, 0, 3)), 12, 6),
    "unmaterialized E8": wg.from_cartan(E8),
    # rank 4 on five objects
    "unmaterialized BI4": wg.from_bicharacter(
        ((2, 2, 0, 0), (0, 2, 1, 0), (0, 0, 3, 1), (0, 0, 0, 3)), 12, 4
    ),
}

PROPERTY = settings(derandomize=True, database=None, max_examples=200, deadline=None)


@st.composite
def _kernel_case(draw):
    n = draw(st.integers(1, 8))
    i = draw(st.integers(0, n - 1))
    # c[i] is -1, as the scheme constructor requires: c is the matrix's row i
    c = draw(st.lists(st.integers(-3, 4), min_size=n, max_size=n))
    c[i] = -1
    c = tuple(c)
    v = tuple(draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n)))
    return i, c, v


@PROPERTY
@given(_kernel_case())
def test_kernels_equal_dense_products(case):
    i, c, v = case
    r = reflection_from_coefficients(i, c)
    assert reflect_vector(i, c, v) == mat_vec(r, v)
    # every reflection matrix is an involution
    assert mat_mul(r, r) == identity_matrix(len(c))


@st.composite
def _reflection_product(draw):
    """A random product of reflections: unimodular, rank 1 to 8."""
    n = draw(st.integers(1, 8))
    p = identity_matrix(n)
    for _ in range(draw(st.integers(0, 12))):
        i = draw(st.integers(0, n - 1))
        c = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        c[i] = -1
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


def _rational_inverse(m):
    """m's inverse by Gauss-Jordan elimination over the rationals, or the
    message with which mat_inverse refuses m."""
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(int(r == c)) for c in range(n)]
           for r, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            return "matrix is singular"
        aug[col], aug[pivot] = aug[pivot], aug[col]
        d = aug[col][col]
        prow = aug[col] = [x / d for x in aug[col]]
        for r in range(n):
            if r != col:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], prow)]
    if any(x.denominator != 1 for row in aug for x in row[n:]):
        return "matrix is not invertible over the integers"
    return tuple(tuple(int(x) for x in row[n:]) for row in aug)


# square integer matrices of size 1-6 with entries -3..3: mostly singular or
# of a determinant that is no unit, and products of reflections, which are
# unimodular
_SMALL_MATRICES = st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(tuple), min_size=n, max_size=n,
).map(tuple))


@PROPERTY
@given(st.one_of(_SMALL_MATRICES, _reflection_product()))
def test_mat_inverse_matches_rational_elimination(m):
    try:
        got = mat_inverse(m)
    except ValueError as e:
        got = str(e)
    assert got == _rational_inverse(m)


@st.composite
def _scheme_word(draw, schemes=SCHEMES):
    name = draw(st.sampled_from(sorted(schemes)))
    s = schemes[name]
    base = draw(st.integers(0, s.n_objects - 1))
    letters = tuple(draw(st.lists(st.integers(0, s.rank - 1), max_size=20)))
    return s, wg.Word(base, letters)


def _dense_product(s, w):
    """The word's element as a product of dense reflection matrices."""
    matrix, obj = identity_matrix(s.rank), w.base
    for i in reversed(w.letters):
        matrix = mat_mul(reflection_matrix(s, i, obj), matrix)
        obj = s.action[i][obj]
    return wg.GroupoidElement(w.base, obj, matrix)


@PROPERTY
@given(_scheme_word({**SCHEMES, **MATRIX_SCHEMES}))
def test_element_of_word_equals_dense_product(case):
    s, w = case
    assert wg.element_of_word(s, w) == _dense_product(s, w)


@PROPERTY
@given(_scheme_word(), st.data())
def test_times_generator_equals_compose(case, data):
    # one step of the weak-order walk, on the root indices of the columns
    s, w = case
    g = wg.element_of_word(s, w)
    j = data.draw(st.integers(0, s.rank - 1))
    want = wg.compose(g, wg.generator_element(s, j, wg.act(s, j, g.source)))
    tables = s.root_tables
    cols = [tables.index[g.target][col] for col in zip(*g.matrix)]
    source, cols = _append_generator(s, tables, g.source, g.target, cols, j)
    assert _element(tables, source, g.target, cols) == want


def _inversion_count(s, g):
    """Positive roots of g's source that g sends to nonpositive vectors."""
    return sum(1 for r in s.positive_roots[g.source] if max(mat_vec(g.matrix, r)) <= 0)


@PROPERTY
@given(_scheme_word())
def test_length_equals_inversion_count(case):
    s, w = case
    g = wg.element_of_word(s, w)
    assert wg.length(s, g) == _inversion_count(s, g)


def _matrix_bfs(s):
    """Every element, by composing generators on the left, level by level:
    each element is (source, target, columns), each column reflected by
    reflect_vector."""
    identity = identity_matrix(s.rank)
    frontier = [(a, a, identity) for a in range(s.n_objects)]
    depth = dict.fromkeys(frontier, 0)
    while frontier:
        nxt = []
        for a, b, cols in frontier:
            for j in range(s.rank):
                reflect = functools.partial(reflect_vector, j, s.coefficients[j][b])
                h = (a, s.action[j][b], tuple(map(reflect, cols)))
                if h not in depth:
                    depth[h] = depth[a, b, cols] + 1
                    nxt.append(h)
        frontier = nxt
    elements = {wg.GroupoidElement(a, b, tuple(zip(*cols))): n for (a, b, cols), n in depth.items()}
    return sorted(elements, key=lambda g: (elements[g], g.source, g.target, g.matrix))


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_enumerate_equals_matrix_bfs(name):
    s = SCHEMES[name]
    assert wg.enumerate_elements(s) == _matrix_bfs(s)


@pytest.mark.parametrize("name", ["BI2", "BI3", "example"])
def test_enumerate_from_one_source_is_the_filter(name):
    # with a source, the search grows only from that source's identity
    s = SCHEMES[name]
    elements = wg.enumerate_elements(s)
    for a in range(s.n_objects):
        assert wg.enumerate_elements(s, a) == [g for g in elements if g.source == a]


# ---------------------------------------------------------------------------
# the root tables' cache and guard


def test_root_tables_are_built_once():
    s = SCHEMES["BI3"]
    assert s.root_tables is s.root_tables


def test_root_tables_leave_equality_hash_and_repr():
    s = SCHEMES["example"]
    fresh = dataclasses.replace(s)
    s.root_tables
    assert fresh == s and hash(fresh) == hash(s)
    assert repr(fresh) == repr(s)
    assert fresh.root_tables is not s.root_tables
    assert fresh.root_tables.sigma == s.root_tables.sigma


def _with_roots(s, a, roots):
    per_object = list(s.positive_roots)
    per_object[a] = tuple(sorted(roots))
    return dataclasses.replace(s, positive_roots=tuple(per_object))


def _inconsistent_schemes(affine_text):
    ex = SCHEMES["example"]
    yield 2, _with_roots(ex, 0, [r for r in ex.positive_roots[0] if r != (0, 1, 0)])
    yield 3, _with_roots(ex, 0, ex.positive_roots[0] + ((1, -1, 0),))
    b2 = wg.generate_roots(wg.from_cartan(((2, -1), (-2, 2))), 20)
    yield 4, _with_roots(b2, 0, b2.positive_roots[0] + ((0, 2), (2, 2)))
    yield 5, wg.load_scheme(affine_text)


def test_root_tables_refuse_inconsistent_roots(affine_file):
    for axiom, s in _inconsistent_schemes(affine_file.read_text(encoding="utf-8")):
        witness = wg.validate(s).result(axiom).witness
        assert witness is not None
        w = wg.Word(0, (0, 1, 0, 1))
        g = wg.element_of_word(s, w)
        assert g == _dense_product(s, w)
        message = re.escape(f"axiom {axiom} FAIL ({witness})")
        with pytest.raises(wg.InconsistentSchemeError, match=message):
            wg.length(s, g)


GATED = {
    "inversion_set": lambda s: wg.inversion_set(s, (0, 1, 0, 1), 0),
    "is_descent": lambda s: wg.is_descent(s, wg.element_of_word(s, wg.Word(0, (0, 1, 0, 1))), 0),
    "rank_two_count": lambda s: wg.rank_two_count(s, 0, 1, 0),
    "rank_two_positive_chain": lambda s: wg.rank_two_positive_chain(s, 0, 1, 0),
    "c_element": lambda s: wg.c_element(s, 0, 1, 0),
    "applicable_moves": lambda s: wg.applicable_moves(s, wg.Word(0, (0, 1, 0, 1))),
    "apply_move": lambda s: wg.apply_move(s, wg.Word(0, (0, 1, 0, 1)), wg.BraidMove(0, 0, 1, 4, 0)),
}


@pytest.mark.parametrize("name", sorted(GATED))
def test_finite_root_reads_ask_the_root_tables(affine_file, name):
    # on the affine file rank_two_count used to return 2 and inversion_set
    # to give the reduced word 1 2 1 2 one inversion
    for axiom, s in _inconsistent_schemes(affine_file.read_text(encoding="utf-8")):
        witness = wg.validate(s).result(axiom).witness
        message = re.escape(f"axiom {axiom} FAIL ({witness})")
        with pytest.raises(wg.InconsistentSchemeError, match=message):
            GATED[name](s)


def _dense_inversion_set(s, letters, a):
    """(position, root) pairs: each positive root of a is pushed through the
    products of the word's last 1, 2, ... letters; its position is the
    letter whose product began the run of nonpositive images that lasts to
    the full word."""
    products, matrix, obj = [], identity_matrix(s.rank), a
    for k in range(len(letters) - 1, -1, -1):
        matrix = mat_mul(reflection_matrix(s, letters[k], obj), matrix)
        obj = s.action[letters[k]][obj]
        products.append((k + 1, matrix))
    entries = []
    for beta in s.positive_roots[a]:
        start = None
        for position, matrix in products:
            if max(mat_vec(matrix, beta)) > 0:
                start = None
            elif start is None:
                start = position
        if start is not None:
            entries.append((start, beta))
    return sorted(entries)


@PROPERTY
@given(_scheme_word())
def test_inversion_set_equals_dense_products(case):
    s, w = case
    assert wg.inversion_set(s, w.letters, w.base).entries == tuple(
        _dense_inversion_set(s, w.letters, w.base)
    )
