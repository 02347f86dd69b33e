"""Build root groupoid schemes from Cartan matrices and bicharacter data.

The bicharacter constructor works purely on exponents of a root of unity
(or of a formal non-root-of-unity parameter in generic mode): the
reflection coefficients and the object equivalence depend only on the
diagonal exponents and the symmetrized off-diagonal sums, so objects are
discovered as fingerprints of those invariants.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .intmat import Matrix
from .scheme import GENERATED, RootGroupoidScheme, _built, _relabelled, _walk_objects

GENERIC = "generic"


class NotArithmeticError(ValueError):
    """No finite reflection coefficient exists at some (object, generator)."""


def _int_matrix(m: Matrix, name: str, entry: str) -> int:
    """The size of m, after ValueError unless m is a nonempty square
    sequence of rows of ints (a bool is none); name words the matrix and
    entry its entries in the message."""
    if not isinstance(m, Sequence):
        raise ValueError(f"{name} must be a sequence of rows, got {m!r}")
    for j, row in enumerate(m):
        if not isinstance(row, Sequence):
            raise ValueError(f"{name} row [{j}] must be a sequence, got {row!r}")
    n = len(m)
    if n == 0 or any(len(row) != n for row in m):
        raise ValueError(f"{name} must be square and nonempty")
    for j, row in enumerate(m):
        for k, e in enumerate(row):
            if type(e) is not int:
                raise ValueError(f"{entry} [{j}][{k}] must be an integer, got {e!r}")
    return n


def _check_cartan(c: Matrix) -> int:
    n = _int_matrix(c, "Cartan matrix", "Cartan matrix entry")
    for i in range(n):
        if c[i][i] != 2:
            raise ValueError(f"Cartan matrix diagonal entry [{i}][{i}] must be 2")
        for j in range(n):
            if i != j:
                if c[i][j] > 0:
                    raise ValueError(f"Cartan matrix entry [{i}][{j}] must be nonpositive")
                if (c[i][j] == 0) != (c[j][i] == 0):
                    raise ValueError(f"Cartan matrix entries [{i}][{j}] and [{j}][{i}] must vanish together")
    return n


def from_cartan(c: Matrix) -> RootGroupoidScheme:
    """Scheme of a Cartan matrix: one object, trivial action.

    The reflection coefficient of generator i on index j is -c[i][j], so
    the reflection is the usual simple reflection of the root lattice.
    Returned in generated mode; call generate_roots to materialize.  A
    matrix that is not a nonempty square sequence of rows of ints (a bool
    is none) raises ValueError before anything else is checked, so the
    scheme is built from tables typed here (scheme._built).
    """
    n = _check_cartan(c)
    coefficients = tuple((tuple(-1 if j == i else -c[i][j] for j in range(n)),) for i in range(n))
    return _built(
        rank=n, objects=("a",), action=((0,),) * n, coefficients=coefficients, mode=GENERATED
    )


# ---------------------------------------------------------------------------
# bicharacter exponents

Fingerprint = tuple[tuple[int, ...], tuple[int, ...]]


def basis_fingerprint(diag, sym, order: int | None) -> Fingerprint:
    """Equivalence-class invariant of a basis: diagonal exponents and
    symmetrized off-diagonal sums, reduced mod the order when finite.

    Two bases with equal fingerprints carry identical reflection data, so
    the object set is the set of distinct fingerprints.
    """
    if order is None:
        return tuple(diag), tuple(sym)
    return tuple(x % order for x in diag), tuple(x % order for x in sym)


def _coefficient(diag_i: int, sym_ij: int, order: int | None) -> int | None:
    """Smallest m >= 0 making the reflection admissible on index pair.

    Finite order N: (m + 1) * d_i = 0 or m * d_i + s_ij = 0, both mod N.
    With g = gcd(d_i, N) and P = N / g, the first holds exactly when P
    divides m + 1, so m = P - 1 always qualifies.  The second is solvable
    exactly when g divides s_ij, with least solution
    m = (-s_ij / g) * (d_i / g)^-1 mod P, which is below P.
    Generic: only the second condition can hold, over the integers.
    """
    if order is None:
        if diag_i == 0:
            return None
        if sym_ij % diag_i == 0 and -sym_ij // diag_i >= 0:
            return -sym_ij // diag_i
        return None
    g = math.gcd(diag_i, order)
    p = order // g
    if sym_ij % g != 0:
        return p - 1
    return -sym_ij // g * pow(diag_i // g, -1, p) % p


def from_bicharacter(
    exponents: Matrix, cutoff: int, order: int | None = None
) -> RootGroupoidScheme:
    """Scheme of a bicharacter given by an integer exponent matrix.

    ``order`` is the multiplicative order of the root of unity the
    exponents refer to; None means generic (the parameter is not a root
    of unity and exponent conditions are integer equalities).  ``cutoff``
    bounds the number of objects discovered before giving up.

    Each object is the fingerprint of basis_fingerprint of its bases:
    the diagonal exponents d_j = B[j][j] and the symmetrized sums
    s_jk = B[j][k] + B[k][j] (j < k) of an exponent matrix B.  The
    reflection at generator i has the matrix S of
    reflection_from_coefficients, with coefficients m_j read from d_i and
    s_ij; its target basis carries the bicharacter of exponent matrix
    S^T B S, whose fingerprint depends on B's alone.  Write
    S e_j = e_j + w_j e_i, so w_j = m_j for j != i and w_i = -2, and
    u_j = s_ij + m_j d_i for j != i, u_i = 0.  Then the target has
    d'_j = d_j + w_j u_j and s'_jk = s_jk + w_k u_j + w_j u_k, that is
    d'_i = d_i, d'_j = d_j + m_j u_j, s'_ij = -s_ij - 2 m_j d_i and
    s'_jk = s_jk + m_k u_j + m_j u_k for j, k != i, reduced mod the order
    when finite.  The dense product S^T B S lives on as the test oracle.
    Discovery is breadth-first, numbering objects by first appearance.
    Raises NotArithmeticError when some reflection coefficient has no
    finite value or some diagonal exponent degenerates to zero, and
    ValueError when the object cutoff is exceeded.  A cutoff that is no
    int (a bool is none) or is below 1, and an order that is neither None
    nor such an int of at least 1, and an exponent matrix that is not a
    nonempty square sequence of rows of ints, raise ValueError before any
    object is discovered; so the scheme is built from tables typed here
    (scheme._built).
    """
    n = _int_matrix(exponents, "exponent matrix", "exponent entry")
    if order is not None and type(order) is not int:
        raise ValueError(f"order must be None or an integer, got {order!r}")
    if type(cutoff) is not int:
        raise ValueError(f"object cutoff must be an integer, got {cutoff!r}")
    if order is not None and order < 1:
        raise ValueError("order must be a positive integer")
    if cutoff < 1:
        raise ValueError("object cutoff must be at least 1")

    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    slot = [[0] * n for _ in range(n)]  # slot[j][k]: position of s_jk in the sums
    for p, (j, k) in enumerate(pairs):
        slot[j][k] = slot[k][j] = p

    def check_diag(fp: Fingerprint, label: str) -> None:
        for i, d in enumerate(fp[0]):  # reduced mod a finite order
            if d == 0:
                raise NotArithmeticError(
                    f"diagonal exponent of index {i + 1} is trivial at object {label}"
                )

    start_fp = basis_fingerprint(
        [exponents[j][j] for j in range(n)],
        [exponents[j][k] + exponents[k][j] for j, k in pairs],
        order,
    )
    check_diag(start_fp, "0")

    index_of: dict[Fingerprint, int] = {start_fp: 0}
    objects: list[Fingerprint] = [start_fp]
    action: list[list[int]] = [[] for _ in range(n)]
    coefficients: list[list[tuple[int, ...]]] = [[] for _ in range(n)]

    for pos, (diag, sym) in enumerate(objects):  # grows while walked
        for i in range(n):
            d_i, at_i = diag[i], slot[i]
            coeff = []
            for j in range(n):
                m = -1 if j == i else _coefficient(d_i, sym[at_i[j]], order)
                if m is None:
                    raise NotArithmeticError(
                        f"not arithmetic at object {pos}, generator {i + 1}, index {j + 1}"
                    )
                coeff.append(m)
            w = coeff[:i] + [-2] + coeff[i + 1 :]
            u = [0 if j == i else sym[at_i[j]] + m * d_i for j, m in enumerate(coeff)]
            target_fp = basis_fingerprint(
                [d + x * y for d, x, y in zip(diag, w, u)],
                [s + w[k] * u[j] + w[j] * u[k] for (j, k), s in zip(pairs, sym)],
                order,
            )
            if target_fp not in index_of:
                check_diag(target_fp, str(len(objects)))
                if len(objects) == cutoff:
                    raise ValueError(f"object cutoff {cutoff} exceeded")
                index_of[target_fp] = len(objects)
                objects.append(target_fp)
            action[i].append(index_of[target_fp])
            coefficients[i].append(tuple(coeff))

    return _built(
        rank=n,
        objects=tuple(str(k) for k in range(len(objects))),
        action=tuple(tuple(row) for row in action),
        coefficients=tuple(tuple(per) for per in coefficients),
        mode=GENERATED,
    )


def schemes_isomorphic(s1: RootGroupoidScheme, s2: RootGroupoidScheme) -> bool:
    """Whether an object bijection matches action and coefficient tables.

    Generators are kept fixed.  A bijection carries each orbit onto an
    orbit, and the walk from an object onto the walk from its image, so
    the smallest of an orbit's tables relabelled along the walks from its
    objects is a canonical form of the orbit.  The schemes are isomorphic
    exactly when their orbits have the same canonical forms, as many times.
    """
    if s1.rank != s2.rank or s1.n_objects != s2.n_objects:
        return False
    return _orbit_forms(s1) == _orbit_forms(s2)


def _orbit_forms(s: RootGroupoidScheme) -> list:
    """The canonical forms of the orbits of s (see schemes_isomorphic), sorted."""
    gens = range(s.rank)
    forms: dict[frozenset, list] = {}
    for walk in (_walk_objects(s, gens, a) for a in range(s.n_objects)):
        forms.setdefault(frozenset(walk), []).append(_relabelled(s, gens, walk))
    return sorted(map(min, forms.values()))


# ---------------------------------------------------------------------------
# bundled example

def rank3_example() -> RootGroupoidScheme:
    """A rank-3 scheme with five objects and ten positive roots each.

    The five objects carry different Dynkin-type reflection data and are
    permuted nontrivially by the generator action, so this scheme
    exercises everything a single-object (Cartan) scheme cannot: braid
    relations whose lengths vary from object to object, object-changing
    reflections, and words that differ only in their object chains.  It
    is used as the standard fixture throughout the test suite.
    """
    a, b, c, d, e = 0, 1, 2, 3, 4
    action = (
        (c, d, a, b, e),  # generator 1
        (a, b, e, d, c),  # generator 2
        (b, a, d, c, e),  # generator 3
    )
    coefficients = (
        # generator 1: coefficients of alpha_1 added to the other simples
        (
            (-1, 1, 0),  # at a
            (-1, 1, 0),  # at b
            (-1, 1, 0),  # at c
            (-1, 1, 0),  # at d
            (-1, 1, 1),  # at e
        ),
        # generator 2
        (
            (1, -1, 2),  # at a
            (2, -1, 2),  # at b
            (1, -1, 1),  # at c
            (2, -1, 1),  # at d
            (1, -1, 1),  # at e
        ),
        # generator 3
        (
            (0, 1, -1),  # at a
            (0, 1, -1),  # at b
            (0, 1, -1),  # at c
            (0, 1, -1),  # at d
            (1, 1, -1),  # at e
        ),
    )
    roots = (
        # object a
        (
            (0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 2, 1), (1, 0, 0),
            (1, 1, 0), (1, 1, 1), (1, 2, 1), (1, 2, 2), (1, 3, 2),
        ),
        # object b
        (
            (0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 2, 1), (1, 0, 0),
            (1, 1, 0), (1, 1, 1), (1, 2, 0), (1, 2, 1), (1, 3, 1),
        ),
        # object c
        (
            (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 1, 0),
            (1, 1, 1), (1, 2, 1), (1, 2, 2), (2, 2, 1), (2, 3, 2),
        ),
        # object d
        (
            (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 1, 0),
            (1, 1, 1), (1, 2, 0), (1, 2, 1), (2, 2, 1), (2, 3, 1),
        ),
        # object e
        (
            (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1),
            (1, 1, 0), (1, 1, 1), (1, 1, 2), (2, 1, 1), (2, 1, 2),
        ),
    )
    return RootGroupoidScheme(
        rank=3,
        objects=("a", "b", "c", "d", "e"),
        action=action,
        coefficients=coefficients,
        mode="prescribed",
        positive_roots=roots,
        status="finite",
    )
