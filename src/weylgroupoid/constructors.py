"""Build root groupoid schemes from Cartan matrices and bicharacter data.

The bicharacter constructor works purely on exponents of a root of unity
(or of a formal non-root-of-unity parameter in generic mode): the
reflection coefficients and the object equivalence depend only on the
diagonal exponents and the symmetrized off-diagonal sums, so objects are
discovered as fingerprints of those invariants.
"""

from __future__ import annotations

import math

from .intmat import Matrix, reflect_columns, transpose
from .scheme import GENERATED, RootGroupoidScheme, _relabelled, _walk_objects

GENERIC = "generic"


class NotArithmeticError(ValueError):
    """No finite reflection coefficient exists at some (object, generator)."""


def _check_cartan(c: Matrix) -> int:
    n = len(c)
    if n == 0 or any(len(row) != n for row in c):
        raise ValueError("Cartan matrix must be square and nonempty")
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
    Returned in generated mode; call generate_roots to materialize.
    """
    n = _check_cartan(c)
    coefficients = tuple((tuple(-1 if j == i else -c[i][j] for j in range(n)),) for i in range(n))
    return RootGroupoidScheme(
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

    Each object keeps the exponent matrix B of its first basis found.
    The reflection at generator i has the matrix S of
    reflection_from_coefficients, with coefficients read from
    d_i = B[i][i] and s_ij = B[i][j] + B[j][i]; its target basis carries
    the reflected bicharacter, exponent matrix S^T B S (formed by the
    column kernel intmat.reflect_columns, reduced mod the order when
    finite).  Objects are equivalence classes of bases under
    the fingerprint of basis_fingerprint; discovery is breadth-first,
    numbering objects by first appearance.  Raises NotArithmeticError
    when some reflection coefficient has no finite value or some diagonal
    exponent degenerates to zero, and ValueError when the object cutoff
    is exceeded.
    """
    n = len(exponents)
    if n == 0 or any(len(row) != n for row in exponents):
        raise ValueError("exponent matrix must be square and nonempty")
    if order is not None and order < 1:
        raise ValueError("order must be a positive integer")
    if cutoff < 1:
        raise ValueError("object cutoff must be at least 1")

    def reduced(b: Matrix) -> Matrix:
        return b if order is None else tuple(tuple(x % order for x in row) for row in b)

    def fingerprint(b: Matrix) -> Fingerprint:
        diag = [b[i][i] for i in range(n)]
        sym = [b[i][j] + b[j][i] for i in range(n) for j in range(i + 1, n)]
        return basis_fingerprint(diag, sym, order)

    def check_diag(fp: Fingerprint, label: str) -> None:
        for i, d in enumerate(fp[0]):  # reduced mod a finite order
            if d == 0:
                raise NotArithmeticError(
                    f"diagonal exponent of index {i + 1} is trivial at object {label}"
                )

    start = reduced(tuple(tuple(row) for row in exponents))
    start_fp = fingerprint(start)
    check_diag(start_fp, "0")

    index_of: dict[Fingerprint, int] = {start_fp: 0}
    bases: list[Matrix] = [start]
    action: list[list[int]] = [[] for _ in range(n)]
    coefficients: list[list[tuple[int, ...]]] = [[] for _ in range(n)]

    pos = 0
    while pos < len(bases):
        b = bases[pos]
        for i in range(n):
            coeff = []
            for j in range(n):
                m = -1 if j == i else _coefficient(b[i][i], b[i][j] + b[j][i], order)
                if m is None:
                    raise NotArithmeticError(
                        f"not arithmetic at object {pos}, generator {i + 1}, index {j + 1}"
                    )
                coeff.append(m)
            # S^T B S = ((B S)^T S)^T
            bs = reflect_columns(b, i, coeff)
            target = reduced(transpose(reflect_columns(transpose(bs), i, coeff)))
            target_fp = fingerprint(target)
            if target_fp not in index_of:
                check_diag(target_fp, str(len(bases)))
                if len(bases) == cutoff:
                    raise ValueError(f"object cutoff {cutoff} exceeded")
                index_of[target_fp] = len(bases)
                bases.append(target)
            action[i].append(index_of[target_fp])
            coefficients[i].append(tuple(coeff))
        pos += 1

    return RootGroupoidScheme(
        rank=n,
        objects=tuple(str(k) for k in range(len(bases))),
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
