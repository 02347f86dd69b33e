"""Answers the benchmark checks results against, computed without the library.

Closed-form root and group orders of the finite Cartan types
(Bjorner-Brenti, Combinatorics of Coxeter Groups, appendix A1), Stanley's
count of reduced words of the longest permutation, a small Dynkin-diagram
classifier for random Cartan matrices of rank at most four, and vector
reflection and braid-move replay written directly from the definitions.
Only plain Python data goes in and out, so these never call weylgroupoid.
"""

from __future__ import annotations

import math

# ---------------------------------------------------------------------------
# finite Cartan types


def cartan_matrix(kind: str, n: int) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix of a finite type in Bourbaki numbering."""
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def edge(i, j, cij=-1, cji=-1):
        c[i][j], c[j][i] = cij, cji

    if kind == "A":
        for i in range(n - 1):
            edge(i, i + 1)
    elif kind in ("B", "C"):
        for i in range(n - 2):
            edge(i, i + 1)
        edge(n - 2, n - 1, -1, -2) if kind == "B" else edge(n - 2, n - 1, -2, -1)
    elif kind == "D":
        for i in range(n - 2):
            edge(i, i + 1)
        edge(n - 3, n - 1)
    elif kind == "E":
        edge(0, 2)
        edge(1, 3)
        for i in range(2, n - 1):
            edge(i, i + 1)
    elif kind == "F":
        edge(0, 1)
        edge(1, 2, -2, -1)
        edge(2, 3)
    elif kind == "G":
        edge(0, 1, -1, -3)
    else:
        raise ValueError(f"unknown Cartan type {kind}")
    return tuple(tuple(row) for row in c)


def positive_root_count(kind: str, n: int) -> int:
    """|Phi+| of a finite irreducible Cartan type."""
    return {
        "A": n * (n + 1) // 2,
        "B": n * n,
        "C": n * n,
        "D": n * (n - 1),
        "E": {6: 36, 7: 63, 8: 120}.get(n, 0),
        "F": 24,
        "G": 6,
    }[kind]


def weyl_group_order(kind: str, n: int) -> int:
    """|W| of a finite irreducible Cartan type."""
    return {
        "A": math.factorial(n + 1),
        "B": 2**n * math.factorial(n),
        "C": 2**n * math.factorial(n),
        "D": 2 ** (n - 1) * math.factorial(n),
        "E": {6: 51840, 7: 2903040, 8: 696729600}.get(n, 0),
        "F": 1152,
        "G": 12,
    }[kind]


def staircase_reduced_words(n: int) -> int:
    """Reduced words of the longest element of type A_n (Stanley 1984).

    Equals the number of standard Young tableaux of the staircase shape
    (n, n-1, ..., 1), by the hook-length formula.
    """
    shape = list(range(n, 0, -1))
    cells = sum(shape)
    hooks = 1
    for r, row in enumerate(shape):
        for col in range(row):
            below = sum(1 for r2 in range(r + 1, len(shape)) if shape[r2] > col)
            hooks *= (row - col - 1) + below + 1
    return math.factorial(cells) // hooks


def classify_cartan(c) -> list[tuple[str, int]] | None:
    """Finite-type components of a Cartan matrix of rank at most four.

    Returns the (type, rank) of each connected component of the Dynkin
    diagram, or None when some component is not of finite type.  B and C
    are not told apart: both have the same root and group counts.
    """
    n = len(c)
    adj = {i: [j for j in range(n) if j != i and c[i][j] != 0] for i in range(n)}
    seen: set[int] = set()
    parts = []
    for start in range(n):
        if start in seen:
            continue
        comp, stack = [], [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        kind = _component_type(c, sorted(comp), adj)
        if kind is None:
            return None
        parts.append(kind)
    return parts


def _component_type(c, comp, adj):
    k = len(comp)
    edges = [(i, j, c[i][j] * c[j][i]) for i in comp for j in adj[i] if i < j]
    if len(edges) != k - 1 or any(w > 3 for _, _, w in edges):
        return None  # a cycle, or an affine or hyperbolic rank-two part
    degree = {v: len(adj[v]) for v in comp}
    weights = sorted(w for _, _, w in edges)
    if k == 1:
        return ("A", 1)
    if k == 2:
        return {1: ("A", 2), 2: ("B", 2), 3: ("G", 2)}[weights[0]]
    if max(degree.values()) == 3:
        return ("D", 4) if k == 4 and weights == [1, 1, 1] else None
    if 3 in weights:
        return None
    if weights.count(2) == 0:
        return ("A", k)
    if weights.count(2) > 1:
        return None
    # a path with one double edge: B/C when the double edge is at an end
    ends = [v for v in comp if degree[v] == 1]
    for i, j, w in edges:
        if w == 2:
            return ("B", k) if i in ends or j in ends else ("F", 4)
    return None


# ---------------------------------------------------------------------------
# words and vectors, straight from the scheme tables


def image_of_simple(coefficients, action, letters, base: int, j: int):
    """The image of the j-th simple root under a word, and its target.

    Applies the reflections rightmost letter first: the reflection at
    (i, a) replaces coordinate i by -v[i] + sum_k c[i][a][k] v[k].
    """
    rank = len(coefficients)
    v = [0] * rank
    v[j] = 1
    obj = base
    for i in reversed(letters):
        row = coefficients[i][obj]
        v[i] = -v[i] + sum(row[k] * v[k] for k in range(rank) if k != i)
        obj = action[i][obj]
    return tuple(v), obj


def word_columns(coefficients, action, letters, base: int):
    """Matrix columns of a word's element: the images of all simple roots."""
    cols = [image_of_simple(coefficients, action, letters, base, j) for j in range(len(coefficients))]
    return tuple(v for v, _ in cols), cols[0][1]


def is_negative(v) -> bool:
    return max(v) <= 0 and min(v) < 0


def replay_moves(letters, moves):
    """Apply braid moves (position, first, second, m) to a word.

    Each move must find the alternating segment first, second, ... of
    length m at its position; returns None as soon as one does not.
    """
    w = list(letters)
    for p, x, y, m in moves:
        if x == y or p < 0 or p + m > len(w):
            return None
        if any(w[p + t] != (x if t % 2 == 0 else y) for t in range(m)):
            return None
        w[p : p + m] = [y if t % 2 == 0 else x for t in range(m)]
    return tuple(w)
