import json

import pytest

import weylgroupoid as wg

A2 = ((2, -1), (-1, 2))
B2 = ((2, -1), (-2, 2))
G2 = ((2, -1), (-3, 2))


@pytest.fixture(scope="session")
def ex5():
    """The bundled five-object rank-3 scheme (prescribed, finite)."""
    return wg.rank3_example()


@pytest.fixture(scope="session")
def a2():
    return wg.generate_roots(wg.from_cartan(A2), 20)


@pytest.fixture(scope="session")
def b2():
    return wg.generate_roots(wg.from_cartan(B2), 20)


@pytest.fixture(scope="session")
def g2():
    return wg.generate_roots(wg.from_cartan(G2), 20)


@pytest.fixture(scope="session")
def rank1():
    text = (
        '{"rank": 1, "objects": ["a"], "action": [[0]],'
        ' "coefficients": [[[-1]]], "mode": "prescribed", "roots": [[[1]]]}'
    )
    return wg.load_scheme(text)


@pytest.fixture
def affine_file(tmp_path):
    """Affine A1 prescribed with its simple roots only.

    The file loads but fails axiom 5.  Its Coxeter group is infinite, so
    element operations that need root tables must refuse it.
    """
    path = tmp_path / "affine.json"
    path.write_text(json.dumps({
        "rank": 2, "objects": ["a"], "action": [[0], [0]],
        "coefficients": [[[-1, 2]], [[2, -1]]], "mode": "prescribed",
        "roots": [[[0, 1], [1, 0]]],
    }), encoding="utf-8")
    return path
