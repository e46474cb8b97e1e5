import numpy as np

from spinlab import rng
from spinlab.points import orthogonal_unit, orthonormal_rows, sign_toward


def test_orthonormalizer_properties():
    """Random spans with dependent and zero vectors mixed in: the rows are
    orthonormal, dependent inputs are dropped, every input lies in the row
    span, and a vector inside the span has no orthogonal direction."""
    for trial in range(200):
        gen = rng.stream(trial, "orthonormalizer")
        n = int(gen.integers(2, 40))
        k = int(gen.integers(1, n + 1))
        vectors = []
        for _ in range(k):
            kind = gen.random()
            if vectors and kind < 0.3:  # dependent: combination of earlier inputs
                coef = gen.standard_normal(len(vectors))
                vectors.append(coef @ np.stack(vectors))
            elif kind < 0.4:
                vectors.append(np.zeros(n))
            else:
                vectors.append(gen.standard_normal(n) * 10.0 ** gen.uniform(-3, 3))
        rows = orthonormal_rows(vectors, n)
        assert rows.shape == (np.linalg.matrix_rank(np.stack(vectors)), n)
        assert np.max(np.abs(rows @ rows.T - np.eye(len(rows))), initial=0.0) <= 1e-12
        for v in vectors:
            resid = v - rows.T @ (rows @ v)
            assert np.linalg.norm(resid) <= 1e-10 * max(1.0, np.linalg.norm(v))

        inside = gen.standard_normal(k) @ np.stack(vectors)
        assert orthogonal_unit(inside, vectors) is None
        if len(rows) < n:
            u = orthogonal_unit(gen.standard_normal(n), vectors)
            assert abs(np.linalg.norm(u) - 1.0) <= 1e-12
            assert np.max(np.abs(rows @ u), initial=0.0) <= 1e-12


def test_orthonormalizer_empty_span():
    assert orthonormal_rows([], 5).shape == (0, 5)
    assert orthonormal_rows([np.zeros(5)], 5).shape == (0, 5)
    v = np.array([3.0, 4.0])
    assert np.array_equal(orthogonal_unit(v, []), v / 5.0)


def test_sign_toward_follows_the_gradient_and_breaks_ties_by_the_largest_entry():
    gen = rng.stream(0, "sign-toward")
    v = gen.standard_normal(9)
    v[4] = -3.0  # the largest-magnitude entry, negative
    grad = gen.standard_normal(9)
    assert sign_toward(v, grad) @ grad > 0 and sign_toward(-v, grad) @ grad > 0
    tie = grad - (grad @ v) / (v @ v) * v  # orthogonal to v up to rounding
    for g in (tie, tie + 1e-14 * v, tie - 1e-14 * v, np.zeros(9)):
        assert np.array_equal(sign_toward(v, g), -v)
        assert np.array_equal(sign_toward(-v, g), -v)
    level = np.array([0.0, -2.0, 2.0, 1.0])  # equal magnitudes: the lowest index decides
    assert np.array_equal(sign_toward(level, np.zeros(4)), -level)
