import math

import numpy as np

from spinlab import rng
from spinlab.points import (
    orthogonal_unit,
    orthonormal_rows,
    overlap,
    overlap_matrix,
    sign_toward,
    worst_violation,
)


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
    # a near-tie at large |grad|: <grad, v> lies far above rounding and above
    # 1e-12 |v| / |grad|, but below 1e-12 |grad| |v|, so it is still a tie
    big = 1e8 * tie / np.linalg.norm(tie)
    for s in (1e-5, -1e-5):
        g = big + s * v / (v @ v)
        scale = np.linalg.norm(g) * np.linalg.norm(v)
        assert 1e-12 * np.linalg.norm(v) / np.linalg.norm(g) < abs(g @ v) < 1e-12 * scale
        assert np.array_equal(sign_toward(v, g), -v)
        assert np.array_equal(sign_toward(-v, g), -v)
    level = np.array([0.0, -2.0, 2.0, 1.0])  # equal magnitudes: the lowest index decides
    assert np.array_equal(sign_toward(level, np.zeros(4)), -level)


def test_overlap_matrix_is_the_per_pair_overlap_bit_for_bit():
    gen = rng.stream(5, "overlap-matrix")
    for n, k in ((1, 1), (7, 3), (64, 6), (300, 4)):
        points = [gen.standard_normal(n) * scale for scale in gen.uniform(0.1, 3.0, k)]
        r = overlap_matrix(points)
        assert r.shape == (k, k) and r.dtype == np.float64
        for i, j in np.ndindex(k, k):
            assert r[i, j] == overlap(points[i], points[j])
        assert np.array_equal(r, r.T)
    assert np.array_equal(overlap_matrix([[1, 2], [3, 4]]), [[2.5, 5.5], [5.5, 12.5]])


def test_worst_violation_takes_the_first_largest_and_fails_a_nan():
    checks = [(0.1, "a"), (0.3, "b"), (0.2, "c"), (0.3, "d")]
    assert worst_violation(checks) == (0.3, "b")
    value, label = worst_violation([(0.1, "a"), (math.nan, "b"), (9.0, "c"), (math.nan, "d")])
    assert math.isnan(value) and label == "b"
    value, label = worst_violation([(np.float64("nan"), "a")], floor=0.0)
    assert math.isnan(value) and label == "a" and not value <= 0.0
    # nothing above the floor, an excess equal to it, and no checks at all
    assert worst_violation([(-1.0, "a"), (0.0, "b")], floor=0.0) == (0.0, "none")
    assert worst_violation([]) == (-math.inf, "none")
    assert worst_violation([(-2.0, "a"), (-1.0, "b")]) == (-1.0, "b")
