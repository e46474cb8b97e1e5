"""Point geometry in the normalized N-norm, |x|_N^2 = (1/N) sum x_i^2.

S_N is the sphere |x|_N = 1, Sigma_N the cube corners {-1,1}^N, B_N / C_N
their convex hulls.
"""

import numpy as np


def norm_n_sq(x) -> float:
    x = np.asarray(x, dtype=float)
    return float(x @ x) / x.size


def norm_n(x) -> float:
    return float(np.sqrt(norm_n_sq(x)))


def overlap(x, y) -> float:
    """R(x, y) = <x, y> / N."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(x @ y) / x.size


def sphere_point(v) -> np.ndarray:
    """Rescale v to S_N (|.|_N = 1)."""
    v = np.asarray(v, dtype=float)
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        raise ValueError("cannot project the zero vector to the sphere")
    return v * (np.sqrt(v.size) / nrm)


def project_ball(x, r: float = 1.0) -> np.ndarray:
    """Euclidean projection onto rB_N."""
    x = np.asarray(x, dtype=float)
    nn = norm_n(x)
    if nn <= r:
        return x
    return x * (r / nn)


def project_cube(x, r: float = 1.0) -> np.ndarray:
    """Euclidean projection onto rC_N = [-r, r]^N."""
    return np.clip(np.asarray(x, dtype=float), -r, r)


def orthonormal_rows(vectors, n: int) -> np.ndarray:
    """Modified Gram-Schmidt: orthonormal rows (k, n) spanning `vectors`; a
    vector whose residual norm is not above 1e-10 is dropped as dependent."""
    rows = []
    for v in vectors:
        v = np.asarray(v, dtype=float).copy()
        for r in rows:
            v -= (r @ v) * r
        nrm = np.linalg.norm(v)
        if nrm > 1e-10:
            rows.append(v / nrm)
    if not rows:
        return np.empty((0, n))
    return np.stack(rows)


def orthogonal_unit(v, span):
    """Unit vector along the part of v orthogonal to span(span), or None when
    v lies in that span; the span is orthonormalized first, so correlated
    span vectors are handled exactly."""
    v = np.asarray(v, dtype=float).copy()
    rows = orthonormal_rows(span, v.size)
    for r in rows:
        v -= (r @ v) * r
    for r in rows:  # second pass scrubs rounding residue
        v -= (r @ v) * r
    nv = np.linalg.norm(v)
    if nv < 1e-10:
        return None
    return v / nv


def sign_toward(v, grad) -> np.ndarray:
    """v or -v, whichever has <grad, v> >= 0.  On a tie, |<grad, v>| <=
    1e-12 |grad| |v| (grad = 0 included), where rounding would pick the sign,
    v is signed so that its largest-magnitude entry (lowest index among
    equals) is positive."""
    dot = float(grad @ v)
    if abs(dot) <= 1e-12 * np.linalg.norm(grad) * np.linalg.norm(v):
        return -v if v[np.argmax(np.abs(v))] < 0 else v
    return -v if dot < 0 else v
