"""Mixed even p-spin Hamiltonians on raw Gaussian disorder tensors.

H(x) = <h, x> + sum_p gamma_p N^{-(p-1)/2} <G^(p), x^{tensor p}> with G^(p)
a flat array of N^p i.i.d. standard normals (never symmetrized; contracting
x^{tensor p} directly keeps the covariance exactly N xi(R)).  G^(p) for
seed s is the start of the Philox stream (s, "tensor", p); `sample_tensors`
fills a batch of them concurrently.

Energy, gradient and dense Hessian come from one plan, `derivatives`, that
reads each raw tensor T at most three times, each pass a reshape matmul over
T in place (no transposed copy):

- R = T.x on the last axis (order 0 and up).  Contracting the small R
  gives the energy, gradient slots 0..p-2 and Hessian blocks among them.
- L = x.T on the first axis: gradient slot p-1 (order 1 and up) and the
  Hessian blocks (s, p-1) for s >= 1 (order 2).
- D = T contracted with x on its middle p-2 slots (order 2), one matmul
  over T viewed as (n, n^(p-2), n): the (0, p-1) block.  For p = 2, D is
  T itself.

At every order, a tensor with p > 2 and more than _SLAB entries is read
once: `_one_read` walks it in L2-sized slabs and builds R, D at orders 1
and 2, and L at order 2 only.  The energy is that R's at every order and
gradient slot p-1 is x @ D at orders 1 and 2, so above a slab the energies
of all orders, and the gradients of orders 1 and 2, are equal bit for bit;
order 1 allocates no n^(p-1) buffer for L.

Tensors of at most one slab, and p = 2 terms, keep the passes above, whose
energy and gradient are the arithmetic of one pass per slot bit for bit.
Above a slab, R's rows come from one matmul per slab; they equal the
whole-tensor matvec's except where a slab ends on a BLAS tail row, which
can move the energy by one rounding at odd n.  Slot p-1
as x @ D sums in another order than L's contraction: the gradient differs
from the per-slot passes by rounding (measured at most 9.0e-16 of max|g|
for p4 and p2+p4 at n = 17..90, at most 2.1e-15 for p6 at n = 11), and
the order-2 Hessian from the three passes by about 1e-15 relative.
No symmetrised copy of T is cached: it would double the tensor memory.

The Hessian-vector product `hessian_apply` is the gradient in x of
<grad H(x), w>: each tensor term sums, over the ordered pairs (s, t) of
distinct slots, the contraction with w in slot t, slot s left open and x in
every other slot; the p = 2 term reads G once for G.w and w.G together
(`_apply_pair`).  It needs O(n) memory beyond the tensors, so the Lanczos
eigensolves above the dense-Hessian cap run on it.

`weighted_sum` forms sum_i w_i T_i (an ensemble leaf, a pair mix) in
_SLAB-entry blocks, and `pool_map` runs GIL-releasing work (tensor fills,
snapshot I/O) on one thread per usable CPU.
"""

import itertools
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import daxpy
from scipy.sparse.linalg import LinearOperator, eigsh

from . import rng
from .errors import ArgumentError, DomainError, NumericError, ResourceError
from .mixture import Mixture
from .points import norm_n_sq, orthonormal_rows

DEFAULT_MAX_TENSOR_ENTRIES = 2**27
DEFAULT_DENSE_HESSIAN_CAP = 512
RADIUS_SQ_CAP = 2.0  # evaluation ball |x|_N <= sqrt(2)
_RADIUS_TOL = 1e-9
_SLAB = 2**16  # entries (512 KB) per slab of a one-read pass and per weighted_sum block
_APPLY_ROWS = 128  # rows of G per block of the p = 2 Hessian-vector product

_SNAPSHOT_MAGIC = b"SPGLASS1"
_SNAPSHOT_VERSION = 1


@dataclass(frozen=True)
class Hamiltonian:
    """Sampled disorder plus mixture; immutable after construction."""

    mixture: Mixture
    n: int
    tensors: dict  # p -> ndarray of shape (n,) * p
    seed: int | None = None
    label: str = ""

    def __post_init__(self):
        for p in self.mixture.ps:
            t = self.tensors[p]
            if t.shape != (self.n,) * p:
                raise ArgumentError(f"tensor for p={p} has shape {t.shape}, want {(self.n,) * p}")

    @property
    def coefficients(self) -> np.ndarray:
        """Disorder vector g(H): tensors concatenated in ascending-p order."""
        return np.concatenate([self.tensors[p].ravel() for p in self.mixture.ps])

    def with_tensors(self, tensors: dict, label: str = "") -> "Hamiltonian":
        return Hamiltonian(self.mixture, self.n, tensors, seed=None, label=label)


def _tensor_stream(seed: int, p: int) -> np.random.Generator:
    # stream labels (seed, "tensor", p); entry index = position in the stream
    return rng.stream(seed, "tensor", p)


def sample_tensors(jobs: list, out=None) -> list:
    """Disorder tensors for the list of jobs [(seed, p, n), ...], in order.

    Job (seed, p, n) gets the first n^p entries of stream (seed, "tensor", p)
    in C order, shaped (n,) * p. `out`, one C-contiguous float64 array of n^p
    entries per job, is filled in place and returned instead.

    The streams are built and the outputs allocated on the calling thread;
    only the bulk fills, which release the GIL, run on `pool_map`.
    """
    gens = [_tensor_stream(seed, p) for seed, p, _n in jobs]
    if out is None:
        out = [np.empty((n,) * p) for _seed, p, n in jobs]
    pool_map(lambda g, o: g.standard_normal(out=o), gens, out)
    return out


def pool_map(fn, *items) -> list:
    """[fn(*args) for args in zip(*items)], on a pool of min(#items, usable
    CPUs) threads; one item or one CPU runs inline.  For work that releases
    the GIL (tensor fills, file I/O).  An error is raised for the first
    failing item in order, as the inline loop would."""
    workers = min(len(items[0]), len(os.sched_getaffinity(0)))
    if workers <= 1:
        return list(map(fn, *items))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *items))


def check_budget(m: Mixture, n: int, max_entries: int = DEFAULT_MAX_TENSOR_ENTRIES):
    for p in m.ps:
        # n >= 2 and p past the budget's bit length is over it without forming n**p
        if n > 1 and (p >= max_entries.bit_length() or n**p > max_entries):
            raise ResourceError(
                f"tensor for p={p} at n={n} is over the budget of {max_entries} entries"
            )


def sample_hamiltonians(
    m: Mixture, n: int, seeds: list, max_entries: int = DEFAULT_MAX_TENSOR_ENTRIES
) -> list:
    """sample_hamiltonian for each seed, every tensor drawn in one
    sample_tensors batch."""
    if n < 1:
        raise ArgumentError(f"dimension n={n} must be >= 1")
    check_budget(m, n, max_entries)
    tensors = iter(sample_tensors([(seed, p, n) for seed in seeds for p in m.ps]))
    return [Hamiltonian(m, n, {p: next(tensors) for p in m.ps}, seed=seed) for seed in seeds]


def sample_hamiltonian(
    m: Mixture, n: int, seed: int, max_entries: int = DEFAULT_MAX_TENSOR_ENTRIES
) -> Hamiltonian:
    """Deterministic disorder sample; bit-identical for equal (m, n, seed)."""
    return sample_hamiltonians(m, n, [seed], max_entries)[0]


def _as_vector(h: Hamiltonian, v, what: str = "point") -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (h.n,):
        raise ArgumentError(f"{what} has shape {v.shape}, want ({h.n},)")
    return v


def _check_radius(h: Hamiltonian, x) -> np.ndarray:
    x = _as_vector(h, x)
    if norm_n_sq(x) > RADIUS_SQ_CAP + _RADIUS_TOL:
        raise DomainError(f"|x|_N^2 = {norm_n_sq(x):.6g} outside the sqrt(2) evaluation ball")
    return x


def _contract(tensor: np.ndarray, assign: list, keep=()) -> np.ndarray:
    """Contract every axis not in `keep` with its assigned vector; kept axes
    come out in ascending original order.

    First/last axes contract as reshape matvecs (no transpose copy of the
    large tensor); only interior axes trapped between kept ones fall back to
    tensordot, by which point the array is at least one power of n smaller.
    """
    part = tensor
    axes = list(range(tensor.ndim))
    while len(axes) > len(keep):
        if axes[-1] not in keep:
            ax = axes.pop()
            lead = part.shape[:-1]
            part = (part.reshape(-1, part.shape[-1]) @ assign[ax]).reshape(lead)
        elif axes[0] not in keep:
            ax = axes.pop(0)
            tail = part.shape[1:]
            part = (assign[ax] @ part.reshape(part.shape[0], -1)).reshape(tail)
        else:
            pos = next(i for i, a in enumerate(axes) if a not in keep)
            ax = axes.pop(pos)
            part = np.tensordot(part, assign[ax], axes=([pos], [0]))
    return part


def _scale(m: Mixture, p: int, n: int) -> float:
    return m.gammas[p] * n ** (-(p - 1) / 2)


def _middle(x: np.ndarray, p: int) -> np.ndarray:
    """x^{tensor (p-2)}, flattened: what D contracts T's middle slots with."""
    middle = np.ones(1)
    for _ in range(p - 2):
        middle = np.multiply.outer(middle, x).ravel()
    return middle


def _one_read(tensor: np.ndarray, x: np.ndarray, order: int) -> tuple:
    """R, L and D of one tensor with p > 2 from a single read of it: R at
    every order, D at orders 1 and 2, L at order 2 only.  The gradient's last
    slot is x @ D at both orders (its rounding is in the module docstring).

    T is viewed as (n, n^(p-2), n) and walked in slabs T[a, r0:r0+rows] of at
    most _SLAB entries, `rows` a multiple of 16, so that a slab and its slice
    of L stay in a per-core L2 cache.  Each slab gives R's rows by a matmul,
    at orders 1 and 2 adds middle[r0:r0+rows] @ slab into D[a] and, at
    order 2, adds x[a] * slab into L's slice by an in-place BLAS axpy.
    """
    n = x.size
    t3 = tensor.reshape(n, -1, n)
    m = t3.shape[1]
    rows = max(16, _SLAB // n // 16 * 16)
    middle = _middle(x, tensor.ndim)
    right = np.empty((n, m))
    left = np.zeros(m * n) if order == 2 else None  # flat: each slice is a contiguous axpy target
    corner = np.zeros((n, n)) if order else None
    for a in range(n):
        for r0 in range(0, m, rows):
            slab = t3[a, r0 : r0 + rows]
            np.matmul(slab, x, out=right[a, r0 : r0 + rows])
            if corner is not None:
                corner[a] += middle[r0 : r0 + rows] @ slab
            if left is not None:
                daxpy(slab.ravel(), left[r0 * n : (r0 + rows) * n], a=x[a])
    shape = (n,) * (tensor.ndim - 1)
    return right.reshape(shape), None if left is None else left.reshape(shape), corner


def derivatives(h: Hamiltonian, x, order: int) -> tuple:
    """(energy,), (energy, gradient) or (energy, gradient, Hessian) at x for
    order 0, 1 or 2, from the passes R, L and D of the module docstring.

    The dense Hessian is built at any n; `hessian` is the entry point capped
    at the dense-Hessian dimension.
    """
    if order not in (0, 1, 2):
        raise ArgumentError(f"derivative order {order} must be 0, 1 or 2")
    x = _check_radius(h, x)
    n = h.n
    val = h.mixture.h * float(np.sum(x))
    grad = np.full(n, h.mixture.h) if order >= 1 else None
    hess = np.zeros((n, n)) if order == 2 else None
    for p in h.mixture.ps:
        g = _scale(h.mixture, p, n)
        if g == 0.0:
            continue
        tensor = h.tensors[p]
        rest = [x] * (p - 1)
        if p > 2 and tensor.size > _SLAB:
            right, left, corner = _one_read(tensor, x, order)
        else:
            right = (tensor.reshape(-1, n) @ x).reshape((n,) * (p - 1))  # R
            left = corner = None
        val += g * float(_contract(right, rest))
        if order == 0:
            continue
        for s in range(p - 1):
            grad += g * _contract(right, rest, keep=(s,))
        if corner is None:
            left = (x @ tensor.reshape(n, -1)).reshape((n,) * (p - 1))  # L
            grad += g * _contract(left, rest, keep=(p - 2,))
        else:
            grad += g * (x @ corner)  # slot p-1 from D, at orders 1 and 2 alike
        if order == 1:
            continue
        if corner is None:
            # D; for p = 2 it is the tensor itself
            corner = tensor if p == 2 else np.matmul(_middle(x, p), tensor.reshape(n, -1, n))
        for s in range(p):
            for t in range(s + 1, p):
                if t < p - 1:
                    block = _contract(right, rest, keep=(s, t))
                elif s > 0:
                    block = _contract(left, rest, keep=(s - 1, p - 2))
                else:
                    block = corner
                hess += g * (block + block.T)  # ordered pairs (s,t) and (t,s)
    return (val, grad, hess)[: order + 1]


def energy(h: Hamiltonian, x) -> float:
    """H(x) = <h, x> + sum_p gamma_p N^{-(p-1)/2} <G^(p), x^{tensor p}>."""
    return derivatives(h, x, 0)[0]


def gradient(h: Hamiltonian, x) -> np.ndarray:
    """Exact analytic gradient."""
    return derivatives(h, x, 1)[1]


def hessian(h: Hamiltonian, x, dense_cap: int = DEFAULT_DENSE_HESSIAN_CAP) -> np.ndarray:
    """Dense symmetric Hessian of the energy; refuses n above dense_cap."""
    if h.n > dense_cap:
        raise ResourceError(f"dense Hessian refused for n={h.n} > cap {dense_cap}")
    return derivatives(h, x, 2)[2]


def weighted_sum(terms: list) -> np.ndarray:
    """sum_i w_i T_i over the nonempty list [(T_i, w_i), ...] of equal-shape
    tensors, in blocks of _SLAB entries with one block of scratch.  Each
    entry is w_0 T_0, then += w_i T_i for i = 1, 2, ... in order: the same
    multiply-then-add as whole-tensor arithmetic, bit for bit, without a
    full-size temporary."""
    (first, w0), *rest = [(np.ravel(t), w) for t, w in terms]
    out = np.empty(first.size)
    scratch = np.empty(min(_SLAB, out.size))
    for b0 in range(0, out.size, _SLAB):
        block = out[b0 : b0 + _SLAB]
        np.multiply(first[b0 : b0 + _SLAB], w0, out=block)
        part = scratch[: block.size]
        for t, w in rest:
            block += np.multiply(t[b0 : b0 + _SLAB], w, out=part)
    return out.reshape(np.shape(terms[0][0]))


def _apply_pair(tensor: np.ndarray, w: np.ndarray) -> tuple:
    """(G.w, w.G) of a p = 2 tensor from one read of G, in blocks of
    _APPLY_ROWS rows; one block (n <= _APPLY_ROWS) is the two plain matvecs."""
    n = w.size
    gw = np.empty(n)
    wg = np.zeros(n)
    for r0 in range(0, n, _APPLY_ROWS):
        block = tensor[r0 : r0 + _APPLY_ROWS]
        np.matmul(block, w, out=gw[r0 : r0 + _APPLY_ROWS])
        wg += w[r0 : r0 + _APPLY_ROWS] @ block
    return gw, wg


def hessian_apply(h: Hamiltonian, x, w) -> np.ndarray:
    """Hessian-vector product, O(n) memory, available at any n: the gradient
    in x of <grad H(x), w>.  The p = 2 term reads G once (`_apply_pair`)."""
    x = _check_radius(h, x)
    w = _as_vector(h, w, "w")
    out = np.zeros(h.n)
    for p in h.mixture.ps:
        g = _scale(h.mixture, p, h.n)
        if g == 0.0:
            continue
        if p == 2:
            gw, wg = _apply_pair(h.tensors[2], w)
            out += g * gw
            out += g * wg
            continue
        for s, t in itertools.permutations(range(p), 2):
            assign = [x] * p
            assign[t] = w
            out += g * _contract(h.tensors[p], assign, keep=(s,))
    return out


def restricted_top_eigvec(h: Hamiltonian, x, basis, tol: float = 1e-10, maxiter: int = 10_000):
    """Top eigenpair of the Hessian restricted (as a bilinear form) to span(basis).

    basis: array (k, n) of Euclidean-orthonormal rows.  Returns the l2-unit
    eigenvector in R^n inside the span and the raw matrix eigenvalue, with
    relative eigen-residual <= 1e-8.
    """
    basis = np.atleast_2d(np.asarray(basis, dtype=float))
    if basis.ndim != 2 or basis.shape[0] == 0 or basis.shape[1] != h.n:
        raise ArgumentError(f"basis has shape {basis.shape}, want (k, {h.n}) with k >= 1")
    k = basis.shape[0]
    gram = basis @ basis.T
    if np.max(np.abs(gram - np.eye(k))) > tol:
        raise ArgumentError("basis is not orthonormal within 1e-10")

    images = np.stack([hessian_apply(h, x, b) for b in basis])
    small = basis @ images.T
    small = 0.5 * (small + small.T)
    if k <= 64:
        vals, vecs = np.linalg.eigh(small)
        idx = int(np.argmax(vals))
        lam, coef = float(vals[idx]), vecs[:, idx]
    else:
        op = LinearOperator((k, k), matvec=lambda c: small @ c)
        v0 = rng.stream(0, "rtev", k).standard_normal(k)
        try:
            vals, vecs = eigsh(op, k=1, which="LA", v0=v0, maxiter=maxiter)
        except Exception as exc:  # pragma: no cover - ARPACK failure path
            raise NumericError(f"restricted eigensolve did not converge: {exc}") from exc
        lam, coef = float(vals[0]), vecs[:, 0]
    vec = coef @ basis
    vec /= np.linalg.norm(vec)
    residual = np.linalg.norm(small @ coef - lam * coef)
    if residual > 1e-8 * max(1.0, abs(lam)):
        raise NumericError(f"eigen-residual {residual:.3g} above 1e-8 tolerance")
    return vec, lam


def top_eigenpairs(matrix: np.ndarray, ortho: np.ndarray, k: int = 1) -> tuple:
    """Top-k eigenpairs of the symmetric part of P M P, P = I - ortho.T ortho
    projecting out the orthonormal rows `ortho` (none: P = I), by dense eigh.
    Returns (vectors (k, n), eigenvalues (k,)) in descending order."""
    if ortho.size:
        pmat = np.eye(len(matrix)) - ortho.T @ ortho
        matrix = pmat @ matrix @ pmat
    vals, vecs = np.linalg.eigh(0.5 * (matrix + matrix.T))
    order = np.argsort(vals)[::-1][:k]
    return vecs[:, order].T.copy(), vals[order]


def projected_top_eigvec(h: Hamiltonian, x, orth=(), k: int = 1, seed: int = 0, start=None):
    """Top-k l2-unit eigenpairs of P Hess(x) P, P projecting out span(orth).

    Dense eigh below the dimension cap, Lanczos on hessian_apply above it.
    Returns (vectors (k, n), eigenvalues (k,)) in descending order.

    Warm start: with k = 1 on the Lanczos path, Lanczos starts from P start
    (a step chain passes its previous direction) unless that projection has
    norm <= 1e-8 |start|; otherwise, and always for k > 1 (one start vector
    in a small invariant subspace cannot yield k eigenpairs), it starts from
    the seeded vector.  The dense path ignores `start`.
    """
    ortho = orthonormal_rows(orth, h.n)

    def proj(v):
        if ortho.size:
            v = v - ortho.T @ (ortho @ v)
        return v

    if h.n <= DEFAULT_DENSE_HESSIAN_CAP:
        return top_eigenpairs(hessian(h, x), ortho, k)

    op = LinearOperator(
        (h.n, h.n),
        matvec=lambda w: proj(hessian_apply(h, x, proj(np.asarray(w).ravel()))),
    )
    v0 = proj(_as_vector(h, start, "start")) if k == 1 and start is not None else None
    if v0 is None or np.linalg.norm(v0) <= 1e-8 * np.linalg.norm(start):
        v0 = rng.stream(seed, "proj-eig", h.n).standard_normal(h.n)
    try:
        vals, vecs = eigsh(op, k=k, which="LA", v0=v0)
    except Exception as exc:  # pragma: no cover
        raise NumericError(f"projected eigensolve did not converge: {exc}") from exc
    order = np.argsort(vals)[::-1]
    return vecs[:, order].T.copy(), vals[order]


# -- snapshot serialization ----------------------------------------------------


def save_snapshot(h: Hamiltonian, path):
    """Binary snapshot: header + little-endian f64 payloads in ascending p."""
    seed = 0 if h.seed is None else int(h.seed) % 2**64
    has_seed = h.seed is not None
    with open(path, "wb") as f:
        f.write(_SNAPSHOT_MAGIC)
        f.write(struct.pack("<IQdQB", _SNAPSHOT_VERSION, h.n, h.mixture.h, seed, int(has_seed)))
        f.write(struct.pack("<I", len(h.mixture.ps)))
        for p in h.mixture.ps:
            f.write(struct.pack("<Id", p, h.mixture.gammas[p]))
        for p in h.mixture.ps:
            f.write(np.ascontiguousarray(h.tensors[p], dtype="<f8").data)


def _read_exact(f, size: int) -> bytes:
    data = f.read(size)
    if len(data) != size:
        raise ArgumentError(f"snapshot truncated: wanted {size} more bytes, found {len(data)}")
    return data


def load_snapshot(path) -> Hamiltonian:
    """Inverse of save_snapshot.  A truncated file or trailing bytes raise
    ArgumentError; a header over the tensor budget raises ResourceError before
    any payload is read."""
    with open(path, "rb") as f:
        magic = f.read(8)
        if magic != _SNAPSHOT_MAGIC:
            raise ArgumentError(f"bad snapshot magic {magic!r}")
        version, n, hfield, seed, has_seed = struct.unpack("<IQdQB", _read_exact(f, 29))
        if version != _SNAPSHOT_VERSION:
            raise ArgumentError(f"unsupported snapshot version {version}")
        if n < 1:
            raise ArgumentError(f"snapshot dimension n={n} must be >= 1")
        (nterms,) = struct.unpack("<I", _read_exact(f, 4))
        gammas = {}
        for _ in range(nterms):
            p, gam = struct.unpack("<Id", _read_exact(f, 12))
            gammas[p] = gam
        mixture = Mixture(gammas, h=hfield)
        check_budget(mixture, n)
        tensors = {}
        for p in mixture.ps:
            data = np.empty(n**p, dtype="<f8")
            got = f.readinto(data.data)
            if got != data.nbytes:
                raise ArgumentError(f"snapshot truncated: wanted {data.nbytes} more bytes, found {got}")
            tensors[p] = data.reshape((n,) * p)
        if f.read(1):
            raise ArgumentError("trailing bytes after the snapshot payload")
    return Hamiltonian(mixture, int(n), tensors, seed=int(seed) if has_seed else None)
