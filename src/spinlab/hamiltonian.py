"""Mixed even p-spin Hamiltonians on raw Gaussian disorder tensors.

H(x) = <h, x> + sum_p gamma_p N^{-(p-1)/2} <G^(p), x^{tensor p}> with G^(p)
a flat array of N^p i.i.d. standard normals (never symmetrized; contracting
x^{tensor p} directly keeps the covariance exactly N xi(R)).  G^(p) for
seed s is the start of the Philox stream (s, "tensor", p); `sample_tensors`
fills a batch of them concurrently.

Energy, gradient and dense Hessian come from one plan, `derivatives`, with
one path per p.  Each reads the raw tensor T in place (no transposed copy)
and builds up to four small arrays:

- R = T.x on the last axis (order 0 and up).  Contracting R gives the
  energy, gradient slots 0..p-2 and the Hessian blocks among them.
- D = T contracted with x on its middle p-2 slots (order 1 and up): gradient
  slot p-1 is x @ D, and D is the (0, p-1) Hessian block.
- Q = T contracted with x on slots 0 and p-2 (order 2, p > 2; n^(p-2)
  entries): the Hessian blocks (s, p-1) for 1 <= s <= p-3.
- B = T contracted with x on all slots but p-2 and p-1 (order 2, p > 2):
  the (p-2, p-1) Hessian block.

For p > 2, `_one_read` builds them from a single read of T, walked in
L2-sized slabs (a smaller tensor is one slab).  For p = 2, R is the matvec
G.x and D is G itself.  The energy is R's at every order and slot p-1 is
x @ D at orders 1 and 2, so the energies of all orders, and the gradients
of orders 1 and 2, are equal bit for bit.  The order-2 Hessian is the sum
of g (block + block^T) over the slot pairs, assembled in place and exactly
symmetric (`_symmetric_sum`).

Against one contraction of T per gradient slot and per Hessian slot pair
(the tests' oracles), p = 2 results are equal bit for bit.  For p > 2, R's
rows come from one matmul per slab; they equal the whole-tensor matvec's
except where T[a] ends on a BLAS tail row, which can move the energy by
one rounding at odd n.  D, Q and B sum in other orders than the oracle's
contractions: the gradient differs by rounding (measured at most 3.2e-16
of max|g| for p4 and p2+p4 at n = 17..90, 2.8e-16 for p6 at n = 11 and
3.7e-16 for tensors of one slab at n = 2..12), and the order-2 Hessian by
at most 7.3e-16 of its largest entry.  No symmetrised copy of T is cached:
it would double the tensor memory.

The tensor budget, DEFAULT_MAX_TENSOR_ENTRIES = 2^27 entries, is held and
applied here alone: a run refuses, before it samples, any tensors it would
hold at once above it.  `check_entries` is the one comparison and message,
read at call time; `check_budget` counts Hamiltonians of a mixture.  Every
holder asks one of them first: a sampled batch, a snapshot, a manifest, a
grand maximum, a pair rep, the Lipschitz probe, a branching rep and its
overlap matrices, concurrent replicas and a PDE grid.  One tensor fits at
p = 4 up to n = 107 and p = 6 up to n = 22, far below the dense-Hessian cap
of 512, which `hessian` alone applies.  Past n = 107 only p = 2 fits, and its
Hessian is the constant matrix g (G + G^T), which a Hessian walk on pure
p = 2 solves once at every n.  `projected_top_eigvec`, the one projected
eigensolve, applies its projector without forming it and alone picks the
method from (n, k): dense eigh up to DENSE_EIGH_CAP = 144 or for k >= n - 1,
else Lanczos, one thread-stable gemv per matvec.  Lanczos is the module's
one use of scipy (ARPACK), imported on its first call, so a dense-only path
never loads scipy.  `hessian_apply`, for p = 2 only, serves
`restricted_top_eigvec`.

`weighted_sum` forms sum_i w_i T_i (an ensemble leaf, a pair mix) in
_SLAB-entry blocks.

`pool_map` is the one thread pool for independent replicas, each a pure
function of its labels and seed, so the width changes no bit.  The loops
on it are the tensor fills of `sample_tensors`, the snapshots of a
manifest, `optimize`'s seeds, the underline leaves of
`run_branching_experiment`, the per-leaf energies of `extend_to_sphere`
and the reps of `_pair_overlaps` (behind `chi` and `concentration`).  Two
rules bound it:

- the budget: `replica_width` runs at most as many replicas at once as
  there are usable CPUs and as fit DEFAULT_MAX_TENSOR_ENTRIES beside the
  entries already held, given the entries each replica holds;
- no nesting: a `pool_map` called on a pool thread runs inline, so a pooled
  replica's tensor fills start no second pool.

Fills, file I/O and `weighted_sum` release the GIL.  Pooled derivative-heavy
replicas overlap only in part, but not for the GIL: at one BLAS thread on 2
vCPUs, two threads ran np.matmul on 1024 x 64 slabs at 0.7-1.7x the speed of
one, like GIL-free np.exp on 4M entries (1.1-2.9x; hashlib.sha256 1.4-2.0x).
"""

import math
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import ArgumentError, DomainError, NumericError, ResourceError
from .mixture import Mixture
from .points import norm_n_sq, orthonormal_rows

DEFAULT_MAX_TENSOR_ENTRIES = 2**27
DEFAULT_DENSE_HESSIAN_CAP = 512
# eigh of a random symmetric n x n matrix gave the same bits at one and two
# OpenBLAS threads for every n <= 144, and for most n from 145 to 256 did
# not; the largest p > 2 dimension the budget admits, n = 107, is below it
DENSE_EIGH_CAP = 144
RADIUS_SQ_CAP = 2.0  # evaluation ball |x|_N <= sqrt(2)
_RADIUS_TOL = 1e-9
_SLAB = 2**16  # entries (512 KB) per slab of a one-read pass and per weighted_sum block

_SNAPSHOT_MAGIC = b"SPGLASS1"
_SNAPSHOT_VERSION = 1

_pool_thread = threading.local()  # .active is set on the threads of a pool_map pool


@dataclass(frozen=True)
class Hamiltonian:
    """Sampled disorder plus mixture; immutable after construction."""

    mixture: Mixture
    n: int
    tensors: dict  # p -> ndarray of shape (n,) * p
    seed: int | None = None

    def __post_init__(self):
        for p in self.mixture.ps:
            t = self.tensors[p]
            if t.shape != (self.n,) * p:
                raise ArgumentError(f"tensor for p={p} has shape {t.shape}, want {(self.n,) * p}")


def _tensor_stream(seed: int, p: int) -> np.random.Generator:
    # stream labels (seed, "tensor", p); entry index = position in the stream
    return rng.stream(seed, "tensor", p)


def sample_tensors(jobs: list, out=None) -> list:
    """Disorder tensors for the list of jobs [(seed, p, n), ...], in order.

    Job (seed, p, n) gets the first n^p entries of stream (seed, "tensor", p)
    in C order, shaped (n,) * p. `out`, one writable C-contiguous float64
    array of n^p entries per job, is filled in place and returned instead;
    any other `out` raises ArgumentError before a fill.

    The streams are built and the outputs allocated on the calling thread;
    only the bulk fills, which release the GIL, run on `pool_map`.
    """
    if out is None:
        out = [np.empty((n,) * p) for _seed, p, n in jobs]
    elif len(out) != len(jobs) or not all(
        isinstance(o, np.ndarray) and (o.size, o.dtype) == (n**p, np.float64) and o.flags.carray
        for (_seed, p, n), o in zip(jobs, out)
    ):
        raise ArgumentError("need one output buffer per job, a writable C-contiguous float64 array of n^p entries")
    gens = [_tensor_stream(seed, p) for seed, p, _n in jobs]
    pool_map(lambda g, o: g.standard_normal(out=o), gens, out)
    return out


def pool_map(fn, *items, workers: int | None = None) -> list:
    """[fn(*args) for args in zip(*items)], in input order, on a pool of
    min(#items, workers) threads, workers defaulting to the usable CPUs
    (`replica_width` of replicas that hold no tensor).  One item, one
    worker, or a call made on a pool thread (pools do not nest) runs inline.
    An error is raised for the first failing item in order, as the inline
    loop would."""
    workers = replica_width(len(items[0]), 0, workers=workers)
    if workers <= 1 or getattr(_pool_thread, "active", False):
        return list(map(fn, *items))

    def marked(*args):
        _pool_thread.active = True
        return fn(*args)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(marked, *items))


def tensor_entries(m: Mixture, n: int) -> int:
    """Entries of one Hamiltonian's tensors, sum_p n^p."""
    return sum(n**p for p in m.ps)


def replica_width(count: int, entries: int, held: int = 0, workers: int | None = None) -> int:
    """How many of `count` replicas may run at once when each holds `entries`
    tensor entries and `held` are already live: min(count, workers (default
    the usable CPUs), (DEFAULT_MAX_TENSOR_ENTRIES - held) // entries), and at
    least 1.  A replica that holds no tensor (entries 0) is bounded by the
    CPUs alone."""
    room = (DEFAULT_MAX_TENSOR_ENTRIES - held) // entries if entries else count
    return max(1, min(count, workers or len(os.sched_getaffinity(0)), room))


def check_entries(entries: int, what: str):
    """The one tensor budget: ResourceError when `what`, a holder and its
    verb ("9 concurrent replicas hold"), would hold more than
    DEFAULT_MAX_TENSOR_ENTRIES entries at once.  The limit is read at call
    time, as `replica_width` reads it."""
    if entries > DEFAULT_MAX_TENSOR_ENTRIES:
        raise ResourceError(f"{what} {entries} tensor entries, over the budget of {DEFAULT_MAX_TENSOR_ENTRIES}")


def check_budget(m: Mixture, n: int, copies: int = 1, what: str | None = None):
    """`check_entries` for `copies` Hamiltonians of m at dimension n held at
    once (`what` defaults to naming them), after each tensor on its own."""
    for p in m.ps:
        # n >= 2 and p past the budget's bit length is over it without forming n**p
        if n > 1 and p >= DEFAULT_MAX_TENSOR_ENTRIES.bit_length():
            raise ResourceError(
                f"the p={p} tensor at n={n} holds {n}^{p} tensor entries, over the budget of {DEFAULT_MAX_TENSOR_ENTRIES}"
            )
        check_entries(n**p, f"the p={p} tensor at n={n} holds")
    check_entries(copies * tensor_entries(m, n), what or f"{copies} Hamiltonian(s) at n={n} hold")


def sample_hamiltonians(m: Mixture, n: int, seeds: list) -> list:
    """sample_hamiltonian for each seed, every tensor drawn in one
    sample_tensors batch, once the budget admits them all."""
    if n < 1:
        raise ArgumentError(f"dimension n={n} must be >= 1")
    check_budget(m, n, len(seeds))
    tensors = iter(sample_tensors([(seed, p, n) for seed in seeds for p in m.ps]))
    return [Hamiltonian(m, n, {p: next(tensors) for p in m.ps}, seed=seed) for seed in seeds]


def sample_hamiltonian(m: Mixture, n: int, seed: int) -> Hamiltonian:
    """Deterministic disorder sample; bit-identical for equal (m, n, seed)."""
    return sample_hamiltonians(m, n, [seed])[0]


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
    large tensor); an interior axis trapped between kept ones contracts as a
    batched vector-matrix product over the leading axes, also without a
    transposed copy.
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
            shape = part.shape
            part = assign[ax] @ part.reshape(math.prod(shape[:pos]), shape[pos], -1)
            part = part.reshape(shape[:pos] + shape[pos + 1 :])
    return part


def _scale(m: Mixture, p: int, n: int) -> float:
    return m.gammas[p] * n ** (-(p - 1) / 2)


def _one_read(tensor: np.ndarray, x: np.ndarray, order: int) -> tuple:
    """R, D, Q and B of one tensor with p > 2 from a single read of it: R at
    every order, D at orders 1 and 2, Q and B at order 2 only.

    T is viewed as (n, n^(p-3), n, n) and walked in slabs T[a, k0:k1] of
    about _SLAB entries, so that a slab stays in a per-core L2 cache, with
    (k1 - k0) n rows a multiple of 16 (at most 16 n^2 entries at odd n).
    Each slab gives R's rows by a matmul, so BLAS tail rows fall only where
    T[a] ends.  At orders 1 and 2 it gives P = x @ slab (the slot p-2
    contraction, k1 - k0 rows of n) and D[a] += lead[k0:k1] @ P, lead being
    x^{tensor (p-3)} flattened.  At order 2 it adds x[a] P into Q[k0:k1] and
    (x[a] lead[k0:k1]) @ slab into B.  Every call is numpy's: scipy's BLAS
    keeps its own thread pool, and switching between the two pools per slab
    ran 2x slower at two BLAS threads.
    """
    n = x.size
    t4 = tensor.reshape(n, -1, n, n)
    kk = t4.shape[1]
    step = 16 // math.gcd(n, 16)
    rows = max(step, _SLAB // (n * n) // step * step)  # leading indices k per slab
    lead = np.ones(1)
    for _ in range(tensor.ndim - 3):
        lead = np.multiply.outer(lead, x).ravel()
    right = np.empty((n, kk * n))
    corner = np.zeros((n, n)) if order else None
    part = np.empty((min(rows, kk), n)) if order else None
    tail = np.zeros((kk, n)) if order == 2 else None
    both = np.zeros(n * n) if order == 2 else None
    image = np.empty(n * n) if order == 2 else None
    for a in range(n):
        scaled = x[a] * lead if order == 2 else None
        for k0 in range(0, kk, rows):
            slab = t4[a, k0 : k0 + rows]
            k1 = k0 + len(slab)
            np.matmul(slab.reshape(-1, n), x, out=right[a, k0 * n : k1 * n])
            if order == 0:
                continue
            pk = np.matmul(x, slab, out=part[: k1 - k0])
            corner[a] += lead[k0:k1] @ pk
            if order == 2:
                pk *= x[a]
                tail[k0:k1] += pk
                both += np.matmul(scaled[k0:k1], slab.reshape(k1 - k0, -1), out=image)
    shape = (n,) * (tensor.ndim - 1)
    if order < 2:
        return right.reshape(shape), corner, None, None
    return right.reshape(shape), corner, tail.reshape(shape[:-1]), both.reshape(n, n)


def _symmetric_sum(pairs: list, n: int) -> np.ndarray:
    """sum_i g_i (B_i + B_i^T) over the (g_i, B_i) of `pairs`, n x n blocks
    added in order (the ordered slot pairs (s, t) and (t, s)); exactly
    symmetric.  The first term is written in place and the others are added
    through one n x n scratch buffer, with the roundings of accumulating into
    zeros (0 + y = y) and no temporary per term."""
    if not pairs:
        return np.zeros((n, n))
    (g, block), *rest = pairs
    hess = block + block.T
    hess *= g
    scratch = np.empty((n, n)) if rest else None
    for g, block in rest:
        np.add(block, block.T, out=scratch)
        scratch *= g
        hess += scratch
    return hess


def derivatives(h: Hamiltonian, x, order: int) -> tuple:
    """(energy,), (energy, gradient) or (energy, gradient, Hessian) at x for
    order 0, 1 or 2, from R, D, Q and B of the module docstring.

    The dense Hessian is built at any n; `hessian` is the entry point capped
    at the dense-Hessian dimension.
    """
    if order not in (0, 1, 2):
        raise ArgumentError(f"derivative order {order} must be 0, 1 or 2")
    x = _check_radius(h, x)
    n = h.n
    val = h.mixture.h * float(np.sum(x))
    grad = np.full(n, h.mixture.h) if order >= 1 else None
    pairs = []  # (g, Hessian block (s, t)) for every slot pair s < t
    for p in h.mixture.ps:
        g = _scale(h.mixture, p, n)
        if g == 0.0:
            continue
        tensor = h.tensors[p]
        rest = [x] * (p - 1)
        if p == 2:
            right, corner, tail, both = tensor @ x, tensor, None, None
        else:
            right, corner, tail, both = _one_read(tensor, x, order)
        val += g * float(_contract(right, rest))
        if order == 0:
            continue
        for s in range(p - 1):
            grad += g * _contract(right, rest, keep=(s,))
        grad += g * (x @ corner)  # slot p-1 from D, at orders 1 and 2 alike
        if order == 1:
            continue
        for s in range(p):
            for t in range(s + 1, p):
                if t < p - 1:
                    block = _contract(right, rest, keep=(s, t))
                elif s == 0:
                    block = corner
                elif s == p - 2:
                    block = both
                else:
                    block = _contract(tail, rest, keep=(s - 1, p - 3))
                pairs.append((g, block))
    hess = _symmetric_sum(pairs, n) if order == 2 else None
    return (val, grad, hess)[: order + 1]


def energy(h: Hamiltonian, x) -> float:
    """H(x) = <h, x> + sum_p gamma_p N^{-(p-1)/2} <G^(p), x^{tensor p}>."""
    return derivatives(h, x, 0)[0]


def gradient(h: Hamiltonian, x) -> np.ndarray:
    """Exact analytic gradient."""
    return derivatives(h, x, 1)[1]


def hessian(h: Hamiltonian, x) -> np.ndarray:
    """Dense symmetric Hessian of the energy; refuses n above
    DEFAULT_DENSE_HESSIAN_CAP."""
    if h.n > DEFAULT_DENSE_HESSIAN_CAP:
        raise ResourceError(
            f"dense Hessian refused for n={h.n} > cap {DEFAULT_DENSE_HESSIAN_CAP}"
        )
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


def hessian_apply(h: Hamiltonian, x, w) -> np.ndarray:
    """Hessian-vector product g (G.w + w.G) of a p = 2 Hamiltonian, O(n)
    memory, available at any n: two plain products, so it reads G twice.
    A nonzero p > 2 term raises ResourceError; zero-weight terms are skipped."""
    x = _check_radius(h, x)
    w = _as_vector(h, w, "w")
    out = np.zeros(h.n)
    for p in h.mixture.ps:
        g = _scale(h.mixture, p, h.n)
        if g == 0.0:
            continue
        if p > 2:
            raise ResourceError(f"Hessian-vector product refused for the p={p} term: p = 2 only")
        out += g * (h.tensors[2] @ w)
        out += g * (w @ h.tensors[2])
    return out


def restricted_top_eigvec(h: Hamiltonian, x, basis):
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
    if np.max(np.abs(gram - np.eye(k))) > 1e-10:
        raise ArgumentError("basis is not orthonormal within 1e-10")

    images = np.stack([hessian_apply(h, x, b) for b in basis])
    small = basis @ images.T
    small = 0.5 * (small + small.T)
    vecs, vals = projected_top_eigvec(small)
    lam, coef = float(vals[0]), vecs[0]
    vec = coef @ basis
    vec /= np.linalg.norm(vec)
    residual = np.linalg.norm(small @ coef - lam * coef)
    if residual > 1e-8 * max(1.0, abs(lam)):
        raise NumericError(f"eigen-residual {residual:.3g} above 1e-8 tolerance")
    return vec, lam


def projected_top_eigvec(matrix: np.ndarray, orth=(), k: int = 1):
    """Top-k l2-unit eigenpairs of P M P for an exactly symmetric n x n M
    (a Hessian from `derivatives`), P projecting out span(orth): the one
    projected eigensolve.  Returns (vectors (k, n), eigenvalues (k,)) in
    descending order.

    P is applied, never formed: proj(a) = a - O^T (O a), O the orthonormal
    rows of orth, for a vector or a matrix's columns.  Up to DENSE_EIGH_CAP,
    or for k >= n - 1 (past ARPACK, or a frame step's m x m problem, which
    asks for all but one eigenpair), it is eigh of the symmetric part of
    proj(proj(M)^T); otherwise Lanczos from stream (0, "proj-eig", n), each
    matvec proj(M^T proj(w)), whose gemv M^T.w splits its threads over whole
    output entries.  Both gave the same bits at one and two BLAS threads
    (dense: n <= 144, spans of up to 20 vectors; Lanczos: n = 256 to 2048)."""
    n = len(matrix)
    ortho = orthonormal_rows(orth, n)

    def proj(a):
        return a - ortho.T @ (ortho @ a) if ortho.size else a

    if n <= DENSE_EIGH_CAP or k >= n - 1:
        pmp = proj(proj(matrix).T)
        vals, vecs = np.linalg.eigh(0.5 * (pmp + pmp.T))
    else:
        from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

        op = LinearOperator((n, n), matvec=lambda w: proj(matrix.T @ proj(np.asarray(w).ravel())), dtype=float)
        try:
            vals, vecs = eigsh(op, k=k, which="LA", v0=rng.stream(0, "proj-eig", n).standard_normal(n))
        except ArpackError as exc:  # pragma: no cover
            raise NumericError(f"projected eigensolve did not converge: {exc}") from exc
    order = np.argsort(vals)[::-1][:k]
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
