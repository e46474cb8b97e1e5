"""Interpolation ingredients: cascade values, the Gaussian quadratic
log-moment, the matrix recursion behind the free-energy bound, and the
overlap-constrained grand-maximum bound assembler, which prices the
composite profile zeta_under.splice(q0, 1, beta kappa zeta)."""

import math
from dataclasses import dataclass

import numpy as np

from ..ensembles import CorrelationLadder, OverlapLadder, TreeShape, check_depths, kappa_level, m_matrix
from ..errors import ArgumentError, DomainError
from ..mixture import Mixture, xi_eval
from .spherical import b_profile, parisi_sp, theta, xi2_over_b_integral
from .zeta import PiecewiseZeta


def cascade_value(
    shape: TreeShape,
    pladder: CorrelationLadder,
    qladder: OverlapLadder,
    zeta: PiecewiseZeta,
    m: Mixture,
) -> float:
    """(K/2) sum_d kappa(q_d) zeta_d (theta(q_{d+1}) - theta(q_d)) with
    theta anchored at q_0; zeta must be piecewise constant on the q-knots
    with strictly increasing levels 0 < zeta_0 < ... < zeta_{D-1} < 1."""
    check_depths(shape, pladder, qladder)
    levels = [zeta(q) for q in qladder.qs[:-1]]
    if any(a >= b for a, b in zip(levels, levels[1:])) or (
        levels and (levels[0] <= 0.0 or levels[-1] >= 1.0)
    ):
        raise ArgumentError(f"zeta levels {levels} must satisfy 0 < z_0 < ... < z_(D-1) < 1")
    qs = qladder.qs
    kz = kappa_zeta_profile(shape, pladder, qladder, levels)
    total = 0.0
    for d in range(shape.depth):
        total += kz(qs[d]) * (theta(m, qs[0], qs[d + 1]) - theta(m, qs[0], qs[d]))
    return 0.5 * shape.n_leaves * total


def gaussian_quadratic_logmoment(lam, sig, zeta: float, v, y) -> float:
    """(1/zeta) log E exp( zeta/2 [ (y+eta)' Lam^{-1} (y+eta) - 2 v'(y+eta) ] )
    for eta ~ N(0, Sigma); requires Lam, Sigma, and Lam - zeta Sigma positive
    definite."""
    lam = np.asarray(lam, dtype=float)
    sig = np.asarray(sig, dtype=float)
    v = np.asarray(v, dtype=float)
    y = np.asarray(y, dtype=float)
    if zeta <= 0:
        raise ArgumentError(f"zeta={zeta} must be positive")
    shifted = lam - zeta * sig
    for name, mat in (("Lambda", lam), ("Sigma", sig), ("Lambda - zeta Sigma", shifted)):
        if np.linalg.eigvalsh(0.5 * (mat + mat.T)).min() <= 0:
            raise DomainError(f"{name} is not positive definite")
    inv = np.linalg.inv(shifted)
    quad_term = 0.5 * (y @ inv @ y - 2.0 * v @ lam @ inv @ y)
    logdet = 0.5 / zeta * (np.linalg.slogdet(lam)[1] - np.linalg.slogdet(shifted)[1])
    corr = 0.5 * v @ (zeta * sig) @ inv @ lam @ v
    return float(quad_term + logdet + corr)


@dataclass
class LambdaSequence:
    """Matrices Lambda_0..Lambda_D of the backward recursion and their
    per-level log-det increments."""

    matrices: list
    logdet_increments: list

    @property
    def depth(self) -> int:
        return len(self.matrices) - 1


@dataclass
class LambdaRecursionResult:
    sequence: LambdaSequence
    value: float  # E Gamma_0 at the shifted field point, exact closed form
    bound: float  # (K/2)[((h+(lam-B)a)^2 + xi'(q0))/B_kz(q0) + int xi''/B_kz - B a^2]


def lambda_recursion(
    B: float,
    zeta: PiecewiseZeta,
    shape: TreeShape,
    pladder: CorrelationLadder,
    qladder: OverlapLadder,
    m: Mixture,
    a: float = 0.0,
    lam: float = 0.0,
) -> LambdaRecursionResult:
    """Backward recursion Lambda_D = B I, Lambda_d = Lambda_{d+1} -
    zeta_d (xi'(q_{d+1}) - xi'(q_d)) M^{d+1}, with the positivity check
    Lambda_d >= B_{kappa zeta}(q_d) I and the exact value of the recursive
    Gaussian integral; the value is asserted against its scalar upper bound.
    """
    check_depths(shape, pladder, qladder)
    depth, K = shape.depth, shape.n_leaves
    qs = qladder.qs
    levels = [zeta(q) for q in qs[:-1]]
    kz = kappa_zeta_profile(shape, pladder, qladder, levels)
    if B <= kz.integral_xi2(m, qs[0], 1.0):
        raise DomainError("(B, kappa zeta) infeasible: B <= int xi'' kappa zeta")

    mats = [None] * (depth + 1)
    mats[depth] = B * np.eye(K)
    for d in range(depth - 1, -1, -1):
        if levels[d] == 0.0:
            mats[d] = mats[d + 1].copy()
        else:
            dxi = xi_eval(m, qs[d + 1], 1) - xi_eval(m, qs[d], 1)
            mats[d] = mats[d + 1] - levels[d] * dxi * m_matrix(shape, pladder, d + 1)
    for d in range(depth + 1):
        floor = b_profile(B, kz, m, qs[d])
        min_eig = float(np.linalg.eigvalsh(mats[d]).min())
        if min_eig < floor - 1e-10:
            raise DomainError(
                f"Lambda_{d} lost positivity: min eig {min_eig:.6g} < B_kz(q_{d}) = {floor:.6g}"
            )

    ones = np.ones(K)
    logdets = []
    for d in range(depth):
        if levels[d] == 0.0:
            logdets.append(0.0)
        else:
            inc = np.linalg.slogdet(mats[d + 1])[1] - np.linalg.slogdet(mats[d])[1]
            logdets.append(inc / levels[d])

    shifted_field = m.h + (lam - B) * a
    inv0 = np.linalg.inv(mats[0])
    value = 0.5 * (
        shifted_field**2 * float(ones @ inv0 @ ones)
        + xi_eval(m, qs[0], 1) * float(np.trace(inv0 @ m_matrix(shape, pladder, 1)))
        + sum(logdets)
        - K * B * a**2
    )

    bound = 0.5 * K * (
        (shifted_field**2 + xi_eval(m, qs[0], 1)) / b_profile(B, kz, m, qs[0])
        + xi2_over_b_integral(B, kz, m, qs[0])
        - B * a**2
    )
    if value > bound + 1e-8:
        raise DomainError(f"recursion value {value:.10g} exceeds its bound {bound:.10g}")
    return LambdaRecursionResult(LambdaSequence(mats, logdets), value, bound)


def kappa_zeta_profile(shape, pladder, qladder, levels) -> PiecewiseZeta:
    """kappa(q) zeta(q) on [q0, 1) as a step profile (0 below q0), from the
    zeta levels at the knots q_0..q_{D-1}."""
    return PiecewiseZeta.on_knots(
        qladder.qs[: shape.depth],
        [kappa_level(shape, pladder, d + 1) * levels[d] for d in range(shape.depth)],
    )


def interpolation_bound_sp(
    B: float,
    zeta_under: PiecewiseZeta,
    zeta: PiecewiseZeta,
    beta: float,
    eta: float,
    shape: TreeShape,
    pladder: CorrelationLadder,
    qladder: OverlapLadder,
    m: Mixture,
    C: float,
    n: int,
) -> float:
    """K P(B, zeta_under + beta kappa zeta) + C K^2 (beta eta + B eta +
    log(1/eta)/beta + 1/sqrt(N)); C is a caller-supplied constant, no
    certified claim is made about it."""
    if not (beta > 0 and B >= 1.0 / beta):
        raise DomainError(f"need beta > 0 and B >= 1/beta, got B={B}, beta={beta}")
    if not 0 < eta < math.inf:
        raise DomainError(f"need a positive finite eta, got eta={eta}")
    composite = composite_profile(zeta_under, zeta, beta, shape, pladder, qladder)
    K = shape.n_leaves
    main = K * parisi_sp(B, composite, m)
    err = C * K**2 * (beta * eta + B * eta + math.log(1.0 / eta) / beta + 1.0 / math.sqrt(n))
    return main + err


def composite_profile(
    zeta_under: PiecewiseZeta,
    zeta: PiecewiseZeta,
    beta: float,
    shape: TreeShape,
    pladder: CorrelationLadder,
    qladder: OverlapLadder,
) -> PiecewiseZeta:
    """zeta_under on [0, q0) glued to beta kappa zeta on [q0, 1), the
    latter from zeta's levels at the q-knots."""
    levels = [beta * zeta(q) for q in qladder.qs[:-1]]
    return zeta_under.splice(qladder.qs[0], 1.0, kappa_zeta_profile(shape, pladder, qladder, levels))
