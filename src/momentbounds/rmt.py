"""Monte Carlo verification against Haar-random compact-group matrices.

The eigenangles of a Haar-distributed special orthogonal or unitary
matrix, rescaled so the mean angular spacing is one, play the role of
the scaled low-lying zeros: the linear statistic

    Z = sum_j phi(theta_j * dim / (2 pi))

has, as the dimension grows, exactly the mean and centered moments the
analytic formulas predict, where they are proven: for SO(2N) and
SO(2N+1) the split-family moment with its signed correction term, for
transforms supported within 1/(n-1) at order n; for U(N) the Gaussian
moment, for transforms supported within 2/n (Hughes and Rudnick,
J. Phys. A 36, 2003).  Outside those ranges no limit is predicted.
This module samples ensembles, forms Z, takes its empirical centered
moments from the centered samples with batch-means standard errors, and
reports z-scores against the predictions.  At a finite dimension the
free eigenangles form a determinantal process, so the exact law of Z is
computable too (:func:`finite_n_moments`); its distance from the limit
is the bias a comparison allows for beyond the sampling error.

Each matrix is sampled as its N free eigenangles in [0, pi], from
their cosines.  For SO(2N) and SO(2N+1) these form a Jacobi ensemble,
which Killip and Nenciu (IMRN 2004) realize as the spectrum of an N x N
tridiagonal matrix of independent Beta variables, so no matrix of the
group is formed.  Unitary angles come from the same authors' CMV model:
the Haar measure on U(N) has independent Verblunsky coefficients and a
five-diagonal CMV matrix C, and the cosines of its angles are the
spectrum of the banded Hermitian matrix (C + C*)/2.  The tests check
both samplers against dense QR samplers.

Batches own independent random substreams derived from (seed, batch
index), so results are bitwise reproducible no matter how batches are
scheduled across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import SymmetryGroup
from .moments import (
    MomentRequest,
    SupportRegimeError,
    centered_moment,
    double_factorial,
    support_within,
)
from .quadrature import legendre_rule
from .testfunc import TestFunction, sigma2

_EIG_UNIT_TOL = 1e-8  # sampled cosines must lie in [-1, 1] up to this


@dataclass(frozen=True)
class EnsembleSpec:
    """Monte Carlo configuration.

    ``half_dim`` is N in SO(2N) / SO(2N+1) and the full dimension for
    U(N).
    """

    group: SymmetryGroup
    half_dim: int
    samples: int
    seed: int

    def __post_init__(self):
        if self.half_dim < 1:
            raise ValueError("half_dim must be >= 1")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")

    @property
    def dim(self) -> int:
        return _spectrum_rule(self.group, self.half_dim)[2]


@dataclass(frozen=True)
class EmpiricalMoments:
    """Empirical mean and centered moments of the linear statistic."""

    mean: float
    centered: dict[int, float]
    std_errors: dict[int, float]
    mean_std_error: float
    sample_count: int


# (a, b) of the Jacobi weight (1 - cos)^a (1 + cos)^b of the free angles' cosines
_JACOBI_WEIGHTS = {SymmetryGroup.SO_EVEN: (-0.5, -0.5), SymmetryGroup.SO_ODD: (0.5, -0.5)}


def _jacobi_cosines(
    group: SymmetryGroup, n: int, rng: np.random.Generator, count: int
) -> np.ndarray:
    """Ascending cosines (count, N) of the free eigenangles of SO(2N) or
    SO(2N+1): half the spectrum of the Killip-Nenciu beta = 2 Jacobi matrix."""
    # imported here so the bound commands never load scipy
    from scipy.linalg.lapack import dsterf

    a, b = _JACOBI_WEIGHTS[group]
    k = np.arange(2 * n - 1)
    even = k % 2 == 0
    s = np.where(even, (2 * n - k - 2) / 2 + a + 1, (2 * n - k - 3) / 2 + a + b + 2)
    t = np.where(even, (2 * n - k - 2) / 2 + b + 1, (2 * n - k - 1) / 2)
    # column j + 2 holds alpha_j; alpha_{-2} = alpha_{-1} = alpha_{2N-1} = -1
    alpha = np.full((count, 2 * n + 2), -1.0)
    alpha[:, 2:-1] = 1.0 - 2.0 * rng.beta(s, t, size=(count, 2 * n - 1))
    # alpha_{2k-2}, alpha_{2k-1}, alpha_{2k}, alpha_{2k+1} for k = 0..N-1
    am2, am1, a0, ap1 = (alpha[:, j : j + 2 * n : 2] for j in range(4))
    diag = (1.0 - am1) * a0 - (1.0 + am1) * am2
    # the N-th off-diagonal is 0 (alpha_{2N-1} = -1); dsterf wants max(N - 1, 1)
    off = np.sqrt((1.0 - am1) * (1.0 - a0**2) * (1.0 + ap1))[:, : max(n - 1, 1)]
    cos = np.empty((count, n))
    for i in range(count):
        cos[i], info = dsterf(diag[i], off[i])
        if info != 0:
            raise ArithmeticError(f"tridiagonal eigen-solve failed (info={info})")
    cos *= 0.5
    return cos


def _cue_verblunsky(n: int, rng: np.random.Generator, count: int) -> np.ndarray:
    """Verblunsky coefficients (count, N) of the Killip-Nenciu CMV model of U(N):
    independent, rotation invariant, |alpha_k|^2 ~ Beta(1, N - k - 1) for
    k < N - 1 and alpha_{N-1} on the unit circle."""
    modulus = np.sqrt(rng.beta(1.0, np.arange(n - 1, 0, -1.0), size=(count, n - 1)))
    alpha = np.exp(2j * math.pi * rng.random((count, n)))
    alpha[:, :-1] *= modulus
    return alpha


def _cmv_cosines(alpha: np.ndarray) -> np.ndarray:
    """Ascending spectra (count, N) of Re C = (C + C*)/2, the cosines of the
    eigenangles of the CMV matrices C = L M with these Verblunsky coefficients.

    L = Theta_0 + Theta_2 + ... and M = 1 + Theta_1 + Theta_3 + ... are
    block diagonal in Theta_k = [[conj alpha_k, rho_k], [rho_k, -alpha_k]],
    rho_k = sqrt(1 - |alpha_k|^2), cut to N x N (rho_{N-1} = 0 decouples
    the rest).  Both are symmetric tridiagonal, so C is pentadiagonal and
    only the upper bands of Re C are formed, in LAPACK band storage.
    """
    # imported here so the bound commands never load scipy
    from scipy.linalg.lapack import zhbevd

    count, n = alpha.shape
    rho = np.sqrt(np.maximum(1.0 - np.abs(alpha[:, :-1]) ** 2, 0.0))
    even = np.arange(n) % 2 == 0
    # -alpha_{i-1}, with the 1 of M at i = 0
    shifted = np.concatenate([np.ones((count, 1)), -alpha[:, :-1]], axis=1)
    dl = np.where(even, alpha.conj(), shifted)  # diagonals of L and M
    dm = np.where(even, shifted, alpha.conj())
    el = np.where(even[:-1], rho, 0.0)  # off-diagonals: L pairs (2k, 2k+1), M (2k+1, 2k+2)
    em = np.where(even[:-1], 0.0, rho)
    kd = min(2, n - 1)
    band = np.zeros((count, kd + 1, n), dtype=complex)  # band[kd + i - j, j] = (Re C)_ij
    band[:, kd] = (dl * dm).real
    if kd >= 1:
        upper = dl[:, :-1] * em + el * dm[:, 1:]  # C_{i,i+1}
        lower = el * dm[:, :-1] + dl[:, 1:] * em  # C_{i+1,i}
        band[:, kd - 1, 1:] = 0.5 * (upper + lower.conj())
    if kd >= 2:
        band[:, 0, 2:] = 0.5 * (el[:, :-1] * em[:, 1:] + el[:, 1:] * em[:, :-1])
    cos = np.empty((count, n))
    for i in range(count):
        cos[i], _, info = zhbevd(band[i], compute_v=0)
        if info != 0:
            raise ArithmeticError(f"banded eigen-solve failed (info={info})")
    return cos


def _spectrum_rule(group: SymmetryGroup, n: int) -> tuple[int, int, int]:
    """``(pair, forced, dim)`` of N free eigenangles: an SO free angle stands
    for its conjugate pair (pair = 2), SO(2N+1) adds its forced angle 0
    (forced = 1), U(N) has no pairs, and dim = pair * N + forced.  As phi
    is even, Z = pair * sum_j phi(theta_j dim / (2 pi)) + forced * phi(0)."""
    pair = 1 if group is SymmetryGroup.U else 2
    forced = int(group is SymmetryGroup.SO_ODD)
    return pair, forced, pair * n + forced


def sample_haar_batch(
    group: SymmetryGroup,
    half_dim: int,
    rng: np.random.Generator,
    count: int,
) -> np.ndarray:
    """Free eigenangles of ``count`` Haar matrices, (count, N), ascending in [0, pi]:
    one per SO conjugate pair, the forced 0 of SO(2N+1) left out, and for U(N)
    the |theta_j|, as the CMV model gives cosines only (:func:`_spectrum_rule`).
    A cosine past [-1, 1] beyond rounding raises ArithmeticError."""
    if count < 1:
        raise ValueError("count must be >= 1")
    EnsembleSpec(group, half_dim, count, 0)  # validates half_dim
    if group is SymmetryGroup.U:
        cos = _cmv_cosines(_cue_verblunsky(half_dim, rng, count))
    else:
        cos = _jacobi_cosines(group, half_dim, rng, count)
    if np.abs(cos).max() > 1.0 + _EIG_UNIT_TOL:
        raise ArithmeticError("cosine spectrum left the unit interval")
    return np.arccos(np.clip(cos[:, ::-1], -1.0, 1.0))


def linear_statistic(angles: np.ndarray, tf: TestFunction, group: SymmetryGroup) -> np.ndarray:
    """sum_j phi(theta_j * dim / (2 pi)) over the whole spectrum, from the N
    free eigenangles on the last axis (:func:`_spectrum_rule`)."""
    angles = np.asarray(angles, dtype=float)
    pair, forced, dim = _spectrum_rule(group, angles.shape[-1])
    z = pair * np.sum(tf.phi(angles * (dim / (2.0 * math.pi))), axis=-1)
    return z + forced * tf.phi0


def _batch_statistic(args) -> np.ndarray:
    """Z of one batch's samples, in draw order, from the batch's own substream."""
    spec, tf, batch_size, stream = args
    rng = np.random.default_rng(stream)
    angles = sample_haar_batch(spec.group, spec.half_dim, rng, batch_size)
    return linear_statistic(angles, tf, spec.group)


def empirical_moments(
    spec: EnsembleSpec,
    tf: TestFunction,
    n_max: int,
    workers: int = 1,
) -> EmpiricalMoments:
    """Mean and centered moments of Z up to order ``n_max``.

    The sample set is split into ~sqrt(samples) batches, at least two, so
    fewer than 4 samples are refused, as is a worker count below 1.  Each
    batch is one :func:`sample_haar_batch` call on its own deterministic
    substream, however many samples it holds: for U(N) every beta draw of
    a batch precedes its uniform draws.  Each batch contributes one point
    to the batch-means standard errors.  Batches may be mapped to worker
    processes; their samples are joined in batch order either way.  The
    samples are centered twice, at their mean and then at the mean of
    the residuals (the corrected two-pass form), before any power is
    taken, so the moments do not cancel however large the mean is
    against the spread of Z.  Holding the samples costs 8 bytes each.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    if spec.samples < 4:
        raise ValueError(f"samples must be >= 4 for two batches, got {spec.samples}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    n_batches = math.isqrt(spec.samples)
    base, remainder = divmod(spec.samples, n_batches)
    streams = np.random.SeedSequence(spec.seed).spawn(n_batches)
    jobs = [(spec, tf, base + (i < remainder), streams[i]) for i in range(n_batches)]

    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(_batch_statistic, jobs, chunksize=4))
    else:
        batches = [_batch_statistic(job) for job in jobs]

    z = np.concatenate(batches)
    mean = z.mean()
    dev = z - mean
    correction = dev.mean()
    dev -= correction
    orders = range(2, n_max + 1)
    centered = {k: float(np.mean(dev**k)) for k in orders}

    parts = np.split(dev, np.cumsum([len(b) for b in batches[:-1]]))
    root_b = math.sqrt(len(parts))
    return EmpiricalMoments(
        mean=float(mean + correction),
        centered=centered,
        std_errors={
            k: float(np.std([np.mean(p**k) for p in parts], ddof=1) / root_b) for k in orders
        },
        mean_std_error=float(np.std([p.mean() for p in parts], ddof=1) / root_b),
        sample_count=len(z),
    )


def predicted_moment(tf: TestFunction, group: SymmetryGroup, order: int) -> float:
    """Limiting centered moment of Z for the sampled ensemble.

    SO ensembles: the split-family formula carrying the signed
    correction term, for transforms supported within 1/(order - 1).
    U ensembles: Gaussian moments with the unitary variance (half the
    orthogonal pairwise variance), for transforms supported within
    2/order.  Beyond either range raises :class:`SupportRegimeError`.
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    if group is not SymmetryGroup.U:
        return centered_moment(MomentRequest((tf,) * order, group, regime="with_R")).value
    if not support_within(tf.support_bound, 2.0 / order):
        raise SupportRegimeError(
            f"U(N) moments are Gaussian only for supports within 2/n = {2.0 / order:.6g} "
            f"(n={order}); the support is {tf.support_bound:.6g}"
        )
    if order % 2 == 1:
        return 0.0
    variance = 0.5 * sigma2(tf, tf)
    return double_factorial(order - 1) * variance ** (order // 2)


def _gram_nodes(tf: TestFunction, spec: EnsembleSpec, n_max: int) -> int:
    """Gauss-Legendre nodes on [-pi, pi] for the integrals of :func:`finite_n_moments`.

    f^k cos(d theta), k <= n_max, d <= 2N, is entire of exponential type
    at most T = 2N + n_max * support * dim; the rule of n nodes resolves
    it on [-pi, pi] once 2n passes pi T, and a margin takes the tail.  The
    count is even, so no node sits at theta = 0.
    """
    exp_type = 2 * spec.half_dim + n_max * tf.support_bound * spec.dim
    return 2 * (math.ceil(exp_type * math.pi / 4.0) + 16)


def finite_n_moments(
    tf: TestFunction, group: SymmetryGroup, half_dim: int, n_max: int
) -> tuple[float, dict[int, float]]:
    """Exact mean and centered moments (orders 2..n_max) of Z at this dimension.

    The N free eigenangles form a determinantal projection process on
    the span of an orthonormal basis psi_j, j < N: sqrt(2/pi) cos(j theta)
    (psi_0 = 1/sqrt(pi)) on [0, pi] for SO(2N), sqrt(2/pi) sin((j + 1/2)
    theta) on [0, pi] for SO(2N+1), e^{ij theta}/sqrt(2 pi) on (-pi, pi)
    for U(N).  Z is a sum of f(theta) = pair * phi(theta dim / (2 pi)) over
    them plus forced * phi(0) (:func:`_spectrum_rule`).  So E exp(tZ) =
    det G(t), G(t)_jl = <psi_j, e^{tf} psi_l>, and the cumulants are traces of products of the Gram
    matrices M_k of f^k (Soshnikov, Ann. Probab. 2002):

        log det G(t) = sum_m (-1)^(m+1)/m Tr (sum_k t^k M_k / k!)^m.

    f is even, so by product-to-sum M_k is c_|j-l| + c_(j+l) (SO(2N),
    row and column 0 scaled by 1/sqrt 2), c_|j-l| - c_(j+l+1) (SO(2N+1))
    or c_|j-l| (U(N)), with c_d = (1/2 pi) int_{-pi}^{pi} f^k cos(d theta).
    Shifting f by a constant s moves Z by N s and no higher cumulant, so
    f is centered first and the traces do not cancel.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    spec = EnsembleSpec(group, half_dim, 1, 0)
    pair, forced, dim = _spectrum_rule(group, half_dim)
    nodes, weights = legendre_rule(_gram_nodes(tf, spec, n_max))
    # the integrands are even: keep the nodes in (0, pi], where the 1/(2 pi)
    # of c_d, the pi of the node map and the fold cancel
    theta, weights = math.pi * nodes[nodes > 0], weights[nodes > 0]
    f = pair * tf.phi(theta * (dim / (2.0 * math.pi)))
    shift = float(weights @ f)  # c_0 of f
    orders = np.arange(1, n_max + 1)
    # cos_moments[k - 1, d] = c_d of (f - shift)^k
    cos_moments = ((f - shift) ** orders[:, None] * weights) @ np.cos(
        np.outer(theta, np.arange(2 * half_dim + 1))
    )
    j = np.arange(half_dim)
    gram = cos_moments[:, np.abs(j[:, None] - j)]
    if group is SymmetryGroup.SO_EVEN:
        gram += cos_moments[:, j[:, None] + j]
        gram[:, 0] *= math.sqrt(0.5)
        gram[:, :, 0] *= math.sqrt(0.5)
    elif group is SymmetryGroup.SO_ODD:
        gram -= cos_moments[:, j[:, None] + j + 1]
    factorials = np.cumprod(orders)
    # t^k coefficients of G(t) - I, none at k = 0
    series = np.concatenate([np.zeros((1, half_dim, half_dim)), gram / factorials[:, None, None]])
    log_det = np.zeros(n_max + 1)
    power = series  # t^k coefficients of (G(t) - I)^m
    for m in range(1, n_max + 1):
        log_det += (-1) ** (m + 1) / m * np.trace(power, axis1=1, axis2=2)
        power = np.stack(
            [sum(series[k] @ power[d - k] for k in range(d + 1)) for d in range(n_max + 1)]
        )
    kappa = log_det * np.concatenate([[1.0], factorials])
    centered = [1.0, 0.0]  # mu_n = sum_{i >= 2} C(n-1, i-1) kappa_i mu_{n-i}
    for n in range(2, n_max + 1):
        terms = (math.comb(n - 1, i - 1) * kappa[i] * centered[n - i] for i in range(2, n + 1))
        centered.append(sum(terms))
    mean = kappa[1] + half_dim * shift + forced * tf.phi0
    return float(mean), {k: float(centered[k]) for k in range(2, n_max + 1)}


@dataclass(frozen=True)
class MomentComparison:
    """One empirical-vs-predicted comparison at a single order."""

    order: int
    empirical: float
    predicted: float
    std_error: float
    allowance: float
    z_score: float

    @property
    def passed(self) -> bool:
        return bool(abs(self.empirical - self.predicted) <= self.allowance)

    def record(self) -> dict:
        return {
            "order": self.order,
            "empirical": float(self.empirical),
            "predicted": float(self.predicted),
            "std_error": float(self.std_error),
            "allowance": float(self.allowance),
            "z_score": float(self.z_score),
            "passed": self.passed,
        }


def verify_moments(
    spec: EnsembleSpec,
    tf: TestFunction,
    orders: tuple[int, ...],
    workers: int = 1,
) -> list[MomentComparison]:
    """Empirical moments against the limit predictions.

    The acceptance band is 3 standard errors plus the exact bias of this
    dimension, |finite_n_moments - predicted| at each order.  An order
    with no prediction raises :class:`SupportRegimeError`, and a repeated
    order ValueError, before any sampling.
    """
    repeated = [order for order in orders if orders.count(order) > 1]
    if repeated:
        raise ValueError(f"order {repeated[0]} is repeated in orders {list(orders)}")
    predictions = [(order, predicted_moment(tf, spec.group, order)) for order in orders]
    n_max = max(orders)
    _, exact = finite_n_moments(tf, spec.group, spec.half_dim, n_max)
    emp = empirical_moments(spec, tf, n_max, workers=workers)
    out = []
    for order, predicted in predictions:
        se = emp.std_errors[order]
        allowance = 3.0 * se + abs(exact[order] - predicted)
        z = (emp.centered[order] - predicted) / se if se > 0 else float("nan")
        out.append(
            MomentComparison(order, emp.centered[order], predicted, se, allowance, z)
        )
    return out
