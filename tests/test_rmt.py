"""Haar sampling, linear statistics, empirical moments."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg.lapack

from momentbounds import (
    EnsembleSpec,
    GeneratorSpec,
    SupportRegimeError,
    SymmetryGroup,
    empirical_moments,
    linear_statistic,
    make_from_generator,
    make_naive,
    predicted_moment,
    sigma2,
    verify_moments,
)
from momentbounds import rmt
from momentbounds.rmt import finite_n_moments, sample_haar_batch

G = SymmetryGroup


# ---- the dense reference sampler (the oracle) ----


def _haar_orthogonal_block(dim, rng, count):
    """Haar special-orthogonal matrices, stacked (count, dim, dim).

    Gaussian + QR with the signs fixed so the triangular factor has a
    positive diagonal (Haar on the full orthogonal group), then one
    column flipped wherever the determinant is -1.
    """
    a = rng.standard_normal((count, dim, dim))
    q, r = np.linalg.qr(a)
    diag = np.einsum("bii->bi", r)
    q = q * np.where(diag < 0, -1.0, 1.0)[:, None, :]
    q[np.linalg.det(q) < 0, :, 0] *= -1.0
    return q


def _haar_unitary_block(dim, rng, count):
    """Haar unitary matrices, stacked (count, dim, dim), by Gaussian QR
    with the phases fixed so the triangular factor has a positive diagonal."""
    a = (
        rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))
    ) / math.sqrt(2.0)
    q, r = np.linalg.qr(a)
    diag = np.einsum("bii->bi", r)
    return q * (diag / np.abs(diag)).conj()[:, None, :]


def _unitary_angles(q):
    """Sorted eigenangles of unitary matrices: i (I + Q)^{-1} (I - Q) is
    Hermitian with eigenvalues tan(theta / 2)."""
    eye = np.eye(q.shape[-1])
    h = 1j * np.linalg.solve(eye + q, eye - q)
    h = 0.5 * (h + np.conj(np.swapaxes(h, 1, 2)))
    return 2.0 * np.arctan(np.linalg.eigvalsh(h))


def _dense_cmv(alpha):
    """The N x N CMV matrix L M of one row of Verblunsky coefficients, built
    block by block at size N + 1 and cut (rho_{N-1} = 0 decouples the rest)."""
    n = alpha.size
    factors = [np.zeros((n + 1, n + 1), dtype=complex) for _ in range(2)]
    factors[1][0, 0] = 1.0
    for k, a in enumerate(alpha):
        rho = math.sqrt(max(1.0 - abs(a) ** 2, 0.0))
        factors[k % 2][k : k + 2, k : k + 2] = [[np.conj(a), rho], [rho, -a]]
    return (factors[0] @ factors[1])[:n, :n]


def _angles_direct(q):
    """Sorted eigenangles from a general dense eigen-solve."""
    eigenvalues = np.linalg.eigvals(q)
    assert np.abs(np.abs(eigenvalues) - 1.0).max() < 1e-8
    return np.sort(np.angle(eigenvalues), axis=1)


def _full_spectrum(group, free):
    """The whole spectrum, sorted, rebuilt from sampled free angles: each SO
    angle with its conjugate, plus the forced 0 of SO(2N+1); U angles as they are."""
    if group is G.U:
        return free
    parts = [-free, free]
    if group is G.SO_ODD:
        parts.insert(1, np.zeros(free.shape[:-1] + (1,)))
    return np.sort(np.concatenate(parts, axis=-1), axis=-1)


def _trace_power_stats(angles, j):
    """Mean and variance of sum_k cos(j theta_k), each with its standard error."""
    z = np.cos(j * angles).sum(axis=1)
    n = z.size
    mean, var = z.mean(), z.var()
    fourth = np.mean((z - mean) ** 4)
    return mean, math.sqrt(var / n), var, math.sqrt(max(fourth - var**2, 0.0) / n)


def test_so2_angles_come_in_conjugate_pairs(rng, naive_third):
    # SO(2) has one free angle; the statistic counts it once for +theta
    # and once for -theta, at dim 2
    for _ in range(5):
        angles = sample_haar_batch(G.SO_EVEN, 1, rng, 1)[0]
        assert angles.shape == (1,) and 0.0 <= angles[0] <= math.pi
        pair = np.array([-angles[0], angles[0]])
        expected = float(np.sum(naive_third.phi(pair / math.pi)))
        z = linear_statistic(angles, naive_third, G.SO_EVEN)
        assert z == pytest.approx(expected, rel=1e-15)


def test_so_odd_forced_zero_angle(rng, naive_third):
    # every SO(2N+1) matrix has the eigenangle 0 and N conjugate pairs; the
    # sampler leaves the forced 0 out, and the statistic adds phi(0) for it
    for n in (1, 3, 8):
        dense = _angles_direct(_haar_orthogonal_block(2 * n + 1, rng, 20))
        assert np.abs(dense[:, n]).max() < 1e-7
        assert np.abs(dense[:, :n] + dense[:, : n : -1]).max() < 1e-12
        angles = sample_haar_batch(G.SO_ODD, n, rng, 1)[0]
        assert angles.shape == (n,) and angles.min() > 0.0
        pairs = 2.0 * naive_third.phi(angles * ((2 * n + 1) / (2.0 * math.pi))).sum()
        z = linear_statistic(angles, naive_third, G.SO_ODD)
        assert z - pairs == pytest.approx(naive_third.phi0, rel=1e-12)


def test_sampled_matrices_are_special_orthogonal(rng):
    for dim in (5, 8):
        q = _haar_orthogonal_block(dim, rng, 40)
        eye = np.eye(dim)
        assert np.abs(np.swapaxes(q, 1, 2) @ q - eye).max() < 1e-12
        assert np.linalg.det(q) == pytest.approx(1.0, abs=1e-10)


def test_angles_sorted_in_principal_range(rng):
    # N free angles per matrix, ascending in [0, pi], for every group
    for group, n in ((G.SO_EVEN, 6), (G.SO_ODD, 6), (G.U, 9)):
        angles = sample_haar_batch(group, n, rng, 3)
        assert angles.shape == (3, n)
        assert np.all(np.diff(angles, axis=1) >= 0)
        assert angles.min() >= 0.0 and angles.max() <= math.pi


def test_symmetric_and_direct_extraction_agree():
    # the cosine spectrum of (Q + Q^T)/2 is the cosine of each eigenangle
    for dim in (14, 15):
        q = _haar_orthogonal_block(dim, np.random.default_rng(11), 25)
        cos = np.linalg.eigvalsh((q + np.swapaxes(q, 1, 2)) / 2.0)
        direct = np.sort(np.cos(_angles_direct(q)), axis=1)
        assert np.abs(cos - direct).max() < 1e-8


@pytest.mark.parametrize("n", [3, 10])
@pytest.mark.parametrize("group", [G.SO_EVEN, G.SO_ODD])
def test_tridiagonal_sampler_matches_dense_oracle(group, n):
    # At N = 3 the two groups differ (Var at j = 3 is ~4 in SO(6), ~3 in
    # SO(7); the mean at j = 7 is 0 against 1), so a wrong Jacobi weight fails.
    samples = 10_000
    dim = EnsembleSpec(group, n, 1, 0).dim
    fast = _full_spectrum(group, sample_haar_batch(group, n, np.random.default_rng(31), samples))
    dense = _angles_direct(_haar_orthogonal_block(dim, np.random.default_rng(32), samples))
    for j in (1, 2, 3, 4, 5, 2 * n + 1):
        m1, se_m1, v1, se_v1 = _trace_power_stats(fast, j)
        m2, se_m2, v2, se_v2 = _trace_power_stats(dense, j)
        assert abs(m1 - m2) <= 5.0 * math.hypot(se_m1, se_m2), (j, m1, m2)
        assert abs(v1 - v2) <= 5.0 * math.hypot(se_v1, se_v2), (j, v1, v2)


@pytest.mark.parametrize("group", [G.SO_EVEN, G.SO_ODD])
def test_tridiagonal_sampler_diaconis_shahshahani(group):
    # E sum_k cos(j theta_k) = eta_j (1 for even j, else 0), variance j, for 2j <= N
    n = 10
    angles = _full_spectrum(group, sample_haar_batch(group, n, np.random.default_rng(41), 10_000))
    for j in range(1, n // 2 + 1):
        mean, se_mean, var, se_var = _trace_power_stats(angles, j)
        assert abs(mean - (1.0 if j % 2 == 0 else 0.0)) <= 5.0 * se_mean, (j, mean)
        assert abs(var - j) <= 5.0 * se_var, (j, var)


def test_cayley_unitary_angles_match_general_eigen_solve():
    q = _haar_unitary_block(40, np.random.default_rng(51), 600)
    assert np.abs(_unitary_angles(q) - _angles_direct(q)).max() < 1e-10


@pytest.mark.parametrize("n", [1, 2, 3, 7, 40])
def test_banded_cmv_spectrum_matches_dense_cmv(n):
    # the band of Re C built from alpha holds the cosines of the dense L M's angles
    alpha = rmt._cue_verblunsky(n, np.random.default_rng(n), 30)
    assert np.all(np.abs(alpha[:, :-1]) < 1.0)
    assert np.abs(np.abs(alpha[:, -1]) - 1.0).max() < 1e-15
    banded = rmt._cmv_cosines(alpha)
    for row, cos in zip(alpha, banded):
        c = _dense_cmv(row)
        assert np.abs(c @ c.conj().T - np.eye(n)).max() < 1e-12
        dense = np.sort(np.cos(np.angle(np.linalg.eigvals(c))))
        assert np.abs(cos - dense).max() < 1e-12


@pytest.mark.parametrize("n", [3, 10])
def test_cmv_sampler_matches_dense_oracle(n):
    samples = 10_000
    fast = sample_haar_batch(G.U, n, np.random.default_rng(33), samples)
    assert np.all((fast >= 0.0) & (fast <= math.pi)) and np.all(np.diff(fast, axis=1) >= 0)
    dense = _unitary_angles(_haar_unitary_block(n, np.random.default_rng(34), samples))
    for j in (1, 2, 3, 4, 5, n + 1):
        m1, se_m1, v1, se_v1 = _trace_power_stats(fast, j)
        m2, se_m2, v2, se_v2 = _trace_power_stats(dense, j)
        assert abs(m1 - m2) <= 5.0 * math.hypot(se_m1, se_m2), (j, m1, m2)
        assert abs(v1 - v2) <= 5.0 * math.hypot(se_v1, se_v2), (j, v1, v2)


def test_cmv_sampler_diaconis_shahshahani():
    # E sum_k cos(j theta_k) = 0 and Var = E |Tr U^j|^2 / 2 = min(j, N) / 2;
    # a wrong Beta parameter moves the plateau at j >= N
    n = 10
    angles = sample_haar_batch(G.U, n, np.random.default_rng(43), 10_000)
    for j in range(1, n + 3):
        mean, se_mean, var, se_var = _trace_power_stats(angles, j)
        assert abs(mean) <= 5.0 * se_mean, (j, mean)
        assert abs(var - min(j, n) / 2.0) <= 5.0 * se_var, (j, var)


@pytest.mark.parametrize("solution", [(np.full(4, 2.5), 0), (np.zeros(4), 3)])
def test_bad_tridiagonal_spectrum_is_refused(monkeypatch, solution):
    # a cosine outside [-1, 1] or a failed solve raises, never clips silently;
    # the sampler looks dsterf up in scipy's lapack module at call time
    monkeypatch.setattr(scipy.linalg.lapack, "dsterf", lambda d, e: solution)
    with pytest.raises(ArithmeticError):
        sample_haar_batch(G.SO_EVEN, 4, np.random.default_rng(0), 3)


@pytest.mark.parametrize("solution", [(np.full(4, 2.5), None, 0), (np.zeros(4), None, 3)])
def test_bad_banded_spectrum_is_refused(monkeypatch, solution):
    monkeypatch.setattr(scipy.linalg.lapack, "zhbevd", lambda ab, compute_v: solution)
    with pytest.raises(ArithmeticError):
        sample_haar_batch(G.U, 4, np.random.default_rng(0), 3)


def test_conjugation_by_permutation_leaves_statistic_unchanged(rng, naive_third):
    # similarity transforms preserve the spectrum, hence the statistic of
    # its nonnegative half, the free angles of SO(10)
    dim = 10
    q = _haar_orthogonal_block(dim, rng, 8)
    perm = np.random.default_rng(5).permutation(dim)
    p = np.eye(dim)[perm]

    a1 = _angles_direct(q)[:, dim // 2 :]
    a2 = _angles_direct(p @ q @ p.T)[:, dim // 2 :]
    s1 = [linear_statistic(a, naive_third, G.SO_EVEN) for a in a1]
    s2 = [linear_statistic(a, naive_third, G.SO_EVEN) for a in a2]
    assert s1 == pytest.approx(s2, abs=1e-8)


# (dim, pair, forced) of 8 free angles in each group
_EIGHT_FREE = {G.SO_EVEN: (16, 2, 0), G.SO_ODD: (17, 2, 1), G.U: (8, 1, 0)}


def test_linear_statistic_all_zero_angles(naive_third):
    # every angle at the origin: the statistic is dim * phi(0)
    for group, (dim, _, _) in _EIGHT_FREE.items():
        assert linear_statistic(np.zeros(8), naive_third, group) == pytest.approx(float(dim))


def test_linear_statistic_single_angle_scaling(naive_third):
    # one free angle at 2 pi / dim contributes phi(1) once per angle it stands for
    for group, (dim, pair, forced) in _EIGHT_FREE.items():
        angles = np.zeros(8)
        angles[0] = 2.0 * math.pi / dim
        expected = pair * (7 + float(naive_third.phi(1.0))) + forced
        assert linear_statistic(angles, naive_third, group) == pytest.approx(expected, rel=1e-12)


def test_linear_statistic_sums_the_last_axis(naive_third):
    batch = sample_haar_batch(G.SO_ODD, 4, np.random.default_rng(2), 6)
    values = linear_statistic(batch, naive_third, G.SO_ODD)
    assert values.shape == (6,)
    assert list(values) == [linear_statistic(row, naive_third, G.SO_ODD) for row in batch]


@pytest.mark.parametrize("group", [G.SO_EVEN, G.SO_ODD, G.U])
@pytest.mark.parametrize("tf", ["naive_third", "gen_sinx2"])
def test_linear_statistic_of_free_angles_sums_the_full_spectrum(request, group, tf):
    # the statistic of the N free angles is sum phi over the whole
    # spectrum rebuilt from them, at the scale of its length
    tf = request.getfixturevalue(tf)
    free = sample_haar_batch(group, 7, np.random.default_rng(8), 40)
    full = _full_spectrum(group, free)
    expected = np.sum(tf.phi(full * (full.shape[-1] / (2.0 * math.pi))), axis=-1)
    got = linear_statistic(free, tf, group)
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


def test_so_odd_zero_angle_shifts_mean_by_phi0(naive_third):
    spec = EnsembleSpec(G.SO_ODD, 6, 400, seed=9)
    emp = empirical_moments(spec, naive_third, 2)
    # leaving the forced angle out removes exactly phi(0) from every sample
    batch = sample_haar_batch(G.SO_ODD, 6, np.random.default_rng(1), 50)
    with_zero = linear_statistic(batch, naive_third, G.SO_ODD)
    full = _full_spectrum(G.SO_ODD, batch) * (spec.dim / (2.0 * math.pi))
    dropped = np.array([np.sum(naive_third.phi(a[a != 0.0])) for a in full])
    assert np.allclose(with_zero - dropped, naive_third.phi0, rtol=0, atol=1e-12)
    assert emp.sample_count == 400


def test_seed_determinism(naive_third):
    spec = EnsembleSpec(G.SO_EVEN, 5, 600, seed=123)
    a = empirical_moments(spec, naive_third, 4)
    b = empirical_moments(spec, naive_third, 4)
    assert a == b
    c = empirical_moments(EnsembleSpec(G.SO_EVEN, 5, 600, seed=124), naive_third, 4)
    assert a.mean != c.mean


@pytest.mark.parametrize("group", [G.SO_EVEN, G.SO_ODD, G.U])
def test_empirical_moments_do_not_depend_on_workers(group, naive_third):
    # batches own their substreams, so a process pool joins the same samples
    spec = EnsembleSpec(group, 6, 150, seed=9)
    one = empirical_moments(spec, naive_third, 4, workers=1)
    assert repr(empirical_moments(spec, naive_third, 4, workers=2)) == repr(one)


def test_empirical_matches_theory_small_dimension(naive_third):
    # N = 12 keeps this fast; the exact finite-N law carries the bias
    for group in (G.SO_EVEN, G.SO_ODD):
        spec = EnsembleSpec(group, 12, 6000, seed=77)
        emp = empirical_moments(spec, naive_third, 4)
        mean, centered = finite_n_moments(naive_third, group, 12, 4)
        for order in (2, 3, 4):
            assert abs(emp.centered[order] - centered[order]) <= 3.0 * emp.std_errors[order]
        assert abs(emp.mean - mean) <= 3.0 * emp.mean_std_error


def test_unitary_odd_moments_vanish(naive_third):
    spec = EnsembleSpec(G.U, 24, 4000, seed=3)
    emp = empirical_moments(spec, naive_third, 4)
    mean, centered = finite_n_moments(naive_third, G.U, 24, 4)
    assert centered[3] == pytest.approx(0.0, abs=1e-12)
    assert abs(emp.centered[3]) <= 3.0 * emp.std_errors[3]
    assert abs(emp.mean - mean) <= 3.0 * emp.mean_std_error
    # even orders follow the unitary variance (half the orthogonal one)
    assert abs(emp.centered[2] - centered[2]) <= 3.0 * emp.std_errors[2]


class _TracePower:
    """Test double phi(x) = 2 cos(2 pi j x / N): on U(N), Z = 2 Re Tr U^j."""

    def __init__(self, j, n):
        self.j, self.n = j, n
        self.support_bound = j / n
        self.phi0 = 2.0

    def phi(self, x):
        return 2.0 * np.cos(2.0 * math.pi * self.j * np.asarray(x) / self.n)


@pytest.mark.parametrize("j", [1, 3])
def test_finite_n_moments_diaconis_shahshahani(j):
    # E Tr U^j = 0, E |Tr U^j|^2 = j and Tr U^j is exactly complex Gaussian
    # to the fourth moment once N >= 2j (Diaconis-Shahshahani)
    mean, centered = finite_n_moments(_TracePower(j, 20), G.U, 20, 4)
    variance = 2.0 * j
    tol = 1e-12 * variance**2
    assert abs(mean) <= tol
    assert abs(centered[2] - variance) <= tol
    assert abs(centered[3]) <= tol  # kappa_3
    assert abs(centered[4] - 3.0 * variance**2) <= tol  # kappa_4 = mu_4 - 3 mu_2^2


def test_finite_n_moments_rule_converged(monkeypatch, naive_third):
    cases = [(naive_third, group, n) for group in (G.SO_EVEN, G.SO_ODD, G.U) for n in (1, 10, 80)]
    cases.append((make_from_generator(GeneratorSpec("cosine-series", (1.0,), 1 / 6)), G.SO_EVEN, 80))
    sized = [finite_n_moments(tf, group, n, 4) for tf, group, n in cases]
    nodes = rmt._gram_nodes
    monkeypatch.setattr(rmt, "_gram_nodes", lambda *args: 2 * nodes(*args))
    for (tf, group, n), (mean, centered) in zip(cases, sized):
        mean2, centered2 = finite_n_moments(tf, group, n, 4)
        sigma = math.sqrt(centered[2])
        assert abs(mean2 - mean) <= 1e-12 * max(abs(mean), sigma), (group, n)
        for k in (2, 3, 4):
            scale = max(abs(centered[k]), sigma**k)
            assert abs(centered2[k] - centered[k]) <= 1e-12 * scale, (group, n, k)


@pytest.mark.parametrize("group", [G.SO_EVEN, G.SO_ODD])
def test_finite_n_bias_rates(naive_third, group):
    # doubling N halves the mean's bias (O(1/N)) and quarters that of
    # orders 2 and 4 (O(1/N^2)): one allowance C / N for every order fits neither
    limit_mean = naive_third.phihat0 + 0.5 * naive_third.phi0
    limits = {k: predicted_moment(naive_third, group, k) for k in (2, 4)}
    biases = []
    for n in (20, 40, 80):
        mean, centered = finite_n_moments(naive_third, group, n, 4)
        biases.append([mean - limit_mean] + [centered[k] - limits[k] for k in (2, 4)])
    for coarse, fine in zip(biases, biases[1:]):
        assert 1.8 <= coarse[0] / fine[0] <= 2.2
        for c, f in zip(coarse[1:], fine[1:]):
            assert 3.4 <= c / f <= 4.6


def test_verify_moments_allows_the_exact_bias(naive_third):
    # U(10) at 10,000 samples: orders 2 and 4 sit 6-7 standard errors off
    # the limit, and the band of 3 se plus the exact bias still holds them
    spec = EnsembleSpec(G.U, 10, 10_000, seed=61)
    comparisons = verify_moments(spec, naive_third, (2, 3, 4))
    _, exact = finite_n_moments(naive_third, G.U, 10, 4)
    assert max(abs(comp.z_score) for comp in comparisons) > 5.0
    for comp in comparisons:
        bias = abs(exact[comp.order] - comp.predicted)
        assert comp.allowance == pytest.approx(3.0 * comp.std_error + bias, rel=1e-12)
        assert comp.passed, comp


@pytest.mark.parametrize("group", [G.SO_EVEN, G.SO_ODD, G.U])
def test_centered_moments_do_not_cancel_at_a_large_mean(monkeypatch, gen_sinx2, group):
    # mean / sigma is about 9.8 on so-odd: centering raw power sums of Z
    # would lose about 1e-9 of the third moment to cancellation, and
    # centering once at the rounded sample mean about 2e-12
    draws = []
    statistic = rmt.linear_statistic

    def recording(angles, tf, group):
        z = statistic(angles, tf, group)
        draws.extend(z)
        return z

    monkeypatch.setattr(rmt, "linear_statistic", recording)
    spec = EnsembleSpec(group, 20, 2000, seed=5)
    comparisons = verify_moments(spec, gen_sinx2, (2, 3, 4))
    z = [Fraction(float(v)) for v in draws]
    mean = sum(z) / len(z)
    for comp in comparisons:
        exact = float(sum((v - mean) ** comp.order for v in z) / len(z))
        assert abs(comp.empirical - exact) <= 1e-12 * abs(exact), comp.order


@pytest.mark.parametrize("group", [G.SO_EVEN, G.SO_ODD, G.U])
def test_sampler_matches_finite_n_oracle(naive_third, group):
    # at N = 10 the mean sits 30-45 standard errors off its limit, and the
    # U(10) orders 2 and 4 6-7
    spec = EnsembleSpec(group, 10, 10_000, seed=61)
    emp = empirical_moments(spec, naive_third, 4)
    mean, centered = finite_n_moments(naive_third, group, 10, 4)
    assert abs(emp.mean - mean) <= 5.0 * emp.mean_std_error
    for k in (2, 3, 4):
        assert abs(emp.centered[k] - centered[k]) <= 5.0 * emp.std_errors[k], k


def test_predicted_moments(naive_third):
    assert predicted_moment(naive_third, G.SO_EVEN, 2) == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert predicted_moment(naive_third, G.SO_EVEN, 4) == pytest.approx(
        1.0 / 3.0 + 1.0 / 5040.0, abs=1e-9
    )
    assert predicted_moment(naive_third, G.SO_ODD, 4) == pytest.approx(
        1.0 / 3.0 - 1.0 / 5040.0, abs=1e-9
    )
    # three supports of 1/3 sum to 1: R and the odd moment vanish exactly
    assert predicted_moment(naive_third, G.SO_EVEN, 3) == 0.0
    cos1 = make_from_generator(GeneratorSpec("cosine-series", (1.0,), 1.0 / 6.0))
    assert predicted_moment(cos1, G.SO_EVEN, 3) == 0.0
    assert predicted_moment(naive_third, G.U, 4) == pytest.approx(3.0 * (1.0 / 6.0) ** 2, abs=1e-9)


def test_so_prediction_refuses_supports_past_with_r():
    # beyond 1/(n-1) the split-family formula is unproven, and the
    # mock-Gaussian value misses SO(2N) there by a gap that does not
    # shrink with N (order 4, v = 0.36: 4e-4 at N = 40, 1e-3 at N = 320),
    # which the band would absorb as finite-N bias
    wide = make_naive(0.36)
    assert predicted_moment(wide, G.SO_EVEN, 2) == pytest.approx(sigma2(wide, wide), rel=1e-12)
    for group in (G.SO_EVEN, G.SO_ODD):
        with pytest.raises(SupportRegimeError, match="1/\\(n-1\\)"):
            predicted_moment(wide, group, 4)
    with pytest.raises(SupportRegimeError):
        verify_moments(EnsembleSpec(G.SO_EVEN, 40, 2000, seed=3), wide, (2, 4))


def test_unitary_prediction_refuses_supports_past_two_over_n():
    # U(N) moments are Gaussian for supports within 2/n (Hughes-Rudnick);
    # at v = 0.9 the fourth-moment gap stays near -1.2e-3 from N = 40 to 320
    wide = make_naive(0.9)
    assert predicted_moment(wide, G.U, 2) == pytest.approx(0.5 * sigma2(wide, wide), rel=1e-12)
    with pytest.raises(SupportRegimeError, match="2/n"):
        predicted_moment(wide, G.U, 3)
    with pytest.raises(SupportRegimeError, match="2/n"):
        predicted_moment(wide, G.U, 4)
    assert predicted_moment(make_naive(0.5), G.U, 4) == pytest.approx(
        3.0 * (0.5 * sigma2(make_naive(0.5), make_naive(0.5))) ** 2, rel=1e-12
    )


def test_ensemble_spec_validation():
    with pytest.raises(ValueError):
        EnsembleSpec(G.U, 0, 10, 0)
    with pytest.raises(ValueError):
        EnsembleSpec(G.U, 4, 0, 0)
    assert EnsembleSpec(G.SO_ODD, 4, 10, 0).dim == 9
