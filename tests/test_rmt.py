"""Haar sampling, linear statistics, empirical moments."""

import math

import numpy as np
import pytest

from momentbounds import (
    EnsembleSpec,
    GeneratorSpec,
    SymmetryGroup,
    empirical_moments,
    linear_statistic,
    make_from_generator,
    make_naive,
    predicted_moment,
    sample_haar,
)
from momentbounds.rmt import (
    _haar_orthogonal_block,
    finite_size_constant,
    predicted_mean,
    sample_haar_batch,
)

G = SymmetryGroup


def test_so2_angles_come_in_conjugate_pairs(rng):
    for _ in range(5):
        angles = sample_haar(G.SO_EVEN, 1, rng)
        assert angles.shape == (2,)
        assert angles[0] == pytest.approx(-angles[1], abs=1e-12)


def test_so_odd_forced_zero_angle(rng):
    for n in (1, 3, 8):
        angles = sample_haar(G.SO_ODD, n, rng)
        assert angles.shape == (2 * n + 1,)
        assert np.isclose(angles, 0.0, atol=1e-7).any()


def test_sampled_matrices_are_special_orthogonal(rng):
    for dim in (5, 8):
        q = _haar_orthogonal_block(dim, rng, 40)
        eye = np.eye(dim)
        assert np.abs(np.swapaxes(q, 1, 2) @ q - eye).max() < 1e-12
        assert np.linalg.det(q) == pytest.approx(1.0, abs=1e-10)


def test_angles_sorted_in_principal_range(rng):
    for group, n in ((G.SO_EVEN, 6), (G.SO_ODD, 6), (G.U, 9)):
        angles = sample_haar(group, n, rng)
        assert np.all(np.diff(angles) >= 0)
        assert angles.min() > -math.pi - 1e-12 and angles.max() <= math.pi + 1e-12


def test_symmetric_and_direct_extraction_agree(rng):
    for group, n in ((G.SO_EVEN, 7), (G.SO_ODD, 7)):
        fast = sample_haar_batch(group, n, np.random.default_rng(11), 25, method="symmetric")
        direct = sample_haar_batch(group, n, np.random.default_rng(11), 25, method="direct")
        assert np.abs(np.sort(fast, axis=1) - np.sort(direct, axis=1)).max() < 1e-8


def test_conjugation_by_permutation_leaves_statistic_unchanged(rng, naive_third):
    # similarity transforms preserve the spectrum, hence the statistic
    dim = 10
    q = _haar_orthogonal_block(dim, rng, 8)
    perm = np.random.default_rng(5).permutation(dim)
    p = np.eye(dim)[perm]
    from momentbounds.rmt import _angles_direct

    a1 = _angles_direct(q)
    a2 = _angles_direct(p @ q @ p.T)
    s1 = [linear_statistic(a, naive_third, dim) for a in a1]
    s2 = [linear_statistic(a, naive_third, dim) for a in a2]
    assert s1 == pytest.approx(s2, abs=1e-8)


def test_linear_statistic_all_zero_angles(naive_third):
    # every angle at the origin: the statistic is dim * phi(0)
    dim = 12
    assert linear_statistic(np.zeros(dim), naive_third, dim) == pytest.approx(float(dim))


def test_linear_statistic_single_angle_scaling(naive_third):
    # one angle at 2 pi / dim contributes phi(1)
    dim = 16
    angles = np.zeros(dim)
    angles[0] = 2.0 * math.pi / dim
    expected = dim - 1 + float(naive_third.phi(1.0))
    assert linear_statistic(angles, naive_third, dim) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError):
        linear_statistic(angles, naive_third, dim + 1)


def test_so_odd_zero_angle_shifts_mean_by_phi0(naive_third):
    spec = EnsembleSpec(G.SO_ODD, 6, 400, seed=9)
    emp = empirical_moments(spec, naive_third, 2)
    # removing the forced angle removes exactly phi(0) from every sample
    dim = spec.dim
    batch = sample_haar_batch(G.SO_ODD, 6, np.random.default_rng(1), 50)
    with_zero = np.array([linear_statistic(a, naive_third, dim) for a in batch])
    scale = dim / (2.0 * math.pi)
    dropped = np.array(
        [
            float(np.sum(naive_third.phi(a[~np.isclose(a, 0.0, atol=1e-9)] * scale)))
            for a in batch
        ]
    )
    assert np.allclose(with_zero - dropped, naive_third.phi0, atol=1e-7)
    assert emp.sample_count == 400


def test_seed_determinism(naive_third):
    spec = EnsembleSpec(G.SO_EVEN, 5, 600, seed=123)
    a = empirical_moments(spec, naive_third, 4)
    b = empirical_moments(spec, naive_third, 4)
    assert a == b
    c = empirical_moments(EnsembleSpec(G.SO_EVEN, 5, 600, seed=124), naive_third, 4)
    assert a.mean != c.mean


def test_empirical_matches_theory_small_dimension(naive_third):
    # N = 12 keeps this fast; the finite-size allowance covers the bias
    constant = finite_size_constant()
    for group in (G.SO_EVEN, G.SO_ODD):
        spec = EnsembleSpec(group, 12, 6000, seed=77)
        emp = empirical_moments(spec, naive_third, 4)
        for order in (2, 3, 4):
            predicted = predicted_moment(naive_third, group, order)
            band = 3.0 * emp.std_errors[order] + constant / spec.half_dim
            assert abs(emp.centered[order] - predicted) <= band, (group, order)
        mean_band = 3.0 * emp.mean_std_error + 3.0 / spec.half_dim
        assert abs(emp.mean - predicted_mean(naive_third, group)) <= mean_band


def test_unitary_odd_moments_vanish(naive_third):
    spec = EnsembleSpec(G.U, 24, 4000, seed=3)
    emp = empirical_moments(spec, naive_third, 4)
    assert abs(emp.centered[3]) <= 3.0 * emp.std_errors[3] + 0.5 / spec.half_dim
    assert emp.mean == pytest.approx(naive_third.phihat0, abs=0.15)
    # even orders follow the unitary variance (half the orthogonal one)
    assert emp.centered[2] == pytest.approx(
        predicted_moment(naive_third, G.U, 2), abs=3 * emp.std_errors[2] + 0.5 / 24
    )


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


def test_ensemble_spec_validation():
    with pytest.raises(ValueError):
        EnsembleSpec(G.SP, 4, 10, 0)
    with pytest.raises(ValueError):
        EnsembleSpec(G.U, 0, 10, 0)
    with pytest.raises(ValueError):
        EnsembleSpec(G.U, 4, 0, 0)
    assert EnsembleSpec(G.SO_ODD, 4, 10, 0).dim == 9
