"""Dataset generation, normalization, and step-size defaults."""

import numpy as np
import pytest

from noiselab import (
    RngStream,
    default_step_size,
    gen_sparse_regression,
    gen_underparam_regression,
    spectral_norm,
)


def test_sparse_instance_shapes_and_support():
    ds = gen_sparse_regression(40, 100, 5, RngStream(3))
    assert ds.X.shape == (40, 100)
    assert ds.Y.shape == (40,)
    assert ds.regime == "over"
    assert np.count_nonzero(ds.beta_star) == 5
    # labels are exact: the planted vector interpolates
    assert np.allclose(ds.X @ ds.beta_star, ds.Y, atol=1e-12)


def test_sparse_instance_is_seed_deterministic():
    a = gen_sparse_regression(12, 30, 4, RngStream(91))
    b = gen_sparse_regression(12, 30, 4, RngStream(91))
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.Y, b.Y)
    assert np.array_equal(a.beta_star, b.beta_star)


def test_sparse_instance_support_varies_with_seed():
    a = gen_sparse_regression(12, 30, 4, RngStream(1))
    b = gen_sparse_regression(12, 30, 4, RngStream(2))
    assert not np.array_equal(a.beta_star, b.beta_star)


def test_normalized_features_definition():
    ds = gen_sparse_regression(25, 50, 3, RngStream(5))
    assert np.allclose(ds.Xbar, ds.X / np.sqrt(25), atol=0)
    assert np.allclose(ds.Ybar, ds.Y / np.sqrt(25), atol=0)


def test_underparam_instance():
    ds = gen_underparam_regression(50, 5, 0.3, RngStream(17))
    assert ds.X.shape == (50, 5)
    assert ds.regime == "under"
    # Gram matrix invertible at this aspect ratio
    lam = np.linalg.eigvalsh(ds.Xbar.T @ ds.Xbar)
    assert lam[0] > 0.05


def test_theta_ls_solves_normal_equations():
    ds = gen_underparam_regression(60, 6, 0.5, RngStream(23))
    theta = ds.theta_ls()
    grad = ds.Xbar.T @ (ds.Xbar @ theta - ds.Ybar)
    assert np.abs(grad).max() < 1e-10


def test_default_step_size_formula():
    ds = gen_sparse_regression(40, 100, 5, RngStream(3))
    expect = 1.0 / (1.3 * spectral_norm(ds.Xbar @ ds.Xbar.T))
    assert np.isclose(default_step_size(ds), expect, rtol=1e-12)


def test_default_step_size_matches_dense_oracle():
    ds = gen_sparse_regression(40, 100, 5, RngStream(8))
    G = ds.Xbar @ ds.Xbar.T
    lam_top = np.linalg.eigvalsh(0.5 * (G + G.T))[-1]
    assert np.isclose(default_step_size(ds), 1.0 / (1.3 * lam_top), rtol=1e-8)


def test_underparam_has_no_planted_vector():
    ds = gen_underparam_regression(30, 4, 0.1, RngStream(2))
    assert ds.beta_star is None


def test_bad_counts_rejected():
    with pytest.raises(ValueError):
        gen_sparse_regression(10, 20, 25, RngStream(0))
    with pytest.raises(ValueError):
        gen_sparse_regression(10, 20, -1, RngStream(0))
    with pytest.raises(ValueError):
        gen_underparam_regression(5, 5, 0.1, RngStream(0))
