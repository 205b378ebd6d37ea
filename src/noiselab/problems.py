"""Synthetic regression instances and the constants derived from them."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core_math import Mat, RngStream, Vec, min_norm_solve, spectral_norm


@dataclass
class Dataset:
    """A regression instance (X, Y, beta_star) and what follows from it.

    Xbar = X / sqrt(n) and Ybar = Y / sqrt(n) are computed once, so the
    empirical risk reads (1/2)||Xbar @ beta - Ybar||^2. regime records which
    side of n = d the instance sits on: "over" when d >= n, else "under".
    beta_star, when present, interpolates: X @ beta_star = Y.
    """

    X: Mat
    Y: Vec
    beta_star: Vec | None
    Xbar: Mat = field(init=False, repr=False)
    Ybar: Vec = field(init=False, repr=False)
    regime: str = field(init=False)

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.Y = np.asarray(self.Y, dtype=float)
        if self.X.ndim != 2 or self.Y.ndim != 1 or self.X.shape[0] != self.Y.shape[0]:
            raise ValueError("X and Y shapes are inconsistent")
        if not (np.all(np.isfinite(self.X)) and np.all(np.isfinite(self.Y))):
            raise ValueError("non-finite dataset entries")
        self.Xbar = self.X / np.sqrt(self.n)
        self.Ybar = self.Y / np.sqrt(self.n)
        self.regime = "over" if self.d >= self.n else "under"
        if self.beta_star is not None:
            self.beta_star = np.asarray(self.beta_star, dtype=float)
            if self.beta_star.shape != (self.X.shape[1],):
                raise ValueError("beta_star dimension mismatch")
            scale = max(1.0, float(np.abs(self.Y).max()))
            if np.max(np.abs(self.X @ self.beta_star - self.Y)) > 1e-9 * scale:
                raise ValueError("beta_star does not interpolate Y")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def theta_ls(self) -> Vec:
        """Minimum-norm least-squares point of the instance."""
        return min_norm_solve(self.X, self.Y)


def gen_sparse_regression(n: int, d: int, s: int, rng: RngStream) -> Dataset:
    """Standard-normal features with an s-sparse planted vector, noiseless labels.

    Support drawn uniformly without replacement; nonzero values standard normal,
    redrawn in the (measure-zero) event one lands exactly on 0.
    """
    if not 0 <= s <= d:
        raise ValueError("need 0 <= s <= d")
    X = rng.normal((n, d))
    beta_star = np.zeros(d)
    if s > 0:
        support = np.sort(rng.indices(d, s))
        vals = rng.normal(s)
        while np.any(vals == 0.0):
            vals = np.where(vals == 0.0, rng.normal(s), vals)
        beta_star[support] = vals
    Y = X @ beta_star
    return Dataset(X=X, Y=Y, beta_star=beta_star)


def gen_underparam_regression(n: int, d: int, label_noise: float, rng: RngStream) -> Dataset:
    """Tall instance (n > d) with Gaussian label noise, default scale 0.5."""
    if n <= d or d < 1:
        raise ValueError("underparametrized instance needs n > d >= 1")
    if label_noise < 0:
        raise ValueError("label_noise must be nonnegative")
    X = rng.normal((n, d))
    beta0 = rng.normal(d)
    Y = X @ beta0 + label_noise * rng.normal(n)
    return Dataset(X=X, Y=Y, beta_star=None)


def default_step_size(ds: Dataset) -> float:
    """Step size 1 / (1.3 ||Xbar Xbar^T||_2) used by all bundled experiments."""
    nrm = spectral_norm(ds.Xbar @ ds.Xbar.T)
    if nrm <= 0.0:
        raise ValueError("zero feature matrix has no step size")
    return 1.0 / (1.3 * nrm)

