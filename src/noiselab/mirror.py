"""Hyperbolic-entropy potential: values, derivatives, Bregman geometry, and the
constrained limit problem, min phi_alpha(beta) - <tilt, beta> subject to
X beta = Y, solved by damped Newton on its dual. A limit problem is its
dataset, scale and tilt, passed to the solvers as they are."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_math import Mat, Rows, Vec, dots, matvecs, row_space_projector
from .problems import Dataset


@dataclass
class PotentialParams:
    """Strictly positive scale vector alpha of the potential phi_alpha."""

    alpha: Vec

    def __post_init__(self):
        self.alpha = np.atleast_1d(np.asarray(self.alpha, dtype=float))
        if self.alpha.ndim != 1 or self.alpha.size == 0:
            raise ValueError("alpha must be a nonempty vector")
        if not np.all(np.isfinite(self.alpha)) or np.any(self.alpha <= 0.0):
            raise ValueError("alpha entries must be finite and > 0")

    def broadcast(self, d: int) -> Vec:
        if self.alpha.size == d:
            return self.alpha
        if self.alpha.size == 1:
            return np.full(d, self.alpha[0])
        raise ValueError("alpha length does not match dimension")


def phi_value(beta: Vec, alpha: PotentialParams) -> float:
    """phi_alpha(beta) = 1/4 sum_i [beta_i asinh(beta_i/2a_i^2) - sqrt(beta_i^2 + 4a_i^4)]."""
    beta = np.asarray(beta, dtype=float)
    a = alpha.broadcast(beta.size)
    a2 = a * a
    return 0.25 * float(
        np.sum(beta * np.arcsinh(beta / (2.0 * a2)) - np.sqrt(beta * beta + 4.0 * a2 * a2))
    )


def phi_grad(beta: Vec, alpha: PotentialParams) -> Vec:
    beta = np.asarray(beta, dtype=float)
    a2 = alpha.broadcast(beta.size) ** 2
    return 0.25 * np.arcsinh(beta / (2.0 * a2))


def phi_grad_inverse(u: Vec, alpha: PotentialParams) -> Vec:
    u = np.asarray(u, dtype=float)
    a2 = alpha.broadcast(u.size) ** 2
    return 2.0 * a2 * np.sinh(4.0 * u)


def phi_hessian_diag(beta: Vec, alpha: PotentialParams) -> Vec:
    beta = np.asarray(beta, dtype=float)
    a2 = alpha.broadcast(beta.size) ** 2
    return 0.25 / np.sqrt(beta * beta + 4.0 * a2 * a2)


def bregman(beta: Vec, beta_ref: Vec, alpha: PotentialParams) -> float:
    beta = np.asarray(beta, dtype=float)
    beta_ref = np.asarray(beta_ref, dtype=float)
    return (
        phi_value(beta, alpha)
        - phi_value(beta_ref, alpha)
        - float(phi_grad(beta_ref, alpha) @ (beta - beta_ref))
    )


def mu_bound(alpha: PotentialParams, radius: float) -> float:
    """Strong-convexity modulus of phi_alpha on the ball of the given radius."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    a = alpha.alpha
    return float(1.0 / (4.0 * np.sqrt(radius * radius + 4.0 * float(np.max(a**4)))))


def prop3_check(beta_inf: Vec, beta_star: Vec, r_inf: Vec, mu: float):
    """Distance-versus-tilt report: lhs = ||r_inf||/mu against rhs = ||beta_star - beta_inf||."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    lhs = float(np.linalg.norm(np.asarray(r_inf, dtype=float))) / mu
    rhs = float(np.linalg.norm(np.asarray(beta_star, dtype=float) - np.asarray(beta_inf, dtype=float)))
    return lhs, rhs, lhs >= rhs


class ConvergenceError(RuntimeError):
    """A limit problem the dual iteration could not solve; carries diagnostics.

    solve_tilted raises it; solve_tilted_ensemble returns it in the row's place.
    """

    def __init__(self, message, beta, loss, kkt_residual):
        super().__init__(message)
        self.beta = beta
        self.loss = loss
        self.kkt_residual = kkt_residual


def _loss_and_grad(Xbar: Mat, Ybar: Vec, beta: Mat):
    """Loss and dual gradient Xbar beta - Ybar of every row of beta, one BLAS call per row."""
    r = matvecs(Xbar, beta) - Ybar
    return 0.5 * dots(r, r), r


def solve_tilted_ensemble(ds: Dataset, alphas, tilts, max_iters: int = 100,
                          tol: float = 1e-12) -> list:
    """Solve many tilted problems on one dataset by damped Newton on their duals.

    Row i minimizes phi_alphas[i](beta) - <tilts[i], beta> subject to
    X beta = Y (a tilt of None is zero). Its dual in nu, an n-vector, is
    D(nu) = sum_j (a_j^2 / 2) cosh(4 u_j) - <Ybar, nu> with u = tilt + Xbar^T nu,
    of gradient Xbar beta(u) - Ybar, beta(u) = 2 a^2 sinh(4u), and Hessian
    Xbar diag(8 a^2 cosh 4u) Xbar^T, positive definite when Xbar has full row
    rank (else a ValueError). From nu = 0 each Newton step halves from 1 until
    D falls by a quarter of its linear prediction (Armijo), and a row stops once
    its loss (1/2)||Xbar beta - Ybar||^2 is at most tol. u - tilt stays in the
    row span of X, so the KKT residual ||(I - P)(grad phi(beta) - tilt)|| is
    zero up to roundoff throughout.

    Returns one entry per row, in order: the limit point beta, or a
    ConvergenceError with the row's last iterate, its loss and KKT residual,
    when the start point beta(tilt) is not finite, a step lowers neither D nor
    the loss (the loss's roundoff floor lies above tol), max_iters Newton steps
    do not reach tol, or the KKT residual at convergence exceeds 1e-6. Each row
    does its own line search, one BLAS call per product and one LAPACK solve
    per Newton system, so it is bitwise what solving it alone gives.
    """
    d = ds.d
    alphas = list(alphas)
    tilts = [np.zeros(d) if t is None else np.asarray(t, dtype=float) for t in tilts]
    if len(tilts) != len(alphas) or any(t.shape != (d,) for t in tilts):
        raise ValueError("need one tilt of dimension d per alpha")
    rank = np.linalg.matrix_rank(ds.Xbar)
    if rank < ds.n:
        raise ValueError(f"Xbar has rank {rank} < n = {ds.n}: the dual is not strictly convex")
    a = np.array([alpha.broadcast(d) for alpha in alphas])
    if not alphas:
        return []
    Xbar, XbarT, Ybar = ds.Xbar, ds.Xbar.T, ds.Ybar
    kkt_map = np.eye(d) - row_space_projector(ds.X)
    R = len(alphas)
    out = [None] * R
    # a^2 or cosh past the float range makes a start point or a trial D infinite
    with np.errstate(over="ignore", invalid="ignore"):
        s = Rows(row=np.arange(R), a2=a**2, tilt=np.array(tilts), u=np.array(tilts),
                 loss=np.full(R, np.inf), lowered=np.ones(R, dtype=bool))
        steps = 0
        while s.row.size:
            s.beta = 2.0 * s.a2 * np.sinh(4.0 * s.u)
            loss, s.r = _loss_and_grad(Xbar, Ybar, s.beta)
            # accepted steps have finite D, so only a start point is non-finite
            bad = ~np.isfinite(s.beta).all(axis=1)
            stalled = ~s.lowered & (loss >= s.loss)
            s.loss = np.where(bad, np.inf, loss)
            ended = bad | (loss <= tol) | stalled | (steps >= max_iters)
            for i in np.flatnonzero(ended):
                beta, loss_i = s.beta[i].copy(), float(s.loss[i])
                kkt = float(np.linalg.norm(kkt_map @ (phi_grad(beta, alphas[s.row[i]])
                                                      - s.tilt[i])))
                if bad[i]:
                    why = "the start point grad phi^-1(tilt) is not finite"
                elif loss_i <= tol:
                    why = (f"loss converged but KKT residual {kkt:.3e} exceeds 1e-6"
                           if kkt > 1e-6 else None)
                elif stalled[i]:
                    why = f"the loss stalls at its roundoff floor {loss_i:.3e}, above tol {tol:.1e}"
                else:
                    why = f"loss {loss_i:.3e} after {max_iters} Newton steps, above tol {tol:.1e}"
                out[s.row[i]] = ConvergenceError(why, beta, loss_i, kkt) if why else beta
            s.keep(~ended)
            cosh = np.cosh(4.0 * s.u)
            # one Newton system at a time, so no (rows, n, d) stack is held
            step = np.reshape([-np.linalg.solve((Xbar * w) @ XbarT, r)
                               for w, r in zip(8.0 * s.a2 * cosh, s.r)], s.r.shape)
            du, slope, y_step = matvecs(XbarT, step), dots(s.r, step), dots(step, Ybar[None])
            t = np.ones(s.row.size)
            # a row with no decrease after 60 halvings stays put; D's fall as
            # 2 sinh 2(u + u0) sinh 2(u - u0) keeps digits cosh 4u - cosh 4u0 loses
            for _ in range(60):
                u = s.u + t[:, None] * du
                fall = np.sinh(2.0 * (u + s.u)) * np.sinh(2.0 * (u - s.u))
                ok = dots(s.a2, fall) - t * y_step <= 0.25 * t * slope
                if ok.all():
                    break
                t = np.where(ok, t, 0.5 * t)
            # D fell if the step passed and its predicted fall -slope beats D's roundoff
            s.lowered = ok & (-slope > np.finfo(float).eps * dots(0.5 * s.a2, cosh))
            s.u = np.where(ok[:, None], u, s.u)
            steps += 1
    return out


def solve_tilted(ds: Dataset, alpha: PotentialParams, tilt: Vec | None = None,
                 max_iters: int = 100, tol: float = 1e-12) -> Vec:
    """Minimize phi_alpha(beta) - <tilt, beta> subject to X beta = Y (a tilt
    of None is zero) as a one-row solve_tilted_ensemble: the limit point, or
    the row's ConvergenceError raised."""
    beta = solve_tilted_ensemble(ds, [alpha], [tilt], max_iters, tol)[0]
    if isinstance(beta, ConvergenceError):
        raise beta
    return beta
