"""Hyperbolic-entropy potential: values, derivatives, Bregman geometry, and the
constrained limit problem, min phi_alpha(beta) - <tilt, beta> subject to
X beta = Y, solved by mirror descent in the dual space. A limit problem is its
dataset, scale and tilt, passed to the solvers as they are."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_math import Mat, Rows, Vec, dots, matvecs, row_space_projector
from .problems import Dataset, default_step_size


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


def _loss_and_grad(Xbar: Mat, XbarT: Mat, Ybar: Vec, beta: Mat):
    """Loss and gradient of every row of beta, one gemv or dot call per row."""
    r = matvecs(Xbar, beta) - Ybar
    return 0.5 * dots(r), matvecs(XbarT, r)


# a restart's floor loss that has not dropped for this many evaluations counts
# as a stall
STALL_WINDOW = 50_000


def solve_tilted_ensemble(ds: Dataset, alphas, tilts, max_iters: int = 1_000_000,
                          tol: float = 1e-12) -> list:
    """Solve many tilted problems on one dataset as the rows of one (rows, d) dual iterate.

    Row i minimizes phi_alphas[i](beta) - <tilts[i], beta> subject to
    X beta = Y (a tilt of None is zero) by mirror descent in the dual:
    u <- u - eta grad L(beta(u)), beta(u) = grad phi^{-1}(u), from u0 = tilt.
    Then u - tilt stays in the row span of X and the KKT residual
    ||(I - P)(grad phi(beta) - tilt)|| is zero up to roundoff at every iterate;
    the iteration only has to drive the loss to tol. The step size is the
    dataset default, shrunk when large alpha would make the dual map too steep
    (beta changes by about 8 max(alpha)^2 per unit of dual motion), and halved
    with a restart from the tilt whenever the loss grows 1e6-fold past the
    restart's first loss or its floor stalls for STALL_WINDOW evaluations. A
    point where beta(u) is not finite is not counted as an evaluation and
    restarts the row; if it is the start point itself, which every restart
    returns to, the row fails at once. For the bundled instances the
    safeguards never trigger.

    Each row keeps its own step size, restarts and best iterate, and its
    products run one gemv or dot per row, so it is bitwise what solving the
    problem alone gives; max_iters bounds every row's evaluations. Returns one
    entry per row, in order: the limit point beta, or a ConvergenceError (with
    the best iterate, its loss and KKT residual) for a row that ran out of
    budget, cannot start, or converged with a KKT residual above 1e-6.
    """
    d = ds.d
    alphas = list(alphas)
    tilts = [np.zeros(d) if t is None else np.asarray(t, dtype=float)
             for t in tilts]
    if len(tilts) != len(alphas) or any(t.shape != (d,) for t in tilts):
        raise ValueError("need one tilt of dimension d per alpha")
    a = np.array([alpha.broadcast(d) for alpha in alphas])
    if not alphas:
        return []
    Xbar, XbarT, Ybar = ds.Xbar, ds.Xbar.T, ds.Ybar
    gamma = default_step_size(ds)
    kkt_map = np.eye(d) - row_space_projector(ds.X)
    R = len(alphas)
    s = Rows(
        row=np.arange(R),
        two_a2=2.0 * a**2,
        tilt=np.array(tilts),
        eta=np.array([[gamma / max(1.0, 8.0 * float(np.max(ai) ** 2))] for ai in a]),
        u=np.array(tilts),
        fresh=np.ones(R, dtype=bool),  # no evaluation since the last (re)start
        loss0=np.zeros(R),  # first loss of the current restart
        floor=np.full(R, np.inf),  # lowest loss of the current restart
        floor_at=np.zeros(R, dtype=int),  # evaluation count when it was set
        best_loss=np.full(R, np.inf),
        best_beta=np.zeros((R, d)),
    )
    out = [None] * R
    spent = 0  # evaluations per row: every round evaluates all rows or none
    any_fresh = True

    def kkt_of(i: int, beta: Vec) -> float:
        alpha = alphas[s.row[i]]
        return float(np.linalg.norm(kkt_map @ (phi_grad(beta, alpha) - s.tilt[i])))

    def give_up(i: int, message: str) -> None:
        best_loss = float(s.best_loss[i])
        if best_loss < np.inf:
            beta = s.best_beta[i].copy()
        else:
            beta = phi_grad_inverse(s.tilt[i], alphas[s.row[i]])
        out[s.row[i]] = ConvergenceError(message, beta, best_loss, kkt_of(i, beta))

    def restart(mask) -> None:
        nonlocal any_fresh
        s.eta = np.where(mask[:, None], 0.5 * s.eta, s.eta)
        s.u = np.where(mask[:, None], s.tilt, s.u)
        s.fresh = s.fresh | mask
        s.floor = np.where(mask, np.inf, s.floor)
        s.floor_at = np.where(mask, spent, s.floor_at)
        any_fresh = True

    # rows whose iterate overflows compute with non-finite values until restarted
    with np.errstate(over="ignore", invalid="ignore"):
        while s.row.size:
            if spent >= max_iters:
                for i in range(s.row.size):
                    give_up(i, f"no iterate reached loss {tol:.1e} within {max_iters} "
                               f"evaluations (best {s.best_loss[i]:.3e})")
                break
            beta = s.two_a2 * np.sinh(4.0 * s.u)
            loss, grad = _loss_and_grad(Xbar, XbarT, Ybar, beta)
            # A row below its best loss is finite, not diverging (its restart's
            # first loss is at least its best) and, above tol, not converged.
            calm = ((loss > tol) & (loss < s.best_loss)).all()
            if not calm:
                bad = ~np.isfinite(beta).all(axis=1)
                if bad.any():
                    # This round counts for no row: the bad rows restart, or
                    # fail when already at their start point, and the others
                    # evaluate the same iterate again next round.
                    stuck = bad & s.fresh
                    for i in np.flatnonzero(stuck):
                        give_up(i, "the start point grad phi^-1(tilt) is not finite")
                    restart(bad & ~stuck)
                    s.keep(~stuck)
                    continue
            spent += 1
            if any_fresh:
                s.loss0 = np.where(s.fresh, loss, s.loss0)
                s.fresh = np.zeros(s.row.size, dtype=bool)
                any_fresh = False
            if calm:
                # every row at its best is also below its restart's floor
                s.best_loss, s.best_beta, s.floor = loss, beta, loss
                s.floor_at.fill(spent)
            else:
                better = loss < s.best_loss
                s.best_beta = np.where(better[:, None], beta, s.best_beta)
                s.best_loss = np.where(better, loss, s.best_loss)
                lower = loss < s.floor
                s.floor = np.where(lower, loss, s.floor)
                s.floor_at = np.where(lower, spent, s.floor_at)
            s.u = s.u - s.eta * grad
            if calm and spent < STALL_WINDOW:
                continue
            done = loss <= tol
            for i in np.flatnonzero(done):
                kkt = kkt_of(i, beta[i])
                if kkt > 1e-6:
                    out[s.row[i]] = ConvergenceError(
                        f"loss converged but KKT residual {kkt:.3e} exceeds 1e-6",
                        beta[i].copy(), float(loss[i]), kkt)
                else:
                    out[s.row[i]] = beta[i].copy()
            diverged = loss > 1e6 * np.maximum(s.loss0, 1e-300)
            stalled = s.floor_at <= spent - STALL_WINDOW
            restart((diverged | stalled) & ~done)
            if done.any():
                s.keep(~done)
    return out


def solve_tilted(ds: Dataset, alpha: PotentialParams, tilt: Vec | None = None,
                 max_iters: int = 1_000_000, tol: float = 1e-12) -> Vec:
    """Minimize phi_alpha(beta) - <tilt, beta> subject to X beta = Y (a tilt
    of None is zero), as a one-row solve_tilted_ensemble.

    Returns the limit point; raises the row's ConvergenceError when the
    iteration cannot start, runs out of budget, or converges with a KKT
    residual above 1e-6.
    """
    beta = solve_tilted_ensemble(ds, [alpha], [tilt], max_iters, tol)[0]
    if isinstance(beta, ConvergenceError):
        raise beta
    return beta
