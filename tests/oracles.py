"""Independent reference computations used by the test suite.

Every function here deliberately avoids the code paths of the package under
test: matrix exponentials come from scaling-and-squaring, Lyapunov solutions
from a Kronecker system or direct quadrature, projectors from an explicit
Gram inverse. Agreement between these and the package is the point of the
exercise, so nothing in this file may import from noiselab internals beyond
plain numpy.
"""

import numpy as np

# phi_grad_inverse(u)=2a^2 sinh(4u) at a=1, u=1/4 equals 2 sinh(1)
TWO_SINH_ONE = 2.3504023872876029
# phi_grad at a=1, beta=2 equals (1/4) asinh(1)
QUARTER_ASINH_ONE = 0.22034339675488575


def expm_pade(M: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a [6/6] Pade core."""
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    norm = np.abs(M).sum(axis=1).max() if M.size else 0.0
    s = max(0, int(np.ceil(np.log2(norm))) + 1) if norm > 0.5 else 0
    A = M / (2.0**s)
    # Pade [6/6] coefficients of exp at 0
    c = [1.0, 0.5, 5 / 44, 1 / 66, 1 / 792, 1 / 15840, 1 / 665280]
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A2 @ A4
    U = A @ (c[1] * np.eye(n) + c[3] * A2 + c[5] * A4)
    V = c[0] * np.eye(n) + c[2] * A2 + c[4] * A4 + c[6] * A6
    E = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        E = E @ E
    return E


def lyapunov_quadrature(Bm: np.ndarray, D: np.ndarray, nodes: int = 500) -> np.ndarray:
    """Evaluate int_0^inf e^(-tB) 2D e^(-tB) dt by Gauss-Legendre.

    The half line is mapped to (0,1) through t = s/(1-s). For SPD B with
    smallest eigenvalue not much below 1e-2 the integrand is resolved to
    well under 1e-8 by a few hundred nodes, which is all the acceptance
    comparison needs.
    """
    Bm = np.asarray(Bm, dtype=float)
    D = np.asarray(D, dtype=float)
    x, w = np.polynomial.legendre.leggauss(nodes)
    s = 0.5 * (x + 1.0)  # map [-1,1] -> [0,1]
    ws = 0.5 * w
    W = np.zeros_like(D)
    for si, wi in zip(s, ws):
        t = si / (1.0 - si)
        jac = 1.0 / (1.0 - si) ** 2
        E = expm_pade(-t * Bm)
        W += wi * jac * (E @ (2.0 * D) @ E)
    return W


def lyapunov_kron(Bm: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Solve Bm W + W Bm = 2D as a dense Kronecker linear system."""
    Bm = np.asarray(Bm, dtype=float)
    D = np.asarray(D, dtype=float)
    n = Bm.shape[0]
    K = np.kron(np.eye(n), Bm) + np.kron(Bm, np.eye(n))
    w = np.linalg.solve(K, (2.0 * D).reshape(-1))
    W = w.reshape(n, n)
    return 0.5 * (W + W.T)


def em_stationary_cov(A: np.ndarray, h: float, Sigma: np.ndarray) -> np.ndarray:
    """Exact stationary covariance of theta <- (I - hA) theta + sqrt(h) xi.

    xi has covariance Sigma. Solves W = (I-hA) W (I-hA)^T + h Sigma through
    the Kronecker form; requires spectral radius of I - hA below one.
    """
    A = np.asarray(A, dtype=float)
    Sigma = np.asarray(Sigma, dtype=float)
    n = A.shape[0]
    F = np.eye(n) - h * A
    if np.abs(np.linalg.eigvals(F)).max() >= 1.0:
        raise ValueError("unstable step for this A")
    K = np.eye(n * n) - np.kron(F, F)
    w = np.linalg.solve(K, (h * Sigma).reshape(-1))
    W = w.reshape(n, n)
    return 0.5 * (W + W.T)


def gram_projector(Xb: np.ndarray) -> np.ndarray:
    """Row-space projector Xb^T (Xb Xb^T)^(-1) Xb via the explicit Gram inverse."""
    Xb = np.asarray(Xb, dtype=float)
    G = Xb @ Xb.T
    return Xb.T @ np.linalg.solve(G, Xb)


def normal_equations_lsq(Xb: np.ndarray, Yb: np.ndarray) -> np.ndarray:
    """Least-squares solution through the normal equations (underparametrized)."""
    Xb = np.asarray(Xb, dtype=float)
    return np.linalg.solve(Xb.T @ Xb, Xb.T @ Yb)


def min_norm_interpolator(Xb: np.ndarray, Yb: np.ndarray) -> np.ndarray:
    """Minimum-norm interpolator Xb^T (Xb Xb^T)^(-1) Yb (overparametrized)."""
    Xb = np.asarray(Xb, dtype=float)
    return Xb.T @ np.linalg.solve(Xb @ Xb.T, Yb)


def spectral_norm_3x3(M: np.ndarray) -> float:
    """Largest singular value of a 3-column matrix via the cubic char poly."""
    M = np.asarray(M, dtype=float)
    G = M.T @ M
    if G.shape != (3, 3):
        raise ValueError("expects exactly 3 columns")
    a = -float(np.trace(G))
    b = 0.5 * (np.trace(G) ** 2 - np.trace(G @ G))
    cdet = -float(np.linalg.det(G))
    roots = np.roots([1.0, a, b, cdet])
    lam = max(float(r.real) for r in roots)
    return float(np.sqrt(max(lam, 0.0)))


def fd_grad(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


class Diverged(Exception):
    """Raised by sde_reference when the loss leaves the finite range."""

    def __init__(self, step):
        super().__init__(f"non-finite loss at step {step}")
        self.step = step


def sde_reference(Xbar, Ybar, ref, P, alpha, sigma, gamma, h, steps, rng,
                  record_stride=100, early_stop=True, matrices=None):
    """One run of the mirrored weight SDE, stepped one seed at a time.

    This is the single-run geometric Euler-Maruyama loop that the package
    integrated before its ensemble integrator existed, kept as the sequential
    reference: noise is drawn from rng.normal in blocks of 4096 steps of
    N(0, I_{n+d}) (followed, for a general schedule `matrices` of shape (p, d)
    or (T, p, d), by a block of its own normals), and the run stops once the
    loss stays at or below 1e-12 for 100 straight steps. Returns a dict with
    the trajectory rows (t, loss, squared distance to ref, loss integral,
    ||r_acc||), their step indices, the checkpoints and the final state.
    """
    n, d = Xbar.shape
    w_p = np.full(d, float(alpha))
    w_m = np.full(d, float(alpha))
    if matrices is not None:
        sigma = 0.0
    sqh = np.sqrt(h)
    var_fac = 4.0 * gamma * h * (np.sum(Xbar * Xbar, axis=0) + sigma * sigma)
    eta = np.zeros(d)
    delta = np.zeros(d)
    r_acc = np.zeros(d)
    loss_integral = 0.0
    noise_sq_integral = 0.0
    streak = 0
    last_recorded = -1
    rows, rec_steps, checkpoints = [], [], []

    def record(k, beta, loss):
        nonlocal last_recorded
        diff = beta - ref
        rows.append(tuple(float(v) for v in (k * h, loss, float(diff @ diff),
                                             loss_integral,
                                             float(np.linalg.norm(r_acc)))))
        rec_steps.append(k)
        checkpoints.append({"step": k, "time": k * h, "beta": beta.copy(),
                            "eta": eta.copy(), "delta": delta.copy(),
                            "loss_integral": loss_integral})
        last_recorded = k

    def matrix_at(k):
        if matrices.ndim == 2:
            return matrices
        return matrices[min(k, matrices.shape[0] - 1)]

    block = 4096
    k = 0
    stopped = False
    while k < steps and not stopped:
        count = min(block, steps - k)
        xi_all = rng.normal((count, n + d))
        if matrices is not None:
            z_gen = rng.normal((count, matrices.shape[-2]))
        for j in range(count):
            beta = w_p * w_p - w_m * w_m
            rbar = Xbar @ beta - Ybar
            loss = 0.5 * float(rbar @ rbar)
            if not np.isfinite(loss):
                raise Diverged(k)
            if k % record_stride == 0:
                record(k, beta, loss)
            if early_stop:
                streak = streak + 1 if loss <= 1e-12 else 0
                if streak >= 100:
                    stopped = True
                    break

            g = 2.0 * h * (Xbar.T @ rbar)
            amp = 2.0 * np.sqrt(gamma * loss) * sqh
            xi = xi_all[j]
            m_x = amp * (Xbar.T @ xi[:n])
            c = g - m_x
            v = var_fac * loss
            eta = eta - g + m_x
            if sigma > 0:
                m_i = (amp * sigma) * xi[n:]
                inc = sqh * xi[n:]
                r_acc = r_acc + sigma * np.sqrt(gamma * loss) * (inc - P @ inc)
                c = c - m_i
                delta = delta + m_i
            if matrices is not None:
                mat = matrix_at(k)
                m_g = 2.0 * sqh * (mat.T @ z_gen[j])
                c = c - m_g
                delta = delta + m_g
                r_acc = r_acc + 0.5 * (m_g - P @ m_g)
                v = v + 4.0 * h * np.sum(mat * mat, axis=0)
                noise_sq_integral += h * float(np.sum(mat * mat))
            fade = np.exp(-0.5 * v)
            grow = np.exp(-c)
            w_p = w_p * (fade * grow)
            w_m = w_m * (fade / grow)
            loss_integral += h * loss
            noise_sq_integral += h * 4.0 * sigma * sigma * loss
            k += 1

    beta = w_p * w_p - w_m * w_m
    rbar = Xbar @ beta - Ybar
    if last_recorded != k:
        record(k, beta, 0.5 * float(rbar @ rbar))
    return {"rows": rows, "steps": rec_steps, "checkpoints": checkpoints,
            "w_plus": w_p, "w_minus": w_m, "eta": eta, "delta": delta,
            "r_acc": r_acc, "loss_integral": loss_integral,
            "noise_sq_integral": noise_sq_integral, "converged": stopped,
            "steps_run": k}
