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
    """Raised by sde_reference and discrete_step_reference when the iterate
    leaves the finite range."""

    def __init__(self, step):
        super().__init__(f"non-finite loss at step {step}")
        self.step = step


def discrete_step_reference(X, Y, Xbar, Ybar, state, kind, gamma, sigma, batch, rng):
    """One multiplicative update of the diagonal network's weight pair.

    This is the single-step function the package stepped before its ensemble
    loop existed, kept as the sequential reference. state is a dict with
    w_plus, w_minus, step, time and loss_integral; the updated dict is
    returned. w_+ <- w_+ (1 - 2 gamma a_t + gamma sigma_t Z_+), and mirrored
    with independent Z_- for w_-, where a_t is the minibatch gradient
    estimate and sigma_t = 2 sigma sqrt(L(w_t)) scales the isotropic noise by
    the loss. GD drops both stochastic terms, SGD drops the Z term, and a full
    batch uses the GD gradient and draws no indices. Draw order: the
    minibatch from numpy's choice(n, batch, replace=False) on the stream's
    generator, so that RngStream.indices is checked against numpy and not
    against itself, then Z_+, then Z_- from rng.normal(d). A pre-step loss or
    an updated weight that is not finite raises Diverged(step).
    """
    n, d = X.shape
    w_p, w_m = state["w_plus"], state["w_minus"]
    beta = w_p * w_p - w_m * w_m
    rbar = Xbar @ beta - Ybar
    loss = 0.5 * float(rbar @ rbar)
    if not np.isfinite(loss):
        raise Diverged(state["step"])

    if kind == "GD" or batch == n:
        a = Xbar.T @ rbar
    elif batch == 1:
        i = int(rng._gen.choice(n, 1, replace=False)[0])
        a = X[i] * (np.sqrt(n) * rbar[i])
    else:
        idx = rng._gen.choice(n, batch, replace=False)
        rows = X[idx]
        a = rows.T @ (rows @ beta - Y[idx]) / batch
    drift = 2.0 * gamma * a
    mult_p = 1.0 - drift
    mult_m = 1.0 + drift

    if kind == "NoisySGD" and sigma > 0:
        sigma_t = 2.0 * sigma * np.sqrt(loss)
        z_p = rng.normal(d)
        z_m = rng.normal(d)
        mult_p = mult_p + gamma * sigma_t * z_p
        mult_m = mult_m - gamma * sigma_t * z_m

    new_p = w_p * mult_p
    new_m = w_m * mult_m
    if not (np.all(np.isfinite(new_p)) and np.all(np.isfinite(new_m))):
        raise Diverged(state["step"])
    return {"w_plus": new_p, "w_minus": new_m, "step": state["step"] + 1,
            "time": state["time"] + gamma,
            "loss_integral": state["loss_integral"] + gamma * loss}


def sde_reference(Xbar, Ybar, ref, P, alpha, sigma, gamma, h, steps, rng,
                  record_stride=100, early_stop=True):
    """One run of the mirrored weight SDE, stepped one seed at a time.

    This is the single-run geometric Euler-Maruyama loop that the package
    integrated before its ensemble integrator existed, kept as the sequential
    reference: noise is drawn from rng.normal in blocks of 4096 steps of
    N(0, I_{n+d}), and the run stops once the loss stays at or below 1e-12
    for 100 straight steps. A loss that is not finite, before a step or at
    the final iterate, raises Diverged at that step. Returns a dict with the
    trajectory rows (t, loss, squared distance to ref), their step indices,
    the checkpoints and the final state.
    """
    n, d = Xbar.shape
    w_p = np.full(d, float(alpha))
    w_m = np.full(d, float(alpha))
    sqh = np.sqrt(h)
    var_fac = 4.0 * gamma * h * (np.sum(Xbar * Xbar, axis=0) + sigma * sigma)
    eta = np.zeros(d)
    delta = np.zeros(d)
    r_acc = np.zeros(d)
    loss_integral = 0.0
    streak = 0
    last_recorded = -1
    rows, rec_steps, checkpoints = [], [], []

    def record(k, beta, loss):
        nonlocal last_recorded
        diff = beta - ref
        rows.append(tuple(float(v) for v in (k * h, loss, float(diff @ diff))))
        rec_steps.append(k)
        checkpoints.append({"step": k, "time": k * h, "beta": beta.copy(),
                            "eta": eta.copy(), "delta": delta.copy(),
                            "loss_integral": loss_integral})
        last_recorded = k

    block = 4096
    k = 0
    stopped = False
    while k < steps and not stopped:
        count = min(block, steps - k)
        xi_all = rng.normal((count, n + d))
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
            fade = np.exp(-0.5 * v)
            grow = np.exp(-c)
            w_p = w_p * (fade * grow)
            w_m = w_m * (fade / grow)
            loss_integral += h * loss
            k += 1

    beta = w_p * w_p - w_m * w_m
    rbar = Xbar @ beta - Ybar
    loss = 0.5 * float(rbar @ rbar)
    if not np.isfinite(loss):
        raise Diverged(k)
    if last_recorded != k:
        record(k, beta, loss)
    return {"rows": rows, "steps": rec_steps, "checkpoints": checkpoints,
            "w_plus": w_p, "w_minus": w_m, "eta": eta, "delta": delta,
            "r_acc": r_acc, "loss_integral": loss_integral, "converged": stopped,
            "steps_run": k}


class SolverFailed(Exception):
    """Raised by tilted_reference when the dual iteration gives up."""

    def __init__(self, message, beta, loss, kkt_residual):
        super().__init__(message)
        self.beta = beta
        self.loss = loss
        self.kkt_residual = kkt_residual


def tilted_reference(Xbar, Ybar, P, gamma, a, tilt, max_iters=1_000_000, tol=1e-12,
                     events=None):
    """Dual mirror descent for one tilted limit problem, one iterate at a time.

    This is the single-problem loop the package ran before its ensemble solver
    existed, kept as the sequential reference: it starts at u = tilt, steps
    u <- u - eta Xbar^T (Xbar beta(u) - Ybar) with beta(u) = 2 a^2 sinh(4u),
    eta = gamma / max(1, 8 max(a)^2), and restarts from the tilt with half the
    step when the loss grows 1e6-fold past its first value or its floor does
    not drop for 50,000 evaluations. P is the row-space projector of the
    design and gamma its default step size. Returns beta once the loss is at
    or below tol with KKT residual ||(I - P)(phi'(beta) - tilt)|| <= 1e-6, and
    raises SolverFailed otherwise. A start point 2 a^2 sinh(4 tilt) that is not
    finite makes this loop spin forever; callers must not pass one. If events
    is a list, each restart appends (evaluations spent, cause) to it, with
    cause "nonfinite", "diverged" or "stalled", and the end appends
    (evaluations spent, "converged") or (max_iters, "exhausted").
    """
    d = Xbar.shape[1]
    a = np.asarray(a, dtype=float)
    a2 = a * a
    tilt = np.asarray(tilt, dtype=float)
    eta = gamma / max(1.0, 8.0 * float(np.max(a) ** 2))

    def kkt_of(beta):
        g = 0.25 * np.arcsinh(beta / (2.0 * a2))
        return float(np.linalg.norm((np.eye(d) - P) @ (g - tilt)))

    best_beta, best_loss = None, np.inf
    spent = 0
    while spent < max_iters:
        u = tilt.copy()
        loss0 = None
        floor, floor_age = np.inf, 0
        while spent < max_iters:
            with np.errstate(over="ignore", invalid="ignore"):
                beta = 2.0 * a2 * np.sinh(4.0 * u)
            if not np.all(np.isfinite(beta)):
                cause = "nonfinite"
                break
            r = Xbar @ beta - Ybar
            loss, grad = 0.5 * float(r @ r), Xbar.T @ r
            spent += 1
            if loss0 is None:
                loss0 = loss
            if loss < best_loss:
                best_loss, best_beta = loss, beta
            if loss <= tol:
                kkt = kkt_of(beta)
                if kkt > 1e-6:
                    raise SolverFailed(
                        f"loss converged but KKT residual {kkt:.3e} exceeds 1e-6",
                        beta, loss, kkt)
                if events is not None:
                    events.append((spent, "converged"))
                return beta
            if loss < floor:
                floor, floor_age = loss, 0
            else:
                floor_age += 1
            if loss > 1e6 * max(loss0, 1e-300) or floor_age >= 50_000:
                cause = "diverged" if floor_age < 50_000 else "stalled"
                break
            u = u - eta * grad
        else:
            break
        eta *= 0.5
        if events is not None:
            events.append((spent, cause))

    if events is not None:
        events.append((max_iters, "exhausted"))
    if best_beta is None:
        beta = 2.0 * a2 * np.sinh(4.0 * tilt)
    else:
        beta = best_beta
    raise SolverFailed(
        f"no iterate reached loss {tol:.1e} within {max_iters} evaluations "
        f"(best {best_loss:.3e})",
        beta, best_loss, kkt_of(beta))


def ou_reference(Xbar, Ybar, gamma, eps, sigma, h, steps, burn_in, rng,
                 record_stride=100, thin=10):
    """One run of the underparametrized OU Euler-Maruyama chain, one row alone.

    This is the single-run loop that the package integrated before its
    ensemble integrator existed, kept as the sequential reference: noise is
    drawn from rng.normal in blocks of 10,000 steps (data noise, d normals
    times the triangular QR factor R of Xbar, so that its covariance is
    R^T R = Xbar^T Xbar; then isotropic noise; absent terms draw nothing),
    the pre-update state is sampled every `thin` steps from `burn_in` on and
    recorded every `record_stride` steps. Returns a dict with the mean,
    covariance, batch-means standard errors, sample count, final state and
    the recorded rows (t, loss, ||theta||).
    """
    d = Xbar.shape[1]
    A = Xbar.T @ Xbar
    b = Xbar.T @ Ybar
    R = np.linalg.qr(Xbar, mode="r")
    amp_x = np.sqrt(h) * np.sqrt(gamma) * eps
    amp_i = np.sqrt(h) * sigma
    theta = np.zeros(d)
    n_samples = (steps - burn_in + thin - 1) // thin
    samples = np.empty((n_samples, d))
    rows = []
    block = 10_000
    sample_at = burn_in
    si = 0
    for start in range(0, steps, block):
        count = min(block, steps - start)
        if eps > 0:
            noise = amp_x * (rng.normal((count, d)) @ R)
            if sigma > 0:
                noise += amp_i * rng.normal((count, d))
        elif sigma > 0:
            noise = amp_i * rng.normal((count, d))
        else:
            noise = None
        for j in range(count):
            k = start + j
            if k >= burn_in and k == sample_at:
                samples[si] = theta
                si += 1
                sample_at += thin
            if k % record_stride == 0:
                r = Xbar @ theta - Ybar
                rows.append((k * h, 0.5 * float(r @ r), float(np.linalg.norm(theta))))
            if noise is None:
                theta = theta - h * (A @ theta - b)
            else:
                theta = theta - h * (A @ theta - b) + noise[j]
    samples = samples[:si]
    mean = samples.mean(axis=0)
    centered = samples - mean
    cov = (centered.T @ centered) / si
    n_batches = min(50, si)
    bounds = np.linspace(0, si, n_batches + 1).astype(int)
    batch_means = np.array([samples[a:c].mean(axis=0)
                            for a, c in zip(bounds[:-1], bounds[1:])])
    mean_se = batch_means.std(axis=0, ddof=1) / np.sqrt(n_batches)
    return {"mean": mean, "cov": cov, "mean_se": mean_se, "n_samples": si,
            "final_theta": theta, "rows": rows}


def coupled_reference(Xbar, Ybar, gamma, sigma, steps, n_traj, rng, record_stride=1):
    """One clean/noisy coupled integration for a single sigma.

    The per-sigma loop the package ran before it integrated a whole sigma
    grid in one pass: clean and noisy copies share the increments drawn from
    rng.child(2), the noisy copy adds its own from rng.child(1), and both
    start at zero with step size gamma. Returns a dict with the recorded
    times, mean deviations, mean loss integrals and bound values.
    """
    n, d = Xbar.shape
    h = gamma
    sq = np.sqrt(h * gamma)
    theta = np.zeros((n_traj, d))
    beta = np.zeros((n_traj, d))
    loss_int = np.zeros(n_traj)
    shared = rng.child(2)
    own = rng.child(1)

    times, eta_mean, li_mean, rhs = [0.0], [0.0], [0.0], [0.0]
    for k in range(steps):
        r_t = theta @ Xbar.T - Ybar
        r_b = beta @ Xbar.T - Ybar
        l_t = 0.5 * np.einsum("ij,ij->i", r_t, r_t)
        l_b = 0.5 * np.einsum("ij,ij->i", r_b, r_b)
        loss_int += h * l_b
        xi = shared.normal((n_traj, n)) @ Xbar
        theta = theta - h * (r_t @ Xbar) + sq * np.sqrt(l_t)[:, None] * xi
        beta = beta - h * (r_b @ Xbar) + sq * np.sqrt(l_b)[:, None] * xi
        if sigma > 0:
            beta = beta + (sq * sigma) * np.sqrt(l_b)[:, None] * own.normal((n_traj, d))
        if (k + 1) % record_stride == 0 or k + 1 == steps:
            diff = theta - beta
            eta = float(np.mean(np.einsum("ij,ij->i", diff, diff)))
            li = float(np.mean(loss_int))
            t = (k + 1) * h
            times.append(t)
            eta_mean.append(eta)
            li_mean.append(li)
            rhs.append(gamma * d * sigma * sigma * li)
    return {"times": np.array(times), "eta_mean": np.array(eta_mean),
            "loss_integral_mean": np.array(li_mean), "bound_rhs": np.array(rhs)}
