"""Dense linear-algebra kernels, seeded random streams, and trajectory records.

Everything is desk scale: dense float64 matrices of at most a few hundred rows,
factored through SVD or symmetric eigendecomposition. The dynamics modules are
built on these kernels and on RngStream, which makes every simulation
replayable bit for bit.
"""

from __future__ import annotations

import operator

import numpy as np

# Row-major dense carriers. All kernels expect finite float64 entries.
Mat = np.ndarray
Vec = np.ndarray

# Relative singular-value cutoff below which directions count as rank-deficient.
PINV_CUTOFF = 1e-12

_MASK64 = (1 << 64) - 1
_TWO32 = 1 << 32
_MASK32 = _TWO32 - 1


def _require_finite(name: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")


class RngStream:
    """Deterministic random stream addressed by (seed, path).

    Streams with equal seed and path emit identical samples bit for bit;
    distinct paths give statistically independent PCG64 states. child(k)
    derives a sub-stream, so one experiment seed fans out into per-trajectory
    and per-role streams (index draws vs Gaussian noise vs shared Brownian
    increments) without any cross-talk.

    indices is the stream's only consumer of 32-bit outputs. Between calls
    it holds the pending upper half of the last PCG64 word it split in
    _half, where numpy's next_uint32 would hold it in the generator, whose
    own has_uint32 stays 0; normal reads whole words only and leaves that
    half alone. So the stream emits what one numpy Generator would for the
    same calls to choice and standard_normal.
    """

    __slots__ = ("seed", "path", "_gen", "_half")

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        self.seed = int(seed) & _MASK64
        self.path = tuple(int(p) & _MASK64 for p in path)
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence((self.seed,) + self.path))
        )
        self._half = None

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, path={self.path})"

    def child(self, k: int) -> "RngStream":
        return RngStream(self.seed, self.path + (k,))

    def state_key(self) -> tuple:
        """Hashable state: the PCG64 state and the pending half. Two streams
        with equal keys make the same draws from here on, whatever their seeds."""
        st = self._gen.bit_generator.state["state"]
        return st["state"], st["inc"], self._half

    def take_state(self, other: "RngStream") -> None:
        """Continue from where `other` stands: make the draws it would make next."""
        self._gen.bit_generator.state = other._gen.bit_generator.state
        self._half = other._half

    def normal(self, size=None, out=None):
        return self._gen.standard_normal(size, out=out)

    def indices(self, n: int, batch: int):
        """Uniform draw of `batch` distinct indices from range(n), as an int64
        array: the values and the stream state that
        Generator.choice(n, batch, replace=False) leaves (numpy >= 1.17).

        For n <= 2^32 outside choice's tail shuffle (n > 10000 and
        batch > n // 50), which covers every minibatch the studies draw, this
        runs choice's own algorithm on 32-bit outputs in plain Python: Floyd's
        loop, then the Fisher-Yates shuffle of the picks, each value drawn by
        Lemire's method. Every other shape calls choice itself, with the
        pending half handed over in the generator's state.
        """
        n, batch = operator.index(n), operator.index(batch)
        if batch < 0 or batch > n or (n <= 0 and batch):
            raise ValueError(f"cannot draw {batch} distinct indices from range({n})")
        if n > _TWO32 or (n > 10000 and batch > n // 50):
            bg = self._gen.bit_generator
            if self._half is not None:
                bg.state = {**bg.state, "has_uint32": 1, "uinteger": self._half}
            picks = self._gen.choice(n, batch, replace=False)
            state = bg.state
            self._half = state["uinteger"] if state["has_uint32"] else None
            bg.state = {**state, "has_uint32": 0}
            return picks
        # Each 32-bit output u below is the low half of a fresh word, or else
        # the half it left pending. Lemire's method maps it to
        # (u * (top + 1)) >> 32 on [0, top], and redraws when the product's
        # low 32 bits fall below 2^32 mod (top + 1), which would bias it; top
        # 0 reads nothing.
        raw, half = self._gen.bit_generator.random_raw, self._half
        picks, seen = [], set()
        for top in range(n - batch, n):
            # Floyd: a uniform value on [0, top], or top if it is taken
            v = 0
            while top:
                if half is None:
                    u = raw()
                    half, u = u >> 32, u & _MASK32
                else:
                    u, half = half, None
                m = u * (top + 1)
                if m & _MASK32 > top or m & _MASK32 >= _TWO32 % (top + 1):
                    v = m >> 32
                    break
            if v in seen:
                v = top
            seen.add(v)
            picks.append(v)
        # Fisher-Yates: swap slot i with a uniform slot j in [0, i]
        for i in range(batch - 1, 0, -1):
            while True:
                if half is None:
                    u = raw()
                    half, u = u >> 32, u & _MASK32
                else:
                    u, half = half, None
                m = u * (i + 1)
                if m & _MASK32 > i or m & _MASK32 >= _TWO32 % (i + 1):
                    j = m >> 32
                    break
            picks[i], picks[j] = picks[j], picks[i]
        self._half = half
        return np.array(picks, dtype=np.int64)


def min_norm_solve(X: Mat, Y: Vec) -> Vec:
    """Least-squares solution of minimal Euclidean norm, pinv(X) @ Y."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.ndim != 2 or Y.ndim != 1 or X.shape[0] != Y.shape[0]:
        raise ValueError("shape mismatch between X and Y")
    _require_finite("X", X)
    _require_finite("Y", Y)
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        raise ValueError("X must be nonzero")
    keep = s > PINV_CUTOFF * s[0]
    return Vt[keep].T @ ((U[:, keep].T @ Y) / s[keep])


def solve_lyapunov(Bm: Mat, D: Mat) -> Mat:
    """Solve Bm W + W Bm = 2 D for symmetric positive definite Bm.

    Works in the eigenbasis of Bm, where the equation decouples entrywise:
    W = Q ((Q^T D Q)_ij * 2 / (lam_i + lam_j)) Q^T.
    """
    Bm = np.asarray(Bm, dtype=float)
    D = np.asarray(D, dtype=float)
    if Bm.ndim != 2 or Bm.shape[0] != Bm.shape[1] or Bm.shape != D.shape:
        raise ValueError("Bm and D must be square matrices of equal shape")
    _require_finite("Bm", Bm)
    _require_finite("D", D)
    scale = max(1.0, float(np.abs(Bm).max()))
    if not np.allclose(Bm, Bm.T, rtol=0.0, atol=1e-10 * scale):
        raise ValueError("Bm must be symmetric")
    lam, Q = np.linalg.eigh(0.5 * (Bm + Bm.T))
    if lam[0] <= 1e-12 * max(lam[-1], 0.0):
        raise ValueError("Bm must be positive definite")
    core = (Q.T @ D @ Q) * (2.0 / (lam[:, None] + lam[None, :]))
    W = Q @ core @ Q.T
    # symmetrize away factorization roundoff
    return 0.5 * (W + W.T)


def row_space_projector(X: Mat) -> Mat:
    """Orthogonal projector onto the span of the rows of X."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be a matrix")
    _require_finite("X", X)
    _, s, Vt = np.linalg.svd(X, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        return np.zeros((X.shape[1], X.shape[1]))
    Vr = Vt[s > PINV_CUTOFF * s[0]]
    P = Vr.T @ Vr
    return 0.5 * (P + P.T)


# Ensemble kernels. Each row of a (rows, d) operand gets its own BLAS call:
# matmul over a stack of (n, d) @ (d, 1) items runs one gemv per item, and a
# stack of (1, n) @ (n, 1) items one dot per item, the same kernels a single
# row's `Xbar @ beta` and `r @ r` call. A (rows, d) @ (d, n) product would run
# one gemm, whose summation order differs from gemv in the last bits.

def matvecs(M: np.ndarray, V: Mat) -> Mat:
    """Row i is M @ V[i], or M[i] @ V[i] for a stack of matrices M."""
    return np.matmul(M, V[:, :, None])[:, :, 0]


def dots(V: Mat, W: Mat) -> Vec:
    """Entry i is V[i] @ W[i]; W may be one row, shared by every row of V."""
    return np.matmul(V[:, None, :], W[:, :, None])[:, 0, 0]


class Rows:
    """Per-row arrays of the rows still in an ensemble; keep() drops the others."""

    def __init__(self, **arrays):
        self.__dict__.update(arrays)

    def keep(self, mask) -> None:
        self.__dict__.update({k: v[mask] for k, v in vars(self).items() if v is not None})


def spectral_norm(M: Mat) -> float:
    """Largest singular value of M."""
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        raise ValueError("empty matrix")
    _require_finite("M", M)
    return float(np.linalg.svd(M, compute_uv=False)[0])


def fmt17(x: float) -> str:
    """Decimal rendering with 17 significant digits, round-trip exact."""
    return "%.17g" % float(x)


class Trajectory:
    """Column-labeled numeric rows with deterministic CSV rendering.

    meta holds side outputs (standard errors, final iterates) that belong to
    the run but not to the row schema.
    """

    def __init__(self, columns):
        self.columns = tuple(str(c) for c in columns)
        self.rows: list[tuple[float, ...]] = []
        self.meta: dict = {}

    def append(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError("row width does not match column count")
        self.rows.append(tuple(float(v) for v in values))

    def column(self, name: str) -> np.ndarray:
        return np.array([row[self.columns.index(name)] for row in self.rows])

    def csv_text(self) -> str:
        lines = [", ".join(self.columns)]
        for row in self.rows:
            lines.append(", ".join(fmt17(v) for v in row))
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write(self.csv_text())
