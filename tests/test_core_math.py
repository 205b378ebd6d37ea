"""Kernel-level checks: random streams, dense solvers, CSV formatting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noiselab import (
    RngStream,
    Trajectory,
    fmt17,
    min_norm_solve,
    row_space_projector,
    solve_lyapunov,
    spectral_norm,
)
from oracles import (
    gram_projector,
    lyapunov_kron,
    lyapunov_quadrature,
    min_norm_interpolator,
    normal_equations_lsq,
    spectral_norm_3x3,
)


def random_spd(rng, d, lo=0.2, hi=3.0):
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    lam = rng.uniform(lo, hi, d)
    return (Q * lam) @ Q.T


# (n, batch) shapes of the index draw: both branches of choice, ranges that
# take a 32-bit output and ranges that take a whole word, ranges where Lemire's
# method rejects about half (n = 2^31 + 7) or a quarter (n = 2^62 + 1) of all
# outputs, and one tail-shuffle shape. A batch-1 shape keeps the id n.
DRAW_SHAPES = sorted(
    {(n, b) for n in (1, 2, 3, 4, 5, 6, 7, 40, 41, 100, 1000, 10000, 10001, 20000, 50000,
                      2**31 + 7, 2**32 - 1, 2**32, 2**32 + 1, 2**32 + 5, 2**40, 2**62 + 1)
     for b in (1, 2, 4, 40, n) if b <= min(n, 50000)} | {(20000, 401)})
DRAW_IDS = [str(n) if b == 1 else f"{n}-{b}" for n, b in DRAW_SHAPES]


class TestRngStream:
    def test_same_address_same_samples(self):
        a = RngStream(42).normal(16)
        b = RngStream(42).normal(16)
        assert np.array_equal(a, b)

    def test_children_are_distinct(self):
        root = RngStream(7)
        kids = [root.child(k).normal(8) for k in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.array_equal(kids[i], kids[j])

    def test_child_path_is_reproducible(self):
        assert np.array_equal(
            RngStream(3).child(2).child(5).normal(4),
            RngStream(3, (2, 5)).normal(4),
        )

    def test_indices_without_replacement(self):
        idx = RngStream(11).indices(10, 10)
        assert sorted(idx.tolist()) == list(range(10))

    @pytest.mark.parametrize("n, batch", DRAW_SHAPES, ids=DRAW_IDS)
    def test_single_index_draw_matches_choice(self, n, batch):
        # indices(n, batch) reads raw PCG64 words: the values, and the state it
        # leaves for the normals drawn in between, must be choice's, or every
        # minibatch stream would change
        draws = max(2, 4000 // batch)
        for seed in range(3):
            got, ref = RngStream(seed), RngStream(seed)
            for _ in range(draws):
                idx = got.indices(n, batch)
                assert idx.dtype == np.int64 and idx.shape == (batch,)
                assert np.array_equal(idx, ref._gen.choice(n, batch, replace=False))
                assert np.array_equal(got.normal(3), ref.normal(3))
            # Equal in all that later draws read: the PCG64 state and
            # increment, and the pending upper half, which numpy holds in the
            # generator and the stream in _half. A spent half stays behind in
            # numpy's uinteger, where no draw reads it.
            theirs, ours = ref._gen.bit_generator.state, got._gen.bit_generator.state
            assert ours["state"] == theirs["state"]
            assert ours["has_uint32"] == 0
            assert got._half == (theirs["uinteger"] if theirs["has_uint32"] else None)
            for _ in range(min(100, draws)):
                assert np.array_equal(got.indices(n, batch),
                                      ref._gen.choice(n, batch, replace=False))
                assert np.array_equal(got.normal(3), ref.normal(3))

    def test_rejected_shuffle_draw_matches_choice(self):
        # seed 628's first draw rejects a 32-bit output in the shuffle of the
        # picks, where Lemire's method rejects fewer than 10^-5 of all draws
        got, ref = RngStream(628), RngStream(628)
        assert np.array_equal(got.indices(10000, 10000),
                              ref._gen.choice(10000, 10000, replace=False))
        assert np.array_equal(got.normal(3), ref.normal(3))

    def test_draws_across_the_choice_boundary_keep_the_pending_half(self):
        # a batch-1 draw leaves a 32-bit half pending; numpy's choice must read
        # it first in the tail-shuffle and 64-bit shapes, and the shapes drawn
        # by hand after them must read what choice leaves pending
        shapes = ((40, 1), (20000, 401), (2**40, 4), (40, 4), (40, 1), (2**40, 1))
        for seed in range(5):
            got, ref = RngStream(seed), RngStream(seed)
            for _ in range(3):
                for n, batch in shapes:
                    assert np.array_equal(got.indices(n, batch),
                                          ref._gen.choice(n, batch, replace=False))
                    assert np.array_equal(got.normal(3), ref.normal(3))
            theirs, ours = ref._gen.bit_generator.state, got._gen.bit_generator.state
            assert ours["state"] == theirs["state"]
            assert ours["has_uint32"] == 0
            assert got._half == (theirs["uinteger"] if theirs["has_uint32"] else None)

    def test_invalid_draws_rejected(self):
        for n, batch in ((3, 4), (3, -1), (0, 1), (-2, 1)):
            with pytest.raises(ValueError):
                RngStream(0).indices(n, batch)
        assert RngStream(0).indices(0, 0).shape == (0,)

    def test_normal_into_buffer_continues_the_sequence(self):
        buf = np.empty(10)
        assert RngStream(5).normal(out=buf) is buf
        halves = RngStream(5)
        assert np.array_equal(buf, np.concatenate((halves.normal(5), halves.normal(5))))

    def test_state_key_tells_streams_that_draw_alike(self):
        a, b, c = RngStream(5), RngStream(5), RngStream(5, (1,))
        assert a.state_key() == b.state_key() != c.state_key()
        assert len({a.state_key(), b.state_key()}) == 1  # hashable
        a.normal(3)
        assert a.state_key() != b.state_key()
        b.normal(3)
        assert a.state_key() == b.state_key()

    def test_state_key_holds_the_pending_half(self):
        # seed 5's first two batch-1 draws from range(7) read one 64-bit
        # word: a has drawn once and holds its upper half, b has drawn twice
        # and holds none, so the PCG64 states agree while the keys do not
        a, b = RngStream(5), RngStream(5)
        a.indices(7, 1)
        b.indices(7, 1)
        b.indices(7, 1)
        assert a._half is not None and b._half is None
        assert a._gen.bit_generator.state == b._gen.bit_generator.state
        assert a.state_key() != b.state_key()

    @pytest.mark.parametrize("n, batch", [(7, 1), (40, 4), (20000, 1000)])
    def test_take_state_continues_the_other_stream(self, n, batch):
        # a stream that takes another's state, pending half included, makes
        # the other's draws from there on, through both index algorithms,
        # and keeps its own address
        lead = RngStream(5)
        lead.indices(7, 1)
        lead.normal(2)
        follower = RngStream(9, (2,))
        follower.take_state(lead)
        assert follower.state_key() == lead.state_key()
        assert (follower.seed, follower.path) == (9, (2,))
        for _ in range(3):
            assert np.array_equal(follower.indices(n, batch), lead.indices(n, batch))
            assert np.array_equal(follower.normal(3), lead.normal(3))
        # the state is copied, not shared
        follower.normal(1)
        assert follower.state_key() != lead.state_key()

    def test_draws_do_not_disturb_siblings(self):
        # consuming one child stream must not shift another
        root = RngStream(9)
        before = root.child(1).normal(6)
        root.child(0).normal(1000)
        after = root.child(1).normal(6)
        assert np.array_equal(before, after)


class TestMinNormSolve:
    def test_underparam_matches_normal_equations(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((30, 6))
        Y = rng.standard_normal(30)
        assert np.allclose(min_norm_solve(X, Y), normal_equations_lsq(X, Y), atol=1e-10)

    def test_overparam_matches_gram_route(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((8, 25))
        Y = rng.standard_normal(8)
        theta = min_norm_solve(X, Y)
        assert np.allclose(theta, min_norm_interpolator(X, Y), atol=1e-10)
        assert np.allclose(X @ theta, Y, atol=1e-10)

    def test_norm_is_minimal_among_interpolators(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((5, 12))
        Y = rng.standard_normal(5)
        theta = min_norm_solve(X, Y)
        # perturb inside the null space of X: still interpolates, never shorter
        _, _, Vt = np.linalg.svd(X)
        null = Vt[5:]
        for k in range(null.shape[0]):
            other = theta + 0.3 * null[k]
            assert np.allclose(X @ other, Y, atol=1e-8)
            assert np.linalg.norm(other) >= np.linalg.norm(theta)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            min_norm_solve(np.eye(3), np.ones(4))


class TestSolveLyapunov:
    def test_residual_and_kron_agreement(self):
        rng = np.random.default_rng(3)
        for d in (2, 5, 11, 20):
            B = random_spd(rng, d)
            D = rng.standard_normal((d, d))
            D = D @ D.T / d + 0.1 * np.eye(d)
            W = solve_lyapunov(B, D)
            res = np.linalg.norm(B @ W + W @ B - 2 * D)
            assert res <= 1e-10 * np.linalg.norm(D)
            assert np.abs(W - lyapunov_kron(B, D)).max() <= 1e-9

    def test_quadrature_route(self):
        rng = np.random.default_rng(4)
        B = random_spd(rng, 6, lo=0.4, hi=2.0)
        D = random_spd(rng, 6, lo=0.1, hi=1.0)
        W = solve_lyapunov(B, D)
        assert np.abs(W - lyapunov_quadrature(B, D)).max() <= 1e-6

    def test_identity_case(self):
        # B = I: W must equal D itself
        D = np.array([[2.0, 0.3], [0.3, 1.0]])
        assert np.allclose(solve_lyapunov(np.eye(2), D), D, atol=1e-12)

    def test_rejects_asymmetric_and_indefinite(self):
        with pytest.raises(ValueError):
            solve_lyapunov(np.array([[1.0, 0.5], [0.0, 1.0]]), np.eye(2))
        with pytest.raises(ValueError):
            solve_lyapunov(np.diag([1.0, -0.5]), np.eye(2))


class TestRowSpaceProjector:
    def test_matches_gram_inverse(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((7, 20))
        P = row_space_projector(X)
        assert np.allclose(P, gram_projector(X), atol=1e-10)

    def test_projector_identities(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((4, 9))
        P = row_space_projector(X)
        assert np.allclose(P @ P, P, atol=1e-12)
        assert np.allclose(P, P.T, atol=1e-14)
        assert np.allclose(P @ X.T, X.T, atol=1e-12)

    def test_rank_deficient_rows(self):
        X = np.vstack([np.ones(5), np.ones(5) * 2.0])
        P = row_space_projector(X)
        assert np.isclose(np.trace(P), 1.0, atol=1e-12)


class TestSpectralNorm:
    def test_three_column_char_poly(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            M = rng.standard_normal((6, 3))
            assert np.isclose(spectral_norm(M), spectral_norm_3x3(M), atol=1e-9)

    def test_rank_one(self):
        u = np.array([3.0, 4.0])
        v = np.array([1.0, 2.0, 2.0])
        assert np.isclose(spectral_norm(np.outer(u, v)), 15.0, atol=1e-12)

    @given(st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=20, deadline=None)
    def test_scaling_homogeneity(self, c):
        M = np.arange(6, dtype=float).reshape(2, 3) + 1.0
        assert np.isclose(spectral_norm(c * M), c * spectral_norm(M), rtol=1e-12)


class TestFmt17:
    @given(st.floats(allow_nan=False, allow_infinity=False, width=64))
    @settings(max_examples=300, deadline=None)
    def test_roundtrip_exact(self, x):
        assert float(fmt17(x)) == x

    def test_small_integers_stay_short(self):
        assert fmt17(2.0) == "2"
        assert fmt17(0.5) == "0.5"


class TestTrajectory:
    def test_csv_layout(self):
        tr = Trajectory(("t", "loss"))
        tr.append(0.0, 1.5)
        tr.append(1.0, 0.25)
        text = tr.csv_text()
        assert text.splitlines()[0] == "t, loss"
        assert text.splitlines()[2] == "1, 0.25"
        assert text.endswith("\n")

    def test_row_width_enforced(self):
        tr = Trajectory(("a", "b"))
        with pytest.raises(ValueError):
            tr.append(1.0)

    def test_column_extraction(self):
        tr = Trajectory(("a", "b"))
        tr.append(1.0, 10.0)
        tr.append(2.0, 20.0)
        assert np.array_equal(tr.column("b"), np.array([10.0, 20.0]))

    def test_rerender_is_identical(self):
        tr = Trajectory(("x",))
        tr.append(0.1234567890123456789)
        assert tr.csv_text() == tr.csv_text()
