"""Deterministic operator algebra: tensors, square roots, projections."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opvol.operators import (
    NotPositiveSemidefinite,
    as_hilbert_vector,
    closed_form_diagonal,
    psd_sqrt_batch,
)
from opvol.processes import CoupledJumpStream, PoissonClock
from opvol.variance import GeneratorSpec, truncate_generator
from reference import corner, level_mask, project, psd_sqrt


def random_psd(rng, d=8, scale=1.0):
    A = rng.standard_normal((d, d))
    return scale * (A @ A.T) / d


class TestValidation:
    def test_vector_rejects_matrix(self):
        with pytest.raises(ValueError):
            as_hilbert_vector(np.eye(2))

    def test_vector_rejects_nan(self):
        with pytest.raises(ValueError):
            as_hilbert_vector([1.0, np.nan])


class TestTensorProduct:
    """The rank-one operator f (x) g, h -> (g, h) f, has the matrix np.outer(f, g)."""

    def test_basis_case(self):
        # e1 (x) e2 maps e2 -> e1 and kills the rest
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0])
        T = np.outer(e1, e2)
        assert np.array_equal(T @ e2, e1)
        assert np.array_equal(T @ e1, np.zeros(3))

    def test_action_is_inner_product(self):
        rng = np.random.default_rng(1)
        f, g, h = rng.standard_normal((3, 6))
        T = np.outer(f, g)
        np.testing.assert_allclose(T @ h, np.dot(g, h) * f, rtol=1e-13)

    def test_coefficients_match_entries(self):
        # <T, e_j (x) e_k> = (T e_k, e_j) = entry[j, k]
        rng = np.random.default_rng(2)
        T = rng.standard_normal((5, 5))
        for j in range(5):
            for k in range(5):
                ej = np.zeros(5)
                ej[j] = 1.0
                ek = np.zeros(5)
                ek[k] = 1.0
                assert abs(np.sum(T * np.outer(ej, ek)) - T[j, k]) < 1e-14

    def test_square_difference_example(self):
        # f=(1,0), g=(0,1): ||f(x)f - g(x)g||_hs^2 = 2, bound 4(|f|^2 v |g|^2)|f-g|^2 = 8
        f = np.array([1.0, 0.0])
        g = np.array([0.0, 1.0])
        D = np.outer(f, f) - np.outer(g, g)
        lhs = np.linalg.norm(D) ** 2
        assert abs(lhs - 2.0) < 1e-14
        bound = 4.0 * max(f @ f, g @ g) * np.sum((f - g) ** 2)
        assert abs(bound - 8.0) < 1e-14
        assert lhs <= bound

    def test_trace_norm_identity(self):
        # ||f (x) g||_1 = |f| |g|; |f|=2, |g|=3 gives 6
        f = np.array([2.0, 0.0, 0.0])
        g = np.array([0.0, 3.0, 0.0])
        assert abs(np.linalg.norm(np.outer(f, g), "nuc") - 6.0) < 1e-12


class TestPsdSqrt:
    def test_diagonal(self):
        np.testing.assert_allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-13)

    def test_hand_eigendecomposition(self):
        # [[2,1],[1,2]] has eigenvalues 3, 1; sqrt = [[(r3+1)/2, (r3-1)/2], ...]
        r3 = np.sqrt(3.0)
        expected = np.array([[(r3 + 1) / 2, (r3 - 1) / 2], [(r3 - 1) / 2, (r3 + 1) / 2]])
        np.testing.assert_allclose(psd_sqrt(np.array([[2.0, 1.0], [1.0, 2.0]])), expected, atol=1e-13)

    def test_zero(self):
        assert np.array_equal(psd_sqrt(np.zeros((3, 3))), np.zeros((3, 3)))

    def test_rejects_negative(self):
        with pytest.raises(NotPositiveSemidefinite):
            psd_sqrt(np.diag([1.0, -1e-3]))

    def test_clamps_noise(self):
        S = psd_sqrt(np.diag([1.0, -1e-11]))
        assert S[1, 1] == 0.0

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            psd_sqrt(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_roundtrip_random(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            T = random_psd(rng)
            S = psd_sqrt(T)
            assert np.linalg.norm(S @ S - T) <= 1e-10 * (1.0 + np.linalg.norm(T))

    def test_batch_matches_single(self):
        rng = np.random.default_rng(6)
        Ts = np.stack([random_psd(rng, d=5) for _ in range(7)])
        batch = psd_sqrt_batch(Ts)
        for i in range(7):
            np.testing.assert_allclose(batch[i], psd_sqrt(Ts[i]), atol=1e-12)

    def test_batch_rejects_negative(self):
        Ts = np.stack([np.eye(3), np.diag([1.0, 1.0, -0.5])])
        with pytest.raises(NotPositiveSemidefinite):
            psd_sqrt_batch(Ts)


def _eigh_sqrt_batch(Ts):
    """Square roots through eigh on every slot, each rebuilt as M @ M.T with
    M = U * w**(1/4): the reference psd_sqrt_batch must equal bit for bit,
    error message included."""
    w, U = np.linalg.eigh(Ts)
    opn = np.max(np.abs(w), axis=-1)
    tol = 1e-9 * (1.0 + opn)
    wmin = w[..., 0]
    bad = wmin < -tol
    if np.any(bad):
        i = tuple(int(k) for k in np.unravel_index(int(np.argmax(bad)), bad.shape))
        raise NotPositiveSemidefinite(
            f"matrix {i} in batch: eigenvalue {wmin[i]:.6e} below -tol_psd = {-tol[i]:.6e}"
        )
    M = U * np.sqrt(np.sqrt(np.clip(w, 0.0, None)))[..., None, :]
    return M @ np.swapaxes(M, -2, -1)


def mixed_psd_stack(seed, d, kinds, exponent):
    """Slots at scale 10**exponent: zero, diagonal (with +-0 and entries just
    below zero that the tolerance clamps), rank-one and full-rank PSD."""
    rng = np.random.default_rng(seed)
    scale = 10.0**exponent
    Ts = np.zeros((len(kinds), d, d))
    for g, kind in enumerate(kinds):
        if kind == "diagonal":
            diag = np.abs(rng.standard_normal(d)) * scale
            diag[rng.random(d) < 0.3] = rng.choice([0.0, -0.0, -1e-12 * scale])
            Ts[g] = np.diag(diag)
            if rng.random() < 0.5:
                Ts[g][~np.eye(d, dtype=bool)] = -0.0
        elif kind == "rank_one":
            y = rng.standard_normal(d)
            Ts[g] = np.outer(y, y) * scale
        elif kind == "full":
            A = rng.standard_normal((d, d))
            Ts[g] = A @ A.T * scale
    return Ts


class TestPsdSqrtDiagonalSlots:
    """psd_sqrt_batch skips eigh on diagonal slots; its output must be what
    eigh on every slot gives, signed zeros included."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 16),
        kinds=st.lists(st.sampled_from(["zero", "diagonal", "rank_one", "full"]), min_size=1, max_size=16),
        exponent=st.floats(-150.0, 150.0),
    )
    @example(seed=1, d=8, kinds=["diagonal"] * 6, exponent=0.0)
    @example(seed=2, d=3, kinds=["diagonal"], exponent=-150.0)
    def test_mixed_stacks_match_eigh(self, seed, d, kinds, exponent):
        Ts = mixed_psd_stack(seed, d, kinds, exponent)
        try:
            expected = _eigh_sqrt_batch(Ts)
        except NotPositiveSemidefinite as exc:
            with pytest.raises(NotPositiveSemidefinite) as got:
                psd_sqrt_batch(Ts)
            assert str(got.value) == str(exc)
            return
        out = psd_sqrt_batch(Ts)
        assert np.array_equal(out, expected)
        assert np.array_equal(np.signbit(out), np.signbit(expected))

    def test_negative_diagonal_names_its_slot(self):
        Ts = np.stack([np.diag([1.0, 2.0]), np.outer([1.0, 1.0], [1.0, 1.0]), np.diag([1.0, -0.5])])
        assert closed_form_diagonal(Ts).tolist() == [True, False, True]
        with pytest.raises(NotPositiveSemidefinite) as got:
            psd_sqrt_batch(Ts)
        assert str(got.value) == "matrix (2,) in batch: eigenvalue -5.000000e-01 below -tol_psd = -2.000000e-09"
        assert got.value.index == (2,)

    def test_stacked_index_is_plain_integers(self):
        Ts = np.stack([np.eye(2)[None].repeat(2, axis=0), np.stack([np.eye(2), np.diag([1.0, -0.5])])])
        with pytest.raises(NotPositiveSemidefinite) as got:
            psd_sqrt_batch(Ts)
        assert str(got.value).startswith("matrix (1, 1) in batch: eigenvalue -5.000000e-01")
        assert got.value.index == (1, 1)

    def test_scaled_or_non_finite_diagonals_go_to_eigh(self):
        # LAPACK rescales outside [2**-485, 2**485], so those diagonals are not closed forms
        Ts = np.stack([np.diag([2.0**-486, 0.0]), np.diag([2.0**486, 1.0]), np.diag([np.nan, 1.0]),
                       np.diag([2.0**-485, 0.0]), np.diag([2.0**485, 1.0]), np.zeros((2, 2))])
        assert closed_form_diagonal(Ts).tolist() == [False, False, False, True, True, True]


def block_psd_stack(seed, d, n, slots, exponent, rank):
    """Stack of matrices zero outside a leading n x n PSD block of the given
    rank and a nonnegative tail diagonal (some entries exactly zero), at
    scale 10**exponent: what a level-n variance path holds."""
    rng = np.random.default_rng(seed)
    scale = 10.0**exponent
    Ts = np.zeros((slots, d, d))
    for g in range(slots):
        A = rng.standard_normal((n, rank))
        Ts[g, :n, :n] = A @ A.T * scale
        tail = np.abs(rng.standard_normal(d - n)) * scale
        tail[rng.random(d - n) < 0.3] = 0.0
        Ts[g, np.arange(n, d), np.arange(n, d)] = tail
    return Ts


def root_tolerance(Ts):
    """Per-slot bound on the gap between two computed PSD roots of Ts.

    Each is (to rounding) the exact root of a matrix within c d eps ||T||op
    of T, the backward error of eigh, and ||sqrt A - sqrt B||op <=
    sqrt(||A - B||op) for PSD A and B; so two roots differ by at most twice
    sqrt(c d eps ||T||op), here with c = 8.
    """
    d = Ts.shape[-1]
    top = np.max(np.abs(np.linalg.eigvalsh(Ts)), axis=-1)
    return 2.0 * np.sqrt(8.0 * d * np.finfo(float).eps * top)


block_stacks = st.integers(2, 16).flatmap(lambda d: st.tuples(
    st.integers(0, 2**32 - 1), st.just(d), st.integers(1, d - 1), st.integers(1, 12),
    st.floats(-100.0, 100.0), st.integers(0, d),
))


class TestPsdSqrtBlocks:
    """psd_sqrt_batch(Ts, block=n) solves only the leading n x n blocks when
    the stack is exactly block-diagonal with a diagonal tail; it must agree
    with the full solve (_eigh_sqrt_batch) within root_tolerance, take the
    PSD tolerance from the whole spectrum, and fall back to the full solve's
    bits on any other stack."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=block_stacks)
    @example(case=(3, 16, 12, 8, 0.0, 12))
    @example(case=(4, 8, 1, 4, 0.0, 0))
    def test_block_roots_match_the_full_solve(self, case):
        seed, d, n, slots, exponent, rank = case
        Ts = block_psd_stack(seed, d, n, slots, exponent, min(rank, n))
        out = psd_sqrt_batch(Ts, block=n)
        gap = np.max(np.abs(out - _eigh_sqrt_batch(Ts)), axis=(-2, -1))
        assert np.all(gap <= root_tolerance(Ts))
        assert np.array_equal(out, np.swapaxes(out, -2, -1))
        # the block-diagonal pattern is kept exactly
        assert not np.any(out[:, :n, n:]) and not np.any(out[:, n:, :n])
        assert np.array_equal(out[:, n:, n:], np.eye(d - n) * out[:, n:, n:])

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=block_stacks, excess=st.floats(1.5, 10.0), lead=st.floats(20.0, 1e6))
    def test_tolerance_comes_from_the_whole_spectrum(self, case, excess, lead):
        # the block's least eigenvalue lies below -tol_psd of the block alone
        # but above -tol_psd of the whole matrix, whose tail entry dominates
        seed, d, n, slots, _, _ = case
        rng = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lam = rng.uniform(0.1, 1.0, n)
        lam[0] = -excess * 1e-9 * (1.0 + np.max(lam))
        Ts = np.zeros((slots, d, d))
        Ts[:, :n, :n] = (Q * lam) @ Q.T
        Ts[:, :n, :n] = (Ts[:, :n, :n] + np.swapaxes(Ts[:, :n, :n], -2, -1)) / 2.0
        Ts[:, n, n] = lead * excess * (1.0 + np.max(lam))
        with pytest.raises(NotPositiveSemidefinite):
            psd_sqrt_batch(Ts[:, :n, :n])
        out = psd_sqrt_batch(Ts, block=n)
        gap = np.max(np.abs(out - _eigh_sqrt_batch(Ts)), axis=(-2, -1))
        # both roots clamp the same eigenvalue, of size at most excess * 2e-9
        assert np.all(gap <= root_tolerance(Ts) + np.sqrt(excess * 2e-9))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=block_stacks, where=st.tuples(st.integers(0, 2**16), st.integers(0, 2**16)),
           value=st.floats(1e-3, 1e3))
    def test_negative_tail_entry_names_its_path_and_slot(self, case, where, value):
        seed, d, n, slots, exponent, rank = case
        Ts = np.stack([block_psd_stack(seed + p, d, n, slots, exponent, min(rank, n)) for p in range(2)])
        p, g = where[0] % 2, where[1] % slots
        k = n + where[1] % (d - n)
        Ts[p, g, k, k] = -value * (1.0 + np.max(np.abs(Ts[p, g])))
        with pytest.raises(NotPositiveSemidefinite) as full:
            _eigh_sqrt_batch(Ts)
        with pytest.raises(NotPositiveSemidefinite) as got:
            psd_sqrt_batch(Ts, block=n)
        assert got.value.index == (p, g)
        assert str(got.value).startswith(f"matrix {(p, g)} in batch: eigenvalue {Ts[p, g, k, k]:.6e} below")
        assert str(full.value).startswith(f"matrix {(p, g)} in batch: ")

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=block_stacks, where=st.tuples(st.integers(0, 2**16), st.integers(0, 2**16), st.integers(0, 2**16)),
           value=st.sampled_from([1e-300, 1e-3, 1.0, np.nan]))
    def test_an_entry_off_the_pattern_takes_the_full_solve(self, case, where, value):
        seed, d, n, slots, exponent, rank = case
        Ts = block_psd_stack(seed, d, n, slots, exponent, min(rank, n))
        g, i, j = where[0] % slots, where[1] % d, where[2] % d
        if i < n and j < n:
            i = n  # (n, j) with j < n lies off the block
        elif i == j:
            j = (i + 1) % d  # off the tail diagonal
        Ts[g, i, j] = Ts[g, j, i] = value * 10.0**exponent
        try:
            expected = psd_sqrt_batch(Ts)
        except (NotPositiveSemidefinite, np.linalg.LinAlgError) as exc:
            with pytest.raises(type(exc)) as got:
                psd_sqrt_batch(Ts, block=n)
            assert str(got.value) == str(exc)
            return
        out = psd_sqrt_batch(Ts, block=n)
        assert np.array_equal(out, expected, equal_nan=True)
        if not np.isnan(value):
            assert np.array_equal(out, _eigh_sqrt_batch(Ts))

    def test_non_finite_tail_takes_the_full_solve(self):
        Ts = block_psd_stack(7, 6, 3, 4, 0.0, 3)
        Ts[2, 4, 4] = np.inf
        with np.errstate(invalid="ignore"):
            try:
                expected = psd_sqrt_batch(Ts)
            except np.linalg.LinAlgError:
                with pytest.raises(np.linalg.LinAlgError):
                    psd_sqrt_batch(Ts, block=3)
                return
            assert np.array_equal(psd_sqrt_batch(Ts, block=3), expected, equal_nan=True)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(case=block_stacks)
    def test_block_of_full_size_is_the_full_solve(self, case):
        seed, d, _, slots, exponent, rank = case
        Ts = block_psd_stack(seed, d, d, slots, exponent, rank)
        expected = _eigh_sqrt_batch(Ts)
        assert np.array_equal(psd_sqrt_batch(Ts, block=d), expected)
        assert np.array_equal(psd_sqrt_batch(Ts, block=d + 3), expected)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(case=block_stacks)
    def test_zero_block(self, case):
        seed, d, n, slots, exponent, _ = case
        Ts = block_psd_stack(seed, d, n, slots, exponent, 0)
        out = psd_sqrt_batch(Ts, block=n)
        assert not np.any(out[:, :n, :])
        tail = np.diagonal(Ts, axis1=-2, axis2=-1)[:, n:]
        np.testing.assert_allclose(np.diagonal(out, axis1=-2, axis2=-1)[:, n:], np.sqrt(tail), rtol=4e-16)
        # a diagonal matrix: the full solve's closed form, bit for bit
        assert np.array_equal(out, _eigh_sqrt_batch(Ts))


class TestProjections:
    def test_level_membership(self):
        pairs = {(int(j) + 1, int(k) + 1) for j, k in zip(*np.nonzero(level_mask(3, 3)))}
        assert pairs == {(1, 1), (1, 2), (2, 1)}
        # the keep-set of truncate_generator against J_n = {(j, k): j + k <= n}, 1-based
        for d in range(1, 17):
            spec = GeneratorSpec("sylvester", np.zeros(d))
            for n in range(1, 2 * d + 1):
                want = np.zeros((d, d), dtype=bool)
                for j in range(1, d + 1):
                    for k in range(1, d + 1):
                        want[j - 1, k - 1] = j + k <= n
                got = truncate_generator(spec, n).mask
                assert got.dtype == bool
                assert np.array_equal(got, want), (d, n)

    def test_nested(self):
        for n in range(2, 16):
            assert np.all(level_mask(n, 8) <= level_mask(n + 1, 8))

    def test_idempotent_contraction(self):
        rng = np.random.default_rng(12)
        T = rng.standard_normal((8, 8))
        P = level_mask(5, 8)
        once = project(T, P)
        assert np.array_equal(project(once, P), once)
        assert np.linalg.norm(once) <= np.linalg.norm(T)

    def test_identity_level3(self):
        # keeps only (1,1); squared truncation error is 2
        Pn = level_mask(3, 3)
        Tn = project(np.eye(3), Pn)
        np.testing.assert_array_equal(Tn, np.diag([1.0, 0.0, 0.0]))
        assert abs(np.linalg.norm(np.eye(3) - Tn) ** 2 - 2.0) < 1e-14

    def test_full_grid_unchanged(self):
        rng = np.random.default_rng(13)
        T = rng.standard_normal((4, 4))
        assert np.array_equal(project(T, level_mask(8, 4)), T)

    # corner (tests/reference.py) is the compression that jump truncation applies

    def test_corner_is_congruence(self):
        rng = np.random.default_rng(21)
        T = random_psd(rng, 6)
        P = np.diag([1.0] * 3 + [0.0] * 3)
        Tn = corner(T, 3)
        np.testing.assert_array_equal(Tn, P @ T @ P)
        assert np.linalg.eigvalsh(Tn).min() >= -1e-12

    def test_corner_matches_vector_truncation(self):
        # the level-n jump Y^n (x) Y^n is the corner of Y (x) Y
        rng = np.random.default_rng(22)
        ys = rng.standard_normal((3, 5))
        clock = PoissonClock(rate=1.0, horizon=1.0, times=np.array([0.2, 0.5, 0.9]))
        js = CoupledJumpStream(clock=clock, ys=ys)
        for n in range(1, 6):
            np.testing.assert_array_equal(js.approx_jumps(n), [corner(X, n) for X in js.jumps])

    def test_corner_at_capacity_is_full(self):
        # at n = d the corner keeps every entry, as the full triangle level does
        T = np.random.default_rng(23).standard_normal((4, 4))
        np.testing.assert_array_equal(corner(T, 4), T)
        np.testing.assert_array_equal(corner(T, 4), project(T, level_mask(8, 4)))

    def test_tail_sum_identity(self):
        rng = np.random.default_rng(14)
        T = rng.standard_normal((8, 8))
        P = level_mask(6, 8)
        err2 = np.linalg.norm(T - project(T, P)) ** 2
        tail = sum(T[j - 1, k - 1] ** 2 for j in range(1, 9) for k in range(1, 9) if j + k > 6)
        assert abs(err2 - tail) < 1e-12

    def test_geometric_diagonal_tail(self):
        # eigenvalues 2^-k, level(4) keeps k <= 2; squared error sum_{k>=3} 4^-k = 1/48.
        # Ambient d=24 makes the finite tail match the series to 1e-12.
        d = 24
        T = np.diag(0.5 ** np.arange(1, d + 1))
        err2 = np.linalg.norm(T - project(T, level_mask(4, d))) ** 2
        assert abs(err2 - 1.0 / 48.0) < 1e-12


class TestDeterministicInequalities:
    """Random-pair sweeps of the square-root and power inequalities."""

    def test_bogachev(self):
        rng = np.random.default_rng(15)
        for _ in range(300):
            A, B = random_psd(rng), random_psd(rng, scale=rng.uniform(0.1, 3.0))
            lhs = np.linalg.norm(psd_sqrt(A) - psd_sqrt(B), 2) ** 2
            assert lhs <= np.linalg.norm(A - B, 2) + 1e-12

    def test_ando_birman(self):
        rng = np.random.default_rng(16)
        for _ in range(300):
            A, B = random_psd(rng), random_psd(rng, scale=rng.uniform(0.1, 3.0))
            lhs = np.linalg.norm(psd_sqrt(A) - psd_sqrt(B)) ** 2
            assert lhs <= np.linalg.norm(A - B, "nuc") + 1e-12

    def test_power_difference(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            A = rng.standard_normal((8, 8))
            B = A + 0.1 * rng.standard_normal((8, 8))
            base = max(np.linalg.norm(A, 2), np.linalg.norm(B, 2))
            diff = np.linalg.norm(A - B, 2)
            Ak, Bk = np.eye(8), np.eye(8)
            for k in range(1, 7):
                Ak, Bk = Ak @ A, Bk @ B
                assert np.linalg.norm(Ak - Bk, 2) <= k * base ** (k - 1) * diff + 1e-12
