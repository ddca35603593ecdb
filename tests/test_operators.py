"""Deterministic operator algebra: tensors, square roots, projections."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opvol.experiments import _level_jumps
from opvol.operators import (
    NotPositiveSemidefinite,
    as_hilbert_vector,
    psd_sqrt_batch,
)
from opvol.processes import CoupledJumpStream
from opvol.variance import GeneratorSpec, sup_norm_stack, truncate_generator
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
    """Diagonal slots among full, rank-one and zero ones: psd_sqrt_batch
    must give what eigh on every slot gives, signed zeros included, and
    fail with the same message, naming the slot by its stacked index."""

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


def split(Ts, n):
    """The leading n x n blocks of a stack and its diagonal tails from n on:
    the arguments of psd_sqrt_batch for the root of blockdiag(block, tail)."""
    return Ts[..., :n, :n], np.diagonal(Ts, axis1=-2, axis2=-1)[..., n:]


class TestPsdSqrtBlocks:
    """psd_sqrt_batch(B, tail) is the root of blockdiag(B, diag(tail)), as
    the engine takes a jumps-mode level path's root: it solves only the
    n x n blocks B and must agree with the full solve (_eigh_sqrt_batch) of
    the whole matrix within root_tolerance and take the PSD tolerance from
    the whole spectrum."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=block_stacks)
    @example(case=(3, 16, 12, 8, 0.0, 12))
    @example(case=(4, 8, 1, 4, 0.0, 0))
    def test_block_roots_match_the_full_solve(self, case):
        seed, d, n, slots, exponent, rank = case
        Ts = block_psd_stack(seed, d, n, slots, exponent, min(rank, n))
        out = psd_sqrt_batch(*split(Ts, n))
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
        out = psd_sqrt_batch(*split(Ts, n))
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
            psd_sqrt_batch(*split(Ts, n))
        assert got.value.index == (p, g)
        assert str(got.value).startswith(f"matrix {(p, g)} in batch: eigenvalue {Ts[p, g, k, k]:.6e} below")
        assert str(full.value).startswith(f"matrix {(p, g)} in batch: ")

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(case=block_stacks)
    def test_block_of_full_size_is_the_full_solve(self, case):
        seed, d, _, slots, exponent, rank = case
        Ts = block_psd_stack(seed, d, d, slots, exponent, rank)
        expected = _eigh_sqrt_batch(Ts)
        assert np.array_equal(psd_sqrt_batch(*split(Ts, d)), expected)
        assert np.array_equal(psd_sqrt_batch(Ts), expected)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(case=block_stacks)
    def test_zero_block(self, case):
        seed, d, n, slots, exponent, _ = case
        Ts = block_psd_stack(seed, d, n, slots, exponent, 0)
        out = psd_sqrt_batch(*split(Ts, n))
        assert not np.any(out[:, :n, :])
        tail = np.diagonal(Ts, axis1=-2, axis2=-1)[:, n:]
        np.testing.assert_allclose(np.diagonal(out, axis1=-2, axis2=-1)[:, n:], np.sqrt(tail), rtol=4e-16)
        # a diagonal matrix: the full solve's closed form, bit for bit
        assert np.array_equal(out, _eigh_sqrt_batch(Ts))


class TestPsdSqrtInto:
    """psd_sqrt_batch(..., out=) writes the roots into the caller's
    destination, as the engine writes each path's roots into its slice
    stack[p, k:] of the replication's root stack: every entry, with the
    allocating call's bits."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=block_stacks, full=st.booleans(), where=st.tuples(st.integers(0, 2), st.integers(0, 3)))
    @example(case=(3, 16, 12, 8, 0.0, 12), full=False, where=(1, 2))
    def test_writes_every_entry_of_a_stack_slice(self, case, full, where):
        seed, d, n, slots, exponent, rank = case
        n = d if full else n
        Ts = block_psd_stack(seed, d, n, slots, exponent, min(rank, n))
        want = psd_sqrt_batch(*split(Ts, n))
        p, k = where
        stack = np.full((3, k + slots, d, d), np.nan)
        view = stack[p, k:]
        assert psd_sqrt_batch(*split(Ts, n), out=view) is view
        assert view.tobytes() == want.tobytes()
        # bit-symmetric, off-block entries +0.0, sign bit included
        assert view.tobytes() == np.swapaxes(view, -2, -1).tobytes()
        off = ~np.eye(d, dtype=bool)
        off[:n, :n] = False
        assert np.all(view[:, off] == 0.0) and not np.any(np.signbit(view[:, off]))
        # nothing outside the destination is written
        assert np.all(np.isnan(np.delete(stack, p, axis=0))) and np.all(np.isnan(stack[p, :k]))

    @pytest.mark.parametrize("shape", [(4, 3, 3), (5, 4, 4), (4, 4, 5)])
    def test_wrong_destination_shape_is_named(self, shape):
        Ts = np.stack([np.eye(2)] * 4)
        with pytest.raises(ValueError) as got:
            psd_sqrt_batch(Ts, np.ones((4, 2)), out=np.zeros(shape))
        assert str(got.value) == f"out has shape {shape}, the roots of these matrices (4, 4, 4)"


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
        js = CoupledJumpStream(ys=ys)
        levels = tuple(range(1, 6))
        for n, yn in zip(levels, _level_jumps(ys, levels)):
            np.testing.assert_array_equal(np.einsum("ij,ik->ijk", yn, yn), [corner(X, n) for X in js.jumps])

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


def psd_pairs(seed, d, pairs, kind, gap, exponent):
    """(pairs, d, d) stacks A and B of PSD G G^T, each G of a random rank in
    0..d (rank-deficient mostly); kind "near" makes B (G + gap H)(G + gap H)^T
    for A's G and a random H of A's rank, kind "apart" draws B on its own.
    Both are scaled by 10**exponent."""
    rng = np.random.default_rng(seed)
    A, B = np.zeros((2, pairs, d, d))
    for k in range(pairs):
        G = rng.standard_normal((d, int(rng.integers(0, d + 1))))
        if kind == "near":
            F = G + gap * rng.standard_normal(G.shape)
        else:
            F = rng.standard_normal((d, int(rng.integers(0, d + 1))))
        A[k], B[k] = G @ G.T, F @ F.T
    return A * 10.0**exponent, B * 10.0**exponent


class TestSquareRootInequalities:
    """The paper's square-root approximation results on random PSD pairs,
    through the engine's kernels: psd_sqrt_batch for the roots and the pruned
    sup_norm_stack for the norms.

        ||sqrt A - sqrt B||_HS^2 <= ||A - B||_tr   (Powers-Stormer)
        ||sqrt A - sqrt B||_op   <= ||A - B||_op^(1/2)

    Rounding tolerance: eigh is backward stable, so each computed root is the
    exact root of a matrix within about d eps s of A or B in op norm (s the
    larger op norm of the pair), and by the second inequality itself it lies
    within tol = sqrt(64 d eps s) of the exact root; the roots' product adds
    only d eps sqrt(s).  The op side may exceed its bound by 2 tol and the HS
    side (the root of the left-hand side) by 2 sqrt(d) tol.  A gap of 1e-6 on
    unit matrices puts sqrt ||A - B|| near 1e-3, far above tol (about 1e-6).
    """

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 16), pairs=st.integers(1, 6),
           kind=st.sampled_from(["near", "apart"]), gap=st.sampled_from([1e-12, 1e-6, 1e-3, 0.3]),
           exponent=st.floats(-6.0, 6.0))
    @example(seed=0, d=16, pairs=6, kind="near", gap=1e-6, exponent=0.0)
    @example(seed=1, d=1, pairs=3, kind="apart", gap=0.3, exponent=0.0)
    def test_root_differences_obey_the_inequalities(self, seed, d, pairs, kind, gap, exponent):
        A, B = psd_pairs(seed, d, pairs, kind, gap, exponent)
        dS = psd_sqrt_batch(A) - psd_sqrt_batch(B)
        dA = A - B
        s = np.maximum(np.linalg.norm(A, 2, axis=(-2, -1)), np.linalg.norm(B, 2, axis=(-2, -1)))
        tol = np.sqrt(64 * d * np.finfo(float).eps * s)
        for k in range(pairs):
            root_op = sup_norm_stack(dS[k : k + 1], "op")
            root_hs = sup_norm_stack(dS[k : k + 1], "hs")
            assert root_op <= np.sqrt(sup_norm_stack(dA[k : k + 1], "op")) + 2 * tol[k]
            trace = float(np.sum(np.abs(np.linalg.eigvalsh(dA[k]))))
            assert root_hs <= np.sqrt(trace) + 2 * np.sqrt(d) * tol[k]
        # over the whole stack, through the pruned sup: sup of the roots'
        # op norms against the root of the sup of the differences'
        assert sup_norm_stack(dS, "op") <= np.sqrt(sup_norm_stack(dA, "op")) + 2 * np.max(tol)
