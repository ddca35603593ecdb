"""Variance process: generators, eigensystems, exact evolution, sup errors."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from opvol import variance
from opvol.operators import psd_sqrt_batch
from opvol.processes import CoupledJumpStream, sample_clock, sample_jump_stream, stream
from opvol.variance import (
    GeneratorSpec,
    _jump_free_diagonal,
    build_grid,
    eigen_tail_sup_sq,
    evolve_coupled,
    generator_eigensystem,
    karhunen_loeve_spectrum,
    make_stepper,
    sup_norm_stack,
    truncate_generator,
)
from reference import approx_jumps, corner, generator_matrix, geometric_sd, level_mask, project, variance_path


def _apply_generator(spec, T):
    """Reference action c(T) (with Pi compression when the spec carries a
    keep-mask), evaluated straight from the definition of each kind."""
    C = np.diag(spec.spectrum)
    if spec.mask is not None:
        T = np.where(spec.mask, T, 0.0)
    if spec.kind == "sandwich":
        out = C @ T @ C.T
    else:
        out = C @ T + T @ C.T
    if spec.mask is not None:
        out = np.where(spec.mask, out, 0.0)
    return out


def empty_stream(d=4):
    return CoupledJumpStream(ys=np.empty((0, d)))


def one_jump_stream(y):
    return CoupledJumpStream(ys=np.asarray(y, dtype=float)[None])


def direct_path_values(v0, spec, jump_stream, jt, grid, level=None):
    """Independent route: V(t) = e^{Kt} vec(V0) + sum e^{K(t-T_i)} vec(X_i)
    with the explicit vec-space generator matrix, for the stream's jumps at
    the times jt."""
    K = generator_matrix(spec)
    d = v0.shape[0]
    jumps = jump_stream.jumps if level is None else approx_jumps(jump_stream.ys, level)
    out = np.empty((grid.size, d, d))
    for g in range(grid.size):
        t = grid.times[g]
        v = expm(K * t) @ v0.reshape(-1)
        for i, ti in enumerate(jt):
            include = ti < t if grid.is_left[g] else ti <= t
            if include:
                v = v + expm(K * (t - ti)) @ jumps[i].reshape(-1)
        out[g] = v.reshape(d, d)
    return out


class TestGeneratorSpec:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            GeneratorSpec(kind="rotation", spectrum=np.ones(2))
        with pytest.raises(ValueError):
            GeneratorSpec(kind="sandwich", spectrum=np.ones((2, 3)))
        with pytest.raises(ValueError):
            GeneratorSpec(kind="general", spectrum=np.ones(2))

    def test_bad_mask_rejected(self):
        # a keep-set must cover the (d, d) entries of the generator it compresses
        with pytest.raises(ValueError, match="mask has shape"):
            GeneratorSpec("sylvester", np.ones(3), mask=np.ones((2, 3), dtype=bool))
        assert GeneratorSpec("sylvester", np.ones(3), mask=level_mask(3, 3)).mask.shape == (3, 3)

    def test_sandwich_action(self):
        rng = np.random.default_rng(0)
        lam, T = rng.standard_normal(5), rng.standard_normal((5, 5))
        C = np.diag(lam)
        spec = GeneratorSpec(kind="sandwich", spectrum=lam)
        np.testing.assert_allclose(_apply_generator(spec, T), C @ T @ C.T, rtol=1e-12)

    def test_sylvester_action(self):
        rng = np.random.default_rng(1)
        lam, T = rng.standard_normal(5), rng.standard_normal((5, 5))
        C = np.diag(lam)
        spec = GeneratorSpec(kind="sylvester", spectrum=lam)
        np.testing.assert_allclose(_apply_generator(spec, T), C @ T + T @ C.T, rtol=1e-12)

    def test_matrix_matches_action(self):
        rng = np.random.default_rng(3)
        lam = rng.standard_normal(4)
        T = rng.standard_normal((4, 4))
        for kind in ("sandwich", "sylvester"):
            spec = GeneratorSpec(kind=kind, spectrum=lam)
            K = generator_matrix(spec)
            np.testing.assert_allclose(
                (K @ T.reshape(-1)).reshape(4, 4), _apply_generator(spec, T), rtol=1e-11
            )

    def test_matrix_matches_action_compressed(self):
        rng = np.random.default_rng(4)
        lam = rng.standard_normal(4)
        T = rng.standard_normal((4, 4))
        spec = truncate_generator(GeneratorSpec(kind="sylvester", spectrum=lam), 4)
        K = generator_matrix(spec)
        np.testing.assert_allclose(
            (K @ T.reshape(-1)).reshape(4, 4), _apply_generator(spec, T), rtol=1e-11
        )


class TestEigensystem:
    def test_sandwich_formula(self):
        spec = GeneratorSpec("sandwich", [0.5, 0.25])
        np.testing.assert_allclose(
            generator_eigensystem(spec), [[0.25, 0.125], [0.125, 0.0625]], atol=1e-14
        )

    def test_sylvester_formula(self):
        spec = GeneratorSpec("sylvester", [0.5, 0.25])
        np.testing.assert_allclose(
            generator_eigensystem(spec), [[1.0, 0.75], [0.75, 0.5]], atol=1e-14
        )

    def test_karhunen_loeve_head(self):
        lam = karhunen_loeve_spectrum(8)
        assert lam[0] == pytest.approx(4.0 / np.pi**2, abs=1e-12)
        assert lam[1] == pytest.approx((2.0 / (3 * np.pi)) ** 2, abs=1e-12)

    def test_eigen_action_identity(self):
        # c(e_j (x) e_k) = Lambda[j,k] e_j (x) e_k for diagonal C
        lam = karhunen_loeve_spectrum(4)
        for kind in ("sandwich", "sylvester"):
            spec = GeneratorSpec(kind, lam)
            Lam = generator_eigensystem(spec)
            for j in range(4):
                for k in range(4):
                    E = np.zeros((4, 4))
                    E[j, k] = 1.0
                    np.testing.assert_allclose(
                        _apply_generator(spec, E), Lam[j, k] * E, atol=1e-10
                    )


class TestTruncation:
    def test_full_projection_is_identity(self):
        spec = GeneratorSpec("sylvester", -karhunen_loeve_spectrum(6))
        full = truncate_generator(spec, 12)
        assert full.op_norm == pytest.approx(spec.op_norm, rel=1e-12)
        rng = np.random.default_rng(5)
        T = rng.standard_normal((6, 6))
        np.testing.assert_allclose(_apply_generator(full, T), _apply_generator(spec, T), atol=1e-12)

    def test_contraction_of_op_norm(self):
        spec = GeneratorSpec("sylvester", -karhunen_loeve_spectrum(8))
        for n in (2, 4, 6):
            trunc = truncate_generator(spec, n)
            assert trunc.op_norm <= spec.op_norm + 1e-14

    def test_double_truncation_rejected(self):
        spec = GeneratorSpec("sylvester", [1.0, 2.0])
        trunc = truncate_generator(spec, 2)
        with pytest.raises(ValueError):
            truncate_generator(trunc, 2)

    def test_top_m_truncation_op_norm(self):
        # keeping the m largest |Lambda| leaves the (m+1)-th as the difference norm
        lam = np.array([0.9, 0.5, 0.2])
        spec = GeneratorSpec("sandwich", lam)
        Lam = generator_eigensystem(spec)
        order = np.argsort(Lam.reshape(-1))[::-1]
        m = 3
        keep = np.zeros(9, dtype=bool)
        keep[order[:m]] = True
        trunc = GeneratorSpec("sandwich", lam, mask=keep.reshape(3, 3))
        Kdiff = generator_matrix(spec) - generator_matrix(trunc)
        diff_norm = np.linalg.svd(Kdiff, compute_uv=False)[0]
        expected = np.sort(Lam.reshape(-1))[::-1][m]
        assert diff_norm == pytest.approx(expected, rel=1e-12)

    def test_tail_action_identity(self):
        # ||(c - c^n) T||^2 = sum over the complement of Lambda^2 <T, E>^2
        lam = -karhunen_loeve_spectrum(6)
        spec = GeneratorSpec("sylvester", lam)
        trunc = truncate_generator(spec, 5)
        rng = np.random.default_rng(6)
        Lam = generator_eigensystem(spec)
        for _ in range(20):
            T = rng.standard_normal((6, 6))
            diff = _apply_generator(spec, T) - _apply_generator(trunc, T)
            lhs = np.linalg.norm(diff) ** 2
            rhs = float(np.sum((Lam**2 * T**2)[~trunc.mask]))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)

    def test_tail_sup_bound(self):
        # ||c - c^n||_op^2 <= 2 sup tail Lambda^2, and for tensor-diagonal c the
        # difference norm equals the tail sup exactly
        spec = GeneratorSpec("sylvester", -karhunen_loeve_spectrum(8))
        Lam = generator_eigensystem(spec)
        for n in (2, 4, 6):
            trunc = truncate_generator(spec, n)
            Kdiff = generator_matrix(spec) - generator_matrix(trunc)
            diff_norm = np.linalg.svd(Kdiff, compute_uv=False)[0]
            tail_sup_sq = eigen_tail_sup_sq(trunc)
            assert diff_norm**2 <= 2.0 * tail_sup_sq + 1e-14
            assert diff_norm == pytest.approx(np.sqrt(tail_sup_sq), rel=1e-11)
            assert tail_sup_sq == pytest.approx(float(np.max(Lam[~trunc.mask] ** 2)), abs=1e-15)


def _build_grid_loop(horizon, m_points, jump_times):
    """The slot-by-slot grid builder: the reference build_grid must equal."""
    jump_times = np.asarray(jump_times, dtype=float)
    base = np.linspace(0.0, horizon, m_points + 1)
    distinct = np.union1d(base, jump_times)
    jump_pos = np.searchsorted(distinct, jump_times)
    times, is_left, jidx = [], [], []
    jump_at = {int(p): i for i, p in enumerate(jump_pos)}
    for g, t in enumerate(distinct):
        if g in jump_at:
            times.append(t)
            is_left.append(True)
            jidx.append(-1)
        times.append(t)
        is_left.append(False)
        jidx.append(jump_at.get(g, -1))
    return np.array(times), np.array(is_left, dtype=bool), np.array(jidx, dtype=np.int64)


def _evolve_loop(v0s, steppers, jump_stacks, grid):
    """The slot-by-slot evolution of several paths with one factor call per
    step length: the reference evolve_coupled must equal bit for bit, path by
    path."""
    P = v0s.shape[0]
    V = v0s.astype(float).copy()
    out = np.empty((P, grid.size) + v0s.shape[1:])
    out[:, 0] = V
    factors = {}
    for g in range(1, grid.size):
        dt = grid.times[g] - grid.times[g - 1]
        if dt > 0.0:
            if dt not in factors:
                factors[dt] = [s.factor(dt) for s in steppers]
            V = np.stack([V[p] * F for p, F in enumerate(factors[dt])])
        j = grid.jump_index[g]
        if j >= 0:
            for p in range(P):
                V[p] = V[p] + jump_stacks[p][j]
        out[:, g] = V
    return out


def _free_loop(v0, stepper, grid):
    """The (G, d) diagonal of the jump-free path e^{ct} diag(v0), slot by
    slot: what _jump_free_diagonal must equal bit for bit."""
    W = np.empty((grid.size, v0.shape[-1]))
    W[0] = np.diagonal(v0)
    for g in range(1, grid.size):
        dt = grid.times[g] - grid.times[g - 1]
        W[g] = W[g - 1] * np.diagonal(stepper.factor(dt)) if dt > 0.0 else W[g - 1]
    return W


def _assert_paths_match_loop(v0s, steppers, jump_stacks, grid):
    """evolve_coupled and _jump_free_diagonal on each path alone against
    _evolve_loop and _free_loop."""
    want = _evolve_loop(v0s, steppers, jump_stacks, grid)
    for p, (stepper, jumps) in enumerate(zip(steppers, jump_stacks)):
        assert _same_bits(evolve_coupled(v0s[p], stepper, jumps, grid), want[p])
        W = _jump_free_diagonal(v0s[p], stepper, grid)
        assert _same_bits(W, _free_loop(v0s[p], stepper, grid))


@st.composite
def jump_grids(draw):
    """(horizon, m_points, jump times): 0-30 sorted jumps in (0, horizon],
    some on base grid points and at the horizon itself."""
    horizon = draw(st.sampled_from([1.0, 0.7, 2.5]))
    m_points = draw(st.integers(1, 40))
    base = np.linspace(0.0, horizon, m_points + 1)
    free = draw(st.lists(st.floats(0.0, horizon, exclude_min=True), max_size=30))
    on_base = draw(st.lists(st.integers(1, m_points), max_size=5))
    times = np.unique(np.r_[free, base[on_base]])[:30]
    return horizon, m_points, times


def _same_bits(a, b):
    return a.dtype == b.dtype and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestGrid:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(jump_grids())
    @example((1.0, 4, np.array([0.5, 1.0])))
    @example((1.0, 1, np.empty(0)))
    def test_matches_slot_by_slot_builder(self, case):
        horizon, m_points, times = case
        grid = build_grid(horizon, m_points, times)
        ref = _build_grid_loop(horizon, m_points, times)
        for got, want in zip((grid.times, grid.is_left, grid.jump_index), ref):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_structure(self):
        grid = build_grid(1.0, 4, np.array([0.3, 0.75]))
        # jump times appear twice: left slot then right slot
        for t in (0.3, 0.75):
            idx = np.flatnonzero(grid.times == t)
            assert idx.size == 2
            assert grid.is_left[idx[0]] and not grid.is_left[idx[1]]
            assert grid.jump_index[idx[1]] >= 0
        assert grid.times[0] == 0.0 and grid.times[-1] == 1.0
        assert np.all(np.diff(grid.times) >= 0)

    def test_right_slots_cover_distinct_times(self):
        grid = build_grid(2.0, 5, np.array([0.4, 1.6]))
        np.testing.assert_array_equal(np.unique(grid.times), grid.distinct_times)

    def test_jump_on_uniform_point(self):
        grid = build_grid(1.0, 4, np.array([0.5]))
        idx = np.flatnonzero(grid.times == 0.5)
        assert idx.size == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            build_grid(0.0, 4, np.empty(0))
        with pytest.raises(ValueError):
            build_grid(1.0, 0, np.empty(0))


class TestEvolution:
    def test_zero_generator_no_jumps(self):
        spec = GeneratorSpec("sylvester", np.zeros(4))
        v0 = np.diag([1.0, 2.0, 3.0, 4.0])
        grid = build_grid(1.0, 8, np.empty(0))
        path = variance_path(v0, spec, empty_stream(4), grid)
        for g in range(grid.size):
            np.testing.assert_array_equal(path.values[g], v0)

    def test_zero_initial_no_jumps(self):
        spec = GeneratorSpec("sandwich", [0.5, 0.25])
        grid = build_grid(1.0, 8, np.empty(0))
        path = variance_path(np.zeros((2, 2)), spec, empty_stream(2), grid)
        np.testing.assert_array_equal(path.values, 0.0)

    def test_scalar_generator_closed_form(self):
        # sylvester with C = (a/2) I acts as multiplication by a
        a = -0.7
        d = 3
        spec = GeneratorSpec("sylvester", np.full(d, a / 2))
        y = np.array([1.0, 0.5, 0.25])
        js = one_jump_stream(y)
        v0 = np.diag([1.0, 0.5, 0.2])
        grid = build_grid(1.0, 10, np.array([0.4]))
        path = variance_path(v0, spec, js, grid)
        X1 = np.outer(y, y)
        for g in range(grid.size):
            t = grid.times[g]
            expected = np.exp(a * t) * v0
            has_jump = 0.4 < t or (t == 0.4 and not grid.is_left[g])
            if has_jump:
                expected = expected + np.exp(a * (t - 0.4)) * X1
            np.testing.assert_allclose(path.values[g], expected, atol=1e-12)

    def test_left_limit_excludes_jump(self):
        spec = GeneratorSpec("sylvester", np.zeros(2))
        y = np.array([1.0, 1.0])
        js = one_jump_stream(y)
        grid = build_grid(1.0, 2, np.array([0.5]))
        path = variance_path(np.zeros((2, 2)), spec, js, grid)
        idx = np.flatnonzero(grid.times == 0.5)
        np.testing.assert_array_equal(path.values[idx[0]], 0.0)
        np.testing.assert_array_equal(path.values[idx[1]], np.outer(y, y))

    def test_missing_jump_times_rejected(self):
        spec = GeneratorSpec("sylvester", np.zeros(2))
        js = one_jump_stream(np.ones(2))
        grid = build_grid(1.0, 4, np.empty(0))
        with pytest.raises(ValueError, match="missing jump times"):
            variance_path(np.eye(2), spec, js, grid)

    @pytest.mark.parametrize(
        "make_spec",
        [
            lambda: GeneratorSpec("sylvester", -karhunen_loeve_spectrum(4)),
            lambda: GeneratorSpec("sandwich", [0.8, 0.4, 0.2, 0.1]),
            lambda: truncate_generator(
                GeneratorSpec("sylvester", -karhunen_loeve_spectrum(4)),
                4,
            ),
        ],
        ids=["diag-sylv", "diag-sand", "trunc-diag"],
    )
    def test_dual_route_against_direct_formula(self, make_spec):
        spec = make_spec()
        rng = stream(17, 2, 0)
        times = sample_clock(3.0, 1.0, stream(17, 1, 0))
        js = sample_jump_stream(times.size, geometric_sd(4), rng)
        A = np.random.default_rng(10).standard_normal((4, 4))
        v0 = A @ A.T / 4
        grid = build_grid(1.0, 6, times)
        path = variance_path(v0, spec, js, grid)
        expected = direct_path_values(v0, spec, js, times, grid)
        np.testing.assert_allclose(path.values, expected, rtol=1e-9, atol=1e-12)

    def test_coupled_mix_matches_single_paths(self):
        # a truncated path evolved alone equals, bit for bit, the one evolved
        # exact path V on the entries its truncation keeps and a reference
        # path off them: a compressed generator leaves the dropped entries at
        # V0 + the jumps so far, and truncated jumps leave only the jump-free
        # diagonal e^{ct} diag(V0) off the leading block
        d = 4
        rng = np.random.default_rng(41)
        times = sample_clock(3.0, 1.0, stream(42, 1, 0))
        js = sample_jump_stream(times.size, geometric_sd(d), stream(42, 2, 0))
        assert times.size > 0
        grid = build_grid(1.0, 12, times)
        count = np.maximum.accumulate(grid.jump_index) + 1
        for spec in (GeneratorSpec("sylvester", -karhunen_loeve_spectrum(d)),
                     GeneratorSpec("sandwich", rng.uniform(-1.0, 1.0, d))):
            v0 = np.diag(rng.uniform(0.1, 1.0, d))
            stepper = make_stepper(spec)
            V = evolve_coupled(v0, stepper, js.jumps, grid)
            W = _jump_free_diagonal(v0, stepper, grid)
            U = np.cumsum(np.concatenate((v0[None], js.jumps)), axis=0)[count]
            for n in (3, 5):
                mask = level_mask(n, d)
                alone = variance_path(v0, truncate_generator(spec, n), js, grid)
                assert alone.values.tobytes() == np.where(mask, V, U).tobytes()
            block = np.zeros((d, d), dtype=bool)
            block[:2, :2] = True
            alone = variance_path(v0, spec, js, grid, level=2)
            R = W[:, :, None] * np.eye(d)
            assert alone.values.tobytes() == np.where(block, V, R).tobytes()

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        case=jump_grids(),
        d=st.integers(1, 16),
        kind=st.sampled_from(["sylvester", "sandwich"]),
        shared=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(case=(1.0, 4, np.array([0.25, 0.6, 1.0])), d=3, kind="sylvester", shared=False, seed=1)
    @example(case=(2.5, 40, np.array([1.25, 1.3])), d=2, kind="sandwich", shared=True, seed=2)
    @example(case=(1.0, 20, np.array([0.05, 0.5, 1.0])), d=16, kind="sylvester", shared=False, seed=3)
    def test_diagonal_paths_match_slot_by_slot_loop(self, case, d, kind, shared, seed):
        # the exact path and masked (compressed) paths, or one stepper shared
        # by every path as in jump truncation, on the route the cost rule
        # picks and on each route forced
        horizon, m_points, times = case
        rng = np.random.default_rng(seed)
        spec = GeneratorSpec(kind, -rng.uniform(0.0, 3.0, d))
        specs = [spec] + [truncate_generator(spec, n) for n in (2, d + 1)]
        steppers = [make_stepper(spec)] * len(specs) if shared else [make_stepper(s) for s in specs]
        ys = rng.standard_normal((times.size, d))
        jumps = np.einsum("ij,ik->ijk", ys, ys)
        jump_stacks = [jumps * rng.uniform(0.0, 1.0) for _ in specs]
        v0s = np.stack([np.diag(rng.uniform(0.0, 1.0, d)) for _ in specs])
        v0s[-1, 0, 0] = -0.0
        grid = build_grid(horizon, m_points, times)
        _assert_paths_match_loop(v0s, steppers, jump_stacks, grid)
        for limit in (0, 10**12):  # slot by slot, then cumulative product
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(variance, "_LOOP_SLOT_ENTRIES", limit)
                _assert_paths_match_loop(v0s, steppers, jump_stacks, grid)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(case=jump_grids(), seed=st.integers(0, 2**32 - 1))
    def test_mixed_paths_match_slot_by_slot_loop(self, case, seed):
        # paths of different kinds and spectra, one of them compressed
        horizon, m_points, times = case
        d = 3
        rng = np.random.default_rng(seed)
        specs = [
            GeneratorSpec("sylvester", -rng.uniform(0.0, 3.0, d)),
            GeneratorSpec("sandwich", rng.uniform(-1.5, 1.5, d)),
            GeneratorSpec("sandwich", rng.uniform(-1.5, 1.5, d), mask=level_mask(3, d)),
        ]
        steppers = [make_stepper(s) for s in specs]
        ys = rng.standard_normal((times.size, d))
        jump_stacks = [np.einsum("ij,ik->ijk", ys, ys)] * len(specs)
        v0s = np.stack([np.diag(rng.uniform(0.0, 1.0, d)) for _ in specs])
        grid = build_grid(horizon, m_points, times)
        _assert_paths_match_loop(v0s, steppers, jump_stacks, grid)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        dts=st.lists(st.floats(1e-6, 3.0), min_size=1, max_size=30, unique=True),
        d=st.integers(2, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stacked_factors_match_per_step_calls(self, dts, d, seed):
        rng = np.random.default_rng(seed)
        lam = -rng.uniform(0.0, 3.0, d)
        steppers = [
            make_stepper(GeneratorSpec("sandwich", lam)),
            make_stepper(GeneratorSpec("sylvester", lam, mask=level_mask(2, d))),
        ]
        dts = np.array(dts)
        for s in steppers:
            stacked = s.factor(dts[:, None, None])
            for u, dt in enumerate(dts):
                assert _same_bits(stacked[u], s.factor(dt))

    def test_approx_path_uses_truncated_jumps(self):
        spec = GeneratorSpec("sylvester", np.zeros(4))
        times = sample_clock(2.0, 1.0, stream(18, 1, 0))
        js = sample_jump_stream(times.size, geometric_sd(4), stream(18, 2, 0))
        grid = build_grid(1.0, 4, times)
        path_n = variance_path(np.zeros((4, 4)), spec, js, grid, level=2)
        expected = direct_path_values(np.zeros((4, 4)), spec, js, times, grid, level=2)
        np.testing.assert_allclose(path_n.values, expected, rtol=1e-9, atol=1e-14)


class TestSupError:
    def test_identical_paths(self):
        spec = GeneratorSpec("sylvester", -karhunen_loeve_spectrum(4))
        times = sample_clock(2.0, 1.0, stream(19, 1, 0))
        js = sample_jump_stream(times.size, geometric_sd(4), stream(19, 2, 0))
        grid = build_grid(1.0, 5, times)
        v0 = np.diag([1.0, 0.5, 0.25, 0.125])
        a = variance_path(v0, spec, js, grid)
        b = variance_path(v0, spec, js, grid, level=4)
        assert sup_norm_stack(a.values - b.values, "hs") == 0.0

    def test_single_jump_difference(self):
        # c = 0, V0^n = V0: the error path is 0 then X1 - X1^n, so the sup is its norm
        spec = GeneratorSpec("sylvester", np.zeros(4))
        y = np.array([1.0, 0.7, 0.4, 0.2])
        js = one_jump_stream(y)
        grid = build_grid(1.0, 4, np.array([0.3]))
        v0 = np.eye(4)
        full = variance_path(v0, spec, js, grid)
        approx = variance_path(v0, spec, js, grid, level=2)
        D = js.jumps[0] - approx_jumps(js.ys, 2)[0]
        for mode in ("hs", "op", "trace"):
            sup = _sup_norm(full.values - approx.values, mode)
            assert sup == pytest.approx(np.linalg.norm(D, _ORDER[mode]), rel=1e-12)

    def test_pathwise_exponential_bound(self):
        # per-path: sup ||dV|| <= e^{||c|| T} (||dV0|| + sum ||dX_i||), every norm
        spec = GeneratorSpec("sylvester", -karhunen_loeve_spectrum(8))
        cn = spec.op_norm
        v0 = np.diag(0.5 ** np.arange(1, 9))
        v0n = corner(v0, 4)
        for rep in range(50):
            times = sample_clock(1.0, 1.0, stream(23, 1, rep))
            js = sample_jump_stream(times.size, geometric_sd(8), stream(23, 2, rep))
            grid = build_grid(1.0, 20, times)
            full = variance_path(v0, spec, js, grid)
            approx_vals = variance_path(v0n, spec, js, grid, level=4)
            diffs = js.jumps - approx_jumps(js.ys, 4)
            for mode in ("hs", "op", "trace"):
                lhs = _sup_norm(full.values - approx_vals.values, mode)
                order = _ORDER[mode]
                rhs = np.exp(cn * 1.0) * (
                    np.linalg.norm(v0 - v0n, order) + sum(np.linalg.norm(D, order) for D in diffs)
                )
                assert lhs <= rhs * (1 + 1e-12)


# np.linalg.norm's ord for each norm mode
_ORDER = {"hs": None, "op": 2, "trace": "nuc"}


def _sup_norm(D, mode):
    """sup_norm_stack, with the trace norm (which the engine never asks for)
    taken slot by slot."""
    if mode == "trace":
        return max(np.linalg.norm(Dg, "nuc") for Dg in D)
    return sup_norm_stack(D, mode)


def _full_op_sup(D):
    """The op-norm sup of a symmetric stack with a solve on every slot: the
    reference the pruned sup_norm_stack must equal bit for bit."""
    return float(np.max(np.abs(np.linalg.eigvalsh(D))))


SLOT_KINDS = ("zero", "diagonal", "rank_one", "full", "flat", "near_copy", "decay")


def slot_stack(seed, d, kinds, exponent, spread, psd=False):
    """A (G, d, d) symmetric stack, one slot per kind, each slot's op norm
    within a factor 1 +- spread of 10**exponent.

    full is A + A^T (indefinite) or, with psd, A A^T; flat has every |eigenvalue|
    near its op norm, so its trace bound is loose where a rank-one slot's is
    tight, and a small spread makes the bound order differ from the op-norm
    order; a near_copy repeats the previous slot to within 1e-12.  A decay
    slot is E D[g - 1] E for one diagonal E within 1e-4 below 1 per stack,
    so a run of them is E^k D E^k, the engine's slowly decaying differences
    with their many near-ties.
    """
    rng = np.random.default_rng(seed)
    E = 1.0 - np.random.default_rng([seed, 1]).uniform(0.0, 1e-4, d)
    D = np.zeros((len(kinds), d, d))
    for g, kind in enumerate(kinds):
        if kind == "decay":
            if g > 0:
                D[g] = np.outer(E, E) * D[g - 1]  # E_j E_k is symmetric bit for bit
            continue
        if kind == "diagonal":
            diag = rng.standard_normal(d)
            M = np.diag(np.abs(diag) if psd else diag)
        elif kind == "rank_one":
            y = rng.standard_normal(d)
            M = (1.0 if psd else rng.choice([-1.0, 1.0])) * np.outer(y, y)
        elif kind == "full":
            A = rng.standard_normal((d, d))
            M = A @ A.T if psd else A + A.T
        elif kind == "flat":
            Q = np.linalg.qr(rng.standard_normal((d, d)))[0]
            s = rng.uniform(0.9, 1.0, d) * (1.0 if psd else rng.choice([-1.0, 1.0], d))
            M = (Q * s) @ Q.T
            M = (M + M.T) / 2.0
        elif kind == "near_copy" and g > 0:
            D[g] = D[g - 1] * (1.0 + 1e-12 * rng.uniform(-1.0, 1.0))
            continue
        else:
            continue
        target = 10.0**exponent * (1.0 + spread * rng.uniform(-1.0, 1.0))
        D[g] = M * (target / np.linalg.norm(M, 2))
    return D


stack_args = dict(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 16),
    kinds=st.lists(st.sampled_from(SLOT_KINDS), min_size=1, max_size=24),
    exponent=st.floats(-150.0, 150.0),
    spread=st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 0.5]),
)


class TestPrunedOpSup:
    """sup_norm_stack(D, "op") solves only the slots that can hold the max; it
    must return exactly what a solve on every slot returns, and raise on a
    non-finite or asymmetric stack before any solve."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(**stack_args)
    @example(seed=1, d=8, kinds=["diagonal"] * 12, exponent=0.0, spread=0.5)
    @example(seed=2, d=8, kinds=["rank_one"], exponent=-150.0, spread=0.0)
    @example(seed=3, d=16, kinds=["zero", "diagonal", "rank_one", "full"], exponent=150.0, spread=0.5)
    @example(seed=4, d=4, kinds=["rank_one"] + ["near_copy"] * 10, exponent=3.0, spread=0.0)
    @example(seed=6, d=8, kinds=["flat", "rank_one"] * 4, exponent=0.0, spread=1e-6)
    @example(seed=8, d=8, kinds=["full"] + ["decay"] * 40, exponent=0.0, spread=0.0)
    @example(seed=9, d=16, kinds=(["flat"] + ["decay"] * 7) * 3, exponent=-3.0, spread=1e-9)
    def test_symmetric_stacks_match_full_solve(self, seed, d, kinds, exponent, spread):
        D = slot_stack(seed, d, kinds, exponent, spread)
        assert sup_norm_stack(D, "op") == _full_op_sup(D)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(**stack_args)
    @example(seed=5, d=8, kinds=["zero", "diagonal", "diagonal", "rank_one", "rank_one"], exponent=0.0,
             spread=0.5)
    def test_square_root_differences_match_full_solve(self, seed, d, kinds, exponent, spread):
        A = slot_stack(seed, d, kinds, exponent, spread, psd=True)
        B = slot_stack(seed + 1, d, kinds, exponent, spread, psd=True)
        dS = psd_sqrt_batch(A) - psd_sqrt_batch(B)
        # each root is M @ M.T, symmetric bit for bit, and so is their difference
        bits = dS.view(np.int64)
        assert np.array_equal(bits, np.swapaxes(bits, -2, -1))
        assert sup_norm_stack(dS, "op") == _full_op_sup(dS)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(**stack_args, bad=st.sampled_from([np.nan, np.inf, -np.inf]), where=st.integers(0, 10**6),
           mirrored=st.booleans())
    def test_non_finite_stacks_raise_before_any_solve(self, seed, d, kinds, exponent, spread, bad, where,
                                                      mirrored):
        # placed at (i, j) alone or mirrored at (j, i) too: either way no
        # LAPACK routine sees the stack, and every mode names it
        D = slot_stack(seed, d, kinds, exponent, spread)
        g, i, j = np.unravel_index(where % D.size, D.shape)
        D[g, i, j] = bad
        if mirrored:
            D[g, j, i] = bad

        def no_solve(*args, **kwargs):
            raise AssertionError("a LAPACK routine was called")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "eigvalsh", no_solve)
            mp.setattr(np.linalg, "svd", no_solve)
            for mode in ("hs", "op", "both"):
                with pytest.raises(np.linalg.LinAlgError, match="^NaN or inf in the stack$"):
                    sup_norm_stack(D, mode)

    def test_finite_stack_whose_squares_overflow_raises_nothing(self):
        # entries near 1e200 are finite and their squares are not: the HS
        # sup is inf in every mode, the op sup finite
        D = np.full((3, 4, 4), 1e200)
        D[1] *= 2.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sup_norm_stack(D, "hs") == np.inf
            assert sup_norm_stack(D, "both") == (np.inf, sup_norm_stack(D, "op"))
        assert sup_norm_stack(D, "op") == _full_op_sup(D)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 16),
           head=st.sampled_from(["diagonal", "rank_one", "full", "flat"]), slots=st.integers(1, 60),
           lag=st.sampled_from([1e-9, 1e-6, 1e-3, 0.1]), psd=st.booleans())
    @example(seed=10, d=8, head="full", slots=60, lag=1e-3, psd=True)
    def test_slowly_decaying_stacks_match_full_solve(self, seed, d, head, slots, lag, psd):
        # E^g D_0 E^g: every slot's bound is near the head's.  A last flat
        # slot a factor 1 - lag below the head has the looser tr X^8 bound
        # and is solved first, so the head, which holds the max, is found
        # only if it survives every squared stage
        D = slot_stack(seed, d, [head] + ["decay"] * slots + ["flat"], 0.0, 0.0, psd=psd)
        D[-1] *= 1.0 - lag
        assert sup_norm_stack(D, "op") == _full_op_sup(D)

    @pytest.mark.parametrize("size", [np.finfo(float).max / 2, 1e-300])
    @pytest.mark.parametrize("seed", [12, 13])
    def test_flat_stacks_at_extreme_scales_match_full_solve(self, size, seed):
        # d = 64, op norms up to size: the rank-one slot holds the max, but
        # every flat slot's tr X^8 bound is looser by up to 64^(1/8), so
        # they reach the X^16 and X^32 stages with it.  X = S / max|S| has
        # op norm in [1, d], so no power overflows or underflows whatever
        # the scale of S
        D = slot_stack(seed, 64, ["rank_one"] + ["flat"] * 6 + ["near_copy", "decay"], 0.0, 0.05)
        D[0] *= 1.1
        D *= size / 1.1 / 1.05
        with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise", divide="raise"):
            warnings.simplefilter("error")
            got = sup_norm_stack(D, "op")
        assert np.isfinite(got)
        assert got == _full_op_sup(D) == float(np.max(np.abs(np.linalg.eigvalsh(D[0]))))

    @pytest.mark.parametrize("bump", [-1, 0, 1])
    @pytest.mark.parametrize("kinds", [["full", "rank_one"], ["diagonal", "zero", "full"]])
    def test_symmetric_stacks_near_half_max_behave_as_before(self, bump, kinds):
        # nonzero slots' op norms in [finfo.max / 4, finfo.max / 2], the
        # largest entry then moved one ulp either way: no sum D + D^T is
        # formed, which would overflow here, and the result is the per-slot
        # solve's
        D = slot_stack(11, 4, kinds, 0.0, 0.3)
        D *= np.finfo(float).max / 2 / np.max(np.linalg.norm(D, 2, axis=(-2, -1)))
        top = np.unravel_index(np.argmax(np.abs(D)), D.shape)
        if bump:
            D[top] = np.nextafter(D[top], np.copysign(np.inf, D[top] * bump))
        D[top[:-2] + top[:-3:-1]] = D[top]
        assert np.array_equal(D, np.swapaxes(D, -2, -1))
        with np.errstate(over="ignore"):
            got = sup_norm_stack(D, "op")
        assert np.finfo(float).max / 4 <= got == _full_op_sup(D)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(**stack_args, where=st.integers(0, 10**6))
    def test_signed_zero_facing_positive_zero_is_symmetric(self, seed, d, kinds, exponent, spread, where):
        # -0.0 at (i, j) and +0.0 at (j, i) are equal, though not the same
        # bits: the stack is solved as it is.  A -0.0 in the triangle LAPACK
        # reads can flip the sign of a Householder reflector, so the result
        # may differ from the +0.0 stack's in the last bits
        pos = slot_stack(seed, d, kinds, exponent, spread)
        g, i, j = np.unravel_index(where % pos.size, pos.shape)
        pos[g, i, j] = pos[g, j, i] = 0.0
        neg = pos.copy()
        neg[g, i, j] = -0.0
        got = sup_norm_stack(neg, "op")
        assert got == _full_op_sup(neg)
        assert np.isclose(got, sup_norm_stack(pos, "op"), rtol=8 * d * np.finfo(float).eps, atol=0.0)

    def test_asymmetric_stacks_raise(self):
        D = slot_stack(7, 3, ["full", "rank_one"], 0.0, 0.5)
        D[1, 0, 2] = np.nextafter(D[1, 0, 2], np.inf)  # one ulp off its mirror
        with pytest.raises(ValueError, match="^op mode needs a symmetric stack$"):
            sup_norm_stack(D, "op")

    def test_zero_slots_take_no_solve(self, monkeypatch):
        # an all-zero slot has op norm 0: it is neither scaled by its largest
        # entry (0 / 0) nor solved; the diagonal slot is the one solve
        solved = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a):
            solved.append(1 if a.ndim == 2 else a.shape[0])
            return eigvalsh(a)

        D = np.stack([np.zeros((3, 3)), np.diag([0.5, -2.0, 1.0]), np.zeros((3, 3))])
        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        with np.errstate(all="raise"):
            assert sup_norm_stack(D, "op") == 2.0
            assert sum(solved) == 1
            assert sup_norm_stack(np.zeros((4, 3, 3)), "op") == 0.0
        assert sum(solved) == 1

    @pytest.mark.parametrize("zero_slot", [False, True])
    def test_lone_surviving_lead_takes_one_call(self, monkeypatch, zero_slot):
        # every slot but the lead has a bound far below the lead's op norm:
        # the lead's solve is the only eigvalsh call, with no second call on
        # an empty stack of candidates
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a):
            calls.append(a.shape)
            return eigvalsh(a)

        A = slot_stack(14, 6, ["full"], 0.0, 0.0)[0]
        D = np.stack([A, 0.5 * A, 0.25 * A, np.diag(np.full(6, 0.1))])
        if zero_slot:
            D[2] = 0.0
        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        got = sup_norm_stack(D, "op")
        assert calls == [(6, 6)]
        monkeypatch.undo()
        assert got == _full_op_sup(D)


class TestPositivity:
    def test_simulated_paths_stay_psd(self):
        # under the structural conditions, min eigenvalue >= -tol at every grid point
        spec = GeneratorSpec("sylvester", -karhunen_loeve_spectrum(6))
        v0 = np.diag(0.5 ** np.arange(1, 7))
        for rep in range(20):
            times = sample_clock(2.0, 1.0, stream(31, 1, rep))
            js = sample_jump_stream(times.size, geometric_sd(6), stream(31, 2, rep))
            grid = build_grid(1.0, 10, times)
            for level in (None, 3):
                v00 = v0 if level is None else corner(v0, 3)
                path = variance_path(v00, spec, js, grid, level=level)
                w = np.linalg.eigvalsh(path.values)
                opn = np.max(np.abs(w))
                assert w.min() >= -1e-9 * (1 + opn)


class TestDiagonalTailIdentity:
    def test_eigenvalue_tail(self):
        # ||T - T^n||^2 = sum_{k > n/2} lambda_k^2 for diagonal T under level(n)
        lam = 0.5 ** np.arange(1, 9)
        T = np.diag(lam)
        for n in (2, 3, 4, 5, 6, 7):
            err2 = np.linalg.norm(T - project(T, level_mask(n, 8))) ** 2
            tail = float(np.sum(lam[int(np.floor(n / 2)):] ** 2))
            assert err2 == pytest.approx(tail, abs=1e-12)
