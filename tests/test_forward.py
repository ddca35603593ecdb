"""Forward dynamics: semigroup constants, coupled Euler recursion, sup errors."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from opvol import forward
from opvol.forward import ForwardSemigroupSpec, forward_sup_error, simulate_forward_coupled
from opvol.operators import (
    NotPositiveSemidefinite,
    psd_sqrt_batch,
)
from opvol.processes import (
    CoupledJumpStream,
    sample_clock,
    sample_jump_stream,
    sample_wiener_increments,
    stream,
)
from opvol.variance import GeneratorSpec, VariancePath, build_grid, karhunen_loeve_spectrum
from reference import corner, geometric_noise, geometric_sd, psd_sqrt, variance_path


def random_skew(rng, d):
    """Random tridiagonal skew weights; the last entry is unused."""
    return ForwardSemigroupSpec("skew", rng.standard_normal(d))


def skew_matrix(fwd):
    """The skew kind's generator A, built entry by entry."""
    d = fwd.spectrum.size
    A = np.zeros((d, d))
    for j in range(d - 1):
        A[j, j + 1] = fwd.spectrum[j]
        A[j + 1, j] = -fwd.spectrum[j]
    return A


def zero_semigroup(d):
    return ForwardSemigroupSpec("diagonal", np.zeros(d))


def semigroup(fwd, t):
    """S(t) as a dense matrix, straight from the definition: exp(t a) on the
    diagonal, or expm(t A)."""
    if fwd.kind == "diagonal":
        return np.diag(np.exp(fwd.spectrum * t))
    return expm(t * skew_matrix(fwd))


def modes_semigroup(fwd, t):
    """S(t) = U diag(e^{lam t}) U^H from the eigenbasis the scan uses."""
    lam, U = fwd.modes
    if U is None:
        U = np.eye(lam.size)
    return (U * np.exp(lam * t)) @ U.conj().T


def stack(exact, approx):
    """The coupled (P, G, d, d) path stack of exact and each level in approx."""
    return VariancePath(exact.grid, np.stack([exact.values] + [approx[n].values for n in approx]))


def constant_paths(v0, horizon, m_points, d, levels=()):
    """Jump-free variance paths: V stays at v0, V^n stays at the projection;
    the exact path first, then one per level."""
    spec = GeneratorSpec("sylvester", np.zeros(d))
    js = CoupledJumpStream(ys=np.empty((0, d)))
    grid = build_grid(horizon, m_points, np.empty(0))
    exact = variance_path(v0, spec, js, grid)
    return stack(exact, {n: variance_path(corner(v0, n), spec, js, grid, level=n) for n in levels})


def scheme_second_moment(exponents, v_diag, q, horizon, m_points):
    """E|X(T)|^2 under the left-endpoint scheme, all pieces diagonal:
    sum_m dt sum_j q_j v_j e^{2 a_j (T - t_m)}."""
    dt = horizon / m_points
    t = dt * np.arange(m_points)
    decay = np.exp(2.0 * np.outer(horizon - t, exponents))
    return float(dt * np.sum(decay * (q * v_diag)))


def exact_second_moment(exponents, v_diag, q, horizon):
    """E|X(T)|^2 = sum_j q_j v_j (e^{2 a_j T} - 1) / (2 a_j), limit T at a_j = 0."""
    a = np.asarray(exponents, dtype=float)
    with np.errstate(invalid="ignore"):
        factor = np.where(a == 0.0, horizon, (np.exp(2.0 * a * horizon) - 1.0) / (2.0 * a))
    return float(np.sum(q * v_diag * factor))


class TestSemigroupSpec:
    def test_diagonal_constants(self):
        spec = ForwardSemigroupSpec("diagonal", [-1.0, 0.5, 0.0])
        assert spec.k == 0.5

    def test_skew_constants(self):
        spec = random_skew(np.random.default_rng(0), 4)
        assert spec.k == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ForwardSemigroupSpec(kind="spiral", spectrum=np.zeros(2))

    def test_diagonal_operator(self):
        spec = ForwardSemigroupSpec("diagonal", [-2.0, 1.0])
        np.testing.assert_allclose(modes_semigroup(spec, 0.5), np.diag([np.exp(-1.0), np.exp(0.5)]))

    def test_skew_isometry(self):
        rng = np.random.default_rng(1)
        spec = random_skew(rng, 6)
        for _ in range(20):
            t = float(rng.uniform(0, 5))
            f = rng.standard_normal(6)
            S = modes_semigroup(spec, t)
            assert np.linalg.norm(S @ f) == pytest.approx(np.linalg.norm(f), abs=1e-10)

    def test_semigroup_law(self):
        spec = random_skew(np.random.default_rng(2), 4)
        product = modes_semigroup(spec, 0.7) @ modes_semigroup(spec, 0.3)
        np.testing.assert_allclose(product, modes_semigroup(spec, 1.0), atol=1e-12)

    def test_quasi_contraction_certificate(self):
        # ||S(t)||_op <= e^{kt} (c = 1) on random times for both kinds
        rng = np.random.default_rng(3)
        specs = [
            ForwardSemigroupSpec("diagonal", rng.uniform(-2, 1, size=5)),
            random_skew(rng, 5),
        ]
        for spec in specs:
            for t in rng.uniform(0, 3, size=10):
                opn = np.linalg.svd(modes_semigroup(spec, t), compute_uv=False)[0]
                assert opn <= np.exp(spec.k * t) * (1 + 1e-12)


class TestSimulation:
    def test_zero_volatility_gives_zero(self):
        d = 4
        paths = constant_paths(np.zeros((d, d)), 1.0, 16, d)
        fwd = zero_semigroup(d)
        xs = simulate_forward_coupled(paths, fwd, geometric_noise(d), stream(41, 3, 0))
        np.testing.assert_array_equal(xs[0], 0.0)

    def test_identical_variance_paths_give_zero_error(self):
        d = 4
        v0 = np.diag([1.0, 0.5, 0.25, 0.125])
        paths = constant_paths(v0, 1.0, 16, d, levels=(4,))
        fwd = ForwardSemigroupSpec("diagonal", [-0.5, -0.25, 0.0, 0.25])
        xs = simulate_forward_coupled(paths, fwd, geometric_noise(d), stream(42, 3, 0))
        assert forward_sup_error(xs)[0] == 0.0

    def test_single_step_closed_form(self):
        d = 4
        rng = np.random.default_rng(5)
        A = rng.standard_normal((d, d))
        v0 = A @ A.T / d + np.eye(d)
        paths = constant_paths(v0, 1.0, 1, d, levels=(2,))
        fwd = zero_semigroup(d)
        q = geometric_noise(d)
        xs = simulate_forward_coupled(paths, fwd, q, stream(43, 3, 0))
        db = sample_wiener_increments(q, paths.grid.distinct_times, stream(43, 3, 0))[0]
        v0n = corner(v0, 2)
        expected = np.linalg.norm((psd_sqrt(v0) - psd_sqrt(v0n)) @ db) ** 2
        assert forward_sup_error(xs)[0] == pytest.approx(expected, rel=1e-12)
        np.testing.assert_allclose(xs[0, -1], psd_sqrt(v0) @ db, rtol=1e-12)

    def test_indefinite_variance_rejected(self):
        d = 2
        grid = constant_paths(np.eye(d), 1.0, 4, d).grid
        bad_values = np.tile(np.diag([1.0, -1.0]), (1, grid.size, 1, 1))
        bad = VariancePath(grid=grid, values=bad_values)
        fwd = zero_semigroup(d)
        with pytest.raises(NotPositiveSemidefinite):
            simulate_forward_coupled(bad, fwd, geometric_noise(d), stream(45, 3, 0))

    def test_shared_noise_is_level_independent(self):
        # adding a level never resamples the driver: bit-identical paths
        d = 6
        spec = GeneratorSpec("sylvester", -karhunen_loeve_spectrum(d))
        times = sample_clock(2.0, 1.0, stream(46, 1, 0))
        v0 = np.diag(0.5 ** np.arange(1, d + 1))

        def run(levels):
            js = sample_jump_stream(times.size, geometric_sd(d), stream(46, 2, 0))
            grid = build_grid(1.0, 20, times)
            exact = variance_path(v0, spec, js, grid)
            approx = {n: variance_path(corner(v0, n), spec, js, grid, level=n) for n in levels}
            fwd = ForwardSemigroupSpec("diagonal", np.full(d, -0.3))
            return simulate_forward_coupled(stack(exact, approx), fwd, geometric_noise(d), stream(46, 3, 0))

        one = run((3,))
        two = run((3, 5))
        np.testing.assert_array_equal(one[0], two[0])
        np.testing.assert_array_equal(one[1], two[1])

    def test_sup_monotone_under_subgrid(self):
        d = 4
        v0 = np.diag([1.0, 0.5, 0.25, 0.125])
        paths = constant_paths(v0, 1.0, 32, d, levels=(2,))
        fwd = zero_semigroup(d)
        xs = simulate_forward_coupled(paths, fwd, geometric_noise(d), stream(48, 3, 0))
        diff = np.sum((xs[0] - xs[1]) ** 2, axis=1)
        assert np.max(diff[::4]) <= forward_sup_error(xs)[0]


def jump_paths(d, levels, seed):
    """Coupled variance paths on a grid with jump slots (zero-length steps),
    the exact path first."""
    spec = GeneratorSpec("sylvester", -karhunen_loeve_spectrum(d))
    times = sample_clock(6.0, 1.0, stream(seed, 1, 0))
    assert times.size > 0
    js = sample_jump_stream(times.size, geometric_sd(d), stream(seed, 2, 0))
    grid = build_grid(1.0, 20, times)
    v0 = np.diag(0.5 ** np.arange(1, d + 1))
    exact = variance_path(v0, spec, js, grid)
    return stack(exact, {n: variance_path(corner(v0, n), spec, js, grid, level=n) for n in levels})


def semigroups(d):
    return [
        ForwardSemigroupSpec("diagonal", np.linspace(-0.5, 0.2, d)),
        random_skew(np.random.default_rng(8), d),
    ]


# the scan against the per-step loop, relative to the largest state: the
# nonzero exponents and the skew kind round differently from the loop, by a
# few ulps of the states (2.5e-15 at most over 20 seeds at d <= 16)
SCAN_RTOL = 1e-12


def assert_matches_loop(xs, want, fwd):
    """The diagonal kind's zero coordinates keep the loop's bits, signed zeros
    included; every coordinate is within SCAN_RTOL of the loop."""
    exact = fwd.spectrum == 0.0 if fwd.kind == "diagonal" else np.zeros(fwd.spectrum.size, bool)
    np.testing.assert_array_equal(xs[..., exact], want[..., exact])
    assert np.array_equal(np.signbit(xs[..., exact]), np.signbit(want[..., exact]))
    assert np.max(np.abs(xs - want)) <= SCAN_RTOL * np.max(np.abs(want))


def per_step_recursion(paths, fwd, q, rng):
    """The step-by-step Euler loop, one noise contraction per grid step, with
    the Wiener increments scattered to grid steps (zero at jump slots)."""
    grid = paths.grid
    d = paths.values.shape[-1]
    distinct = grid.distinct_times
    inc_distinct = sample_wiener_increments(q, distinct, rng)
    dts = np.diff(grid.times)
    steps = dts > 0.0
    increments = np.zeros((grid.size - 1, d))
    pos = np.searchsorted(distinct, grid.times[1:])
    increments[steps] = inc_distinct[pos[steps] - 1]
    endpoints = np.flatnonzero(steps)
    sqrts = psd_sqrt_batch(paths.values[:, endpoints])
    n_paths = paths.values.shape[0]
    xs = np.zeros((n_paths, grid.size, d))
    state = np.zeros((n_paths, d))
    step_no = 0
    for g in range(1, grid.size):
        dt = dts[g - 1]
        if dt > 0.0:
            state = state + np.einsum("pij,j->pi", sqrts[:, step_no], increments[g - 1])
            if fwd.kind == "diagonal":
                state = state * np.exp(fwd.spectrum * dt)
            else:
                state = state @ expm(dt * skew_matrix(fwd)).T
            step_no += 1
        xs[:, g] = state
    return xs


class TestPrecomputedSquareRoots:
    def test_given_stack_matches_computed(self):
        d, levels = 6, (2, 4)
        paths = jump_paths(d, levels, seed=61)
        assert np.any(np.diff(paths.grid.times) == 0.0)
        sqrts = psd_sqrt_batch(paths.values)
        q = geometric_noise(d)
        for fwd in semigroups(d):
            own = simulate_forward_coupled(paths, fwd, q, stream(61, 3, 0))
            given = simulate_forward_coupled(paths, fwd, q, stream(61, 3, 0), sqrts)
            np.testing.assert_array_equal(given, own)

    def test_batched_noise_matches_per_step_loop(self):
        d, levels = 6, (2, 4)
        paths = jump_paths(d, levels, seed=62)
        q = geometric_noise(d)
        mixed = ForwardSemigroupSpec("diagonal", [0.0, -0.5, 0.0, 0.3, -0.0, -1.2])
        for fwd in semigroups(d) + [zero_semigroup(d), mixed]:
            xs = simulate_forward_coupled(paths, fwd, q, stream(62, 3, 0))
            want = per_step_recursion(paths, fwd, q, stream(62, 3, 0))
            assert xs.shape == (1 + len(levels), paths.grid.size, d)
            assert_matches_loop(xs, want, fwd)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        d=st.integers(1, 16),
        n_paths=st.integers(1, 3),
        m_points=st.integers(1, 40),
        horizon=st.sampled_from([0.25, 1.0, 3.0]),
        jumps=st.lists(st.floats(0.0, 1.0, exclude_min=True), max_size=12, unique=True),
        kind=st.sampled_from(["zero", "mixed", "diagonal", "skew"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_scan_matches_per_step_loop_on_random_grids(
        self, d, n_paths, m_points, horizon, jumps, kind, seed
    ):
        rng = np.random.default_rng(seed)
        grid = build_grid(horizon, m_points, np.sort(jumps) * horizon)
        roots = rng.standard_normal((n_paths, grid.size, d, d))
        paths = VariancePath(grid, roots @ np.swapaxes(roots, -1, -2) / d)
        exponents = rng.uniform(-4.0, 1.0, d)
        fwd = {
            "zero": zero_semigroup(d),
            "mixed": ForwardSemigroupSpec("diagonal", np.where(rng.random(d) < 0.5, 0.0, exponents)),
            "diagonal": ForwardSemigroupSpec("diagonal", exponents),
            "skew": random_skew(rng, d),
        }[kind]
        q = geometric_noise(d)
        xs = simulate_forward_coupled(paths, fwd, q, stream(seed, 3, 0))
        assert_matches_loop(xs, per_step_recursion(paths, fwd, q, stream(seed, 3, 0)), fwd)

    @pytest.mark.parametrize("extreme", [-1e4, -1e300])
    def test_extreme_exponents_stay_finite_without_warnings(self, extreme):
        d = 6
        paths = jump_paths(d, (2, 4), seed=64)
        fwd = ForwardSemigroupSpec("diagonal", np.where(np.arange(d) % 2 == 0, 0.0, extreme))
        q = geometric_noise(d)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            xs = simulate_forward_coupled(paths, fwd, q, stream(64, 3, 0))
        assert np.all(np.isfinite(xs))
        assert_matches_loop(xs, per_step_recursion(paths, fwd, q, stream(64, 3, 0)), fwd)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        t=st.floats(0.0, 3.0),
        d=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_modes_match_per_step_semigroup(self, t, d, seed):
        # A = U diag(lam) U^H: U diag(e^{lam t}) U^H is S(t) from exp or expm
        rng = np.random.default_rng(seed)
        for fwd in (ForwardSemigroupSpec("diagonal", rng.uniform(-2.0, 1.0, d)), random_skew(rng, d)):
            S = modes_semigroup(fwd, t)
            np.testing.assert_allclose(S.real, semigroup(fwd, t), rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(S.imag, 0.0, atol=1e-12)

    def test_wrong_stack_shape_rejected(self):
        d = 4
        paths = jump_paths(d, (2,), seed=63)
        full = psd_sqrt_batch(paths.values)
        fwd = zero_semigroup(d)
        q = geometric_noise(d)
        for bad in (full[:1], full[:, 1:], full[..., :2, :2]):
            with pytest.raises(ValueError, match="square root stack"):
                simulate_forward_coupled(paths, fwd, q, stream(63, 3, 0), bad)


def gathered_forward(paths, fwd, q, rng, sqrts):
    """simulate_forward_coupled with the noise contracted on a gathered copy
    of the roots at the positive-length steps' left endpoints."""
    grid = paths.grid
    times = grid.distinct_times
    increments = sample_wiener_increments(q, times, rng)
    steps = np.diff(grid.times) > 0.0
    noise = np.einsum("pkij,kj->pki", sqrts[:, np.flatnonzero(steps)], increments)
    lam, U = fwd.modes
    if U is None:
        states = forward._transport(noise, times, lam)
    else:
        states = (forward._transport(noise @ U.conj(), times, lam) @ U.T).real
    return states[:, np.concatenate(([0], np.cumsum(steps)))]


class TestNoiseFromTheRootView:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        d=st.integers(1, 16),
        n_paths=st.integers(1, 5),
        m_points=st.integers(1, 40),
        jumps=st.lists(st.floats(0.0, 1.0, exclude_min=True), max_size=12, unique=True),
        kind=st.sampled_from(["zero", "diagonal", "skew"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_gathered_copy(self, d, n_paths, m_points, jumps, kind, seed):
        # a zero increment on each zero-length step leaves the contraction at
        # the positive-length steps with the gathered copy's bits
        rng = np.random.default_rng(seed)
        grid = build_grid(1.0, m_points, np.sort(jumps))
        roots = rng.standard_normal((n_paths, grid.size, d, d))
        roots[rng.random(roots.shape) < 0.2] = rng.choice([0.0, -0.0])
        paths = VariancePath(grid, roots @ np.swapaxes(roots, -1, -2))
        fwd = {
            "zero": zero_semigroup(d),
            "diagonal": ForwardSemigroupSpec("diagonal", rng.uniform(-4.0, 1.0, d)),
            "skew": random_skew(rng, d),
        }[kind]
        q = geometric_noise(d)
        xs = simulate_forward_coupled(paths, fwd, q, stream(seed, 3, 0), roots)
        want = gathered_forward(paths, fwd, q, stream(seed, 3, 0), roots)
        assert np.array_equal(xs, want)
        assert np.array_equal(np.signbit(xs), np.signbit(want))


class TestIsometry:
    def test_constant_identity_volatility(self):
        # A = 0, V = I: E|X(T)|^2 = T Tr(Q), and the scheme has zero bias here
        d = 4
        q = geometric_noise(d)
        fwd = zero_semigroup(d)
        paths = constant_paths(np.eye(d), 1.0, 25, d)
        sq = np.empty(1500)
        for rep in range(sq.size):
            xs = simulate_forward_coupled(paths, fwd, q, stream(50, 3, rep))
            sq[rep] = np.sum(xs[0, -1] ** 2)
        est, se = sq.mean(), sq.std(ddof=1) / np.sqrt(sq.size)
        assert abs(est - q.sum()) <= 3 * se

    def test_skew_transport_preserves_isometry(self):
        # skew A is an isometry group, so the constant-volatility value is unchanged
        d = 4
        q = geometric_noise(d)
        fwd = random_skew(np.random.default_rng(7), d)
        paths = constant_paths(np.eye(d), 1.0, 25, d)
        sq = np.empty(1500)
        for rep in range(sq.size):
            xs = simulate_forward_coupled(paths, fwd, q, stream(51, 3, rep))
            sq[rep] = np.sum(xs[0, -1] ** 2)
        est, se = sq.mean(), sq.std(ddof=1) / np.sqrt(sq.size)
        assert abs(est - q.sum()) <= 3 * se

    def test_scheme_expectation_formulas_agree_at_zero_drift(self):
        d = 3
        q = geometric_noise(d)
        v = np.array([1.0, 0.5, 0.25])
        a = np.zeros(d)
        assert scheme_second_moment(a, v, q, 1.0, 100) == pytest.approx(
            exact_second_moment(a, v, q, 1.0), rel=1e-12
        )

    def test_mc_matches_scheme_expectation_with_drift(self):
        d = 3
        q = geometric_noise(d)
        a = np.array([-1.0, -0.5, 0.25])
        v0 = np.diag([1.0, 0.5, 0.25])
        fwd = ForwardSemigroupSpec("diagonal", a)
        paths = constant_paths(v0, 1.0, 20, d)
        target = scheme_second_moment(a, np.diagonal(v0), q, 1.0, 20)
        sq = np.empty(1500)
        for rep in range(sq.size):
            xs = simulate_forward_coupled(paths, fwd, q, stream(52, 3, rep))
            sq[rep] = np.sum(xs[0, -1] ** 2)
        est, se = sq.mean(), sq.std(ddof=1) / np.sqrt(sq.size)
        assert abs(est - target) <= 3 * se

    def test_euler_bias_halves_with_step(self):
        d = 3
        q = geometric_noise(d)
        a = np.array([-1.2, -0.6, 0.4])
        v = np.array([1.0, 0.5, 0.25])
        truth = exact_second_moment(a, v, q, 1.0)
        bias = [scheme_second_moment(a, v, q, 1.0, m) - truth for m in (200, 400)]
        assert abs(bias[1] / bias[0] - 0.5) <= 0.1
