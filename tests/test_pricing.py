"""Pricing: payoffs, functionals, MC prices, and the robustness chain."""

import numpy as np
import pytest

from opvol.experiments import default_scenario
from opvol.forward import ForwardSemigroupSpec, simulate_forward_coupled
from opvol.pricing import FunctionalSpec, PayoffSpec, mean_se, pricing_report
from opvol.processes import CoupledJumpStream, PoissonClock, sample_clock, sample_jump_stream, stream
from opvol.variance import GeneratorSpec, VariancePath, build_grid, karhunen_loeve_spectrum
from reference import corner, geometric_law, geometric_noise, variance_path


def constant_paths(v0, horizon, m_points, d, levels=()):
    """Jump-free coupled paths, the exact one first, then one per level."""
    spec = GeneratorSpec("sylvester", np.zeros(d))
    clock = PoissonClock.empty(rate=0.0, horizon=horizon)
    js = CoupledJumpStream(clock=clock, ys=np.empty((0, d)))
    grid = build_grid(horizon, m_points, np.empty(0))
    values = [variance_path(v0, spec, js, grid).values] + [
        variance_path(corner(v0, n), spec, js, grid, level=n).values for n in levels
    ]
    return VariancePath(grid, np.stack(values))


def gaussian_ensemble(d=4, reps=1500, m_points=25, seed=61, levels=()):
    """A = 0, V = I: X(T) is exactly Gaussian with coordinate variances q_j T.
    Each replication is its (P, G, d) states, the exact path first."""
    q = geometric_noise(d)
    fwd = ForwardSemigroupSpec("diagonal", np.zeros(d))
    paths = constant_paths(np.eye(d), 1.0, m_points, d, levels=levels)
    return [
        simulate_forward_coupled(paths, fwd, q, stream(seed, 3, rep))
        for rep in range(reps)
    ], q


def payoffs(paths, functional, payoff, path=0):
    """Per-replication payoff p(<riesz, X(T)>) of an ensemble, on the exact
    path (0) or the truncated one (1), at the horizon T."""
    return payoff.evaluate(np.array([functional.apply(xs[path, -1]) for xs in paths]))


def chain_report(paths, functional, payoff, level, **cap):
    """pricing_report fed from forward paths, as the engine feeds it from replications."""
    dist = np.array([np.linalg.norm(xs[0, -1] - xs[1, -1]) for xs in paths])
    return pricing_report(
        level,
        payoffs(paths, functional, payoff),
        payoffs(paths, functional, payoff, 1),
        dist,
        payoff,
        functional,
        **cap,
    )


def jump_ensemble(d=6, reps=400, level=3, seed=62):
    spec = GeneratorSpec("sylvester", -karhunen_loeve_spectrum(d))
    v0 = np.diag(0.5 ** np.arange(1, d + 1))
    v0n = corner(v0, level)
    q = geometric_noise(d)
    fwd = ForwardSemigroupSpec("diagonal", np.zeros(d))
    paths = []
    for rep in range(reps):
        clock = sample_clock(2.0, 1.0, stream(seed, 1, rep))
        js = sample_jump_stream(clock, geometric_law(d), stream(seed, 2, rep))
        grid = build_grid(1.0, 20, clock.times)
        exact = variance_path(v0, spec, js, grid)
        approx = variance_path(v0n, spec, js, grid, level=level)
        coupled = VariancePath(grid, np.stack([exact.values, approx.values]))
        paths.append(simulate_forward_coupled(coupled, fwd, q, stream(seed, 3, rep)))
    return paths


class TestPayoffs:
    def test_kinds(self):
        assert PayoffSpec.call(1.0).evaluate(np.array([0.5, 2.0])).tolist() == [0.0, 1.0]
        assert PayoffSpec.put(1.0).evaluate(np.array([0.5, 2.0])).tolist() == [0.5, 0.0]
        assert PayoffSpec.identity().evaluate(np.array([-2.0])).tolist() == [-2.0]
        assert PayoffSpec.constant(5.0).evaluate(np.array([1.0, 9.0])).tolist() == [5.0, 5.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            PayoffSpec(kind="barrier", lipschitz=1.0)
        with pytest.raises(ValueError):
            PayoffSpec(kind="call", lipschitz=-1.0)
        with pytest.raises(ValueError):
            PayoffSpec(kind="custom", lipschitz=1.0)

    def test_lipschitz_spot_check(self):
        rng = np.random.default_rng(0)
        payoffs = [
            PayoffSpec.call(0.7),
            PayoffSpec.put(-0.3),
            PayoffSpec.identity(),
            PayoffSpec.constant(5.0),
        ]
        x, y = rng.standard_normal((2, 500))
        for p in payoffs:
            lhs = np.abs(p.evaluate(x) - p.evaluate(y))
            assert np.all(lhs <= p.lipschitz * np.abs(x - y) + 1e-12)


class TestFunctionals:
    def test_norm_matches_riesz(self):
        rng = np.random.default_rng(1)
        v = rng.standard_normal(8)
        assert FunctionalSpec(riesz=v).op_norm == pytest.approx(np.linalg.norm(v), abs=1e-12)

    def test_apply_is_inner_product(self):
        rng = np.random.default_rng(2)
        v, x = rng.standard_normal((2, 6))
        assert FunctionalSpec(riesz=v).apply(x) == pytest.approx(float(v @ x), rel=1e-14)

    def test_presets(self):
        e1 = FunctionalSpec.coordinate(0, 4)
        assert e1.apply(np.array([3.0, 1.0, 1.0, 1.0])) == 3.0
        assert e1.op_norm == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            FunctionalSpec(riesz=np.ones(3)).apply(np.ones(4))
        # the representative is a vector of the state space, not a matrix
        with pytest.raises(ValueError):
            FunctionalSpec(riesz=np.eye(3))


class TestForwardPricing:
    def test_identity_payoff_centered(self):
        paths, q = gaussian_ensemble()
        price, se = mean_se(payoffs(paths, FunctionalSpec.coordinate(0, 4), PayoffSpec.identity()))
        assert abs(price) <= 3 * se

    def test_half_normal_call(self):
        paths, q = gaussian_ensemble(reps=2500)
        price, se = mean_se(payoffs(paths, FunctionalSpec.coordinate(0, 4), PayoffSpec.call(0.0)))
        sigma = np.sqrt(q[0] * 1.0)
        assert abs(price - sigma / np.sqrt(2 * np.pi)) <= 3 * se

    def test_constant_payoff(self):
        paths, _ = gaussian_ensemble(reps=50)
        price, se = mean_se(payoffs(paths, FunctionalSpec.coordinate(0, 4), PayoffSpec.constant(5.0)))
        assert price == 5.0 and se == 0.0

    def test_off_grid_exercise_rejected(self):
        # the payoff is read at a grid point, so the scenario takes none other
        with pytest.raises(ValueError, match="exercise_time"):
            default_scenario().with_(m_points=25, exercise_time=1.0 / 3.0)


class TestRobustnessChain:
    def test_no_truncation_all_zero(self):
        d = 4
        paths, _ = gaussian_ensemble(reps=200, levels=(d,))
        report = chain_report(
            paths, FunctionalSpec.coordinate(0, d), PayoffSpec.call(0.0), d, theorem_cap=0.0
        )
        assert report.price_diff == 0.0
        assert report.lipschitz_rhs == 0.0
        assert report.passed

    def test_coordinate_identity_chain(self):
        paths = jump_ensemble()
        fn = FunctionalSpec.coordinate(0, 6)
        report = chain_report(paths, fn, PayoffSpec.identity(), 3)
        dx = np.array([xs[0, -1] - xs[1, -1] for xs in paths])
        assert report.price_diff == pytest.approx(abs(dx[:, 0].mean()), rel=1e-12)
        assert report.lipschitz_rhs == pytest.approx(
            np.linalg.norm(dx, axis=1).mean(), rel=1e-12
        )
        assert report.price_diff <= report.lipschitz_rhs + 1e-15
        assert report.chain_margin >= -3.0

    def test_zero_lipschitz(self):
        paths = jump_ensemble(reps=30)
        report = chain_report(
            paths, FunctionalSpec.coordinate(0, 6), PayoffSpec.constant(7.0), 3
        )
        assert report.price_diff == 0.0 and report.lipschitz_rhs == 0.0
        assert report.passed

    def test_uncoupled_level_rejected(self):
        # payoff arrays that do not pair replication by replication
        paths = jump_ensemble(reps=3)
        fn, payoff = FunctionalSpec.coordinate(0, 6), PayoffSpec.identity()
        exact = payoffs(paths, fn, payoff)
        with pytest.raises(ValueError):
            pricing_report(3, exact, exact[:2], np.zeros(3), payoff, fn)

    def test_call_chain_margin(self):
        paths = jump_ensemble()
        report = chain_report(
            paths, FunctionalSpec.coordinate(0, 6), PayoffSpec.call(0.0), 3
        )
        assert report.chain_margin >= -3.0
        assert report.passed

    def test_common_noise_shrinks_difference_variance(self):
        paths = jump_ensemble()
        payoff = PayoffSpec.call(0.0)
        fn = FunctionalSpec.coordinate(0, 6)
        exact = payoffs(paths, fn, payoff)
        trunc = payoffs(paths, fn, payoff, 1)
        coupled_var = np.var(exact - trunc, ddof=1)
        shuffled = np.random.default_rng(3).permutation(trunc)
        independent_var = np.var(exact - shuffled, ddof=1)
        assert coupled_var < independent_var
