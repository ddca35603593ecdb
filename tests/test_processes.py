"""Random drivers: clocks, coupled jumps, Wiener increments, moment formulas."""

import numpy as np
import pytest

from opvol.experiments import default_scenario
from opvol.processes import (
    CoupledJumpStream,
    JumpLaw,
    PoissonClock,
    cp_second_moment,
    cp_second_moment_bound,
    sample_clock,
    sample_jump_stream,
    sample_wiener_increments,
    stream,
)
from reference import clock_times, geometric_law, geometric_noise


class TestStreams:
    def test_reproducible(self):
        a = stream(7, 1, 42).standard_normal(5)
        b = stream(7, 1, 42).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_purposes_disjoint(self):
        a = stream(7, 1, 0).standard_normal(5)
        b = stream(7, 2, 0).standard_normal(5)
        assert not np.allclose(a, b)

    def test_replications_disjoint(self):
        a = stream(7, 1, 0).standard_normal(5)
        b = stream(7, 1, 1).standard_normal(5)
        assert not np.allclose(a, b)


def assert_clocks_match_loop(rate, horizon, reps):
    """sample_clock gives the gap-by-gap loop's times, bit for bit, and
    leaves the stream where the loop leaves it; returns how many clocks ran
    past their first block of gaps."""
    block = max(8, int(2 * rate * horizon) + 1)
    spanned = 0
    for rep in reps:
        rng, ref = stream(13, 1, rep), stream(13, 1, rep)
        clock = sample_clock(rate, horizon, rng)
        want = clock_times(rate, horizon, ref)
        assert clock.times.dtype == want.dtype and clock.times.shape == want.shape
        assert np.array_equal(clock.times, want)
        assert rng.random() == ref.random()
        spanned += clock.count >= block
    return spanned


class TestClock:
    def test_invalid_args(self):
        rng = stream(0, 1, 0)
        with pytest.raises(ValueError):
            sample_clock(0.0, 1.0, rng)
        with pytest.raises(ValueError):
            sample_clock(1.0, 0.0, rng)

    def test_times_in_range(self):
        for rep in range(50):
            clock = sample_clock(3.0, 2.0, stream(1, 1, rep))
            if clock.count:
                assert clock.times[0] > 0
                assert clock.times[-1] <= 2.0
                assert np.all(np.diff(clock.times) > 0)

    def test_determinism(self):
        c1 = sample_clock(2.0, 3.0, stream(5, 1, 9))
        c2 = sample_clock(2.0, 3.0, stream(5, 1, 9))
        np.testing.assert_array_equal(c1.times, c2.times)

    def test_mean_count(self):
        # Poisson mean: lambda*T = 6 over 20000 replications
        R = 20000
        counts = np.array([sample_clock(2.0, 3.0, stream(11, 1, r)).count for r in range(R)])
        se = counts.std(ddof=1) / np.sqrt(R)
        assert abs(counts.mean() - 6.0) <= 3 * se

    @pytest.mark.parametrize("rate", [1.0, 3.7, 20.0, 500.0])
    @pytest.mark.parametrize("horizon", [1.0, 1.7, 3.0])
    def test_blocks_match_gap_by_gap_loop(self, rate, horizon):
        assert_clocks_match_loop(rate, horizon, range(100))

    @pytest.mark.parametrize("rate, horizon", [(3.7, 1.0), (1.0, 3.0)])
    def test_clocks_past_the_first_block_match_the_loop(self, rate, horizon):
        # the first block holds 8 gaps here, so a clock of 8 or more jumps
        # carries its time into a second block
        assert assert_clocks_match_loop(rate, horizon, range(1000)) >= 5

    def test_empty_constructor(self):
        clock = PoissonClock.empty(rate=0.0, horizon=1.0)
        assert clock.count == 0

    def test_rejects_bad_times(self):
        with pytest.raises(ValueError):
            PoissonClock(rate=1.0, horizon=1.0, times=np.array([0.5, 0.4]))
        with pytest.raises(ValueError):
            PoissonClock(rate=1.0, horizon=1.0, times=np.array([0.5, 1.4]))


class TestJumps:
    def test_deterministic_direction(self):
        # Y = e1 gives X = X^n = e1 (x) e1 at every level
        clock = PoissonClock(rate=1.0, horizon=1.0, times=np.array([0.5]))
        js = CoupledJumpStream(clock=clock, ys=np.array([[1.0, 0.0, 0.0]]))
        expected = np.zeros((3, 3))
        expected[0, 0] = 1.0
        np.testing.assert_array_equal(js.jumps[0], expected)
        for n in (1, 2, 3):
            np.testing.assert_array_equal(js.approx_jumps(n)[0], expected)

    def test_full_level_exact(self):
        clock = PoissonClock(rate=1.0, horizon=1.0, times=np.array([0.5]))
        js = sample_jump_stream(clock, geometric_law(8), stream(0, 2, 1))
        np.testing.assert_array_equal(js.approx_jumps(8), js.jumps)

    def test_jumps_are_psd_rank_one(self):
        law = geometric_law(8)
        clock = PoissonClock(rate=1.0, horizon=1.0, times=np.linspace(0.05, 1.0, 20))
        js = sample_jump_stream(clock, law, stream(3, 2, 0))
        for X, X2, X4 in zip(js.jumps, js.approx_jumps(2), js.approx_jumps(4)):
            for M in (X, X2, X4):
                w = np.linalg.eigvalsh(M)
                assert w[0] >= -1e-12
                assert np.sum(w > 1e-12 * max(w[-1], 1.0)) <= 1

    def test_negative_spectrum_rejected(self):
        with pytest.raises(ValueError):
            JumpLaw(gammas=np.array([0.5, -0.1]))

    def test_law_needs_exactly_one_source(self):
        # the spectrum is the law's only source, and it must be a sequence
        with pytest.raises(ValueError):
            JumpLaw(gammas=None)
        with pytest.raises(ValueError):
            JumpLaw(gammas=np.ones((2, 2)))

    def test_stream_coupling(self):
        clock = PoissonClock(rate=1.0, horizon=1.0, times=np.array([0.2, 0.7, 0.9]))
        js = sample_jump_stream(clock, geometric_law(8), stream(1, 2, 0))
        assert js.jumps.shape == (3, 8, 8)
        assert js.approx_jumps(2).shape == (3, 8, 8)
        # truncation zeroes every entry with a coordinate beyond the level
        np.testing.assert_array_equal(js.approx_jumps(2)[:, 2:, :], 0.0)
        np.testing.assert_array_equal(js.approx_jumps(2)[:, :, 2:], 0.0)
        np.testing.assert_array_equal(js.approx_jumps(2)[:, :2, :2], js.jumps[:, :2, :2])

    def test_truncation_error_moment_bound(self):
        # E||X - X^n||_hs^2 <= 4 sqrt(E|Y|^4 E|Y-Y^n|^4), both sides from the same draws
        law = geometric_law(8)
        rng = stream(21, 2, 0)
        ys = law.draw(rng, 20000)
        n = 3
        yn = ys.copy()
        yn[:, n:] = 0.0
        full4 = np.sum(ys**2, axis=1) ** 2
        diff4 = np.sum((ys - yn) ** 2, axis=1) ** 2
        # ||Y(x)Y - Yn(x)Yn||_hs^2 = |Y|^4 - |Yn|^4 for nested truncations
        lhs = np.mean(full4 - np.sum(yn**2, axis=1) ** 2)
        rhs = 4.0 * np.sqrt(np.mean(full4) * np.mean(diff4))
        assert lhs <= rhs

    def test_tensor_identity_for_truncation(self):
        # the rank-one difference norm identity used above, on one draw
        rng = stream(22, 2, 0)
        y = geometric_law(8).draw(rng, 1)[0]
        yn = y.copy()
        yn[3:] = 0.0
        D = np.outer(y, y) - np.outer(yn, yn)
        direct = np.linalg.norm(D) ** 2
        identity = np.sum(y**2) ** 2 - np.sum(yn**2) ** 2
        assert abs(direct - identity) < 1e-12


class TestMoments:
    def test_formula(self):
        assert cp_second_moment(2.0, 3.0, 5.0, 1.0) == pytest.approx(66.0, abs=1e-12)

    def test_time_zero(self):
        assert cp_second_moment(2.0, 0.0, 5.0, 1.0) == 0.0

    def test_centered(self):
        assert cp_second_moment(2.0, 3.0, 5.0, 0.0) == pytest.approx(30.0, abs=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            cp_second_moment(-1.0, 1.0, 1.0, 0.5)

    def test_bound_dominates(self):
        # rate*t*(1+rate*t)*m2 >= exact whenever m1sq <= m2
        rng = np.random.default_rng(23)
        for _ in range(100):
            rate, t, m2 = rng.uniform(0.1, 3.0, 3)
            m1sq = rng.uniform(0.0, m2)
            assert cp_second_moment_bound(rate, t, m2) >= cp_second_moment(rate, t, m2, m1sq) - 1e-12


class TestWiener:
    def test_spec_validation(self):
        # the noise is its spectrum array; the scenario checks it on entry
        with pytest.raises(ValueError, match="q_spectrum must be nonnegative"):
            default_scenario().with_(q_spectrum=np.array([0.5, -0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5]))

    def test_trace(self):
        q = geometric_noise(8)
        assert q.sum() == pytest.approx(np.sum(0.5 ** np.arange(1, 9)), abs=1e-15)

    def test_zero_spectrum(self):
        dB = sample_wiener_increments(np.zeros(4), np.linspace(0.0, 1.0, 11), stream(0, 3, 0))
        np.testing.assert_array_equal(dB, 0.0)

    def test_grid_validation(self):
        spec = geometric_noise(4)
        rng = stream(0, 3, 0)
        with pytest.raises(ValueError):
            sample_wiener_increments(spec, np.array([0.0, 0.5, 0.5, 1.0]), rng)
        with pytest.raises(ValueError):
            sample_wiener_increments(spec, np.array([0.1, 0.5, 1.0]), rng)

    def test_coefficient_variance(self):
        spec = geometric_noise(4)
        grid = np.array([0.0, 0.25])
        draws = np.stack(
            [sample_wiener_increments(spec, grid, stream(31, 3, r))[0] for r in range(20000)]
        )
        for j in range(4):
            v = draws[:, j] ** 2
            se = v.std(ddof=1) / np.sqrt(v.size)
            assert abs(v.mean() - spec[j] * 0.25) <= 3 * se

    def test_increment_norm(self):
        # E|dB|^2 = dt * Tr(Q)
        spec = geometric_noise(6)
        grid = np.array([0.0, 0.5])
        sq = np.array(
            [np.sum(sample_wiener_increments(spec, grid, stream(32, 3, r))[0] ** 2) for r in range(20000)]
        )
        se = sq.std(ddof=1) / np.sqrt(sq.size)
        assert abs(sq.mean() - 0.5 * spec.sum()) <= 3 * se
