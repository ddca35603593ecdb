"""Random drivers: clocks, coupled jumps, Wiener increments, moment formulas."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox, SeedSequence

from opvol.experiments import _level_jumps, default_scenario
from opvol.processes import (
    _KEY_BLOCK,
    CoupledJumpStream,
    cp_second_moment,
    cp_second_moment_bound,
    sample_clock,
    sample_jump_stream,
    sample_wiener_increments,
    stream,
)
from reference import approx_jumps, clock_times, geometric_noise, geometric_sd, ys_at_level


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

    # the Philox keys stream derives from its key blocks are SeedSequence's:
    # a change to either side (numpy's SeedSequence included) fails here
    # rather than changing every stream
    @pytest.mark.parametrize("seed", [0, 1, 1729, 2**32 - 1, 2**32, 2**64 + 5, 2**100 + 17])
    @pytest.mark.parametrize("purpose", [1, 2, 3])
    def test_keys_are_seed_sequence_keys(self, seed, purpose):
        B = _KEY_BLOCK
        for rep in (0, 1, B - 1, B, B + 1, 2**40 + 7 * B + 3):
            key = stream(seed, purpose, rep).bit_generator.state["state"]["key"]
            want = SeedSequence([seed, purpose, rep]).generate_state(2, np.uint64)
            assert key.dtype == want.dtype and np.array_equal(key, want), (seed, purpose, rep)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**128 - 1), purpose=st.integers(1, 3),
           rep=st.integers(0, 10**6 - 1))
    def test_draws_are_seed_sequence_streams(self, seed, purpose, rep):
        want = Generator(Philox(SeedSequence([seed, purpose, rep])))
        rng = stream(seed, purpose, rep)
        assert np.array_equal(rng.standard_normal(4), want.standard_normal(4))
        assert np.array_equal(rng.integers(0, 2**63, 3), want.integers(0, 2**63, 3))

    def test_each_call_is_a_fresh_generator(self):
        a, b = stream(7, 2, 1500), stream(7, 2, 1500)
        assert a is not b and a.bit_generator is not b.bit_generator
        first = a.standard_normal(6)
        assert np.array_equal(b.standard_normal(6), first)  # a's draws left b where it was
        assert np.array_equal(a.standard_normal(6), b.standard_normal(6))

    @pytest.mark.parametrize("args", [(-1, 1, 0), (7, -1, 0), (7, 1, -1), (7, 1, -_KEY_BLOCK),
                                      (-(2**64), 1, 0)])
    def test_negative_arguments_raise_as_seed_sequence_does(self, args):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            SeedSequence(list(args))
        with pytest.raises(ValueError, match="expected non-negative integer"):
            stream(*args)

    @pytest.mark.parametrize("args", [(7.0, 1, 0), (7, 1.0, 0), (7, 1, 2.5), (7, 1, np.float64(3)),
                                      (7, 1, "3")])
    def test_non_integer_arguments_raise_type_error(self, args):
        with pytest.raises(TypeError):
            stream(*args)

    def test_numpy_integers_and_ints_give_one_stream(self):
        a = stream(np.int64(7), np.uint8(1), np.uint32(_KEY_BLOCK + 3)).standard_normal(3)
        assert np.array_equal(a, stream(7, 1, _KEY_BLOCK + 3).standard_normal(3))


def assert_clocks_match_loop(rate, horizon, reps):
    """sample_clock gives the gap-by-gap loop's times, bit for bit, and
    leaves the stream where the loop leaves it; returns how many clocks ran
    past their first block of gaps."""
    block = max(8, int(2 * rate * horizon) + 1)
    spanned = 0
    for rep in reps:
        rng, ref = stream(13, 1, rep), stream(13, 1, rep)
        times = sample_clock(rate, horizon, rng)
        want = clock_times(rate, horizon, ref)
        assert times.dtype == want.dtype and times.shape == want.shape
        assert np.array_equal(times, want)
        assert rng.random() == ref.random()
        spanned += times.size >= block
    return spanned


class TestClock:
    def test_invalid_args(self):
        rng = stream(0, 1, 0)
        with pytest.raises(ValueError):
            sample_clock(-1.0, 1.0, rng)
        with pytest.raises(ValueError):
            sample_clock(1.0, 0.0, rng)

    def test_zero_rate_gives_no_jumps(self):
        rng, ref = stream(0, 1, 0), stream(0, 1, 0)
        times = sample_clock(0.0, 1.0, rng)
        assert times.dtype == np.float64 and times.shape == (0,)
        assert rng.random() == ref.random()  # nothing was drawn

    def test_times_in_range(self):
        for rep in range(50):
            times = sample_clock(3.0, 2.0, stream(1, 1, rep))
            if times.size:
                assert times[0] > 0
                assert times[-1] <= 2.0
                assert np.all(np.diff(times) > 0)

    def test_determinism(self):
        c1 = sample_clock(2.0, 3.0, stream(5, 1, 9))
        c2 = sample_clock(2.0, 3.0, stream(5, 1, 9))
        np.testing.assert_array_equal(c1, c2)

    def test_mean_count(self):
        # Poisson mean: lambda*T = 6 over 20000 replications
        R = 20000
        counts = np.array([sample_clock(2.0, 3.0, stream(11, 1, r)).size for r in range(R)])
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


class TestJumps:
    def test_deterministic_direction(self):
        # Y = e1 gives X = X^n = e1 (x) e1 at every level
        js = CoupledJumpStream(ys=np.array([[1.0, 0.0, 0.0]]))
        expected = np.zeros((3, 3))
        expected[0, 0] = 1.0
        np.testing.assert_array_equal(js.jumps[0], expected)
        for yn in _level_jumps(js.ys, (1, 2, 3)):
            np.testing.assert_array_equal(np.outer(yn[0], yn[0]), expected)

    def test_full_level_exact(self):
        js = sample_jump_stream(1, geometric_sd(8), stream(0, 2, 1))
        (yn,) = _level_jumps(js.ys, (8,))
        np.testing.assert_array_equal(yn, js.ys)
        np.testing.assert_array_equal(np.einsum("ij,ik->ijk", yn, yn), js.jumps)

    def test_jumps_are_psd_rank_one(self):
        js = sample_jump_stream(20, geometric_sd(8), stream(3, 2, 0))
        X2s, X4s = (np.einsum("ij,ik->ijk", yn, yn) for yn in _level_jumps(js.ys, (2, 4)))
        for X, X2, X4 in zip(js.jumps, X2s, X4s):
            for M in (X, X2, X4):
                w = np.linalg.eigvalsh(M)
                assert w[0] >= -1e-12
                assert np.sum(w > 1e-12 * max(w[-1], 1.0)) <= 1

    def test_negative_spectrum_rejected(self):
        # the scenario is the jump spectrum's only validator
        gammas = np.full(8, 0.5)
        gammas[1] = -0.1
        with pytest.raises(ValueError, match="jump_gammas must be nonnegative"):
            default_scenario().with_(jump_gammas=gammas)

    def test_law_needs_exactly_one_source(self):
        # the spectrum is the law's only source, and it must be a sequence
        with pytest.raises(ValueError, match="jump_gammas must have shape"):
            default_scenario().with_(jump_gammas=None)
        with pytest.raises(ValueError, match="jump_gammas must have shape"):
            default_scenario().with_(jump_gammas=np.ones((8, 8)))

    def test_stream_coupling(self):
        js = sample_jump_stream(3, geometric_sd(8), stream(1, 2, 0))
        (y2,) = _level_jumps(js.ys, (2,))
        X2 = np.einsum("ij,ik->ijk", y2, y2)
        assert js.ys.shape == (3, 8)
        assert js.jumps.shape == (3, 8, 8)
        assert X2.shape == (3, 8, 8)
        # truncation zeroes every entry with a coordinate beyond the level
        np.testing.assert_array_equal(X2[:, 2:, :], 0.0)
        np.testing.assert_array_equal(X2[:, :, 2:], 0.0)
        np.testing.assert_array_equal(X2[:, :2, :2], js.jumps[:, :2, :2])

    @settings(max_examples=200, deadline=None)
    @given(
        d=st.integers(1, 16),
        count=st.integers(0, 30),
        data=st.data(),
    )
    def test_level_jumps_match_copy_and_zero(self, d, count, data):
        # all levels at once, bit for bit as one copy-and-zero per level;
        # signed zeros among the coordinates check the sign bits too.  The
        # engine takes X - X^n as X masked off the leading n x n block, which
        # equals it up to the sign of a zero
        levels = tuple(sorted(data.draw(st.sets(st.integers(1, d), min_size=1), label="levels")))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        ys = rng.standard_normal((count, d))
        zeros = rng.random((count, d)) < 0.2
        ys[zeros] = np.copysign(0.0, rng.standard_normal(np.count_nonzero(zeros)))
        yn = _level_jumps(ys, levels)
        want_yn = np.stack([ys_at_level(ys, n) for n in levels])
        assert yn.shape == want_yn.shape and yn.dtype == want_yn.dtype
        assert yn.tobytes() == want_yn.tobytes()
        X = np.einsum("ij,ik->ijk", ys, ys)
        for n in levels:
            block = np.zeros((d, d), dtype=bool)
            block[:n, :n] = True
            assert np.array_equal(np.where(block, 0.0, X), X - approx_jumps(ys, n))

    def test_truncation_error_moment_bound(self):
        # E||X - X^n||_hs^2 <= 4 sqrt(E|Y|^4 E|Y-Y^n|^4), both sides from the same draws
        ys = sample_jump_stream(20000, geometric_sd(8), stream(21, 2, 0)).ys
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
        y = sample_jump_stream(1, geometric_sd(8), stream(22, 2, 0)).ys[0]
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
