"""Tests for the coupled experiment orchestration."""

import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import opvol
from opvol import bounds, experiments, forward
from opvol.experiments import (
    PASS_MARGIN,
    BoundReport,
    CoupledScenario,
    ExperimentResult,
    convergence_study,
    default_scenario,
    make_report,
    run_experiment,
)
from opvol.processes import PURPOSE_CLOCK, PURPOSE_JUMPS, sample_clock, sample_jump_stream, stream
from reference import by_id, default_generator_scenario


def small_scenario(**changes):
    base = default_scenario(replications=40, master_seed=5)
    return base.with_(**{"m_points": 25, **changes})


class TestScenarioValidation:
    def test_default_is_valid(self):
        sc = default_scenario()
        assert sc.d == 8
        assert sc.levels == (2, 4, 6)
        assert sc.replications == 2000
        assert not sc.truncate_v0

    def test_levels_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            small_scenario(levels=(2, 2, 4))
        with pytest.raises(ValueError, match="strictly increasing"):
            small_scenario(levels=())

    def test_levels_capped_by_mode(self):
        with pytest.raises(ValueError, match="1..8"):
            small_scenario(levels=(2, 9))
        with pytest.raises(ValueError, match="must lie in"):
            small_scenario(levels=(0, 2))
        # generator compression lives on the paired index grid, so the ladder
        # may run up to 2d
        sc = small_scenario(truncation="generator", levels=(4, 8, 16))
        assert sc.levels == (4, 8, 16)
        with pytest.raises(ValueError, match="1..16"):
            small_scenario(truncation="generator", levels=(4, 17))

    def test_unknown_truncation_mode(self):
        with pytest.raises(ValueError, match="truncation mode"):
            small_scenario(truncation="spectral")

    def test_spectrum_shapes_and_signs(self):
        with pytest.raises(ValueError, match="q_spectrum"):
            small_scenario(q_spectrum=np.ones(4))
        with pytest.raises(ValueError, match="jump_gammas"):
            small_scenario(jump_gammas=-np.ones(8))
        # generator and forward spectra may be negative (mean reversion)
        sc = small_scenario(generator_spectrum=-np.ones(8))
        assert sc.generator_spec().op_norm > 0

    def test_replication_floor(self):
        with pytest.raises(ValueError, match="two replications"):
            small_scenario(replications=1)

    def test_exercise_time_on_grid(self):
        with pytest.raises(ValueError, match="exercise_time"):
            small_scenario(exercise_time=0.33)
        with pytest.raises(ValueError, match="exercise_time"):
            small_scenario(exercise_time=1.5)
        # within 1e-9 steps of the grid point 0, which is not in (0, horizon]
        with pytest.raises(ValueError, match="exercise_time"):
            small_scenario(exercise_time=1e-12)
        sc = small_scenario(exercise_time=0.6)  # 15 of 25 steps
        assert sc.exercise_time == 0.6

    def test_bad_kinds_fail_fast(self):
        with pytest.raises(ValueError, match="payoff kind"):
            small_scenario(payoff_kind="digital")
        with pytest.raises(ValueError, match="forward semigroup kind"):
            small_scenario(forward_kind="general")
        with pytest.raises(ValueError, match="generator kind"):
            small_scenario(generator_kind="nonlinear")

    def test_misc_scalars(self):
        with pytest.raises(ValueError, match="horizon"):
            small_scenario(horizon=0.0)
        with pytest.raises(ValueError, match="rate"):
            small_scenario(rate=-1.0)
        with pytest.raises(ValueError, match="time step"):
            small_scenario(m_points=0)

    def test_grid_steps_capped(self):
        # validation only: no grid of this size is ever built
        cap = experiments.MAX_GRID_STEPS
        assert cap == 10**6
        assert small_scenario(m_points=cap).m_points == cap
        with pytest.raises(ValueError, match=f"^m_points = {cap + 1} exceeds {cap}; lower m_points$"):
            small_scenario(m_points=cap + 1)

    def test_non_finite_numbers_name_the_field(self):
        for name in ("horizon", "rate", "payoff_strike", "exercise_time"):
            for value in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match=f"^{name} must be finite"):
                    small_scenario(**{name: value})
        for name in ("jump_gammas", "q_spectrum", "generator_spectrum", "forward_spectrum", "v0_diag"):
            for value in (math.nan, math.inf, -math.inf):
                arr = np.full(8, 0.5)
                arr[3] = value
                with pytest.raises(ValueError, match=f"^{name} must be finite"):
                    small_scenario(**{name: arr})


class TestPassMargin:
    def test_one_constant(self):
        assert bounds.PASS_MARGIN == -3.0
        assert experiments.PASS_MARGIN is bounds.PASS_MARGIN
        assert opvol.PASS_MARGIN is bounds.PASS_MARGIN


class TestWorkerCount:
    def test_capped_by_threads_replications_and_cores(self):
        assert experiments._worker_count(1, 2000, 8) == 1
        assert experiments._worker_count(4, 2000, 8) == 4
        assert experiments._worker_count(10**6, 2000, 8) == 8
        assert experiments._worker_count(10**6, 3, 64) == 3
        assert experiments._worker_count(0, 2000, 8) == 1


class TestSquareRootsPerReplication:
    def count_decompositions(self, monkeypatch, scenario):
        calls, sizes = [], []
        build_grid = experiments.build_grid

        def counting(owner):
            inner = owner.psd_sqrt_batch

            def psd_sqrt_batch(Ts, block=None):
                calls.append((Ts.shape[:-2], block))
                return inner(Ts, block=block)

            monkeypatch.setattr(owner, "psd_sqrt_batch", psd_sqrt_batch)

        def recording_grid(*args):
            grid = build_grid(*args)
            sizes.append(grid.size)
            return grid

        counting(experiments)
        counting(forward)
        monkeypatch.setattr(experiments, "build_grid", recording_grid)
        experiments._rep_stats(scenario, 0)
        return calls, sizes

    def test_jumps_mode_decomposes_every_slot_once(self, monkeypatch):
        sc = small_scenario(rate=5.0)
        calls, (size,) = self.count_decompositions(monkeypatch, sc)
        assert size > sc.m_points + 1  # the replication has jump slots
        # one call for the exact path (full solve), then one per level with
        # that level as its block size
        assert calls == [((size,), None)] + [((size,), n) for n in sc.levels]

    def test_generator_mode_decomposes_nothing(self, monkeypatch):
        sc = default_generator_scenario(replications=10, master_seed=5).with_(m_points=25)
        calls, _ = self.count_decompositions(monkeypatch, sc)
        assert calls == []


def svd_trace_norms(ys, n):
    """Reference: the singular values of each Y (x) Y - Y^n (x) Y^n, summed."""
    yn = ys.copy()
    yn[:, n:] = 0.0
    dX = np.einsum("ij,ik->ijk", ys, ys) - np.einsum("ij,ik->ijk", yn, yn)
    return np.sum(np.linalg.svd(dX, compute_uv=False), axis=-1)


class TestJumpTraceNorm:
    """The jump differences' trace norm comes from the rank-two closed form,
    checked against the SVD of the difference."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 16), jumps=st.integers(1, 20),
           exponent=st.floats(-50.0, 50.0), lead_zero=st.booleans())
    @example(seed=0, d=8, jumps=5, exponent=0.0, lead_zero=True)
    def test_closed_form_matches_svd(self, seed, d, jumps, exponent, lead_zero):
        rng = np.random.default_rng(seed)
        ys = rng.standard_normal((jumps, d)) * 10.0**exponent
        for n in range(1, d + 1):
            if lead_zero:
                ys[:, :n] = 0.0  # Y^n = 0: the difference is Y (x) Y itself
            y2 = np.sum(ys**2, axis=1)
            y2n = np.sum(ys[:, :n] ** 2, axis=1)
            dy2 = y2 - y2n
            got = np.sqrt(experiments._jump_trace_norm_sq(dy2, y2n))
            want = svd_trace_norms(ys, n)
            # the SVD errs by about d eps |dX|op per singular value, and
            # dy2 = y2 - y2n carries eps y2 / dy2 relative from the cancellation
            rtol = 8 * d * np.finfo(float).eps * (1.0 + y2 / np.where(dy2 > 0.0, dy2, np.inf))
            assert np.all(np.abs(got - want) <= rtol * want + 1e-300)
            if lead_zero:
                np.testing.assert_allclose(got, y2, rtol=4e-16)

    def test_replication_statistics_use_it(self):
        sc = small_scenario(rate=5.0)
        for rep in range(4):
            out = experiments._rep_stats(sc, rep)
            clock = sample_clock(sc.rate, sc.horizon, stream(sc.master_seed, PURPOSE_CLOCK, rep))
            js = sample_jump_stream(clock, sc.jump_law(), stream(sc.master_seed, PURPOSE_JUMPS, rep))
            assert clock.count > 0
            for i, n in enumerate(sc.levels):
                tr = svd_trace_norms(js.ys, n)
                np.testing.assert_allclose(out["sum_dx_tr"][i], np.sum(tr), rtol=1e-13)
                np.testing.assert_allclose(out["sum_dx_tr_sq"][i], np.sum(tr**2), rtol=1e-13)


class TestRunConstants:
    """Generator specs, steppers and initial states are built once per
    scenario object, on first use, not once per replication."""

    @pytest.mark.parametrize("truncation, builds", [("jumps", 1), ("generator", 4)])
    def test_steppers_built_once_per_run(self, monkeypatch, truncation, builds):
        made = []
        make_stepper = experiments.make_stepper

        def counting(spec):
            made.append(spec)
            return make_stepper(spec)

        monkeypatch.setattr(experiments, "make_stepper", counting)
        sc = small_scenario(truncation=truncation, levels=(2, 4, 6))
        for rep in range(3):
            experiments._rep_stats(sc, rep)
        assert len(made) == builds
        experiments._rep_stats(sc.with_(master_seed=sc.master_seed + 1), 0)
        assert len(made) == 2 * builds

    def test_statistics_have_fixed_keys_and_shapes(self):
        # the key set depends on the truncation mode only, never on the draws
        jumps = small_scenario(rate=5.0)
        no_jumps = small_scenario(rate=0.0)
        generator = default_generator_scenario(replications=10, master_seed=5).with_(m_points=25)
        outs = {sc: experiments._rep_stats(sc, 0) for sc in (jumps, no_jumps, generator)}
        assert outs[jumps]["n_jumps"] > 0.0 and outs[no_jumps]["n_jumps"] == 0.0
        shapes = {sc: {key: np.shape(v) for key, v in out.items()} for sc, out in outs.items()}
        for sc, shape in shapes.items():
            assert set(shape.values()) <= {(), (len(sc.levels),), (sc.d, sc.d)}
            assert not [key for key in shape if "@" in key]
        assert shapes[jumps] == shapes[no_jumps]
        assert set(shapes[generator]) < set(shapes[jumps])
        assert {k: v for k, v in shapes[jumps].items() if k in shapes[generator]} == shapes[generator]

    @pytest.mark.parametrize("truncation", ["jumps", "generator"])
    def test_columns_do_not_depend_on_the_worker_count(self, truncation):
        sc = small_scenario(truncation=truncation, replications=6, rate=3.0)
        serial, pooled = experiments._map_reps(sc, 1), experiments._map_reps(sc, 2)
        assert serial.keys() == pooled.keys() == experiments._rep_stats(sc, 0).keys()
        for key, col in serial.items():
            assert col.shape[0] == sc.replications
            assert np.array_equal(col, pooled[key])

    def test_replications_do_not_depend_on_the_cache(self):
        sc = small_scenario(rate=5.0)
        warm = [experiments._rep_stats(sc, rep) for rep in (0, 1)]
        cold = experiments._rep_stats(sc.with_(), 1)
        assert warm[1].keys() == cold.keys()
        for key in cold:
            assert np.array_equal(warm[1][key], cold[key])

    def test_pickled_scenario_leaves_the_cache_behind(self):
        sc = small_scenario()
        sc._run
        assert "_run" in sc.__dict__
        copy = pickle.loads(pickle.dumps(sc))
        assert "_run" not in copy.__dict__ and "_run" in sc.__dict__
        assert np.array_equal(copy._run.v0s, sc._run.v0s)
        assert np.array_equal(copy.generator_spectrum, sc.generator_spectrum)


class TestNumericalFailure:
    """A numerical failure inside a replication names the replication, the
    path and the grid slot it came from."""

    def run_with(self, monkeypatch, scenario, corrupt):
        grids = []
        evolve = experiments.evolve_coupled

        def corrupted(v0s, steppers, jump_stacks, grid):
            vals = evolve(v0s, steppers, jump_stacks, grid)
            grids.append(grid)
            corrupt(vals)
            return vals

        monkeypatch.setattr(experiments, "evolve_coupled", corrupted)
        with pytest.raises(ValueError) as got:
            experiments._rep_stats(scenario, 3)
        return got.value, grids[0]

    def test_negative_diagonal_before_the_first_jump(self, monkeypatch):
        sc = small_scenario(rate=5.0)

        def corrupt(vals):
            # level 4 is path 2; slot 1 is diagonal, so it takes the closed form
            vals[2, 1] = np.diag(np.r_[-1.0, np.ones(7)])

        exc, grid = self.run_with(monkeypatch, sc, corrupt)
        assert isinstance(exc, opvol.NotPositiveSemidefinite)
        assert str(exc) == (
            f"numerical failure in replication 3, level 4 path, grid slot 1 (t = {grid.times[1]:.6g}, left limit): "
            "matrix (2, 1) in batch: eigenvalue -1.000000e+00 below -tol_psd = -2.000000e-09"
        )

    def test_non_finite_value_names_the_earliest_slot(self, monkeypatch):
        sc = small_scenario(rate=5.0)

        def corrupt(vals):
            vals[3, 7:, 0, 1] = np.nan
            vals[1, 9, 2, 2] = np.inf

        with np.errstate(all="ignore"):
            exc, grid = self.run_with(monkeypatch, sc, corrupt)
        assert isinstance(exc, np.linalg.LinAlgError)
        assert str(exc).startswith(
            f"numerical failure in replication 3, level 6 path, grid slot 7 (t = {grid.times[7]:.6g}"
        )
        assert "first non-finite value: " in str(exc)

    def test_negative_tail_entry_after_a_jump(self, monkeypatch):
        sc = small_scenario(rate=5.0)
        slots = []

        def corrupt(vals):
            # level 2 is path 1; after the first jump its leading block is not
            # diagonal, so the slot takes the block route, and (5, 5) is a
            # tail entry
            g = int(np.flatnonzero(vals[1, :, 0, 1] != 0.0)[0])
            vals[1, g, 5, 5] = -0.5
            slots.append(g)

        exc, grid = self.run_with(monkeypatch, sc, corrupt)
        g = slots[0]
        assert not grid.is_left[g]
        assert isinstance(exc, opvol.NotPositiveSemidefinite)
        assert str(exc).startswith(
            f"numerical failure in replication 3, level 2 path, grid slot {g} (t = {grid.times[g]:.6g}): "
            f"matrix (1, {g}) in batch: eigenvalue -5.000000e-01 below -tol_psd = -"
        )

    def test_generator_mode_names_the_slot_too(self, monkeypatch):
        sc = default_generator_scenario(replications=10, master_seed=5).with_(m_points=25)

        def corrupt(vals):
            vals[0, 4:] = np.nan

        with np.errstate(all="ignore"):
            exc, grid = self.run_with(monkeypatch, sc, corrupt)
        assert str(exc).startswith(
            f"numerical failure in replication 3, exact path, grid slot 4 (t = {grid.times[4]:.6g}"
        )

    def test_finite_path_whose_squares_overflow_raises_nothing(self):
        # V ~ e^{368 t}: entries near 1e159 stay finite, their squares in the
        # HS sup do not; no decomposition fails, so the only sign is inf
        sc = small_scenario(truncation="generator", generator_spectrum=np.full(8, 184.0), rate=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = experiments._rep_stats(sc, 0)
        for i in range(len(sc.levels)):
            assert out["sup_hs"][i] == math.inf
            assert 1e158 < out["sup_op"][i] < math.inf


class TestNonFiniteStatistics:
    """A non-finite statistic is named before any reducer sees it: the
    earliest replication holding one, then the first key in table order."""

    def table(self):
        return {
            "n_jumps": np.array([1.0, 2.0, 0.0]),
            "sup_hs": np.array([[0.0, 1.0, 2.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0]]),
            "x_sum_tensor": np.zeros((3, 2, 2)),
        }

    def test_finite_table_passes(self):
        experiments._require_finite(small_scenario(), self.table())

    def test_names_key_level_and_replication(self):
        s = self.table()
        s["sup_hs"][2, 0] = np.nan
        s["sup_hs"][1, 1] = np.inf
        s["x_sum_tensor"][1, 0, 1] = -np.inf
        with pytest.raises(ValueError) as got:
            experiments._require_finite(small_scenario(), s)
        assert str(got.value) == "numerical failure in replication 1: statistic sup_hs at level 4 is inf"

    def test_columns_without_levels(self):
        s = self.table()
        s["x_sum_tensor"][2, 1, 1] = np.nan
        s["n_jumps"][2] = -np.inf
        with pytest.raises(ValueError) as got:
            experiments._require_finite(small_scenario(), s)
        assert str(got.value) == "numerical failure in replication 2: statistic n_jumps is -inf"


class TestReports:
    def test_tie_passes_with_infinite_margin(self):
        r = make_report("x", 1, 0.0, 0.0, 0.0, 0.0)
        assert r.margin == math.inf and r.passed

    def test_deterministic_violation_fails(self):
        r = make_report("x", 1, 1.0, 0.0, 0.5, 0.0)
        assert r.margin == -math.inf and not r.passed

    def test_margin_in_stderr_units(self):
        r = make_report("x", 1, 1.0, 0.3, 2.0, 0.4)
        assert r.margin == pytest.approx(1.0 / 0.5)
        assert r.passed

    def test_inconsistent_flag_rejected(self):
        with pytest.raises(ValueError, match="pass flag"):
            BoundReport("x", 1, 1.0, 0.0, 0.5, 0.0, -math.inf, True)

    def test_result_passed_requires_all_rows(self):
        sc = small_scenario()
        good = make_report("a", 1, 0.0, 0.0, 1.0, 0.0)
        bad = make_report("b", 1, 1.0, 0.0, 0.0, 0.0)
        assert ExperimentResult(sc, (good,), ()).passed
        assert not ExperimentResult(sc, (good, bad), ()).passed


class TestJumpTruncationExperiment:
    def test_reference_run_passes(self):
        res = run_experiment(small_scenario())
        assert res.passed
        ids = {r.bound_id for r in res.reports}
        assert ids == {
            "cpp_moment_upper", "cpp_moment_lower", "cpp_moment_bound",
            "cpp_diff", "variance_jumps", "variance_jumps_sharp",
            "variance_pathwise", "jump_tensor_sq", "jump_tensor_trace",
            "sqrt_op", "sqrt_jumps_k1", "forward_noise",
        }
        # three moment rows at level 0, nine rows per level
        assert len(res.reports) == 3 + 9 * 3
        assert [p.level for p in res.pricing] == [2, 4, 6]
        for r in res.reports:
            assert r.passed == (r.margin >= PASS_MARGIN)

    def test_sharp_constant_is_tighter(self):
        res = run_experiment(small_scenario())
        for plain, sharp in zip(by_id(res, "variance_jumps"), by_id(res, "variance_jumps_sharp")):
            assert sharp.rhs < plain.rhs
            assert sharp.lhs == plain.lhs

    def test_full_level_is_exact(self):
        res = run_experiment(small_scenario(levels=(8,)))
        assert res.passed
        for r in res.reports:
            if r.level > 0:
                assert r.lhs == 0.0
                assert r.rhs == 0.0
                assert r.margin == math.inf
        (p,) = res.pricing
        assert p.price_diff == 0.0
        assert p.lipschitz_rhs == 0.0
        assert p.theorem_cap == 0.0
        assert p.passed

    def test_truncated_initial_state_variant(self):
        res = run_experiment(small_scenario(truncate_v0=True))
        assert res.passed
        ids = {r.bound_id for r in res.reports}
        # the trace-route square root certificate requires the exact initial
        # state, so that row disappears when V0 is truncated too
        assert "sqrt_jumps_k1" not in ids
        assert "sqrt_op" in ids
        # the initial-state term now contributes to the variance bound
        plain = by_id(run_experiment(small_scenario()), "variance_jumps")
        trunc = by_id(res, "variance_jumps")
        assert all(t.rhs > p.rhs for t, p in zip(trunc, plain))

    def test_zero_rate_degenerates_cleanly(self):
        res = run_experiment(small_scenario(rate=0.0, replications=10))
        assert res.passed
        for r in res.reports:
            if r.bound_id.startswith("cpp"):
                assert r.lhs == 0.0 and r.rhs == 0.0 and r.margin == math.inf

    def test_seed_determinism(self):
        sc = small_scenario(replications=12)
        a = run_experiment(sc)
        b = run_experiment(sc)
        assert a.reports == b.reports
        assert a.pricing == b.pricing
        c = run_experiment(sc.with_(master_seed=6))
        assert [r.lhs for r in c.reports] != [r.lhs for r in a.reports]

    def test_worker_count_is_invisible(self):
        sc = small_scenario(replications=12, m_points=20)
        serial = run_experiment(sc, workers=1)
        parallel = run_experiment(sc, workers=3)
        assert serial.reports == parallel.reports
        assert serial.pricing == parallel.pricing

    def test_doubling_replications_scales_stderr_by_clt(self):
        sc = small_scenario(replications=300, m_points=40, master_seed=9)
        lo = run_experiment(sc)
        hi = run_experiment(sc.with_(replications=600))

        def se_of(res, bound_id, level):
            (row,) = [r for r in by_id(res, bound_id) if r.level == level]
            return row.lhs_se

        # doubling R should shrink each stderr by 1/sqrt(2), within 20%
        for bound_id in ("variance_jumps", "forward_noise"):
            ratio = se_of(hi, bound_id, 4) / se_of(lo, bound_id, 4)
            assert 0.8 <= ratio * math.sqrt(2.0) <= 1.2
        price_ratio = hi.pricing[0].price_se / lo.pricing[0].price_se
        assert 0.8 <= price_ratio * math.sqrt(2.0) <= 1.2


class TestGeneratorCompressionExperiment:
    def test_reference_run_passes(self):
        res = run_experiment(default_generator_scenario(replications=40, master_seed=5))
        assert res.passed
        ids = {r.bound_id for r in res.reports}
        assert ids == {
            "cpp_moment_upper", "cpp_moment_lower", "cpp_moment_bound",
            "variance_generator", "variance_generator_tail", "generator_gap_tail",
        }
        assert res.pricing == ()

    def test_gap_tail_rows_are_deterministic(self):
        res = run_experiment(default_generator_scenario(replications=10, master_seed=5))
        rows = by_id(res, "generator_gap_tail")
        assert [r.level for r in rows] == [2, 4, 6]
        for r in rows:
            assert r.lhs_se == 0.0 and r.rhs_se == 0.0
            assert 0.0 < r.lhs <= r.rhs
            # for a tensor-diagonal generator the gap saturates the tail sup,
            # so the certificate is exactly sqrt(2) times the gap
            assert r.rhs == pytest.approx(math.sqrt(2.0) * r.lhs, rel=1e-12)
        # the gap shrinks as the kept index set grows
        gaps = [r.lhs for r in rows]
        assert gaps == sorted(gaps, reverse=True)

    def test_full_triangle_level_is_exact(self):
        sc = default_generator_scenario(replications=10, master_seed=5).with_(
            m_points=25, levels=(8, 12, 16)
        )
        res = run_experiment(sc)
        assert res.passed
        last = [r for r in res.reports if r.level == 16]
        assert last, "expected rows at the full triangle level"
        for r in last:
            assert r.lhs == 0.0 and r.rhs == 0.0


class TestConvergenceStudy:
    def test_needs_three_levels(self):
        with pytest.raises(ValueError, match="three levels"):
            convergence_study(small_scenario(levels=(2, 4)))

    def test_jump_mode_series(self):
        cs = convergence_study(small_scenario(replications=80))
        assert cs.passed
        ids = {r.bound_id for r in cs.rows}
        assert ids == {
            "variance_sup_sq", "forward_sup_sq", "sqrt_sup_sq_hs",
            "jump_y_diff_sq", "y_tail_expected", "diag_tail_sq",
        }
        # the Monte Carlo jump tail matches its closed geometric sum
        for mc, oracle in zip(cs.series("jump_y_diff_sq"), cs.series("y_tail_expected")):
            assert mc.level == oracle.level
            assert oracle.stderr == 0.0
            assert abs(mc.estimate - oracle.estimate) <= 3.0 * mc.stderr
        sc = cs.scenario
        for row in cs.series("y_tail_expected"):
            assert row.estimate == pytest.approx(
                0.5**row.level - 0.5**sc.d, rel=1e-12
            )
        for row in cs.series("diag_tail_sq"):
            assert row.estimate == pytest.approx(
                float(np.sum(sc.v0_diag[row.level // 2:] ** 2)), rel=1e-12
            )

    def test_final_full_level_vanishes(self):
        cs = convergence_study(small_scenario(levels=(2, 4, 8), replications=30))
        assert cs.passed
        for bound_id in ("variance_sup_sq", "forward_sup_sq", "sqrt_sup_sq_hs", "jump_y_diff_sq"):
            series = cs.series(bound_id)
            assert series[-1].level == 8
            assert series[-1].estimate == 0.0
            assert series[-1].stderr == 0.0

    def test_generator_mode_series(self):
        cs = convergence_study(
            default_generator_scenario(replications=30, master_seed=5).with_(m_points=25)
        )
        assert cs.passed
        assert {r.bound_id for r in cs.rows} == {"variance_sup_sq", "generator_gap_sq"}
        gaps = [r.estimate for r in cs.series("generator_gap_sq")]
        assert gaps == sorted(gaps, reverse=True)
        assert all(r.stderr == 0.0 for r in cs.series("generator_gap_sq"))

    def test_monotone_flags_cover_every_series(self):
        cs = convergence_study(small_scenario(replications=30))
        assert set(cs.monotone) == {r.bound_id for r in cs.rows}
