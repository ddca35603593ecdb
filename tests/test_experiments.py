"""Tests for the coupled experiment orchestration."""

import dataclasses
import json
import math
import os
import pickle
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import opvol
from opvol import bounds, cli, experiments, forward, variance
from opvol.experiments import (
    PASS_MARGIN,
    BoundReport,
    CoupledScenario,
    convergence_study,
    default_scenario,
    run_experiment,
)
from opvol.processes import PURPOSE_CLOCK, PURPOSE_JUMPS, sample_clock, sample_jump_stream, stream
from reference import (all_passed, by_id, default_generator_scenario, engine_path_stats, independent_stats,
                       masked_paths, path_roots, path_stats)

SRC = Path(__file__).resolve().parent.parent / "src"
CONFIGS = SRC.parent / "configs"


def small_scenario(**changes):
    base = default_scenario().with_(replications=40, master_seed=5)
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
        with pytest.raises(ValueError, match="^field 'levels' must be a nonempty list of integers$"):
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
        with pytest.raises(ValueError, match="^truncation must be one of jumps, generator"):
            small_scenario(truncation="spectral")

    def test_spectrum_shapes_and_signs(self):
        with pytest.raises(ValueError, match="q_spectrum"):
            small_scenario(q_spectrum=np.ones(4))
        with pytest.raises(ValueError, match="jump_gammas"):
            small_scenario(jump_gammas=-np.ones(8))
        # generator and forward spectra may be negative (mean reversion)
        sc = small_scenario(generator_spectrum=-np.ones(8))
        assert sc._run.generator.op_norm > 0

    def test_replication_floor(self):
        with pytest.raises(ValueError, match="^replications must be at least 2"):
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
        with pytest.raises(ValueError, match="^payoff_kind must be one of"):
            small_scenario(payoff_kind="digital")
        with pytest.raises(ValueError, match="^forward_kind must be one of"):
            small_scenario(forward_kind="general")
        with pytest.raises(ValueError, match="^generator_kind must be one of"):
            small_scenario(generator_kind="nonlinear")

    def test_misc_scalars(self):
        with pytest.raises(ValueError, match="horizon"):
            small_scenario(horizon=0.0)
        with pytest.raises(ValueError, match="rate"):
            small_scenario(rate=-1.0)
        with pytest.raises(ValueError, match="^m_points"):
            small_scenario(m_points=0)

    def test_grid_steps_capped(self):
        # validation only: no stack of this size is ever built.  Four 8 x 8
        # paths take 2 KiB per grid slot, and the cap leaves 2**17 slots:
        # m_points + 1 base points and two per expected jump (rate 1)
        assert experiments.MAX_PATH_STACK_BYTES == 256 * 2**20
        assert small_scenario(m_points=2**17 - 3).m_points == 2**17 - 3
        with pytest.raises(ValueError, match=(
            r"^the coupled paths of d = 8, m_points = 131070 and levels \[2, 4, 6\] take 257 MiB "
            r"per replication, above 256 MiB; lower d, m_points or the number of levels$"
        )):
            small_scenario(m_points=2**17 - 2)
        # 10**6 steps would take a 2 GB stack, and as much again for the roots
        with pytest.raises(ValueError, match=r"m_points = 1000000 and levels \[2, 4, 6\] take 1954 MiB"):
            small_scenario(m_points=10**6)
        # a dimension too large is named before any array field is read
        with pytest.raises(ValueError, match=r"^the coupled paths of d = 1000000, m_points = 25 "):
            small_scenario(d=10**6)

    def test_statistics_table_capped(self):
        # validation only: no table of this size is ever built.  A row of the
        # reference scenario takes (64 + 17 * 3 + 6) * 8 = 968 bytes
        assert experiments.MAX_STATS_TABLE_BYTES == 256 * 2**20
        assert small_scenario(replications=277309).replications == 277309
        with pytest.raises(ValueError, match=(
            r"^the statistics of replications = 277310 and d = 8 take 257 MiB, above 256 MiB; "
            r"lower replications or d$"
        )):
            small_scenario(replications=277310)
        with pytest.raises(ValueError, match=r"^the statistics of replications = 1000000000 and d = 8 "):
            small_scenario(replications=10**9)
        # its paths take 64 MB, under their cap; its table 16 GB at R = 2000
        with pytest.raises(ValueError, match=r"^the statistics of replications = 2000 and d = 1000 take 15260 MiB"):
            small_scenario(d=1000, m_points=1, levels=(1,), replications=2000)

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

    @pytest.mark.parametrize("changes, message", [
        ({"levels": (2.5, 4, 6)}, "field 'levels[0]' must be an integer"),
        ({"levels": (True, 4, 6)}, "field 'levels[0]' must be an integer"),
        ({"levels": (np.float64(2.9), 4)}, "field 'levels[0]' must be an integer"),
        ({"levels": np.array([[2, 4]])}, "field 'levels' must be a nonempty list of integers"),
        ({"truncate_v0": "no"}, "field 'truncate_v0' must be a boolean"),
        ({"horizon": True}, "field 'horizon' must be a number"),
        ({"rate": "1"}, "field 'rate' must be a number"),
        ({"rate": 10**400}, "field 'rate' must be a finite number"),
        ({"replications": 2.5}, "field 'replications' must be an integer"),
        ({"master_seed": 1.5}, "field 'master_seed' must be an integer"),
        ({"d": 8.0}, "field 'd' must be an integer"),
        ({"functional_coordinate": 0.0}, "field 'functional_coordinate' must be an integer"),
        ({"jump_gammas": [0.5, True, *[0.1] * 6]}, "field 'jump_gammas[1]' must be a number"),
        ({"jump_gammas": np.ones(8, dtype=bool)}, "field 'jump_gammas[0]' must be a number"),
        # the first bad field in field order is named
        ({"truncate_v0": 1, "d": 8.0}, "field 'd' must be an integer"),
    ])
    def test_kinds_name_the_field(self, changes, message):
        # the constructor checks kinds, so with_, run_experiment and
        # convergence_study never see a wrong one
        sc = default_scenario()
        fields = {f.name: getattr(sc, f.name) for f in dataclasses.fields(sc)}
        for build in (sc.with_, lambda **c: CoupledScenario(**{**fields, **c})):
            with pytest.raises(ValueError) as err:
                build(**changes)
            assert str(err.value) == message

    @pytest.mark.parametrize("changes, message", [
        ({"m_points": 0}, "m_points must be at least 1, got 0"),
        ({"rate": -1.0}, "rate must be nonnegative, got -1.0"),
        ({"replications": 1}, "replications must be at least 2 for standard errors, got 1"),
        ({"truncation": "spectral"}, "truncation must be one of jumps, generator, got 'spectral'"),
        ({"generator_kind": "nonlinear"},
         "generator_kind must be one of sandwich, sylvester, got 'nonlinear'"),
        ({"forward_kind": "general"}, "forward_kind must be one of diagonal, skew, got 'general'"),
        ({"payoff_kind": "digital"},
         "payoff_kind must be one of call, put, identity, constant, got 'digital'"),
    ])
    def test_values_name_the_field(self, changes, message):
        with pytest.raises(ValueError) as err:
            default_scenario().with_(**changes)
        assert str(err.value) == message

    def test_spectra_are_read_only_copies(self):
        # neither a caller's array nor one array passed for two fields can
        # change a checked scenario, nor can a pickled copy's
        g = np.full(8, 0.5)
        sc = default_scenario().with_(jump_gammas=g, q_spectrum=g)
        g[0] = -1.0
        assert sc.jump_gammas[0] == 0.5 and sc.q_spectrum[0] == 0.5
        ref = default_scenario()
        assert not np.shares_memory(ref.jump_gammas, ref.q_spectrum)
        for name in ("jump_gammas", "q_spectrum", "generator_spectrum", "forward_spectrum", "v0_diag"):
            copies = (ref.with_(**{name: list(getattr(ref, name))}), pickle.loads(pickle.dumps(ref)))
            for sc in (ref, *copies):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(sc, name)[1] = math.nan

    def test_kinds_round_trip(self):
        # every field of the reference scenario and of both shipped configs
        # comes back from _as_kind unchanged, so a field annotated with a
        # kind it does not know fails here
        docs = [json.loads((CONFIGS / name).read_text()) for name in ("default.json", "generator.json")]
        for sc in (default_scenario(), *(CoupledScenario(**doc) for doc in docs)):
            for f in dataclasses.fields(CoupledScenario):
                value = getattr(sc, f.name)
                got = experiments._as_kind(f.name, f.type, value)
                assert type(got) is type(value), f.name
                got, value = np.asarray(got), np.asarray(value)
                assert got.dtype == value.dtype and got.tobytes() == value.tobytes(), f.name
        with pytest.raises(KeyError):
            experiments._as_kind("x", "list[int]", [1])

    def test_numpy_kinds_accepted(self):
        ref = default_scenario()
        sc = ref.with_(d=np.int64(8), levels=np.array([2, 4, 6]), horizon=np.float64(1.0),
                       truncate_v0=np.bool_(True), q_spectrum=list(ref.q_spectrum),
                       forward_spectrum=np.zeros(8, dtype=np.int32))
        assert type(sc.d) is int and sc.levels == (2, 4, 6) and type(sc.levels[0]) is int
        assert type(sc.horizon) is float and sc.truncate_v0 is True
        for name in ("q_spectrum", "forward_spectrum"):
            assert getattr(sc, name).dtype == np.float64
        assert sc.q_spectrum.tobytes() == ref.q_spectrum.tobytes()

    @pytest.mark.parametrize("d, levels", [(8, (2, 4, 6)), (5, (1, 3))])
    def test_statistics_row_matches_table_cap(self, d, levels):
        # MAX_STATS_TABLE_BYTES counts d * d + 17 L + 6 float64 values a
        # replication: the row of jumps mode with op sups, the largest
        geo = 0.5 ** np.arange(1, d + 1)
        sc = small_scenario(d=d, levels=levels, jump_gammas=geo, q_spectrum=geo, v0_diag=geo,
                            generator_spectrum=-geo, forward_spectrum=np.zeros(d),
                            m_points=10, replications=2)
        want = (d * d + 17 * len(levels) + 6) * 8 * sc.replications

        def table_bytes(sc, op_sups):
            return sum(col.nbytes for col in experiments._map_reps(sc, 1, op_sups).values())

        assert table_bytes(sc, True) == want
        assert table_bytes(sc, False) <= want
        gen = sc.with_(truncation="generator")
        assert table_bytes(gen, True) <= want
        assert table_bytes(gen, False) <= want


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
    def count_decompositions(self, scenario, reps):
        """Run the replications reps, in order, on the scenario object; per
        replication, the (stack shape, block size) of every psd_sqrt_batch
        call and the grid it built (None if it took the jump-free copy)."""
        calls, grids = [], []
        build_grid = experiments.build_grid

        def counting(owner):
            inner = owner.psd_sqrt_batch

            def psd_sqrt_batch(Ts, tail=None, out=None):
                calls[-1].append((Ts.shape[:-2], Ts.shape[-1]))
                return inner(Ts, tail, out)

            return mock.patch.object(owner, "psd_sqrt_batch", psd_sqrt_batch)

        def recording_grid(*args):
            grids[-1] = build_grid(*args)
            return grids[-1]

        with counting(experiments), counting(forward), \
                mock.patch.object(experiments, "build_grid", recording_grid):
            for rep in reps:
                calls.append([])
                grids.append(None)
                experiments._rep_stats(scenario, rep)
        return calls, grids

    @staticmethod
    def every_path(scenario, slots):
        # one call for the exact path (full solve), then one per level on
        # that level's leading block
        return [((slots,), scenario.d)] + [((slots,), n) for n in scenario.levels]

    def test_jump_replication_reuses_jump_free_roots(self):
        sc = small_scenario(rate=1.0)
        firsts = [first_left_limit(sc, rep) for rep in range(40)]
        free, jumpy = firsts.index(None), next(r for r, k in enumerate(firsts) if k)
        # cold: every slot of every path
        (cold,), (grid,) = self.count_decompositions(sc.with_(), [jumpy])
        assert grid.size > sc.m_points + 1  # the replication has jump slots
        assert cold == self.every_path(sc, grid.size)
        # warm: the jump-free replication decomposes its own slots, and the
        # slots before the first left limit are its slots, so the jump
        # replication decomposes only those from its first left limit on
        (first, warm), (_, grid) = self.count_decompositions(sc, [free, jumpy])
        k = int(np.argmax(grid.is_left))
        assert 0 < k == firsts[jumpy] < grid.size
        assert first == self.every_path(sc, sc.m_points + 1)
        assert warm == self.every_path(sc, grid.size - k)

    def test_jump_free_paths_decomposed_once(self):
        sc = small_scenario(rate=0.0)
        calls, grids = self.count_decompositions(sc, [0, 1, 2])
        assert grids[1:] == [None, None]
        assert calls == [self.every_path(sc, sc.m_points + 1), [], []]
        # nor swept: their sups are the copy's running maxima
        _, swept = TestPreJumpSups.handed(sc, 3)
        assert swept == []
        # once per scenario object
        calls, _ = self.count_decompositions(sc.with_(), [3])
        assert calls == [self.every_path(sc, sc.m_points + 1)]

    def test_generator_mode_decomposes_nothing(self):
        sc = default_generator_scenario(replications=10, master_seed=5).with_(m_points=25)
        calls, _ = self.count_decompositions(sc, [0, 1])
        assert calls == [[], []]


def first_left_limit(scenario, rep):
    """The grid slot of replication rep's first left limit, the number of
    uniform grid points before its first jump, or None without a jump."""
    times = sample_clock(scenario.rate, scenario.horizon, stream(scenario.master_seed, PURPOSE_CLOCK, rep))
    if not times.size:
        return None
    base = np.linspace(0.0, scenario.horizon, scenario.m_points + 1)
    return int(np.searchsorted(base, times[0]))


class _Captured(Exception):
    pass


def path_inputs(scenario, rep):
    """The grid, exact path V and reference path R replication rep evolves
    in _rep_stats.  A replication without jumps evolves them only if the
    scenario object holds no jump-free copy yet."""
    got = []
    evolve = experiments.evolve_coupled

    def capture(v0, stepper, jumps, grid):
        V = evolve(v0, stepper, jumps, grid)
        got.append((grid, V, experiments._reference_path(scenario, grid, jumps)))
        raise _Captured

    with mock.patch.object(experiments, "evolve_coupled", capture), pytest.raises(_Captured):
        experiments._rep_stats(scenario, rep)
    return got[0]


def head_roots(scenario, V, R, k):
    """The roots of the first k slots of every path, from one psd_sqrt_batch
    call per whole path: what the jump-free copy holds."""
    return path_roots(scenario, masked_paths(scenario, V, R))[:, :k]


def head_maxima(scenario, V, R, head, k):
    """The running maxima (_running_sups) of the first k slots of the level
    differences of V and R and, given their roots head, of those: what the
    jump-free copy holds."""
    stacks = [experiments._differences(scenario._run.keeps, V[:k], R[:k])]
    if head is not None:
        stacks.append(head[0] - s for s in head[1:])
    modes = ("hs", "op") if scenario.truncation == "jumps" else ("hs",)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.stack([experiments._running_sups(diffs, modes) for diffs in stacks])


def stats_outcome(fn, *args):
    """fn's statistics on args, or the type and message of what it raises,
    under _rep_stats's floating-point error state."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return fn(*args)
    except (opvol.NotPositiveSemidefinite, np.linalg.LinAlgError) as exc:
        return type(exc), str(exc)


def assert_split_matches_reference(scenario, rep, corrupt=None):
    """_variance_stats, then _forward_stats, on replication rep's exact path
    V and reference path R, after corrupt(V, R) if given, must give
    reference.path_stats's statistics of the masked paths bit for bit, or
    its failure: once with every slot decomposed and every sup swept whole
    and, when the first k slots are left clean, once with their roots (jumps
    mode) and the running maxima of their norms given (head_roots and
    head_maxima of the clean paths).  k is the first left-limit slot, where
    _rep_stats splits, or half a jump-free grid."""
    grid, V, R = path_inputs(scenario, rep)
    k = int(np.argmax(grid.is_left)) if np.any(grid.is_left) else grid.size // 2
    clean = V.copy(), R.copy()
    if corrupt is not None:
        corrupt(V, R)
    heads = [(None, None)]
    if k and all(a[:k].tobytes() == b[:k].tobytes() for a, b in zip((V, R), clean)):
        head = head_roots(scenario, *clean, k) if scenario.truncation == "jumps" else None
        heads.append((head, head_maxima(scenario, *clean, head, k)))
    want = stats_outcome(path_stats, scenario, rep, grid, masked_paths(scenario, V, R))
    for head, maxima in heads:
        got = stats_outcome(engine_path_stats, scenario, rep, grid, V.copy(), R.copy(), head, maxima)
        if isinstance(want, tuple):
            assert got == want
            continue
        assert isinstance(got, dict) and got.keys() == want.keys()
        for key in want:
            a, b = np.asarray(got[key]), np.asarray(want[key])
            assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True), key
            assert np.array_equal(np.signbit(a), np.signbit(b)), key
    return grid


def split_scenario(d, truncation, truncate_v0, exponent, rate, m_points, zero_tail, seed):
    geo = 0.5 ** np.arange(1, d + 1)
    cap = d if truncation == "jumps" else 2 * d
    levels = tuple(sorted({max(1, cap // 4), max(1, cap // 2), cap}))
    gammas = geo.copy()
    if zero_tail:
        gammas[levels[0]:] = 0.0  # the first level keeps every jump whole
    return default_scenario().with_(
        replications=4, master_seed=seed, truncation=truncation,
        d=d, levels=levels, m_points=m_points, rate=rate, jump_gammas=gammas, q_spectrum=geo,
        generator_spectrum=-experiments.karhunen_loeve_spectrum(d), forward_spectrum=np.zeros(d),
        v0_diag=geo * 10.0**exponent, truncate_v0=truncate_v0,
    )


class TestVarianceStats:
    """_variance_stats takes every sup from sup_norm_stack on whole
    difference stacks and every root from psd_sqrt_batch, or, for the first
    k slots, the roots and the running maxima of the norms it is given;
    every statistic, failure message and index must be what
    reference.path_stats, which decomposes every slot of every masked path
    and sweeps every stack whole, gives."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        d=st.integers(1, 16),
        truncation=st.sampled_from(["jumps", "generator"]),
        truncate_v0=st.booleans(),
        exponent=st.floats(-150.0, 150.0),
        rate=st.sampled_from([0.0, 0.5, 3.0, 40.0]),
        m_points=st.integers(1, 30),
        zero_tail=st.booleans(),
        seed=st.integers(0, 10**6),
        rep=st.integers(0, 3),
    )
    @example(d=8, truncation="jumps", truncate_v0=False, exponent=0.0, rate=1.0, m_points=200,
             zero_tail=False, seed=1729, rep=0)
    @example(d=4, truncation="jumps", truncate_v0=True, exponent=-130.0, rate=0.0, m_points=10,
             zero_tail=False, seed=1, rep=0)
    @example(d=5, truncation="jumps", truncate_v0=False, exponent=0.0, rate=3.0, m_points=8,
             zero_tail=True, seed=2, rep=1)
    # V0 near 2**-480: the differences of the generator paths fall below
    # 2**-485, where eigvalsh rescales and rounds
    @example(d=16, truncation="generator", truncate_v0=False, exponent=-144.5, rate=0.0, m_points=10,
             zero_tail=False, seed=1, rep=0)
    def test_split_matches_every_slot_dense(self, d, truncation, truncate_v0, exponent, rate,
                                            m_points, zero_tail, seed, rep):
        sc = split_scenario(d, truncation, truncate_v0, exponent, rate, m_points, zero_tail, seed)
        assert_split_matches_reference(sc, rep)

    def test_jump_free_and_first_step_jump_replications(self):
        # scan for a replication without a jump and one whose first jump falls
        # in the first step, so that one slot has given roots
        sc = split_scenario(8, "jumps", False, 0.0, 2.0, 10, False, 11)
        firsts = set()
        for rep in range(40):
            grid = assert_split_matches_reference(sc, rep)
            firsts.add(first_left_limit(sc, rep))
            if np.any(grid.is_left):
                assert int(np.argmax(grid.is_left)) == first_left_limit(sc, rep)
        assert None in firsts and 1 in firsts

    def test_level_with_zero_difference(self):
        # jumps zero past the first level and V0 kept whole: that level's path
        # is the exact path, its differences all-zero slots
        sc = split_scenario(8, "jumps", False, 0.0, 3.0, 12, True, 3)
        for rep in range(4):
            grid, V, R = path_inputs(sc, rep)
            vals = masked_paths(sc, V, R)
            assert np.array_equal(vals[0], vals[1])
            assert_split_matches_reference(sc, rep)
            assert engine_path_stats(sc, rep, grid, V, R)["sup_op"][0] == 0.0

    def test_first_failing_path_is_named_first(self):
        # the exact path fails at the first post-jump slot and the level
        # paths that take R's tail entry (7, 7) at the left limit before it:
        # the failure names path 0, as one psd_sqrt_batch call per path, in
        # path order, does, with or without head roots
        sc = split_scenario(8, "jumps", False, 0.0, 3.0, 12, False, 3)

        def corrupt(V, R):
            g = int(np.flatnonzero(V[:, 0, 1] != 0.0)[0])
            V[g, 5, 5] = -1.0
            R[g - 1, 7, 7] = -1.0

        assert_split_matches_reference(sc, 0, corrupt)
        grid, V, R = path_inputs(sc, 0)
        k = int(np.argmax(grid.is_left))
        head = head_roots(sc, V, R, k)
        corrupt(V, R)
        for given in (None, head):
            exc_type, message = stats_outcome(engine_path_stats, sc, 0, grid, V, R, given)
            assert exc_type is opvol.NotPositiveSemidefinite and message.startswith("matrix (0, ")

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        d=st.integers(1, 16),
        truncation=st.sampled_from(["jumps", "generator"]),
        rate=st.sampled_from([0.0, 3.0]),
        seed=st.integers(0, 10**6),
        bad=st.sampled_from([-1.0, np.nan, np.inf, 1e300]),
        where=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6)),
    )
    def test_failures_match_every_slot_dense(self, d, truncation, rate, seed, bad, where):
        # one entry of V or R set at a (slot, diagonal or off-diagonal)
        # position, mirrored to stay symmetric: the same statistics or the
        # same failure.  A jumps-mode R is diagonal by construction, and so
        # is set on its diagonal only
        sc = split_scenario(d, truncation, False, 0.0, rate, 12, False, seed)

        def corrupt(V, R):
            p, g, k = (w % n for w, n in zip(where, (2, V.shape[0], d * d)))
            i, j = divmod(k, d)
            if p == 1 and truncation == "jumps":
                j = i
            path = (V, R)[p]
            path[g, i, j] = path[g, j, i] = bad

        assert_split_matches_reference(sc, 0, corrupt)


class TestSupNormStacks:
    """sup_norm_stack's op mode takes symmetric stacks only: every difference
    stack the engine hands it must equal its transpose bit for bit."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        d=st.integers(1, 16),
        truncation=st.sampled_from(["jumps", "generator"]),
        generator_kind=st.sampled_from(["sandwich", "sylvester"]),
        forward_kind=st.sampled_from(["diagonal", "skew"]),
        truncate_v0=st.booleans(),
        rate=st.floats(0.0, 20.0),
        seed=st.integers(0, 10**6),
        rep=st.integers(0, 3),
    )
    def test_engine_stacks_are_bit_symmetric(self, d, truncation, generator_kind, forward_kind,
                                             truncate_v0, rate, seed, rep):
        sc = split_scenario(d, truncation, truncate_v0, 0.0, rate, 12, False, seed).with_(
            generator_kind=generator_kind, forward_kind=forward_kind,
            forward_spectrum=0.5 ** np.arange(1, d + 1),
        )
        stacks = []
        sup_norm_stack = experiments.sup_norm_stack

        def recording(D, mode):
            stacks.append(D.copy())
            return sup_norm_stack(D, mode)

        with mock.patch.object(experiments, "sup_norm_stack", recording):
            experiments._rep_stats(sc, rep)
        for D in stacks:
            bits = D.view(np.int64)
            assert np.array_equal(bits, np.swapaxes(bits, -2, -1))

    def test_op_sups_solve_few_matrices(self):
        # the matrices eigvalsh receives over a fixed run of the default
        # scenario: 5,049 with the tr X^8 bound alone, 587 with the squared
        # bounds on the slots that survive it (variance._op_sup_symmetric)
        solved = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a):
            solved.append(1 if a.ndim == 2 else len(a))
            return eigvalsh(a)

        with mock.patch.object(np.linalg, "eigvalsh", counting):
            experiments.run_experiment(default_scenario().with_(replications=24))
        assert sum(solved) <= 600


class TestPreJumpSups:
    """A replication with a jump, on a scenario object that holds the
    jump-free copy, takes the sups of its slots before the first left limit
    from the copy's running maxima and hands sup_norm_stack only the slots
    from there on; every statistic keeps the bits of a cold object."""

    @staticmethod
    def handed(scenario, rep):
        """Replication rep's statistics and the (slots, mode, result) of
        every sup_norm_stack call it made, in call order."""
        calls = []
        sup_norm_stack = experiments.sup_norm_stack

        def recording(D, mode):
            calls.append((len(D), mode, sup_norm_stack(D, mode)))
            return calls[-1][2]

        with mock.patch.object(experiments, "sup_norm_stack", recording):
            return experiments._rep_stats(scenario, rep), calls

    @staticmethod
    def warm_and_cold(scenario):
        """A jump replication's k (first left-limit slot), grid size, and
        its statistics and sup_norm_stack calls warm (after a jump-free one
        on the object) and cold, and the jump-free one's statistics."""
        firsts = [first_left_limit(scenario, rep) for rep in range(200)]
        free, jumpy = firsts.index(None), next(r for r, k in enumerate(firsts) if k)
        grid = path_inputs(scenario.with_(), jumpy)[0]
        free_stats = experiments._rep_stats(scenario, free)
        warm, cold = TestPreJumpSups.handed(scenario, jumpy), TestPreJumpSups.handed(scenario.with_(), jumpy)
        assert_same_bits(warm[0], cold[0])
        return firsts[jumpy], grid.size, warm, cold, free_stats

    @pytest.mark.parametrize("truncation, stacks", [("jumps", 2), ("generator", 1)])
    def test_warm_replication_sweeps_only_the_slots_from_the_first_jump(self, truncation, stacks):
        # jumps mode sweeps HS and op sups at once; generator mode, whose
        # reduction reads no op norm, sweeps and keeps HS ones alone
        sc = small_scenario(truncation=truncation, rate=1.0)
        sweep, modes = ("both", 2) if truncation == "jumps" else ("hs", 1)
        k, size, (_, warm), (_, cold), stats = self.warm_and_cold(sc)
        assert 0 < k < size
        per_stack = len(sc.levels) * stacks
        assert [(n, mode) for n, mode, _ in cold] == [(size, sweep)] * per_stack
        assert [(n, mode) for n, mode, _ in warm] == [(size - k, sweep)] * per_stack
        # the copy's running maxima end in the jump-free replication's sups
        maxima = sc.__dict__["_jump_free"][4]
        assert maxima.shape == (stacks, modes, len(sc.levels), sc.m_points + 1)
        assert maxima[0, 0, :, -1].tobytes() == stats["sup_hs"].tobytes()
        if modes == 2:
            assert maxima[0, 1, :, -1].tobytes() == stats["sup_op"].tobytes()
        else:
            assert "sup_op" not in stats
        if stacks == 2:
            for m, key in enumerate(("sqrt_sup_sq_hs", "sqrt_sup_sq_op")):
                assert [s**2 for s in maxima[1, m, :, -1].tolist()] == stats[key].tolist()

    def prefix_and_suffix(self, scenario):
        """Per (stack, mode, level), the running max at the last slot before
        the first jump and the warm sup_norm_stack result after it."""
        k, _, (_, warm), _, _ = self.warm_and_cold(scenario)
        prefix = scenario.__dict__["_jump_free"][4][..., k - 1]
        suffix = np.array([r for _, _, r in warm]).reshape(len(prefix), len(scenario.levels), 2)
        return prefix, np.swapaxes(suffix, 1, 2)

    def test_sup_strictly_before_the_first_jump(self):
        # V0 truncated and jumps zero past the first level: below the full
        # level the differences are e^{ct} (V0 - V0^n) and its roots, largest
        # at t = 0 and decaying, and the jumps do not touch them
        sc = split_scenario(8, "jumps", True, 0.0, 3.0, 12, True, 3)
        prefix, suffix = self.prefix_and_suffix(sc)
        assert np.all(prefix[..., :-1] > suffix[..., :-1])

    def test_sup_strictly_after_the_first_jump(self):
        # V0 kept whole: every path is the exact one until the first jump, so
        # the running maxima are 0 and, below the full level, the sups come
        # from the slots after it
        sc = split_scenario(8, "jumps", False, 0.0, 3.0, 12, False, 3)
        prefix, suffix = self.prefix_and_suffix(sc)
        assert np.all(prefix == 0.0)
        assert np.all(suffix[..., :-1] > 0.0)


class TestOpNormSweeps:
    """Op norms are solved only where a reduction reads them: for the sqrt_op
    row of a jumps-mode run_experiment (verify and price).  Generator mode
    and convergence_study sweep HS sups alone."""

    CASES = [
        ("generator", "verify", 1.0, False, False),
        ("generator", "converge", 1.0, False, False),
        # at rate 20 every replication draws a jump
        ("jumps", "converge", 20.0, False, False),
        # replication 0 draws none and builds the object's jump-free entry;
        # with truncate_v0 its pre-jump differences are nonzero, and their
        # op maxima are taken only once a verify or price needs them
        ("jumps", "converge", 1.0, True, False),
        ("jumps", "verify", 1.0, False, True),
        ("jumps", "price", 1.0, False, True),
    ]

    @pytest.mark.parametrize("truncation, command, rate, truncate_v0, solves", CASES, ids=[
        f"{t}-{c}-{r}-{s}" + ("-truncate_v0" if v0 else "") for t, c, r, v0, s in CASES])
    def test_op_norms_solved_only_for_the_sqrt_op_row(self, tmp_path, truncation, command, rate,
                                                      truncate_v0, solves):
        # at seed 13 and rate 1, replications 0 and 8 draw no jump
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps({"truncation": truncation, "rate": rate, "replications": 9,
                                      "m_points": 20, "master_seed": 13,
                                      "truncate_v0": truncate_v0}))
        calls = []
        op_norms = variance._op_norms

        def counting(S):
            calls.append(len(S) if S.ndim == 3 else 1)
            return op_norms(S)

        with mock.patch.object(variance, "_op_norms", counting):
            code = cli.main([command, str(config), "--threads", "1", "--out-dir", str(tmp_path)])
        assert code in (cli.EXIT_PASS, cli.EXIT_FAIL)
        assert (sum(calls) > 0) == solves

    @pytest.mark.parametrize("truncate_v0", [False, True])
    def test_converge_statistics_are_verify_ones_without_the_op_sups(self, truncate_v0):
        # one object, first as convergence_study runs it, then as
        # run_experiment does: the jump-free entry the first run builds
        # lacks the op maxima, so the second run's first jump-free
        # replication rebuilds it, and every key the first takes keeps its bits
        sc = small_scenario(truncate_v0=truncate_v0, rate=1.0, replications=12)
        reps = range(sc.replications)
        converge = [experiments._rep_stats(sc, rep, op_sups=False) for rep in reps]
        verify = [experiments._rep_stats(sc, rep) for rep in reps]
        assert [out["n_jumps"] for out in verify].count(0.0) >= 2
        for rep in reps:
            assert_same_bits(verify[rep], experiments._rep_stats(sc.with_(), rep))
            assert_same_bits(converge[rep], independent_stats(sc, rep, op_sups=False))
            assert [key for key in verify[rep] if key not in converge[rep]] == ["sup_op", "sqrt_sup_sq_op"]


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
            times = sample_clock(sc.rate, sc.horizon, stream(sc.master_seed, PURPOSE_CLOCK, rep))
            js = sample_jump_stream(times.size, np.sqrt(sc.jump_gammas),
                                    stream(sc.master_seed, PURPOSE_JUMPS, rep))
            assert times.size > 0
            for i, n in enumerate(sc.levels):
                tr = svd_trace_norms(js.ys, n)
                np.testing.assert_allclose(out["sum_dx_tr"][i], np.sum(tr), rtol=1e-13)
                np.testing.assert_allclose(out["sum_dx_tr_sq"][i], np.sum(tr**2), rtol=1e-13)


class TestRunConstants:
    """Generator specs, steppers and initial states are built once per
    scenario object, on first use, not once per replication."""

    @pytest.mark.parametrize("truncation, builds", [("jumps", 1), ("generator", 1)])
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
        assert_same_bits(warm[1], cold)
        # at rate 1 about a third of the replications have no jump; the first
        # of them computes the jump-free paths, the later ones reuse them
        for truncation, n_sups in (("jumps", 5), ("generator", 2)):
            sc = small_scenario(truncation=truncation, rate=1.0, replications=40)
            reps = range(sc.replications)
            cold = [experiments._rep_stats(sc.with_(), rep) for rep in reps]
            free = [rep for rep in reps if cold[rep]["n_jumps"] == 0.0]
            assert 2 <= len(free) < sc.replications
            warm = [experiments._rep_stats(sc, rep) for rep in reps]
            assert "_jump_free" in sc.__dict__
            for rep in reps:
                assert_same_bits(warm[rep], cold[rep])
            # the paths' sups are the same in every jump-free replication
            first, later = warm[free[0]], warm[free[-1]]
            sups = [key for key in first if key.startswith(("sup_", "sqrt_sup_"))]
            assert len(sups) == n_sups
            assert_same_bits({key: first[key] for key in sups}, {key: later[key] for key in sups})
            # each pool chunk unpickles its own copy of the scenario and
            # computes its own jump-free paths
            for workers in (1, 2):
                cols = experiments._map_reps(sc.with_(), workers)
                for rep in reps:
                    assert_same_bits({key: col[rep] for key, col in cols.items()}, cold[rep])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        d=st.integers(1, 16),
        truncation=st.sampled_from(["jumps", "generator"]),
        truncate_v0=st.booleans(),
        generator_kind=st.sampled_from(["sandwich", "sylvester"]),
        forward_kind=st.sampled_from(["diagonal", "skew"]),
        rate=st.sampled_from([0.5, 1.0, 3.0]),
        m_points=st.integers(1, 30),
        seed=st.integers(0, 10**6),
    )
    # one uniform step: every first jump falls in it, one slot is copied
    @example(d=16, truncation="jumps", truncate_v0=True, generator_kind="sandwich",
             forward_kind="skew", rate=3.0, m_points=1, seed=7)
    @example(d=8, truncation="jumps", truncate_v0=False, generator_kind="sylvester",
             forward_kind="diagonal", rate=1.0, m_points=30, seed=1729)
    def test_warm_objects_match_cold_ones(self, d, truncation, truncate_v0, generator_kind,
                                          forward_kind, rate, m_points, seed):
        # a replication with a jump on an object holding the jump-free copy
        # takes the roots of its slots before the first left limit from it:
        # every key must keep the bits of a run on a new object
        sc = split_scenario(d, truncation, truncate_v0, 0.0, rate, m_points, False, seed).with_(
            generator_kind=generator_kind, forward_kind=forward_kind,
            forward_spectrum=0.5 ** np.arange(1, d + 1),
        )
        firsts = [first_left_limit(sc, rep) for rep in range(200)]
        free = firsts.index(None)
        jumpy = [rep for rep, k in enumerate(firsts) if k is not None]
        reps = [free, *jumpy[:4]]
        if 1 in firsts:
            reps.append(firsts.index(1))  # a jump in the first step
        for rep in reps:
            assert_same_bits(experiments._rep_stats(sc, rep), experiments._rep_stats(sc.with_(), rep))
        assert "_jump_free" in sc.__dict__

    def test_pickled_scenario_leaves_the_cache_behind(self):
        sc = small_scenario(rate=0.0)
        experiments._rep_stats(sc, 0)
        assert "_run" in sc.__dict__ and "_jump_free" in sc.__dict__
        copy = pickle.loads(pickle.dumps(sc))
        assert "_run" not in copy.__dict__ and "_jump_free" not in copy.__dict__
        assert "_run" in sc.__dict__ and "_jump_free" in sc.__dict__
        assert np.array_equal(copy._run.v0s, sc._run.v0s)
        assert np.array_equal(copy.generator_spectrum, sc.generator_spectrum)
        assert_same_bits(experiments._rep_stats(copy, 1), experiments._rep_stats(sc, 1))
        grid, V, R, sqrts, maxima = sc.__dict__["_jump_free"]
        for a in (grid.times, grid.is_left, grid.jump_index, V, R, sqrts, maxima):
            assert not a.flags.writeable
        # the running maxima of both difference stacks, (2, L, G) each, stay
        # behind too: the copy builds its own, with the same bits
        assert maxima.shape == (2, 2, len(sc.levels), sc.m_points + 1)
        rebuilt = copy.__dict__["_jump_free"][4]
        assert rebuilt is not maxima and rebuilt.tobytes() == maxima.tobytes()

    def test_jump_free_paths_evolved_once_per_run(self, monkeypatch):
        # one evolve_coupled call per replication with a jump, and one for
        # all of the jump-free replications together
        sc = default_scenario().with_(replications=24)
        jumpy = sum(
            sample_clock(sc.rate, sc.horizon, stream(sc.master_seed, PURPOSE_CLOCK, rep)).size > 0
            for rep in range(sc.replications)
        )
        assert 0 < jumpy < sc.replications
        calls = []
        evolve = experiments.evolve_coupled

        def counting(*args):
            calls.append(1)
            return evolve(*args)

        monkeypatch.setattr(experiments, "evolve_coupled", counting)
        experiments.run_experiment(sc)
        assert len(calls) == jumpy + 1


def assert_same_bits(got, want):
    """Two statistics dicts with the same keys in the same order, and every
    value of the same dtype, shape and bits, signbits and NaN payloads
    included."""
    assert list(got) == list(want)
    for key in want:
        a, b = np.asarray(got[key]), np.asarray(want[key])
        assert a.dtype == b.dtype and a.shape == b.shape, key
        assert a.tobytes() == b.tobytes(), key


class TestNumericalFailure:
    """A numerical failure inside a replication names the replication, the
    path and the grid slot it came from."""

    def run_with(self, monkeypatch, scenario, corrupt, rep=3):
        """Replication rep's failure after corrupt(V, W) on the exact path
        and the diagonal of its reference path R (in jumps mode without
        truncate_v0, the jump-free diagonal), and its grid."""
        grids, paths = [], []
        evolve, reference = experiments.evolve_coupled, experiments._reference_path

        def evolved(v0, stepper, jumps, grid):
            paths.append(evolve(v0, stepper, jumps, grid))
            grids.append(grid)
            return paths[-1]

        def corrupted(scenario, grid, jumps):
            R = reference(scenario, grid, jumps)
            d = R.shape[-1]
            corrupt(paths[-1], R.reshape(len(R), d * d)[:, :: d + 1])
            return R

        monkeypatch.setattr(experiments, "evolve_coupled", evolved)
        monkeypatch.setattr(experiments, "_reference_path", corrupted)
        with pytest.raises(ValueError) as got:
            experiments._rep_stats(scenario, rep)
        return got.value, grids[0]

    def test_negative_diagonal_before_the_first_jump(self, monkeypatch):
        sc = small_scenario(rate=5.0)

        def corrupt(V, W):
            # entry 7 lies in every level's tail, and level 2 is path 1;
            # slot 1 is the left limit of the first jump
            W[1, 7] = -1.0

        exc, grid = self.run_with(monkeypatch, sc, corrupt)
        assert isinstance(exc, opvol.NotPositiveSemidefinite)
        assert str(exc) == (
            f"numerical failure in replication 3, level 2 path, grid slot 1 (t = {grid.times[1]:.6g}, left limit): "
            "matrix (1, 1) in batch: eigenvalue -1.000000e+00 below -tol_psd = -2.000000e-09"
        )
        assert exc.index == (1, 1)
        assert exc.detail == "eigenvalue -1.000000e+00 below -tol_psd = -2.000000e-09"
        # the index and detail cross a worker process's pickle too
        copy = pickle.loads(pickle.dumps(exc))
        assert (str(copy), copy.index, copy.detail) == (str(exc), exc.index, exc.detail)

    def test_negative_diagonal_in_the_jump_free_paths(self, monkeypatch):
        # at rate 0 every replication is jump-free: replication 3 computes
        # the paths every other would reuse, and its failure keeps none
        sc = small_scenario(rate=0.0)

        def corrupt(V, W):
            # entry 5 lies in the tails of levels 4 and 6, paths 2 and 3
            W[1, 5] = -1.0

        exc, grid = self.run_with(monkeypatch, sc, corrupt)
        detail = "eigenvalue -1.000000e+00 below -tol_psd = -2.000000e-09"
        assert isinstance(exc, opvol.NotPositiveSemidefinite)
        assert str(exc) == (
            f"numerical failure in replication 3, level 2 path, grid slot 1 (t = {grid.times[1]:.6g}): "
            f"matrix (1, 1) in batch: {detail}"
        )
        assert (exc.index, exc.detail) == ((1, 1), detail)
        assert "_jump_free" not in sc.__dict__
        # the next jump-free replication computes the paths again, and names itself
        with pytest.raises(opvol.NotPositiveSemidefinite, match="^numerical failure in replication 5, "):
            experiments._rep_stats(sc, 5)
        assert "_jump_free" not in sc.__dict__

    def test_non_finite_value_names_the_earliest_slot(self, monkeypatch):
        sc = small_scenario(rate=5.0)

        def corrupt(V, W):
            # R's tail entry (7, 7) shows first in the level 2 path, which
            # keeps the fewest entries of V
            W[7:, 7] = np.nan
            V[9, 2, 2] = np.inf

        with np.errstate(all="ignore"):
            exc, grid = self.run_with(monkeypatch, sc, corrupt)
        assert isinstance(exc, np.linalg.LinAlgError)
        assert str(exc).startswith(
            f"numerical failure in replication 3, level 2 path, grid slot 7 (t = {grid.times[7]:.6g}"
        )
        assert "first non-finite value: " in str(exc)

    def test_negative_tail_entry_after_a_jump(self, monkeypatch):
        sc = small_scenario(rate=5.0)
        slots = []

        def corrupt(V, W):
            # level 2 is path 1; after the first jump its leading block is not
            # diagonal, and (5, 5) is a tail entry
            g = int(np.flatnonzero(V[:, 0, 1] != 0.0)[0])
            W[g, 5] = -0.5
            slots.append(g)

        exc, grid = self.run_with(monkeypatch, sc, corrupt)
        g = slots[0]
        assert not grid.is_left[g]
        assert isinstance(exc, opvol.NotPositiveSemidefinite)
        assert str(exc).startswith(
            f"numerical failure in replication 3, level 2 path, grid slot {g} (t = {grid.times[g]:.6g}): "
            f"matrix (1, {g}) in batch: eigenvalue -5.000000e-01 below -tol_psd = -"
        )
        assert exc.index == (1, g)
        assert exc.detail.startswith("eigenvalue -5.000000e-01 below -tol_psd = -")
        assert str(exc).endswith(f"matrix (1, {g}) in batch: {exc.detail}")

    def test_generator_mode_names_the_slot_too(self, monkeypatch):
        sc = default_generator_scenario(replications=10, master_seed=5).with_(m_points=25)

        def corrupt(V, W):
            V[4:] = np.nan

        with np.errstate(all="ignore"):
            exc, grid = self.run_with(monkeypatch, sc, corrupt)
        assert str(exc).startswith(
            f"numerical failure in replication 3, exact path, grid slot 4 (t = {grid.times[4]:.6g}"
        )

    def test_finite_path_whose_squares_overflow_raises_nothing(self):
        # V ~ e^{368 t}: entries near 1e159 stay finite, their squares in the
        # HS sup do not; no sweep fails, so the only sign is inf.  Generator
        # mode sweeps HS sups alone; jumps mode with V0 truncated to each
        # level's block also takes the op sups, which stay finite
        generator = small_scenario(truncation="generator", generator_spectrum=np.full(8, 184.0), rate=0.0)
        jumps = generator.with_(truncation="jumps", v0_diag=np.ones(8), truncate_v0=True)
        for sc in (generator, jumps):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = experiments._rep_stats(sc, 0)
            for i in range(len(sc.levels)):
                assert out["sup_hs"][i] == math.inf
                if sc is jumps:
                    assert 1e158 < out["sup_op"][i] < math.inf


    @pytest.mark.parametrize("truncation", ["jumps", "generator"])
    def test_non_finite_entry_every_level_keeps(self, monkeypatch, truncation):
        # every level path is V on (0, 0), so its difference there is masked
        # to 0 and no sweep sees the inf; the check of V still names the slot
        sc = small_scenario(truncation=truncation, rate=5.0)

        def corrupt(V, W):
            V[4, 0, 0] = np.inf

        exc, grid = self.run_with(monkeypatch, sc, corrupt)
        assert type(exc) is np.linalg.LinAlgError
        assert str(exc) == (
            f"numerical failure in replication 3, exact path, grid slot 4 (t = {grid.times[4]:.6g}"
            f"{', left limit' if grid.is_left[4] else ''}), first non-finite value: NaN or inf in the stack"
        )


class TestIndependentLevelPaths:
    """Every level path is the one evolved exact path V on the entries its
    level keeps and the reference path R off them.  Every _rep_stats key of
    that route must equal, bit for bit, what reference.independent_stats
    computes from each level path evolved on its own: with a jump, without
    one before the jump-free copy exists, and without one after it (k = G)."""

    @pytest.mark.parametrize("truncation, truncate_v0", [
        ("jumps", False), ("jumps", True), ("generator", False)])
    def test_masked_route_matches_independent_paths(self, truncation, truncate_v0):
        sc = small_scenario(truncation=truncation, truncate_v0=truncate_v0, rate=1.0)
        jumps = []
        for rep in range(12):
            out = experiments._rep_stats(sc, rep)
            assert_same_bits(out, independent_stats(sc, rep))
            jumps.append(out["n_jumps"])
        assert jumps.count(0.0) >= 2 and max(jumps) > 0.0


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
        r = BoundReport("x", 1, 0.0, 0.0, 0.0, 0.0)
        assert r.margin == math.inf and r.passed

    def test_deterministic_violation_fails(self):
        r = BoundReport("x", 1, 1.0, 0.0, 0.5, 0.0)
        assert r.margin == -math.inf and not r.passed

    def test_margin_in_stderr_units(self):
        r = BoundReport("x", 1, 1.0, 0.3, 2.0, 0.4)
        assert r.margin == pytest.approx(1.0 / 0.5)
        assert r.passed


class TestJumpTruncationExperiment:
    def test_reference_run_passes(self):
        res = run_experiment(small_scenario())
        assert all_passed(res)
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
        assert all_passed(res)
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
        assert all_passed(res)
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
        assert all_passed(res)
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
        assert all_passed(res)
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
        assert all_passed(res)
        last = [r for r in res.reports if r.level == 16]
        assert last, "expected rows at the full triangle level"
        for r in last:
            assert r.lhs == 0.0 and r.rhs == 0.0


class TestConvergenceStudy:
    def test_needs_three_levels(self):
        with pytest.raises(ValueError, match="three levels"):
            convergence_study(small_scenario(levels=(2, 4)))

    def test_jump_mode_series(self):
        sc = small_scenario(replications=80)
        cs = convergence_study(sc)
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

    @pytest.mark.parametrize("hash_seed", ["1", "2"])
    def test_monotone_flags_in_row_order_for_any_hash_seed(self, hash_seed):
        # str hashes change with PYTHONHASHSEED, so flags keyed in the order
        # of a set of bound ids would change order from process to process
        script = (
            "import json\n"
            "from opvol.experiments import convergence_study, default_scenario\n"
            "cs = convergence_study(default_scenario().with_(replications=4, m_points=10))\n"
            "print(json.dumps([list(cs.monotone), [r.bound_id for r in cs.rows]]))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed)
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        flags, ids = json.loads(proc.stdout)
        assert flags == list(dict.fromkeys(ids))
