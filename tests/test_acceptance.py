"""Release gate: the eleven acceptance criteria, one test and one printed
pass/fail line per criterion.

Shared Monte Carlo artifacts are built once per module: the reference
jump-truncation run, the generator-compression run, and a Gaussian
constant-volatility ensemble.  Deterministic identity sweeps rerun at full
pair counts rather than reusing the smaller unit-test sweeps.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np
import pytest

from opvol.bounds import cp_second_moment
from opvol.cli import main
from opvol.experiments import default_scenario, run_experiment
from opvol.forward import ForwardSemigroupSpec, simulate_forward_coupled
from opvol.pricing import FunctionalSpec, PayoffSpec, mean_se
from opvol.processes import (
    PURPOSE_CLOCK,
    PURPOSE_JUMPS,
    PURPOSE_WIENER,
    CoupledJumpStream,
    sample_clock,
    sample_jump_stream,
    stream,
)
from opvol.variance import (
    GeneratorSpec,
    VariancePath,
    build_grid,
    eigen_tail_sup_sq,
    generator_eigensystem,
    karhunen_loeve_spectrum,
    truncate_generator,
)
from reference import (
    default_generator_scenario,
    generator_matrix,
    geometric_sd,
    geometric_noise,
    level_mask,
    project,
    psd_sqrt,
    variance_path,
)

WORKERS = min(8, os.cpu_count() or 1)

# stream purpose of the plain jump draws that criterion 4 estimates moments
# from, disjoint from the engine's clock, jump and Wiener streams
PURPOSE_MOMENTS = 4


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d} failed: {detail}"


def random_psd(rng, d=8, scale=1.0):
    A = rng.standard_normal((d, d))
    return scale * (A @ A.T) / d


@pytest.fixture(scope="module")
def jump_run():
    """Reference jump-truncation experiment (d=8, M=200, R=2000) with wall time."""
    start = time.perf_counter()
    result = run_experiment(default_scenario(), workers=WORKERS)
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def generator_run():
    return run_experiment(default_generator_scenario(), workers=WORKERS)


@pytest.fixture(scope="module")
def gaussian_ensemble():
    """Jump-free configuration: V = I throughout, drift-free transport,
    geometric noise spectrum, 1600 forward paths (G, d) on a 200-step unit
    grid."""
    d, horizon, m_points, reps = 8, 1.0, 200, 1600
    gen = GeneratorSpec("sylvester", np.zeros(d))
    js = CoupledJumpStream(ys=np.empty((0, d)))
    grid = build_grid(horizon, m_points, np.empty(0))
    vpath = variance_path(np.eye(d), gen, js, grid)
    stacked = VariancePath(grid, vpath.values[None])
    fwd = ForwardSemigroupSpec("diagonal", np.zeros(d))
    q = geometric_noise(d)
    paths = [
        simulate_forward_coupled(stacked, fwd, q, stream(515, PURPOSE_WIENER, rep))[0]
        for rep in range(reps)
    ]
    return paths, q, horizon


def test_criterion_01_operator_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    worst_tensor = 0.0
    for _ in range(1000):
        f, g = rng.standard_normal(8), rng.standard_normal(8)
        gap = abs(np.linalg.norm(np.outer(f, g), "nuc") - np.linalg.norm(f) * np.linalg.norm(g))
        worst_tensor = max(worst_tensor, gap)
    worst_sqrt = 0.0
    for _ in range(1000):
        A = random_psd(rng, scale=rng.uniform(0.1, 10.0))
        S = psd_sqrt(A)
        worst_sqrt = max(worst_sqrt, np.linalg.norm(S @ S - A) / np.linalg.norm(A))
    elapsed = time.perf_counter() - start
    ok = worst_tensor <= 1e-12 and worst_sqrt <= 1e-10 and elapsed < 10.0
    report(1, ok, f"tensor gap {worst_tensor:.2e}, sqrt rel err {worst_sqrt:.2e}, {elapsed:.1f}s")


def test_criterion_02_square_root_and_power_inequalities():
    rng = np.random.default_rng(22)
    worst_bog = -np.inf
    worst_ando = -np.inf
    for _ in range(1000):
        A = random_psd(rng, scale=rng.uniform(0.1, 3.0))
        B = random_psd(rng, scale=rng.uniform(0.1, 3.0))
        SA, SB = psd_sqrt(A), psd_sqrt(B)
        worst_bog = max(worst_bog, np.linalg.norm(SA - SB, 2) ** 2 - np.linalg.norm(A - B, 2))
        worst_ando = max(worst_ando, np.linalg.norm(SA - SB) ** 2 - np.linalg.norm(A - B, "nuc"))
    worst_power = -np.inf
    for _ in range(1000):
        A = rng.standard_normal((8, 8))
        B = A + 0.1 * rng.standard_normal((8, 8))
        base = max(np.linalg.norm(A, 2), np.linalg.norm(B, 2))
        diff = np.linalg.norm(A - B, 2)
        Ak, Bk = np.eye(8), np.eye(8)
        for k in range(1, 7):
            Ak, Bk = Ak @ A, Bk @ B
            worst_power = max(worst_power, np.linalg.norm(Ak - Bk, 2) - k * base ** (k - 1) * diff)
    ok = worst_bog <= 1e-12 and worst_ando <= 1e-12 and worst_power <= 1e-12
    report(2, ok, f"slack: sqrt-op {worst_bog:.2e}, sqrt-HS {worst_ando:.2e}, power {worst_power:.2e}")


def test_criterion_03_eigensystem_and_tail_identity():
    lam = karhunen_loeve_spectrum(8)
    sand = generator_eigensystem(GeneratorSpec("sandwich", lam))
    sylv = generator_eigensystem(GeneratorSpec("sylvester", lam))
    eig_gap = max(
        float(np.max(np.abs(sand - np.outer(lam, lam)))),
        float(np.max(np.abs(sylv - (lam[:, None] + lam[None, :])))),
    )

    # projecting a diagonal operator drops exactly the eigenvalues with
    # 1-based index k > n/2, so the squared tail is the exact error
    rng = np.random.default_rng(33)
    ks = np.arange(1, 9)
    tail_gap = 0.0
    for diag in [lam] + [rng.uniform(-2.0, 2.0, size=8) for _ in range(3)]:
        T = np.diag(diag)
        for n in range(1, 17):
            Tn = project(T, level_mask(n, 8))
            lhs = np.linalg.norm(T - Tn) ** 2
            rhs = float(np.sum(diag[2 * ks > n] ** 2))
            tail_gap = max(tail_gap, abs(lhs - rhs))
    ok = eig_gap <= 1e-10 and tail_gap <= 1e-12
    report(3, ok, f"eigenvalue gap {eig_gap:.2e}, tail identity gap {tail_gap:.2e}")


def test_criterion_04_compound_poisson_moment_formula():
    start = time.perf_counter()
    rate, horizon, reps, seed = 2.0, 1.0, 20000, 44
    sd = geometric_sd(8)
    l2 = np.zeros(reps)
    for rep in range(reps):
        times = sample_clock(rate, horizon, stream(seed, PURPOSE_CLOCK, rep))
        if times.size == 0:
            continue
        ys = sample_jump_stream(times.size, sd, stream(seed, PURPOSE_JUMPS, rep)).ys
        gram = ys @ ys.T
        l2[rep] = float(np.sum(gram * gram))
    mc = float(l2.mean())
    mc_se = float(l2.std(ddof=1) / math.sqrt(reps))

    # jump moments from a disjoint stream of plain draws, never from the sums
    ys = sample_jump_stream(reps, sd, stream(seed, PURPOSE_MOMENTS, 0)).ys
    y2 = np.sum(ys * ys, axis=1)
    m2 = float(np.mean(y2**2))
    m2_se = float(np.std(y2**2, ddof=1) / math.sqrt(reps))
    xbar = (ys.T @ ys) / reps
    proj = np.einsum("ij,jk,ik->i", ys, xbar, ys)
    m1sq = float(proj.mean())
    m1sq_se = 2.0 * float(np.std(proj, ddof=1) / math.sqrt(reps))

    ident = cp_second_moment(rate, horizon, m2, m1sq)
    ident_se = math.hypot(rate * horizon * m2_se, (rate * horizon) ** 2 * m1sq_se)
    elapsed = time.perf_counter() - start
    gap = abs(mc - ident)
    tol = 3.0 * math.hypot(mc_se, ident_se)
    ok = gap <= tol and elapsed < 60.0
    report(4, ok, f"MC {mc:.4f} vs identity {ident:.4f}, gap {gap:.4f} <= {tol:.4f}, {elapsed:.1f}s")


def test_criterion_05_pathwise_bound(jump_run):
    result, _ = jump_run
    rows = [r for r in result.reports if r.bound_id == "variance_pathwise"]
    worst = max(r.lhs for r in rows)
    reps = default_scenario().replications
    ok = len(rows) == 3 and worst <= 0.0 and all(r.passed for r in rows)
    report(5, ok, f"worst pathwise slack {worst:.3e} across {reps} replications x {len(rows)} levels")


def test_criterion_06_variance_second_moment_bound(jump_run):
    result, _ = jump_run
    rows = sorted(
        (r for r in result.reports if r.bound_id == "variance_jumps"), key=lambda r: r.level
    )
    margins = {r.level: r.margin for r in rows}
    decreasing = all(
        b.lhs <= a.lhs + 3.0 * math.hypot(a.lhs_se, b.lhs_se) for a, b in zip(rows, rows[1:])
    )
    ok = (
        [r.level for r in rows] == [2, 4, 6]
        and all(m >= -3.0 for m in margins.values())
        and decreasing
    )
    detail = ", ".join(f"n={n}: margin {m:.1f}" for n, m in margins.items())
    report(6, ok, f"{detail}, estimates decreasing={decreasing}")


def test_criterion_07_generator_compression(generator_run):
    result = generator_run
    worst = min(r.margin for r in result.reports)
    scenario = default_generator_scenario()
    spec = GeneratorSpec(scenario.generator_kind, scenario.generator_spectrum)
    det_slack = -np.inf
    for n in scenario.levels:
        trunc = truncate_generator(spec, n)
        K = generator_matrix(spec) - generator_matrix(trunc)
        dense = float(np.linalg.svd(K, compute_uv=False)[0])
        cap = math.sqrt(2.0 * eigen_tail_sup_sq(trunc))
        det_slack = max(det_slack, dense - cap)
    ok = all(r.passed for r in result.reports) and det_slack <= 1e-12
    report(7, ok, f"worst margin {worst:.1f}, dense-norm vs sup-tail slack {det_slack:.2e}")


def test_criterion_08_forward_noise_bound(jump_run):
    result, elapsed = jump_run
    rows = sorted(
        (r for r in result.reports if r.bound_id == "forward_noise"), key=lambda r: r.level
    )
    margins = {r.level: r.margin for r in rows}
    ok = (
        [r.level for r in rows] == [2, 4, 6]
        and all(m >= -3.0 for m in margins.values())
        and elapsed < 600.0
    )
    detail = ", ".join(f"n={n}: margin {m:.1f}" for n, m in margins.items())
    report(8, ok, f"{detail}, run took {elapsed:.0f}s")


def test_criterion_09_ito_isometry_and_bias(gaussian_ensemble):
    paths, q, horizon = gaussian_ensemble
    sq = np.array([float(p[-1] @ p[-1]) for p in paths])
    mc = float(sq.mean())
    se = float(sq.std(ddof=1) / math.sqrt(sq.size))
    target = horizon * q.sum()
    # with drift-free transport the left-endpoint scheme reproduces
    # T Tr(Q) exactly, so the discretization allowance is zero
    iso_ok = abs(mc - target) <= 3.0 * se

    # scheme bias under mean reversion, from the closed-form second moments
    a = np.linspace(-1.6, -0.2, 8)
    v_diag = 0.5 ** np.arange(1, 9)

    def scheme(m_points: int) -> float:
        dt = horizon / m_points
        t = dt * np.arange(m_points)
        decay = np.exp(2.0 * np.outer(horizon - t, a))
        return float(dt * np.sum(decay * (q * v_diag)))

    truth = float(np.sum(q * v_diag * (np.exp(2.0 * a * horizon) - 1.0) / (2.0 * a)))
    bias = [scheme(m) - truth for m in (200, 400)]
    ratio = bias[1] / bias[0]
    bias_ok = abs(ratio - 0.5) <= 0.1
    ok = iso_ok and bias_ok
    report(
        9, ok, f"E|X(T)|^2 {mc:.4f} vs {target:.4f} (3se {3 * se:.4f}), bias ratio {ratio:.3f}"
    )


def test_criterion_10_pricing_chain_and_half_normal(jump_run, gaussian_ensemble):
    result, _ = jump_run
    chain_ok = bool(result.pricing) and all(p.passed for p in result.pricing)
    worst_chain = min(min(p.chain_margin, p.cap_margin) for p in result.pricing)

    paths, q, horizon = gaussian_ensemble
    first = FunctionalSpec(0)
    price, se = mean_se(
        PayoffSpec("call", 0.0).evaluate(np.array([first.apply(p[-1]) for p in paths]))
    )
    sigma = math.sqrt(q[0] * horizon)
    target = sigma / math.sqrt(2.0 * math.pi)
    half_ok = abs(price - target) <= 3.0 * se
    ok = chain_ok and half_ok
    report(
        10,
        ok,
        f"worst chain margin {worst_chain:.1f}, "
        f"half-normal {price:.4f} vs {target:.4f} (3se {3 * se:.4f})",
    )


def test_criterion_11_thread_determinism(tmp_path):
    out_one = tmp_path / "one"
    out_eight = tmp_path / "eight"
    rc_one = main(["verify", "--seed", "7", "--threads", "1", "--out-dir", str(out_one)])
    rc_eight = main(["verify", "--seed", "7", "--threads", "8", "--out-dir", str(out_eight)])
    bytes_one = (out_one / "bounds.csv").read_bytes()
    bytes_eight = (out_eight / "bounds.csv").read_bytes()
    ok = rc_one == rc_eight == 0 and bytes_one == bytes_eight
    report(
        11,
        ok,
        f"exit codes {rc_one}/{rc_eight}, {len(bytes_one)} bytes, "
        f"identical={bytes_one == bytes_eight}",
    )
