"""Reference helpers the tests share.

variance_path runs one variance path through the engine's evolve_coupled,
psd_sqrt takes one matrix through the engine's psd_sqrt_batch,
default_generator_scenario is the reference scenario in generator mode,
level_mask is the keep-set J_n of the engine's truncate_generator, by_id
picks a result's rows of one bound, and all_passed tells whether every row
of a result passed.  clock_times is the Poisson clock's gap-by-gap loop,
which the engine's sample_clock runs as one cumsum per block of gaps.
geometric_sd holds the jump vector's coordinate standard deviations and
geometric_noise the noise spectrum, for variances 2^-1, ..., 2^-d.  The
others are built straight from the definitions: generator_matrix is the
explicit d^2 x d^2 matrix of a generator on row-major vec(T), which the expm
reference paths use; project is Pi T for a keep-mask; corner is the
compression that jump truncation applies, P T P with P the projection onto
the first n coordinates; and ys_at_level and approx_jumps truncate jump
vectors one level at a time by copy-and-zero, where the engine's
_level_jumps masks every level at once.  engine_path_stats gives the
statistics the engine's _rep_stats takes from a given exact path V and
reference path R (_variance_stats, then _forward_stats in jumps mode).
level_paths evolves every coupled path of a replication on its own, each
with variance_path, where the engine evolves V and R alone and takes each
level's path as V on the entries the level keeps and R off them
(masked_paths builds those).  path_roots takes the roots of such a stack,
a level path's as the root of its block and of its diagonal tail.
path_stats gives the statistics of a stack of coupled paths from the
definitions: every root decomposed, every sup swept
over the whole grid, one norm per call, where the engine may take the roots
of a replication's first k slots, and the running maxima of their norms,
from the jump-free replication (all of them, k = G, for a later jump-free
replication).  independent_stats gives every _rep_stats key of a
replication from level_paths, path_stats and the jump vectors truncated one
level at a time.
"""

import numpy as np

from opvol.experiments import _forward_stats, _variance_stats, default_scenario
from opvol.forward import forward_sup_error, simulate_forward_coupled
from opvol.operators import NotPositiveSemidefinite, psd_sqrt_batch
from opvol.processes import (PURPOSE_CLOCK, PURPOSE_JUMPS, PURPOSE_WIENER, sample_clock, sample_jump_stream,
                             stream)
from opvol.variance import (GeneratorSpec, VariancePath, build_grid, evolve_coupled, make_stepper,
                            sup_norm_stack, truncate_generator)


def variance_path(v0, spec, stream, grid, level=None):
    """Path of V (level None) or of the level-n approximant V^n, driven by
    the stream's exact or truncated jumps; the grid must hold every jump
    time, one per row of stream.ys."""
    v0 = np.asarray(v0, dtype=float)
    jumps = stream.jumps if level is None else approx_jumps(stream.ys, level)
    values = evolve_coupled(v0, make_stepper(spec), jumps, grid)
    return VariancePath(grid=grid, values=values)


def psd_sqrt(T):
    """Unique PSD square root of one self-adjoint PSD matrix."""
    T = np.asarray(T, dtype=float)
    if T.ndim != 2 or np.max(np.abs(T - T.T)) > 1e-12:
        raise ValueError("psd_sqrt requires a self-adjoint matrix")
    return psd_sqrt_batch(T[None])[0]


def default_generator_scenario(replications=2000, master_seed=1729):
    return default_scenario().with_(replications=replications, master_seed=master_seed,
                                    truncation="generator")


def level_mask(n, d):
    """Keep-set J_n = {(j, k): j + k <= n} (1-based) as a (d, d) mask."""
    return truncate_generator(GeneratorSpec("sylvester", np.zeros(d)), n).mask


def clock_times(rate, horizon, rng):
    """Jump times of sample_clock, one exponential gap at a time, drawing
    the same blocks of gaps from rng."""
    times = []
    t = 0.0
    block = max(8, int(2 * rate * horizon) + 1)
    while True:
        for g in rng.exponential(scale=1.0 / rate, size=block):
            t += g
            if t > horizon:
                return np.array(times)
            times.append(t)


def geometric_sd(d):
    return np.sqrt(0.5 ** np.arange(1, d + 1))


def ys_at_level(ys, n):
    """The jump vectors with every coordinate from n on zeroed."""
    out = np.array(ys, dtype=float)
    out[:, n:] = 0.0
    return out


def approx_jumps(ys, n):
    """(N, d, d) stack of X^n = Y^n (x) Y^n."""
    yn = ys_at_level(ys, n)
    return np.einsum("ij,ik->ijk", yn, yn)


def geometric_noise(d):
    return 0.5 ** np.arange(1, d + 1)


def all_passed(result):
    """Whether every bound row and every pricing row of a result passed."""
    return all(r.passed for r in result.reports) and all(p.passed for p in result.pricing)


def by_id(result, bound_id):
    """The result's rows of one bound, in level order."""
    return tuple(r for r in result.reports if r.bound_id == bound_id)


def generator_matrix(spec):
    """Explicit d^2 x d^2 matrix of the (compressed) action on row-major vec(T)."""
    d = spec.dim
    C = np.diag(spec.spectrum)
    if spec.kind == "sandwich":
        K = np.kron(C, C)
    else:
        eye = np.eye(d)
        K = np.kron(C, eye) + np.kron(eye, C)
    if spec.mask is not None:
        p = spec.mask.reshape(-1).astype(float)
        K = K * p[:, None] * p[None, :]
    return K


def project(T, mask):
    """Pi T: every entry outside the keep-mask zeroed."""
    return np.where(mask, T, 0.0)


def corner(T, n):
    """T with every entry outside the leading n x n block zeroed."""
    out = np.array(T, dtype=float)
    out[n:] = 0.0
    out[:, n:] = 0.0
    return out


def level_paths(scenario, rep):
    """The grid and the (1 + L, G, d, d) coupled paths of replication rep,
    exact first, each evolved on its own with variance_path from the
    replication's own draws: in jumps mode with the level's jumps and, with
    truncate_v0, its corner of V0; in generator mode with the compressed
    generator and the exact jumps."""
    run, seed = scenario._run, scenario.master_seed
    times = sample_clock(scenario.rate, scenario.horizon, stream(seed, PURPOSE_CLOCK, rep))
    js = sample_jump_stream(times.size, run.jump_sd, stream(seed, PURPOSE_JUMPS, rep))
    grid = build_grid(scenario.horizon, scenario.m_points, times)
    v0 = run.v0s[0]
    paths = [variance_path(v0, run.generator, js, grid)]
    for n in scenario.levels:
        if scenario.truncation == "jumps":
            v0n = corner(v0, n) if scenario.truncate_v0 else v0
            paths.append(variance_path(v0n, run.generator, js, grid, level=n))
        else:
            paths.append(variance_path(v0, truncate_generator(run.generator, n), js, grid))
    return grid, np.stack([p.values for p in paths])


def masked_paths(scenario, V, R):
    """The (1 + L, G, d, d) coupled paths as the engine takes them: V, then
    each level's path, V on the entries the level keeps and R off them."""
    return np.stack([V] + [np.where(keep, V, R) for keep in scenario._run.keeps])


def path_roots(scenario, vals):
    """The square roots of the coupled paths vals, exact first, one
    psd_sqrt_batch call per path: the exact path whole and, in jumps mode, a
    level-n path, which must be zero off its leading n x n block and its
    diagonal tail, as blockdiag(the root of the block, the root of the
    tail)."""
    d = vals.shape[-1]
    sqrts = np.empty_like(vals)
    for p, n in enumerate((d, *scenario.levels)):
        path = vals[p]
        pattern = np.zeros((d, d), dtype=bool)
        pattern[:n, :n] = True
        pattern[np.arange(d), np.arange(d)] = True
        assert not np.any(path[:, ~pattern]), "a level path off its block pattern"
        try:
            sqrts[p] = psd_sqrt_batch(path[:, :n, :n], np.diagonal(path, axis1=1, axis2=2)[:, n:])
        except NotPositiveSemidefinite as exc:
            raise NotPositiveSemidefinite.at((p, *exc.index), exc.detail) from exc
    return sqrts


def engine_path_stats(scenario, rep, grid, V, R, head=None, maxima=None, op_sups=True):
    """The statistics of the exact path V and reference path R in
    replication rep, in _rep_stats's key order for op_sups, through the
    engine's own _variance_stats (with the roots head and the running
    maxima maxima of the first slots, if given) and, in jumps mode,
    _forward_stats on its square roots."""
    out, sqrts = _variance_stats(scenario, V, R, head, maxima, op_sups)
    if sqrts is not None:
        out.update(_forward_stats(scenario, rep, grid, V, sqrts))
    return out


def path_stats(scenario, rep, grid, vals, op_sups=True):
    """The statistics of engine_path_stats from the coupled paths vals
    (exact first), from the definitions: every sup from sup_norm_stack on a
    whole difference stack, one norm per call, every root from path_roots.
    The op-norm sups are taken in jumps mode with op_sups only."""
    run = scenario._run
    jumps = scenario.truncation == "jumps"
    ops = jumps and op_sups
    sup_hs, sup_op = [], []
    for path in vals[1:]:
        D = vals[0] - path
        sup_hs.append(sup_norm_stack(D, "hs"))
        if ops:
            sup_op.append(sup_norm_stack(D, "op"))
    out = {"sup_hs": np.array(sup_hs), "sup_sq_hs": np.array([s**2 for s in sup_hs])}
    if ops:
        out["sup_op"] = np.array(sup_op)
    if not jumps:
        return out
    sqrts = path_roots(scenario, vals)
    sqrt_hs, sqrt_op = [], []
    for root in sqrts[1:]:
        dS = sqrts[0] - root
        sqrt_hs.append(sup_norm_stack(dS, "hs"))
        if ops:
            sqrt_op.append(sup_norm_stack(dS, "op"))
    if ops:
        out["sqrt_sup_sq_op"] = np.array([s**2 for s in sqrt_op])
    out["sqrt_sup_sq_hs"] = np.array([s**2 for s in sqrt_hs])
    xs = simulate_forward_coupled(
        VariancePath(grid, vals), run.forward, scenario.q_spectrum,
        stream(scenario.master_seed, PURPOSE_WIENER, rep), sqrts,
    )
    payoff, functional = run.payoff, run.functional
    xt, *xtn = xs[:, np.searchsorted(grid.times, run.tau, side="right") - 1]
    out["pay_exact"] = payoff.evaluate(functional.apply(xt))
    out["fwd_sup_sq"] = forward_sup_error(xs)
    out["pay_trunc"] = np.array([payoff.evaluate(functional.apply(x)) for x in xtn])
    out["dx_tau"] = np.array([np.linalg.norm(xt - x) for x in xtn])
    return out


def independent_stats(scenario, rep, op_sups=True):
    """Every _rep_stats key of replication rep for op_sups, in its order,
    with the paths from level_paths, their statistics from path_stats, and
    the jump statistics from the jump vectors truncated one level at a
    time."""
    run, seed = scenario._run, scenario.master_seed
    times = sample_clock(scenario.rate, scenario.horizon, stream(seed, PURPOSE_CLOCK, rep))
    js = sample_jump_stream(times.size, run.jump_sd, stream(seed, PURPOSE_JUMPS, rep))
    y2 = np.sum(js.ys**2, axis=1)
    out = {
        "n_jumps": float(times.size),
        "sum_y2": float(np.sum(y2)),
        "sum_y4": float(np.sum(y2**2)),
        "sum_y8": float(np.sum(y2**4)),
        "x_sum_tensor": js.jumps.sum(axis=0),
    }
    out["l2_total"] = float(np.sum(out["x_sum_tensor"] ** 2))
    grid, vals = level_paths(scenario, rep)
    stats = path_stats(scenario, rep, grid, vals, op_sups)
    if scenario.truncation != "jumps":
        out.update(stats)
        return out
    per_level = {key: [] for key in ("sum_dy2", "sum_dy4", "sum_dy8", "sum_dx_sq", "sum_dx_sq_sq",
                                     "sum_dx_hs", "sum_dx_tr", "sum_dx_tr_sq", "cpp_sup_sq")}
    for n in scenario.levels:
        y2n = np.sum(ys_at_level(js.ys, n) ** 2, axis=1)
        dy2, dx_sq = y2 - y2n, y2**2 - y2n**2
        tr_sq = dy2 * (dy2 + 4.0 * y2n)
        prefix = np.cumsum(js.jumps - approx_jumps(js.ys, n), axis=0)
        for key, value in (
            ("sum_dy2", np.sum(dy2)), ("sum_dy4", np.sum(dy2**2)), ("sum_dy8", np.sum(dy2**4)),
            ("sum_dx_sq", np.sum(dx_sq)), ("sum_dx_sq_sq", np.sum(dx_sq**2)),
            ("sum_dx_hs", np.sum(np.sqrt(np.maximum(dx_sq, 0.0)))), ("sum_dx_tr", np.sum(np.sqrt(tr_sq))),
            ("sum_dx_tr_sq", np.sum(tr_sq)),
            ("cpp_sup_sq", np.max(np.sum(prefix**2, axis=(1, 2)), initial=0.0)),
        ):
            per_level[key].append(value)
    out.update({key: np.array(values) for key, values in per_level.items()})
    for key in ("sup_hs", "sup_sq_hs", "sup_op", "sqrt_sup_sq_op", "sqrt_sup_sq_hs"):
        if key in stats:
            out[key] = stats[key]
    for key in ("pay_exact", "fwd_sup_sq", "pay_trunc", "dx_tau"):
        out[key] = stats[key]
    return out
