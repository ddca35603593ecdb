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
statistics the engine's _rep_stats takes from given coupled paths
(_variance_stats, then _forward_stats in jumps mode), and path_stats the
same with every root decomposed and every sup swept over the whole grid,
where the engine may take the roots of a replication's first k slots, and
the running maxima of their norms, from the jump-free replication (all of
them, k = G, for a later jump-free replication).
"""

import numpy as np

from opvol.experiments import _forward_stats, _variance_stats, default_scenario
from opvol.forward import forward_sup_error, simulate_forward_coupled
from opvol.operators import NotPositiveSemidefinite, psd_sqrt_batch
from opvol.processes import PURPOSE_WIENER, stream
from opvol.variance import (GeneratorSpec, VariancePath, evolve_coupled, make_stepper, sup_norm_stack,
                            truncate_generator)


def variance_path(v0, spec, stream, grid, level=None):
    """Path of V (level None) or of the level-n approximant V^n, driven by
    the stream's exact or truncated jumps; the grid must hold every jump
    time, one per row of stream.ys."""
    v0 = np.asarray(v0, dtype=float)
    jumps = stream.jumps if level is None else approx_jumps(stream.ys, level)
    values = evolve_coupled(v0[None], [make_stepper(spec)], [jumps], grid)[0]
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


def engine_path_stats(scenario, rep, grid, vals, head=None, maxima=None):
    """The statistics of the coupled paths vals (exact first) in replication
    rep, in _rep_stats's key order, through the engine's own
    _variance_stats (with the roots head and the running maxima maxima of
    the first slots, if given) and, in jumps mode, _forward_stats on its
    square roots."""
    out, sqrts = _variance_stats(scenario, vals, head, maxima)
    if sqrts is not None:
        out.update(_forward_stats(scenario, rep, grid, vals, sqrts))
    return out


def path_stats(scenario, rep, grid, vals):
    """The statistics of engine_path_stats without head roots or maxima,
    from the definitions: every sup from sup_norm_stack on a whole
    difference stack, every root from one psd_sqrt_batch call per whole
    path."""
    levels = scenario.levels
    run = scenario._run
    sup_hs, sup_op = [], []
    for path in vals[1:]:
        D = vals[0] - path
        sup_hs.append(sup_norm_stack(D, "hs"))
        sup_op.append(sup_norm_stack(D, "op"))
    out = {
        "sup_hs": np.array(sup_hs),
        "sup_sq_hs": np.array([s**2 for s in sup_hs]),
        "sup_op": np.array(sup_op),
    }
    if scenario.truncation != "jumps":
        return out
    sqrts = np.empty_like(vals)
    for p, n in enumerate((None, *levels)):
        try:
            sqrts[p] = psd_sqrt_batch(vals[p], block=n)
        except NotPositiveSemidefinite as exc:
            raise NotPositiveSemidefinite.at((p, *exc.index), exc.detail) from exc
    sqrt_hs, sqrt_op = [], []
    for root in sqrts[1:]:
        dS = sqrts[0] - root
        sqrt_hs.append(sup_norm_stack(dS, "hs"))
        sqrt_op.append(sup_norm_stack(dS, "op"))
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
