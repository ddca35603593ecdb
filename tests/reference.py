"""Reference helpers the tests share.

variance_path runs one variance path through the engine's evolve_coupled,
psd_sqrt takes one matrix through the engine's psd_sqrt_batch,
default_generator_scenario is the reference scenario in generator mode, and
by_id picks a result's rows of one bound.  The others are built straight
from the definitions: generator_matrix is the explicit d^2 x d^2 matrix of a
generator on row-major vec(T), which the expm reference paths use; project
is Pi_n T for a ProjectionSpec; and corner is the compression that jump
truncation applies, P T P with P the projection onto the first n
coordinates.
"""

import numpy as np

from opvol.experiments import default_scenario
from opvol.operators import as_hs_operator, is_self_adjoint, psd_sqrt_batch
from opvol.variance import VariancePath, evolve_coupled, make_stepper


def variance_path(v0, spec, stream, grid, level=None):
    """Path of V (level None) or of the level-n approximant V^n, driven by
    the stream's exact or truncated jumps; the grid must hold every jump
    time of the stream's clock."""
    v0 = np.asarray(v0, dtype=float)
    jumps = stream.jumps if level is None else stream.approx_jumps(level)
    values = evolve_coupled(v0[None], [make_stepper(spec)], [jumps], grid)[0]
    return VariancePath(grid=grid, values=values)


def psd_sqrt(T):
    """Unique PSD square root of one self-adjoint PSD matrix."""
    T = as_hs_operator(T)
    if not is_self_adjoint(T):
        raise ValueError("psd_sqrt requires a self-adjoint matrix")
    return psd_sqrt_batch(T[None])[0]


def default_generator_scenario(replications=2000, master_seed=1729):
    return default_scenario(replications=replications, master_seed=master_seed,
                            truncation="generator")


def by_id(result, bound_id):
    """The result's rows of one bound, in level order."""
    return tuple(r for r in result.reports if r.bound_id == bound_id)


def generator_matrix(spec):
    """Explicit d^2 x d^2 matrix of the (compressed) action on row-major vec(T)."""
    d = spec.dim
    if spec.kind == "sandwich":
        K = np.kron(spec.C, spec.C)
    else:
        eye = np.eye(d)
        K = np.kron(spec.C, eye) + np.kron(eye, spec.C)
    if spec.projection is not None:
        p = spec.projection.mask.reshape(-1).astype(float)
        K = K * p[:, None] * p[None, :]
    return K


def project(T, P):
    """Pi_n T: every entry outside the index set of P zeroed."""
    return np.where(P.mask, T, 0.0)


def corner(T, n):
    """T with every entry outside the leading n x n block zeroed."""
    out = np.array(T, dtype=float)
    out[n:] = 0.0
    out[:, n:] = 0.0
    return out
