"""Reference helpers the tests share.

variance_path runs one variance path through the engine's evolve_coupled.
The others are built straight from the definitions: generator_matrix is
the explicit d^2 x d^2 matrix of a generator on row-major vec(T), which the
expm reference paths use; project is Pi_n T for a ProjectionSpec; and corner
is the compression that jump truncation applies, P T P with P the
projection onto the first n coordinates.
"""

import numpy as np

from opvol.variance import VariancePath, evolve_coupled, make_stepper


def variance_path(v0, spec, stream, grid, level=None):
    """Path of V (level None) or of the level-n approximant V^n, driven by
    the stream's exact or truncated jumps; the grid must hold every jump
    time of the stream's clock."""
    v0 = np.asarray(v0, dtype=float)
    jumps = stream.jumps if level is None else stream.approx_jumps(level)
    values = evolve_coupled(v0[None], [make_stepper(spec)], [jumps], grid)[0]
    return VariancePath(grid=grid, values=values, generator=spec, v0=v0)


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
