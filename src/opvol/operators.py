"""Finite-dimensional Hilbert space vectors and Hilbert-Schmidt operators.

The ambient space H is represented by coefficient vectors of length d against
a fixed orthonormal basis (e_1, ..., e_d).  Operators on H live in the tensor
basis e_j (x) e_k and are stored as dense d x d matrices with
entry[j, k] = (T e_k, e_j), so the coefficient array and the matrix of the
operator coincide.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import expm

# Coefficient vector in H (shape (d,)) and operator in the tensor basis
# (shape (d, d)).  Plain arrays; the helpers below validate on entry.
HilbertVector = np.ndarray
HSOperator = np.ndarray

SYM_TOL = 1e-12  # certification threshold for self-adjointness


class NotPositiveSemidefinite(ValueError):
    """Raised when a matrix required to be PSD has an eigenvalue below -tol_psd."""


def as_hilbert_vector(coeffs, d: int | None = None) -> HilbertVector:
    """Validate and return a coefficient vector (1-D, finite, length d if given)."""
    f = np.asarray(coeffs, dtype=float)
    if f.ndim != 1:
        raise ValueError(f"expected a 1-D coefficient vector, got shape {f.shape}")
    if d is not None and f.shape[0] != d:
        raise ValueError(f"expected dimension {d}, got {f.shape[0]}")
    if not np.all(np.isfinite(f)):
        raise ValueError("non-finite entries in Hilbert vector")
    return f


def as_hs_operator(entries, d: int | None = None) -> HSOperator:
    """Validate and return an operator matrix (square, finite)."""
    T = np.asarray(entries, dtype=float)
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {T.shape}")
    if d is not None and T.shape[0] != d:
        raise ValueError(f"expected dimension {d}, got {T.shape[0]}")
    if not np.all(np.isfinite(T)):
        raise ValueError("non-finite entries in operator")
    return T


def is_self_adjoint(T: HSOperator, tol: float = SYM_TOL) -> bool:
    return bool(np.max(np.abs(T - T.T)) <= tol)


def tensor_product(f: HilbertVector, g: HilbertVector) -> HSOperator:
    """Rank-one operator f (x) g, acting as h -> (g, h) f.

    Its matrix has entry[j, k] = f_j g_k, hence equals the outer product.
    """
    f = as_hilbert_vector(f)
    g = as_hilbert_vector(g, d=f.shape[0])
    return np.outer(f, g)


def singular_values(T: HSOperator, self_adjoint: bool | None = None) -> np.ndarray:
    """Singular values of T, descending.

    Self-adjoint inputs (certified or detected at SYM_TOL) use the eigenvalues
    of T directly; otherwise the eigenvalues of T*T are used.
    """
    T = as_hs_operator(T)
    if self_adjoint is None:
        self_adjoint = is_self_adjoint(T)
    if self_adjoint:
        s = np.abs(np.linalg.eigvalsh(T))
    else:
        w = np.linalg.eigvalsh(T.T @ T)
        # Squaring T loses half the precision near zero; eigenvalues of T*T
        # below the numerical-rank threshold are noise, not tiny singular values.
        if w.size:
            w[w < w.max() * T.shape[0] * np.finfo(float).eps] = 0.0
        s = np.sqrt(np.clip(w, 0.0, None))
    return np.sort(s)[::-1]


def norm(T: HSOperator, mode: str = "hs", self_adjoint: bool | None = None) -> float:
    """Operator norm in one of the three modes: hs, op, trace."""
    T = as_hs_operator(T)
    if mode == "hs":
        return float(np.linalg.norm(T))
    s = singular_values(T, self_adjoint=self_adjoint)
    if mode == "op":
        return float(s[0]) if s.size else 0.0
    if mode == "trace":
        return float(s.sum())
    raise ValueError(f"unknown norm mode {mode!r}")


def tol_psd(op_norm: float) -> float:
    """Negative-eigenvalue tolerance: 1e-9 * (1 + ||T||op)."""
    return 1e-9 * (1.0 + op_norm)


def psd_sqrt(T: HSOperator) -> HSOperator:
    """Unique PSD square root of a self-adjoint PSD matrix.

    Eigenvalues in [-tol_psd, 0) are treated as arithmetic noise and clamped
    to zero; anything below -tol_psd raises NotPositiveSemidefinite.
    """
    T = as_hs_operator(T)
    if not is_self_adjoint(T):
        raise ValueError("psd_sqrt requires a self-adjoint matrix")
    w, U = np.linalg.eigh(T)
    tol = tol_psd(float(np.max(np.abs(w))) if w.size else 0.0)
    if w.size and w[0] < -tol:
        raise NotPositiveSemidefinite(
            f"eigenvalue {w[0]:.6e} below -tol_psd = {-tol:.6e}"
        )
    w = np.clip(w, 0.0, None)
    return (U * np.sqrt(w)) @ U.T


def psd_sqrt_batch(Ts: np.ndarray) -> np.ndarray:
    """psd_sqrt applied along the first axis of a (G, d, d) stack."""
    w, U = np.linalg.eigh(Ts)
    opn = np.max(np.abs(w), axis=-1)
    tol = 1e-9 * (1.0 + opn)
    wmin = w[..., 0]
    bad = wmin < -tol
    if np.any(bad):
        i = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise NotPositiveSemidefinite(
            f"matrix {i} in batch: eigenvalue {wmin[i]:.6e} below -tol_psd = {-tol[i]:.6e}"
        )
    w = np.clip(w, 0.0, None)
    return np.einsum("...ij,...j,...kj->...ik", U, np.sqrt(w), U)


def matrix_exp(T: HSOperator, t: float = 1.0) -> HSOperator:
    """exp(tT) via scaling-and-squaring (scipy's Pade implementation)."""
    T = as_hs_operator(T)
    return expm(t * T)


@dataclass(frozen=True, eq=False)
class ProjectionSpec:
    """Coordinate projection onto span{e_j (x) e_k : (j, k) in the index set}.

    Indices are 1-based.  The convenience constructor `level(n, d)` builds the
    nested family J_n = {(j, k): j + k <= n}.
    """

    dim: int
    pairs: frozenset[tuple[int, int]]

    def __post_init__(self):
        for j, k in self.pairs:
            if not (1 <= j <= self.dim and 1 <= k <= self.dim):
                raise ValueError(f"index pair ({j}, {k}) outside 1..{self.dim}")

    @classmethod
    def level(cls, n: int, dim: int) -> "ProjectionSpec":
        pairs = frozenset(
            (j, k)
            for j in range(1, dim + 1)
            for k in range(1, dim + 1)
            if j + k <= n
        )
        return cls(dim=dim, pairs=pairs)

    @classmethod
    def corner(cls, n: int, dim: int) -> "ProjectionSpec":
        """Index set {j <= n, k <= n}: compression to the span of the first n
        basis vectors.  This one is a congruence T -> P T P, so it preserves
        positivity and matches coordinate truncation of vectors (f (x) g maps
        to f^n (x) g^n)."""
        pairs = frozenset(
            (j, k) for j in range(1, n + 1) for k in range(1, n + 1)
        )
        return cls(dim=dim, pairs=pairs)

    @classmethod
    def full(cls, dim: int) -> "ProjectionSpec":
        return cls.level(2 * dim, dim)

    @cached_property
    def mask(self) -> np.ndarray:
        m = np.zeros((self.dim, self.dim), dtype=bool)
        for j, k in self.pairs:
            m[j - 1, k - 1] = True
        return m

def project_operator(T: HSOperator, P: ProjectionSpec) -> HSOperator:
    """Pi_n T: zero every entry outside the index set."""
    T = as_hs_operator(T, d=P.dim)
    return np.where(P.mask, T, 0.0)
