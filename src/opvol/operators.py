"""Finite-dimensional Hilbert space vectors and Hilbert-Schmidt operators.

The ambient space H is represented by coefficient vectors of length d against
a fixed orthonormal basis (e_1, ..., e_d).  Operators on H live in the tensor
basis e_j (x) e_k and are stored as dense d x d matrices with
entry[j, k] = (T e_k, e_j), so the coefficient array and the matrix of the
operator coincide.
"""

from __future__ import annotations

import numpy as np


class NotPositiveSemidefinite(ValueError):
    """Raised when a matrix required to be PSD has an eigenvalue below -tol_psd.

    index is the position of that matrix in the batch, () for a single
    matrix, and detail names the eigenvalue and the tolerance it fell below.
    """

    def __init__(self, message: str, index: tuple[int, ...] = (), detail: str = ""):
        super().__init__(message)
        self.index = tuple(int(k) for k in index)
        self.detail = detail

    @classmethod
    def at(cls, index: tuple[int, ...], detail: str) -> NotPositiveSemidefinite:
        """The failure of the matrix at index: "matrix {index} in batch: {detail}"."""
        index = tuple(int(k) for k in index)
        return cls(f"matrix {index} in batch: {detail}", index, detail)


def as_hilbert_vector(coeffs) -> np.ndarray:
    """Validate and return a coefficient vector (1-D, finite)."""
    f = np.asarray(coeffs, dtype=float)
    if f.ndim != 1:
        raise ValueError(f"expected a 1-D coefficient vector, got shape {f.shape}")
    if not np.all(np.isfinite(f)):
        raise ValueError("non-finite entries in Hilbert vector")
    return f


def tol_psd(op_norm):
    """Negative-eigenvalue tolerance: 1e-9 * (1 + ||T||op), elementwise on arrays."""
    return 1e-9 * (1.0 + op_norm)


def _quarter_root(w: np.ndarray) -> np.ndarray:
    """sqrt(sqrt(max(w, 0))); clip turns -0.0 into +0.0, so every entry and
    every product of two entries is +0 or more."""
    return np.sqrt(np.sqrt(np.clip(w, 0.0, None)))


def _require_psd(spectra: np.ndarray) -> None:
    """Raise NotPositiveSemidefinite naming the first matrix whose spectrum,
    a row of the (..., d) spectra, has an eigenvalue below -tol_psd."""
    tol = tol_psd(np.max(np.abs(spectra), axis=-1))
    wmin = np.min(spectra, axis=-1)
    bad = wmin < -tol
    if np.any(bad):
        i = tuple(int(k) for k in np.unravel_index(int(np.argmax(bad)), bad.shape))
        raise NotPositiveSemidefinite.at(i, f"eigenvalue {wmin[i]:.6e} below -tol_psd = {-tol[i]:.6e}")


def psd_sqrt_batch(Ts: np.ndarray, tail: np.ndarray | None = None,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Unique PSD square root of each matrix along the leading axes of a
    symmetric PSD (..., n, n) stack or, given the (..., m) tail, of each
    blockdiag(T, diag(tail)), (..., n + m, n + m).

    Eigenvalues in [-tol_psd, 0) are treated as arithmetic noise and clamped
    to zero; a slot with an eigenvalue below -tol_psd raises
    NotPositiveSemidefinite naming the first such slot.

    Each root of T is M M^T with M = U diag(w^(1/4)) from the
    eigendecomposition U diag(w) U^T; numpy's matmul hands a product of a
    matrix with its own transpose to BLAS syrk and mirrors the triangle, so
    the root is symmetric bit for bit.  The tail's root is
    sqrt(sqrt(clip(tail, 0)))**2, what eigh and the product give a
    diagonal, so eigh runs on the n x n blocks only; the tolerance comes
    from the whole matrix's spectrum, the eigenvalues of T and the tail
    together.

    The roots are written into out, a (..., n + m, n + m) float array,
    which is returned (a new one if out is None); every entry is written,
    and those off the n x n blocks and the tail's diagonal are +0.0.  M is
    formed in place in the eigenvector array eigh returned and M M^T goes
    straight into out's blocks, so no other stack of the roots' size is
    allocated.
    """
    Ts = np.asarray(Ts, dtype=float)
    n = Ts.shape[-1]
    tail = np.zeros((*Ts.shape[:-2], 0)) if tail is None else np.asarray(tail, dtype=float)
    d = n + tail.shape[-1]
    shape = (*Ts.shape[:-2], d, d)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape:
        raise ValueError(f"out has shape {out.shape}, the roots of these matrices {shape}")
    w, M = np.linalg.eigh(Ts)
    _require_psd(np.concatenate((w, tail), axis=-1))
    M *= _quarter_root(w)[..., None, :]
    out[..., :n, n:] = 0.0
    out[..., n:, :] = 0.0
    q = _quarter_root(tail)
    out[..., range(n, d), range(n, d)] = q * q
    np.matmul(M, np.swapaxes(M, -2, -1), out=out[..., :n, :n])
    return out
