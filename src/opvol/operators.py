"""Finite-dimensional Hilbert space vectors and Hilbert-Schmidt operators.

The ambient space H is represented by coefficient vectors of length d against
a fixed orthonormal basis (e_1, ..., e_d).  Operators on H live in the tensor
basis e_j (x) e_k and are stored as dense d x d matrices with
entry[j, k] = (T e_k, e_j), so the coefficient array and the matrix of the
operator coincide.
"""

from __future__ import annotations

import numpy as np

# LAPACK's symmetric eigensolvers (dsyevd) rescale a matrix whose largest
# entry lies outside [2**-485, 2**485], and the rescaling rounds; inside that
# range a diagonal matrix comes back exactly, its diagonal as the eigenvalues
# and a permutation matrix as the eigenvectors.  A diagonal entry that is 0 or
# of size in [_EXACT_MIN, _EXACT_MAX] = [2**-433, 2**484] is a whole multiple
# of 2**-485 (the spacing of doubles at 2**-433), and so is the difference of
# two of them, rounded; its root sqrt(sqrt(x))**2 is at least 2**-217, a
# multiple of 2**-269.  So a matrix whose diagonal entries all lie there, any
# leading block of it, its root, and the difference of two such matrices or
# of their roots each have largest entry 0 or inside LAPACK's range.
_EXACT_MIN = 2.0**-433
_EXACT_MAX = 2.0**484


class NotPositiveSemidefinite(ValueError):
    """Raised when a matrix required to be PSD has an eigenvalue below -tol_psd.

    index is the position of that matrix in the batch, () for a single matrix.
    """

    def __init__(self, message: str, index: tuple[int, ...] = ()):
        super().__init__(message)
        self.index = tuple(int(k) for k in index)


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


def closed_form_diagonal(Ts: np.ndarray) -> np.ndarray:
    """Mask over the leading axes of a (..., d, d) stack: True where the matrix
    is diagonal (every off-diagonal entry is zero) and every diagonal entry is
    0 or of size in [_EXACT_MIN, _EXACT_MAX].

    On such matrices, on their leading blocks and on the differences of two
    of them or of their roots, LAPACK's eigh and eigvalsh return the sorted
    diagonal and a permutation matrix exactly, so their square roots
    (psd_sqrt_diagonal) and norms are known without calling them.  NaN and
    infinite entries fall outside the mask.
    """
    d = Ts.shape[-1]
    flat = Ts.reshape(*Ts.shape[:-2], d * d)
    off = flat != 0.0
    off[..., :: d + 1] = False
    size = np.abs(flat[..., :: d + 1])
    in_range = (size == 0.0) | ((size >= _EXACT_MIN) & (size <= _EXACT_MAX))
    return ~np.any(off, axis=-1) & np.all(in_range, axis=-1)


def _quarter_root(w: np.ndarray) -> np.ndarray:
    """sqrt(sqrt(max(w, 0))); clip turns -0.0 into +0.0, so every entry and
    every product of two entries is +0 or more."""
    return np.sqrt(np.sqrt(np.clip(w, 0.0, None)))


def _block_diagonal(Ts: np.ndarray, n: int) -> bool:
    """True when every matrix of the (..., d, d) stack is zero outside its
    leading n x n block and its tail diagonal, and that diagonal is finite.
    One exact sweep: a NaN (from 0 * inf, say) or any other nonzero entry
    makes it False."""
    d = Ts.shape[-1]
    outside = Ts != 0.0
    outside[..., :n, :n] = False
    # flat entry i (d + 1) is (i, i): the tail diagonal starts at i = n
    outside.reshape(*Ts.shape[:-2], d * d)[..., n * (d + 1) :: d + 1] = False
    tail = np.diagonal(Ts, axis1=-2, axis2=-1)[..., n:]
    return not np.any(outside) and bool(np.all(np.isfinite(tail)))


def _require_psd(spectra: np.ndarray) -> None:
    """Raise NotPositiveSemidefinite naming the first matrix whose spectrum,
    a row of the (..., d) spectra, has an eigenvalue below -tol_psd."""
    tol = tol_psd(np.max(np.abs(spectra), axis=-1))
    wmin = np.min(spectra, axis=-1)
    bad = wmin < -tol
    if np.any(bad):
        i = tuple(int(k) for k in np.unravel_index(int(np.argmax(bad)), bad.shape))
        raise NotPositiveSemidefinite(
            f"matrix {i} in batch: eigenvalue {wmin[i]:.6e} below -tol_psd = {-tol[i]:.6e}",
            index=i,
        )


def psd_sqrt_diagonal(w: np.ndarray) -> np.ndarray:
    """Diagonals sqrt(sqrt(clip(w, 0)))**2 of the PSD square roots of the
    diagonal matrices whose diagonals are the rows of w, (..., d), with the
    tolerance check and failure of psd_sqrt_batch.

    For matrices that closed_form_diagonal accepts this is psd_sqrt_batch's
    diagonal bit for bit: eigh returns their diagonal and a permutation
    matrix, and the M M^T product then squares each quarter root.
    """
    _require_psd(w)
    q = _quarter_root(w)
    return q * q


def psd_sqrt_batch(Ts: np.ndarray, block: int | None = None) -> np.ndarray:
    """Unique PSD square root of each matrix along the leading axes of a
    symmetric PSD (..., d, d) stack.

    Eigenvalues in [-tol_psd, 0) are treated as arithmetic noise and clamped
    to zero; a slot with an eigenvalue below -tol_psd raises
    NotPositiveSemidefinite naming the first such slot.

    Each root is M M^T with M = U diag(w^(1/4)) from the eigendecomposition
    U diag(w) U^T; numpy's matmul hands a product of a matrix with its own
    transpose to BLAS syrk and mirrors the triangle, so the root is
    symmetric bit for bit.

    With block = n < d, a stack whose entries are all zero outside the
    leading n x n block and the (finite) tail diagonal, checked exactly
    (_block_diagonal), takes blockdiag(sqrt(B), sqrt(tail)): eigh runs on the
    n x n blocks B only, and the tail root is sqrt(sqrt(clip(tail, 0)))**2,
    what eigh and the product give a diagonal.  The tolerance comes from the
    whole matrix's spectrum, the block's eigenvalues and the tail together.
    Any other stack, or block None or at least d, takes the full solve.
    """
    Ts = np.asarray(Ts, dtype=float)
    d = Ts.shape[-1]
    n = d if block is None or block >= d or not _block_diagonal(Ts, block) else block
    tail = np.diagonal(Ts, axis1=-2, axis2=-1)[..., n:]
    w, U = np.linalg.eigh(Ts[..., :n, :n])
    _require_psd(np.concatenate((w, tail), axis=-1))
    M = U * _quarter_root(w)[..., None, :]
    del U  # the output below is allocated after the eigenvectors are freed
    out = np.zeros_like(Ts)
    q = _quarter_root(tail)
    out.reshape(*Ts.shape[:-2], d * d)[..., n * (d + 1) :: d + 1] = q * q
    out[..., :n, :n] = M @ np.swapaxes(M, -2, -1)
    return out
