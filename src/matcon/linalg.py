"""The dense complex matrix layer everything else is built on: validated
2-d matrices and equal-shape stacks, the immutable HermitianMatrix, the
spectral norm and the Hermitian dilation.

Conventions: complex128 throughout; the spectral norm of a rectangular
matrix is computed from the Gram matrix of the smaller dimension.  The
*_stack / *_norms helpers work on (k, d1, d2) stacks; each of their results
is bit-identical to the single-matrix operation on that matrix.
"""

from __future__ import annotations

import numpy as np

_HERMITIAN_DEFECT_REL = 1e-12


def require_finite(a: np.ndarray) -> np.ndarray:
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def _coerce_array(data) -> np.ndarray:
    """A 2-d matrix (array or matrix object) as complex128, with finite
    entries."""
    a = np.asarray(getattr(data, "array", data), dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    return require_finite(a)


def as_stack(mats, mismatch: str = "matrices must share one shape") -> np.ndarray:
    """(k, d1, d2) complex128 stack of k >= 1 equal-shape matrices (arrays or
    matrix objects) with finite entries; `mismatch` is the error for unequal
    shapes."""
    arrays = [getattr(m, "array", m) for m in mats]
    if len({np.shape(a) for a in arrays}) != 1:
        raise ValueError(mismatch)
    a = np.array(arrays, dtype=np.complex128)
    if a.ndim != 3 or 0 in a.shape:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape[1:]}")
    return require_finite(a)


def frobenius_norms(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a complex (k, ...) stack.

    Each norm takes the same two dot products as np.linalg.norm(m, "fro"),
    so the values are identical to the per-matrix call.
    """
    flat = a.reshape(len(a), -1)
    re, im = flat.real, flat.imag
    sq = re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None]
    return np.sqrt(sq[:, 0, 0])


def hermitian_stack(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian parts (M + M*)/2 of a finite complex (k, d, d) stack, and
    the defects ||M - (M + M*)/2||_F.

    Raises for the first matrix whose defect exceeds 1e-12 * max(1, ||M||_F).
    """
    if a.shape[-2] != a.shape[-1]:
        raise ValueError(f"Hermitian matrix must be square, got {a.shape[-2:]}")
    sym = (a + a.conj().transpose(0, 2, 1)) / 2.0
    defect = frobenius_norms(a - sym)
    limit = _HERMITIAN_DEFECT_REL * np.maximum(1.0, frobenius_norms(a))
    bad = np.flatnonzero(defect > limit)
    if bad.size:
        i = bad[0]
        raise ValueError(
            f"input is not Hermitian: defect {defect[i]:.3e} exceeds {limit[i]:.3e}"
        )
    return sym, defect


def gram_top_eigenvalues(z: np.ndarray) -> np.ndarray:
    """Top eigenvalue of the symmetrized Gram matrix of the smaller side of
    each matrix of a complex (k, d1, d2) stack: its squared spectral norm,
    up to rounding.  Raises when a Gram matrix overflows (entries above about
    1e154); its diagonal suffices, as |g_ij| <= sqrt(g_ii g_jj)."""
    zh = z.conj().transpose(0, 2, 1)
    # an overflow shows as a non-finite diagonal, checked below
    with np.errstate(over="ignore", invalid="ignore"):
        gram = z @ zh if z.shape[1] <= z.shape[2] else zh @ z
        del zh
        # (gram + gram*) / 2, in place on the conjugate's buffer
        sym = gram.conj().transpose(0, 2, 1)
        sym += gram
        sym /= 2.0
        del gram
    if not np.isfinite(np.diagonal(sym, axis1=1, axis2=2)).all():
        raise ValueError("matrix entries too large: the Gram matrix overflows")
    return np.linalg.eigvalsh(sym)[:, -1]


def spectral_norms(a: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix of a complex (k, d1, d2) stack;
    each equals spectral_norm of that matrix."""
    return np.sqrt(np.maximum(gram_top_eigenvalues(a), 0.0))


class HermitianMatrix:
    """Immutable Hermitian matrix.

    The constructor symmetrizes its input to (M + M*)/2 and records the
    pre-symmetrization defect ||M - sym(M)||_F.  Inputs whose defect exceeds
    1e-12 * max(1, ||M||_F) are rejected: every downstream fact assumes exact
    Hermitian structure, so near-misses are treated as caller bugs rather than
    silently projected.
    """

    __slots__ = ("array", "defect")

    def __init__(self, data):
        sym, defect = hermitian_stack(_coerce_array(data)[None])
        sym = sym[0]
        sym.setflags(write=False)
        object.__setattr__(self, "array", sym)
        object.__setattr__(self, "defect", float(defect[0]))

    def __setattr__(self, name, value):
        raise AttributeError("HermitianMatrix is immutable")

    @property
    def shape(self) -> tuple[int, int]:
        return self.array.shape


def as_hermitian(M) -> HermitianMatrix:
    return M if isinstance(M, HermitianMatrix) else HermitianMatrix(M)


def spectral_norm(M) -> float:
    """Largest singular value, via the Gram matrix of the smaller dimension."""
    return float(spectral_norms(_coerce_array(M)[None])[0])


def dilation_stack(b: np.ndarray) -> np.ndarray:
    """Dilations [[0, B], [B*, 0]] of each matrix of a complex (k, d1, d2)
    stack, as a (k, d1 + d2, d1 + d2) array."""
    k, d1, d2 = b.shape
    out = np.zeros((k, d1 + d2, d1 + d2), dtype=np.complex128)
    out[:, :d1, d1:] = b
    out[:, d1:, :d1] = b.conj().transpose(0, 2, 1)
    return out
