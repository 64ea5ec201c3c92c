"""The dense complex matrix layer everything else is built on: validated
2-d matrices and equal-shape stacks, the immutable HermitianMatrix, the
spectral norm and the Hermitian dilation.

Conventions: complex128 throughout, except that a real stack may take
the spectral norm in real arithmetic; the spectral norm of a rectangular
matrix is computed from the Gram matrix of the smaller dimension.  The
*_stack / *_norms helpers work on (k, d1, d2) stacks; each of their results
is bit-identical to the single-matrix operation on that matrix.
"""

from __future__ import annotations

import math

import numpy as np

_HERMITIAN_DEFECT_REL = 1e-12


def as_stack(mats, mismatch: str = "matrices must share one shape") -> np.ndarray:
    """(k, d1, d2) complex128 stack of k >= 1 equal-shape matrices (arrays or
    matrix objects) with finite entries; `mismatch` is the error for unequal
    shapes.  as_stack([m])[0] is the validated 2-d matrix m."""
    arrays = [getattr(m, "array", m) for m in mats]
    if len({np.shape(a) for a in arrays}) != 1:
        raise ValueError(mismatch)
    a = np.array(arrays, dtype=np.complex128)
    if a.ndim != 3 or 0 in a.shape:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape[1:]}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def frobenius_norms(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a complex (k, ...) stack.

    Each norm takes the same two dot products as np.linalg.norm(m, "fro"),
    so the values are identical to the per-matrix call.
    """
    flat = a.reshape(len(a), -1)
    re, im = flat.real, flat.imag
    sq = re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None]
    return np.sqrt(sq[:, 0, 0])


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(M + M*)/2 of each matrix of a (..., d, d) stack: exactly Hermitian."""
    return (a + a.conj().swapaxes(-1, -2)) / 2.0


def hermitian_stack(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian parts (M + M*)/2 of a finite complex (k, d, d) stack, and
    the defects ||M - (M + M*)/2||_F.

    Raises for the first matrix whose defect exceeds 1e-12 * max(1, ||M||_F).
    """
    if a.shape[-2] != a.shape[-1]:
        raise ValueError(f"Hermitian matrix must be square, got {a.shape[-2:]}")
    # entries near the float limit overflow (M + M*)/2, refused here
    with np.errstate(over="ignore", invalid="ignore"):
        sym = hermitian_part(a)
    if not np.isfinite(sym).all():
        raise ValueError("matrix entries too large: the Hermitian part overflows")
    # both norms are taken of each matrix scaled by the power of two just
    # above its largest entry: exact, and no square overflows
    scale = np.ldexp(1.0, -np.frexp(np.abs(a).max(axis=(1, 2)))[1])
    defect = frobenius_norms((a - sym) * scale[:, None, None])
    limit = _HERMITIAN_DEFECT_REL * np.maximum(scale, frobenius_norms(a * scale[:, None, None]))
    bad = np.flatnonzero(defect > limit)
    defect /= scale
    if bad.size:
        i = bad[0]
        raise ValueError(
            f"input is not Hermitian: defect {defect[i]:.3e} exceeds {limit[i] / scale[i]:.3e}"
        )
    return sym, defect


def gram_top_eigenvalues(z: np.ndarray) -> np.ndarray:
    """Top eigenvalue of the symmetrized Gram matrix of the smaller side of
    each matrix of a real or complex (k, d1, d2) stack: its squared spectral
    norm, up to rounding.  A real stack keeps a real Gram matrix.  Raises
    when a Gram matrix overflows (entries above about 1e154); its diagonal
    suffices, as |g_ij| <= sqrt(g_ii g_jj)."""
    zh = np.conjugate(z).transpose(0, 2, 1)
    # an overflow shows as a non-finite diagonal, checked below
    with np.errstate(over="ignore", invalid="ignore"):
        gram = z @ zh if z.shape[1] <= z.shape[2] else zh @ z
        del zh
        # (gram + gram*) / 2, in place on the conjugate's buffer
        sym = np.conjugate(gram).transpose(0, 2, 1)
        sym += gram
        sym /= 2.0
        del gram
    _check_gram(np.diagonal(sym, axis1=1, axis2=2))
    return np.linalg.eigvalsh(sym)[:, -1]


def _check_gram(diagonal: np.ndarray) -> None:
    if not np.isfinite(diagonal).all():
        raise ValueError("matrix entries too large: the Gram matrix overflows")


def spectral_norms(a: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix of a real or complex
    (k, d1, d2) stack; each equals spectral_norm of that matrix."""
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
        sym, defect = hermitian_stack(as_stack([data]))
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
    """Largest singular value, via the Gram matrix of the smaller dimension.

    A real diagonal matrix skips the eigensolver: its Gram matrix is
    diag(a_ii^2), symmetrized as (g + g*)/2, so the norm is the root of the
    largest a_ii^2, with the same overflow error.  That equals the Gram
    route bit for bit while LAPACK leaves the matrix unscaled (squares
    within about 1e-146..1e146).
    """
    a = as_stack([M])[0]
    diag = np.diagonal(a).real
    if a.imag.any() or np.count_nonzero(a) != np.count_nonzero(diag):
        return float(spectral_norms(a[None])[0])
    with np.errstate(over="ignore"):
        sq = diag * diag
        _check_gram(sq + sq)
    return math.sqrt(sq.max())


def dilation_stack(b: np.ndarray) -> np.ndarray:
    """Dilations [[0, B], [B*, 0]] of each matrix of a complex (k, d1, d2)
    stack, as a (k, d1 + d2, d1 + d2) array."""
    k, d1, d2 = b.shape
    out = np.zeros((k, d1 + d2, d1 + d2), dtype=np.complex128)
    out[:, :d1, d1:] = b
    out[:, d1:, :d1] = b.conj().transpose(0, 2, 1)
    return out
