from __future__ import annotations

import numpy as np
import pytest

from matcon import (
    HermitianMatrix,
    RectMatrix,
    as_hermitian,
    as_rect,
    dilation,
    eig_hermitian,
    loewner_leq,
    spectral_norm,
    trace,
)
from matcon.linalg import (
    as_stack,
    dilation_stack,
    frobenius_norms,
    hermitian_stack,
    spectral_norms,
)


def rand_hermitian(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return as_hermitian((g + g.conj().T) / 2)


def rand_rect(rng, d1, d2):
    return as_rect(rng.normal(size=(d1, d2)) + 1j * rng.normal(size=(d1, d2)))


class TestConstructors:
    def test_rect_shape_and_immutability(self):
        m = as_rect([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert m.shape == (3, 2)
        assert m.d1 == 3 and m.d2 == 2
        with pytest.raises((ValueError, TypeError)):
            m.array[0, 0] = 99.0

    def test_rect_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            as_rect([[np.inf, 0.0]])
        with pytest.raises(ValueError):
            as_rect([[np.nan]])

    def test_rect_rejects_bad_ndim(self):
        with pytest.raises(ValueError):
            as_rect(np.ones(3))
        with pytest.raises(ValueError):
            as_rect(np.ones((2, 2, 2)))

    def test_hermitian_symmetrizes_small_defect(self):
        h = as_hermitian([[1.0, 1e-14], [0.0, 2.0]])
        a = h.array
        assert np.allclose(a, a.conj().T)

    def test_hermitian_rejects_large_defect(self):
        with pytest.raises(ValueError):
            as_hermitian([[0.0, 1.0], [0.0, 0.0]])

    def test_hermitian_requires_square(self):
        with pytest.raises(ValueError):
            as_hermitian(np.zeros((2, 3)))

    def test_frobenius(self):
        assert frobenius_norms(np.array([[[3.0, 4.0]]], dtype=complex)) == pytest.approx([5.0])


class TestEig:
    def test_diagonal_sorted_descending(self):
        dec = eig_hermitian(as_hermitian(np.diag([3.0, 1.0, 2.0])))
        assert np.allclose(dec.eigenvalues, [3.0, 2.0, 1.0])
        assert dec.lambda_max == pytest.approx(3.0)
        assert dec.lambda_min == pytest.approx(1.0)

    def test_swap_matrix(self):
        dec = eig_hermitian(as_hermitian([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(dec.eigenvalues, [1.0, -1.0])
        # basis columns match (1,1)/sqrt2 and (1,-1)/sqrt2 up to phase
        for k, ref in enumerate([np.array([1.0, 1.0]), np.array([1.0, -1.0])]):
            u = dec.basis[:, k]
            ref = ref / np.sqrt(2.0)
            phase = np.vdot(ref, u)
            assert abs(abs(phase) - 1.0) < 1e-10
            assert np.linalg.norm(u - phase * ref) < 1e-10

    def test_two_by_two_closed_form(self):
        # oracle: quadratic-formula roots of the characteristic polynomial
        rng = np.random.default_rng(101)
        for _ in range(200):
            a, d = rng.normal(size=2)
            b = rng.normal() + 1j * rng.normal()
            h = as_hermitian(np.array([[a, b], [np.conj(b), d]]))
            half = 0.5 * (a + d)
            rad = np.sqrt(0.25 * (a - d) ** 2 + abs(b) ** 2)
            dec = eig_hermitian(h)
            assert abs(dec.eigenvalues[0] - (half + rad)) < 1e-10
            assert abs(dec.eigenvalues[1] - (half - rad)) < 1e-10

    def test_orthonormal_basis(self):
        rng = np.random.default_rng(7)
        h = rand_hermitian(rng, 6)
        dec = eig_hermitian(h)
        gram = dec.basis.conj().T @ dec.basis
        assert np.max(np.abs(gram - np.eye(6))) < 1e-10

    def test_reconstruction(self):
        rng = np.random.default_rng(8)
        for d in (1, 2, 5, 9):
            h = rand_hermitian(rng, d)
            dec = eig_hermitian(h)
            rebuilt = (dec.basis * dec.eigenvalues) @ dec.basis.conj().T
            scale = max(1.0, np.linalg.norm(h.array))
            assert np.linalg.norm(rebuilt - h.array) <= 1e-10 * scale
            assert np.linalg.norm(dec.reconstruct() - h.array) <= 1e-10 * scale

    def test_rayleigh_consistency(self):
        rng = np.random.default_rng(9)
        h = rand_hermitian(rng, 5)
        dec = eig_hermitian(h)
        for _ in range(1000):
            u = rng.normal(size=5) + 1j * rng.normal(size=5)
            u /= np.linalg.norm(u)
            q = np.real(np.vdot(u, h.array @ u))
            assert dec.lambda_min - 1e-9 <= q <= dec.lambda_max + 1e-9
        # extreme eigenvectors attain the extremes
        top = dec.basis[:, 0]
        bot = dec.basis[:, -1]
        assert np.real(np.vdot(top, h.array @ top)) == pytest.approx(dec.lambda_max, abs=1e-9)
        assert np.real(np.vdot(bot, h.array @ bot)) == pytest.approx(dec.lambda_min, abs=1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        h = rand_hermitian(rng, 4)
        d1 = eig_hermitian(h)
        d2 = eig_hermitian(as_hermitian(h.array.copy()))
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
        assert np.array_equal(d1.basis, d2.basis)


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(as_rect(np.eye(3))) == pytest.approx(1.0)

    def test_single_singular_value(self):
        assert spectral_norm(as_rect([[0.0, 2.0], [0.0, 0.0]])) == pytest.approx(2.0)

    def test_power_iteration_oracle(self):
        # independent oracle: power iteration on M*M
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = rand_rect(rng, 4, 3).array
            gram = m.conj().T @ m
            x = rng.normal(size=3) + 1j * rng.normal(size=3)
            x /= np.linalg.norm(x)
            for _ in range(500):
                x = gram @ x
                x /= np.linalg.norm(x)
            lam = np.real(np.vdot(x, gram @ x))
            got = spectral_norm(as_rect(m))
            assert abs(got - np.sqrt(lam)) <= 1e-8 * max(1.0, np.sqrt(lam))

    def test_matches_dilation_norm(self):
        rng = np.random.default_rng(12)
        for d1, d2 in [(2, 5), (5, 2), (3, 3)]:
            m = rand_rect(rng, d1, d2)
            assert spectral_norm(m) == pytest.approx(
                spectral_norm(dilation(m)), abs=1e-10
            )

    def test_hermitian_input_accepted(self):
        h = as_hermitian(np.diag([3.0, -4.0]))
        assert spectral_norm(h) == pytest.approx(4.0)


class TestLoewner:
    def test_zero_below_identity(self):
        z = as_hermitian(np.zeros((3, 3)))
        assert loewner_leq(z, as_hermitian(np.eye(3)))

    def test_diagonal_comparison(self):
        a = as_hermitian(np.diag([1.0, 2.0]))
        h = as_hermitian(np.diag([2.0, 2.0]))
        assert loewner_leq(a, h)
        assert not loewner_leq(h, a)

    def test_rank_one_bump(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            a = as_hermitian(g @ g.conj().T)
            v = rng.normal(size=(4, 1)) + 1j * rng.normal(size=(4, 1))
            h = as_hermitian(a.array + v @ v.conj().T)
            assert loewner_leq(a, h, tol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            loewner_leq(as_hermitian(np.eye(2)), as_hermitian(np.eye(3)))

    def test_eigenvalue_monotonicity(self):
        # A below H in the semidefinite order forces lambda_max(A) <= lambda_max(H)
        rng = np.random.default_rng(14)
        for _ in range(50):
            a = rand_hermitian(rng, 4)
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            h = as_hermitian(a.array + g @ g.conj().T)
            assert loewner_leq(a, h, tol=1e-10)
            la = eig_hermitian(a).lambda_max
            lh = eig_hermitian(h).lambda_max
            assert la <= lh + 1e-9


class TestPowerTraceDilation:
    def test_power_matches_eigenvalue_powers(self):
        rng = np.random.default_rng(16)
        h = rand_hermitian(rng, 5)
        lam = eig_hermitian(h).eigenvalues
        lam4 = np.sort(lam**4)[::-1]
        h4 = as_hermitian(np.linalg.matrix_power(h.array, 4))
        got = eig_hermitian(h4).eigenvalues
        assert np.max(np.abs(got - lam4)) < 1e-9
        # even powers are positive semidefinite
        zero = as_hermitian(np.zeros((5, 5)))
        assert loewner_leq(zero, h4, tol=1e-9)

    def test_norm_power_identity(self):
        rng = np.random.default_rng(17)
        h = rand_hermitian(rng, 4)
        nrm = spectral_norm(h)
        for p in range(5):
            lhs = nrm ** (2 * p)
            rhs = spectral_norm(np.linalg.matrix_power(h.array, 2 * p))
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, rhs)

    def test_trace_identity(self):
        assert trace(as_rect(np.eye(3))) == pytest.approx(3.0)

    def test_trace_cyclicity(self):
        rng = np.random.default_rng(18)
        b = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        c = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        assert abs(trace(as_rect(b @ c)) - trace(as_rect(c @ b))) < 1e-12

    def test_trace_equals_eigenvalue_sum(self):
        rng = np.random.default_rng(19)
        h = rand_hermitian(rng, 6)
        assert abs(trace(h) - np.sum(eig_hermitian(h).eigenvalues)) < 1e-10

    def test_trace_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            trace(as_rect(np.ones((2, 3))))

    def test_norm_trace_bound_psd(self):
        rng = np.random.default_rng(20)
        for _ in range(25):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            a = as_hermitian(g @ g.conj().T)
            assert spectral_norm(a) <= np.real(trace(a)) + 1e-10

    def test_dilation_layout(self):
        d = dilation(as_rect([[1.0]]))
        assert np.allclose(d.array, [[0.0, 1.0], [1.0, 0.0]])

    def test_dilation_square_is_block_diagonal(self):
        rng = np.random.default_rng(21)
        b = rand_rect(rng, 3, 2).array
        sq = np.linalg.matrix_power(dilation(as_rect(b)).array, 2)
        want = np.zeros((5, 5), dtype=complex)
        want[:3, :3] = b @ b.conj().T
        want[3:, 3:] = b.conj().T @ b
        assert np.linalg.norm(sq - want) < 1e-12 * max(1.0, np.linalg.norm(want))

    def test_dilation_real_linear(self):
        rng = np.random.default_rng(22)
        b = rand_rect(rng, 2, 3).array
        c = rand_rect(rng, 2, 3).array
        lhs = dilation(as_rect(2.0 * b - 0.5 * c)).array
        rhs = 2.0 * dilation(as_rect(b)).array - 0.5 * dilation(as_rect(c)).array
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestStacks:
    """Stack helpers give bit-identical values to the per-matrix operations."""

    @pytest.mark.parametrize("shape", [(1, 1), (3, 3), (6, 6), (2, 5), (7, 3)])
    def test_norms_match_per_matrix(self, shape):
        rng = np.random.default_rng(sum(shape))
        a = rng.normal(size=(40,) + shape) + 1j * rng.normal(size=(40,) + shape)
        assert np.array_equal(
            frobenius_norms(a), [np.linalg.norm(m, ord="fro") for m in a]
        )
        assert np.array_equal(spectral_norms(a), [spectral_norm(m) for m in a])
        # a strided view, as the block norms of a dilation square take
        view = a[:, : shape[0] // 2 + 1, 1:]
        if view.size:
            assert np.array_equal(
                frobenius_norms(view), [np.linalg.norm(m, ord="fro") for m in view]
            )

    def test_hermitian_stack_matches_hermitian_matrix(self):
        rng = np.random.default_rng(71)
        a = np.stack([rand_hermitian(rng, 4).array for _ in range(10)])
        a = a + 1e-14 * rng.normal(size=a.shape)
        sym, defect = hermitian_stack(a)
        for k in range(10):
            h = HermitianMatrix(a[k])
            assert np.array_equal(sym[k], h.array)
            assert defect[k] == h.defect

    def test_hermitian_stack_reports_first_bad_matrix(self):
        a = np.zeros((4, 2, 2), dtype=np.complex128)
        a[1, 0, 1] = 1.0
        a[3, 0, 1] = 2.0
        with pytest.raises(ValueError, match="defect 7.071e-01"):
            hermitian_stack(a)

    def test_dilation_stack_matches_dilation(self):
        rng = np.random.default_rng(72)
        b = rng.normal(size=(5, 2, 3)) + 1j * rng.normal(size=(5, 2, 3))
        got = dilation_stack(b)
        for k in range(5):
            assert np.array_equal(got[k], dilation(b[k]).array)

    def test_as_stack_validates_once(self):
        assert as_stack([np.eye(2), as_hermitian(np.eye(2))]).shape == (2, 2, 2)
        with pytest.raises(ValueError, match="share one shape"):
            as_stack([np.eye(2), np.eye(3)])
        with pytest.raises(ValueError, match="2-d"):
            as_stack([np.ones(3)])
        with pytest.raises(ValueError, match="finite"):
            as_stack([np.eye(2), np.full((2, 2), np.inf)])
