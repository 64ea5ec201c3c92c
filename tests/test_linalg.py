from __future__ import annotations

import re

import numpy as np
import pytest

from matcon import (
    FactCase,
    HermitianMatrix,
    analytic_second_moments,
    as_hermitian,
    make_example,
    spectral_norm,
    verify_fact,
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
    return rng.normal(size=(d1, d2)) + 1j * rng.normal(size=(d1, d2))


def dilation(b):
    return dilation_stack(np.asarray(b, dtype=np.complex128)[None])[0]


class TestConstructors:
    def test_rect_rejects_nonfinite(self):
        for bad in ([[np.inf, 0.0]], [[np.nan]]):
            with pytest.raises(ValueError):
                spectral_norm(bad)
            with pytest.raises(ValueError):
                FactCase.dilation_square(bad)

    def test_rect_rejects_bad_ndim(self):
        for bad in (np.ones(3), np.ones((2, 2, 2)), np.ones((0, 3))):
            message = re.escape(f"expected a 2-d matrix, got shape {bad.shape}")
            with pytest.raises(ValueError, match=message):
                spectral_norm(bad)
            with pytest.raises(ValueError, match=message):
                FactCase.dilation_square(bad)
            with pytest.raises(ValueError, match=message):
                as_hermitian(bad)

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

    @pytest.mark.filterwarnings("error")
    def test_hermitian_part_overflow_refused_without_warning(self):
        # (M + M*)/2 of an entry near the float limit overflows; an entry that
        # only overflows the Frobenius norm is accepted as before
        with pytest.raises(ValueError, match="the Hermitian part overflows"):
            as_hermitian([[1e308, 0.5], [0.5, -1.0]])
        assert as_hermitian(np.diag([1e160, 1.0])).defect == 0.0

    @pytest.mark.filterwarnings("error")
    def test_defect_that_overflows_its_norm_refused(self):
        # the defect's Frobenius norm overflows, the limit too; both are
        # compared on the matrix scaled to its largest entry
        with pytest.raises(ValueError, match="input is not Hermitian"):
            as_hermitian([[1.0, 1e300], [0.5, -1.0]])
        assert as_hermitian([[1.0, 1e300], [1e300, -1.0]]).defect == 0.0

    def test_defects_unchanged_by_the_scaling(self):
        rng = np.random.default_rng(72)
        a = np.stack([rand_hermitian(rng, 5).array for _ in range(20)])
        a = a * 10.0 ** rng.uniform(-30, 30, size=(20, 1, 1))
        a = a + 1e-14 * np.abs(a).max(axis=(1, 2), keepdims=True) * rng.normal(size=a.shape)
        sym, defect = hermitian_stack(a)
        assert np.array_equal(sym, (a + a.conj().transpose(0, 2, 1)) / 2.0)
        assert np.array_equal(defect, frobenius_norms(a - sym))

    def test_frobenius(self):
        assert frobenius_norms(np.array([[[3.0, 4.0]]], dtype=complex)) == pytest.approx([5.0])


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(3)) == pytest.approx(1.0)

    def test_single_singular_value(self):
        assert spectral_norm([[0.0, 2.0], [0.0, 0.0]]) == pytest.approx(2.0)

    def test_power_iteration_oracle(self):
        # independent oracle: power iteration on M*M
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = rand_rect(rng, 4, 3)
            gram = m.conj().T @ m
            x = rng.normal(size=3) + 1j * rng.normal(size=3)
            x /= np.linalg.norm(x)
            for _ in range(500):
                x = gram @ x
                x /= np.linalg.norm(x)
            lam = np.real(np.vdot(x, gram @ x))
            got = spectral_norm(m)
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

    def test_overflowing_gram_rejected(self):
        # squaring an entry above about 1.3e154 overflows the Gram matrix
        stack = np.array([np.eye(2), np.diag([1e160, 2.0])], dtype=np.complex128)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="Gram matrix overflows"):
                spectral_norm(np.diag([1e200, 1.0]))
            with pytest.raises(ValueError, match="Gram matrix overflows"):
                spectral_norms(stack)
        assert spectral_norm(np.diag([1e150, 1.0])) == pytest.approx(1e150)


def gram_route_norm(m) -> float:
    return float(spectral_norms(as_stack([m]))[0])


class TestDiagonalNorm:
    """spectral_norm of a real diagonal matrix skips the eigensolver and
    equals the Gram route bit for bit."""

    @pytest.mark.parametrize(
        "name,d,n",
        [("sec71", d, n) for d in (16, 64, 256) for n in (100, 400)]
        + [("sec72", 64, 100), ("sec74", 128, 1)],
    )
    def test_moment_matrices(self, name, d, n):
        for m in analytic_second_moments(make_example(name, d=d, n=n)):
            assert spectral_norm(m) == gram_route_norm(m)

    def test_random_diagonals(self):
        rng = np.random.default_rng(73)
        for _ in range(2000):
            # mostly small: the Gram route's eigensolver is the cost
            d = int(rng.integers(1, 41) if rng.random() < 0.95 else rng.integers(41, 301))
            diag = rng.choice([-1.0, 1.0], size=d) * 10.0 ** rng.uniform(-5, 5, size=d)
            diag[rng.random(d) < 0.1] = 0.0
            m = np.diag(diag)
            if rng.random() < 0.1:  # a rectangular diagonal
                m = np.hstack([m, np.zeros((d, int(rng.integers(1, 4))))])
                m = m if rng.random() < 0.5 else m.T
            assert spectral_norm(m) == gram_route_norm(m)

    def test_other_matrices_take_the_gram_route(self):
        rng = np.random.default_rng(74)
        for m in (rand_hermitian(rng, 4).array, np.diag([1.0, 2.0j]), [[1.0, 1e-300], [0.0, 2.0]]):
            assert spectral_norm(m) == gram_route_norm(m)

    @pytest.mark.filterwarnings("error")
    def test_overflow_matches_gram_route(self):
        # the symmetrized Gram diagonal is (a^2 + a^2) / 2: 1.3e154 overflows it
        for route in (spectral_norm, gram_route_norm):
            with pytest.raises(ValueError, match="Gram matrix overflows"):
                route(np.diag([1.3e154, 1.0]))
        assert spectral_norm(np.diag([0.0, 9e153])) == pytest.approx(9e153, rel=1e-15)
        assert spectral_norm(np.diag([1e-170, -1e-200])) == 0.0 == gram_route_norm(
            np.diag([1e-170, -1e-200])
        )

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((3, 3))) == 0.0 == gram_route_norm(np.zeros((3, 3)))


class TestLoewner:
    """The Loewner comparison the package keeps: FactCase.monotonicity takes
    A and H only when H - A is PSD, within 1e-10 * max(1, ||H - A||_F)."""

    def test_zero_below_identity(self):
        assert verify_fact(FactCase.monotonicity(np.zeros((3, 3)), np.eye(3))).holds

    def test_diagonal_comparison(self):
        a = as_hermitian(np.diag([1.0, 2.0]))
        h = as_hermitian(np.diag([2.0, 2.0]))
        FactCase.monotonicity(a, h)
        with pytest.raises(ValueError, match="must be PSD"):
            FactCase.monotonicity(h, a)

    def test_rank_one_bump(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            a = as_hermitian(g @ g.conj().T)
            v = rng.normal(size=(4, 1)) + 1j * rng.normal(size=(4, 1))
            h = as_hermitian(a.array + v @ v.conj().T)
            FactCase.monotonicity(a, h)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="equal dimensions"):
            FactCase.monotonicity(np.eye(2), np.eye(3))

    def test_eigenvalue_monotonicity(self):
        # A below H in the semidefinite order forces lambda_max(A) <= lambda_max(H)
        rng = np.random.default_rng(14)
        for _ in range(50):
            a = rand_hermitian(rng, 4)
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            h = as_hermitian(a.array + g @ g.conj().T)
            res = verify_fact(FactCase.monotonicity(a, h))
            la = np.linalg.eigvalsh(a.array)[-1]
            lh = np.linalg.eigvalsh(h.array)[-1]
            assert (res.lhs, res.rhs) == (la, lh)
            assert la <= lh + 1e-9


class TestPowerTraceDilation:
    def test_power_matches_eigenvalue_powers(self):
        rng = np.random.default_rng(16)
        h = rand_hermitian(rng, 5)
        lam = np.linalg.eigvalsh(h.array)
        lam4 = np.sort(lam**4)
        h4 = as_hermitian(np.linalg.matrix_power(h.array, 4))
        got = np.linalg.eigvalsh(h4.array)
        assert np.max(np.abs(got - lam4)) < 1e-9
        # even powers are positive semidefinite
        assert got[0] >= -1e-9

    def test_norm_power_identity(self):
        rng = np.random.default_rng(17)
        h = rand_hermitian(rng, 4)
        nrm = spectral_norm(h)
        for p in range(5):
            lhs = nrm ** (2 * p)
            rhs = spectral_norm(np.linalg.matrix_power(h.array, 2 * p))
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, rhs)

    def test_norm_trace_bound_psd(self):
        rng = np.random.default_rng(20)
        for _ in range(25):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            a = as_hermitian(g @ g.conj().T)
            assert spectral_norm(a) <= np.real(np.trace(a.array)) + 1e-10

    def test_dilation_layout(self):
        d = dilation([[1.0]])
        assert np.allclose(d, [[0.0, 1.0], [1.0, 0.0]])

    def test_dilation_square_is_block_diagonal(self):
        rng = np.random.default_rng(21)
        b = rand_rect(rng, 3, 2)
        sq = np.linalg.matrix_power(dilation(b), 2)
        want = np.zeros((5, 5), dtype=complex)
        want[:3, :3] = b @ b.conj().T
        want[3:, 3:] = b.conj().T @ b
        assert np.linalg.norm(sq - want) < 1e-12 * max(1.0, np.linalg.norm(want))

    def test_dilation_real_linear(self):
        rng = np.random.default_rng(22)
        b = rand_rect(rng, 2, 3)
        c = rand_rect(rng, 2, 3)
        lhs = dilation(2.0 * b - 0.5 * c)
        rhs = 2.0 * dilation(b) - 0.5 * dilation(c)
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
            want = np.block([[np.zeros((2, 2)), b[k]], [b[k].conj().T, np.zeros((3, 3))]])
            assert np.array_equal(got[k], want)

    def test_dilation_stack_is_exactly_hermitian(self):
        rng = np.random.default_rng(73)
        for shape in ((1, 1), (2, 3), (4, 1), (3, 3)):
            b = rng.normal(size=(6,) + shape) + 1j * rng.normal(size=(6,) + shape)
            d = dilation_stack(b)
            assert np.array_equal(d, d.conj().transpose(0, 2, 1))

    def test_as_stack_validates_once(self):
        assert as_stack([np.eye(2), as_hermitian(np.eye(2))]).shape == (2, 2, 2)
        with pytest.raises(ValueError, match="share one shape"):
            as_stack([np.eye(2), np.eye(3)])
        with pytest.raises(ValueError, match="2-d"):
            as_stack([np.ones(3)])
        with pytest.raises(ValueError, match="finite"):
            as_stack([np.eye(2), np.full((2, 2), np.inf)])
