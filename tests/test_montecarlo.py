from __future__ import annotations

import math

import numpy as np
import pytest

from matcon import (
    FiniteSummand,
    FixedGaussian,
    FixedRademacher,
    HermitianMatrix,
    MCConfig,
    MEAN,
    MEDIAN_OF_MEANS,
    as_hermitian,
    bound_report,
    brute_force_expected_norm,
    collect_samples,
    estimate_max_summand_sq,
    make_example,
    make_model,
    spectral_norm,
)
from matcon import montecarlo
from matcon.models import SamplerPlan, seed_value
from matcon.montecarlo import _chunk_size, _estimate, _for_chunks, default_blocks


# Monte Carlo cross-checks of exact quantities, used only by these tests.


def estimate_norm_moment(model, r: int, cfg: MCConfig):
    """Estimate of E||Z||^r for r in {1, 2}."""
    if r not in (1, 2):
        raise ValueError("r must be 1 or 2")
    norms, _ = collect_samples(model, cfg)
    return _estimate(norms**r, cfg)


def empirical_second_moments(model, cfg: MCConfig):
    """Sample means of ZZ* and Z*Z, symmetrized; needs a centered model."""
    if not model.centered:
        raise ValueError("model is not centered; apply center() first")
    plan = SamplerPlan(model)
    seed = seed_value(cfg.seed)
    chunk = _chunk_size(plan)
    starts = range(0, cfg.samples, chunk)
    partials: list[tuple[np.ndarray, np.ndarray] | None] = [None] * len(starts)

    def run(start: int, stop: int) -> None:
        z, _ = plan.realize(seed, np.arange(start, stop, dtype=np.uint64))
        left = np.einsum("kab,kcb->ac", z, z.conj(), optimize=False)
        right = np.einsum("kba,kbc->ac", z.conj(), z, optimize=False)
        partials[start // chunk] = (left, right)

    _for_chunks(cfg.samples, chunk, run)

    left = np.zeros((model.d1, model.d1), dtype=np.complex128)
    right = np.zeros((model.d2, model.d2), dtype=np.complex128)
    for part in partials:
        left += part[0]
        right += part[1]
    left /= cfg.samples
    right /= cfg.samples
    left = (left + left.conj().T) / 2.0
    right = (right + right.conj().T) / 2.0
    return HermitianMatrix(left), HermitianMatrix(right)


def rand_hermitian(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return as_hermitian((g + g.conj().T) / 2)


def basis_diag(i, d):
    e = np.zeros((d, d))
    e[i, i] = 1.0
    return e


class TestMCConfig:
    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            MCConfig(samples=1, seed=0)

    def test_default_blocks_rule(self):
        assert default_blocks(200) == 8
        assert default_blocks(400) == 16
        assert default_blocks(1000) == 8
        assert default_blocks(1_000_000) == 16
        assert default_blocks(6) == 2

    def test_unknown_estimator(self):
        with pytest.raises(ValueError):
            MCConfig(samples=10, seed=0, estimator="mode")


class TestNormMoment:
    def test_deterministic_summand_exact(self):
        m = np.diag([3.0, -1.0])
        model = make_model([FiniteSummand([(1.0, m)])])
        for r in (1, 2):
            est = estimate_norm_moment(model, r=r, cfg=MCConfig(samples=50, seed=1))
            assert est.mean == pytest.approx(3.0**r)
            assert est.std_error == 0.0

    def test_matches_enumeration_within_3se(self):
        rng = np.random.default_rng(2)
        hs = [rand_hermitian(rng, 2) for _ in range(3)]
        model = make_model([FixedRademacher(h) for h in hs])
        exact = brute_force_expected_norm(
            [FiniteSummand([(0.5, h.array), (0.5, -h.array)]) for h in hs], r=2
        )
        est = estimate_norm_moment(model, r=2, cfg=MCConfig(samples=4000, seed=3))
        assert abs(est.mean - exact) <= 3.0 * est.std_error

    def test_bit_identical_reruns(self):
        model = make_example("sec73", d=3)
        cfg = MCConfig(samples=500, seed=9)
        a = estimate_norm_moment(model, r=2, cfg=cfg)
        b = estimate_norm_moment(model, r=2, cfg=cfg)
        assert a == b

    def test_rejects_bad_moment_order(self):
        model = make_example("sec73", d=2)
        with pytest.raises(ValueError):
            estimate_norm_moment(model, r=3, cfg=MCConfig(samples=10, seed=0))


class TestMaxSummandSq:
    def test_fixed_rademacher_exact(self):
        rng = np.random.default_rng(4)
        hs = [rand_hermitian(rng, 3) for _ in range(4)]
        model = make_model([FixedRademacher(h) for h in hs])
        est = estimate_max_summand_sq(model, cfg=MCConfig(samples=64, seed=5))
        want = max(spectral_norm(h) for h in hs) ** 2
        assert est.mean == pytest.approx(want)
        assert est.std_error == 0.0

    def test_sec71_constant(self):
        model = make_example("sec71", d=3, n=5)
        est = estimate_max_summand_sq(model, cfg=MCConfig(samples=64, seed=6))
        assert est.mean == pytest.approx(0.2)
        assert est.std_error == 0.0

    def test_sec74_median_of_means(self):
        model = make_example("sec74", d=4)
        cfg = MCConfig(samples=4096, seed=7, estimator=MEDIAN_OF_MEANS)
        est = estimate_max_summand_sq(model, cfg=cfg)
        assert est.std_error is None
        assert est.spread >= 0.0
        # E max_i P_i^2 over 4 quartic-tail magnitudes sits a little above 2
        assert 2.0 <= est.mean <= 6.0


class TestMaxSummandSqSamplesOnlyMaxSq:
    """estimate_max_summand_sq reads max_i ||S_i||^2 without building Z; its
    output equals the estimate from the full collect_samples route."""

    @staticmethod
    def models():
        rng = np.random.default_rng(40)
        coin = FiniteSummand([(0.25, np.eye(3)), (0.75, -np.eye(3) / 3.0)])
        return {
            "sec73": make_example("sec73", d=16),
            "fixed_rademacher": make_model(
                [FixedRademacher(rand_hermitian(rng, 4)) for _ in range(6)]
            ),
            "sec74": make_example("sec74", d=32),
            "mixed_finite": make_model([FixedRademacher(rand_hermitian(rng, 3)), coin]),
        }

    @pytest.mark.parametrize("name", ["sec73", "fixed_rademacher", "sec74", "mixed_finite"])
    @pytest.mark.parametrize("estimator", [MEAN, MEDIAN_OF_MEANS])
    def test_equals_collect_samples_route(self, name, estimator):
        model = self.models()[name]
        cfg = MCConfig(samples=320, seed=41, estimator=estimator)
        got = estimate_max_summand_sq(model, cfg)
        want = _estimate(collect_samples(model, cfg)[1], cfg)
        assert got == want
        plan = SamplerPlan(model)
        idx = np.arange(200, 330, dtype=np.uint64)
        assert np.array_equal(plan.realize_max_sq(41, idx), plan.realize(41, idx)[1])

    def test_builds_no_realization(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("Z was realized")

        monkeypatch.setattr(SamplerPlan, "realize", refuse)
        monkeypatch.setattr(SamplerPlan, "realize_diagonal", refuse)
        for model in self.models().values():
            estimate_max_summand_sq(model, MCConfig(samples=64, seed=42))


class TestMaxSqDrawnWhenRead:
    """bound_report samples max_i ||S_i||^2 only when it has no exact value."""

    @pytest.fixture
    def refuse_max_sq(self, monkeypatch):
        def refuse(self, coef):
            raise AssertionError("max_i ||S_i||^2 was sampled")

        monkeypatch.setattr(SamplerPlan, "_max_sq", refuse)

    @pytest.mark.parametrize("name", ["sec71", "sec73"])
    def test_exact_max_draws_none(self, refuse_max_sq, name):
        report = bound_report(make_example(name, d=4, n=3), MCConfig(samples=32, seed=3))
        assert report.L_provenance == "analytic"

    def test_continuous_laws_still_draw_it(self, refuse_max_sq):
        h = rand_hermitian(np.random.default_rng(5), 2)
        for model in (make_example("sec74", d=4), make_model([FixedGaussian(h)])):
            with pytest.raises(AssertionError, match="was sampled"):
                bound_report(model, MCConfig(samples=32, seed=3))

    def test_collect_samples_keyword(self):
        coin = FiniteSummand([(0.5, basis_diag(0, 2)), (0.5, -2.0 * basis_diag(1, 2))])
        cfg = MCConfig(samples=40, seed=8)
        for model in (make_example("sec71", d=3, n=2), make_example("sec73", d=3),
                      make_model([coin, coin])):
            norms, max_sq = collect_samples(model, cfg)
            skipped = collect_samples(model, cfg, max_sq=False)
            assert np.array_equal(skipped[0], norms) and skipped[1] is None
            assert max_sq.shape == (40,)


def dense_route(model, cfg):
    """(||Z||, max_sq) from the dense realizations: top eigenvalue of the
    Gram matrix of the smaller side."""
    z, max_sq = SamplerPlan(model).realize(cfg.seed, np.arange(cfg.samples, dtype=np.uint64))
    if model.d1 <= model.d2:
        gram = z @ z.conj().transpose(0, 2, 1)
    else:
        gram = z.conj().transpose(0, 2, 1) @ z
    gram = (gram + gram.conj().transpose(0, 2, 1)) / 2.0
    top = np.linalg.eigvalsh(gram)[:, -1]
    return np.sqrt(np.clip(top, 0.0, None)), max_sq


class TestDiagonalKernel:
    @pytest.mark.parametrize("name", ["sec71", "sec72", "sec74"])
    @pytest.mark.parametrize("d", [1, 3, 16])
    def test_matches_dense_route_bitwise(self, name, d):
        model = make_example(name, d=d, n=5)
        assert SamplerPlan(model).diagonal
        for seed in (0, 1, 2):
            cfg = MCConfig(samples=150, seed=seed)
            norms, max_sq = collect_samples(model, cfg)
            want_norms, want_max_sq = dense_route(model, cfg)
            assert np.array_equal(norms, want_norms)
            assert np.array_equal(max_sq, want_max_sq)

    def test_diagonal_fixed_matrices_match_dense_route_bitwise(self):
        # a fixed matrix with only diagonal entries is a diagonal summand too
        rng = np.random.default_rng(23)
        for model in (
            make_model([FixedRademacher(as_hermitian(basis_diag(0, 3)))]),
            make_model(
                [FixedRademacher(np.diag(rng.normal(size=4))) for _ in range(3)]
                + [FixedGaussian(np.diag(rng.normal(size=4)))]
                + list(make_example("sec74", d=4).summands)
            ),
        ):
            assert SamplerPlan(model).diagonal
            cfg = MCConfig(samples=150, seed=45)
            norms, max_sq = collect_samples(model, cfg)
            want_norms, want_max_sq = dense_route(model, cfg)
            assert np.array_equal(norms, want_norms)
            assert np.array_equal(max_sq, want_max_sq)

    def test_non_diagonal_models(self):
        rng = np.random.default_rng(22)
        coin = FiniteSummand([(0.5, np.eye(2)), (0.5, -np.eye(2))])
        for model in (
            make_example("sec73", d=3),
            make_model([FixedRademacher(rand_hermitian(rng, 2))]),
            make_model([coin]),
        ):
            assert not SamplerPlan(model).diagonal

    def test_gram_route_matches_dense_route_bitwise(self):
        rng = np.random.default_rng(43)

        def signed(shape):
            m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            return FiniteSummand([(0.5, m), (0.5, -m)])

        wide = make_model([signed((2, 5)) for _ in range(3)])
        tall = make_model([signed((5, 2)) for _ in range(3)])
        for model in (make_example("sec73", d=6), wide, tall):
            cfg = MCConfig(samples=150, seed=44)
            norms, max_sq = collect_samples(model, cfg)
            want_norms, want_max_sq = dense_route(model, cfg)
            assert np.array_equal(norms, want_norms)
            assert np.array_equal(max_sq, want_max_sq)

    def test_realize_diagonal_rejects_dense_plan(self):
        plan = SamplerPlan(make_example("sec73", d=2))
        with pytest.raises(ValueError):
            plan.realize_diagonal(0, np.arange(2, dtype=np.uint64))


class TestThreading:
    def test_worker_count_does_not_change_output(self, monkeypatch):
        self.check_worker_counts(monkeypatch, make_example("sec73", d=4))

    @pytest.mark.parametrize("name", ["sec71", "sec74"])
    def test_worker_count_does_not_change_diagonal_route(self, monkeypatch, name):
        self.check_worker_counts(monkeypatch, make_example(name, d=8, n=3))

    @staticmethod
    def check_worker_counts(monkeypatch, model):
        cfg = MCConfig(samples=1000, seed=8)
        monkeypatch.setenv("MATCON_THREADS", "1")
        n1, m1 = collect_samples(model, cfg)
        monkeypatch.setenv("MATCON_THREADS", "4")
        n4, m4 = collect_samples(model, cfg)
        assert np.array_equal(n1, n4)
        assert np.array_equal(m1, m4)

    @pytest.mark.parametrize("name", ["sec73", "sec71", "sec74"])
    def test_prefix_and_chunking_do_not_change_output(self, monkeypatch, name):
        model = make_example(name, d=8, n=3)
        # 300 samples run as chunks of 128; the first 100 alone as one chunk
        n_all, m_all = collect_samples(model, MCConfig(samples=300, seed=9))
        n_pre, m_pre = collect_samples(model, MCConfig(samples=100, seed=9))
        assert np.array_equal(n_all[:100], n_pre)
        assert np.array_equal(m_all[:100], m_pre)
        monkeypatch.setattr("matcon.montecarlo._MAX_CHUNK", 7)
        n_7, m_7 = collect_samples(model, MCConfig(samples=300, seed=9))
        assert np.array_equal(n_all, n_7)
        assert np.array_equal(m_all, m_7)

    def test_bad_thread_count_rejected(self, monkeypatch):
        model = make_example("sec73", d=2)
        monkeypatch.setenv("MATCON_THREADS", "0")
        with pytest.raises(ValueError):
            collect_samples(model, MCConfig(samples=10, seed=0))


# the earlier memory-sized terms budget: 81-sample chunks for sec71 at d = 256
_OLD_CHUNK_BUDGET = 1 << 21


class TestChunkBudgetAtModelScale:
    """The terms budget sets how many samples a chunk holds, never what they
    are: the trend grid's largest model and a dense sign matrix give the
    same bits under the old budget, the current one, a one-sample budget and
    two worker threads."""

    @pytest.fixture(
        scope="class",
        params=[("sec71", 256, 100, 100), ("sec73", 64, 1, 150)],
        ids=["sec71", "sec73"],
    )
    def case(self, request):
        name, d, n, samples = request.param
        model = make_example(name, d=d, n=n)
        cfg = MCConfig(samples=samples, seed=31)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("matcon.montecarlo._CHUNK_BUDGET", _OLD_CHUNK_BUDGET)
            want = collect_samples(model, cfg)
        return model, cfg, want

    def test_budgets_give_different_chunks(self, monkeypatch, case):
        model, cfg, _ = case
        plan = SamplerPlan(model)
        sizes = []
        for budget in (_OLD_CHUNK_BUDGET, montecarlo._CHUNK_BUDGET, 1):
            monkeypatch.setattr("matcon.montecarlo._CHUNK_BUDGET", budget)
            sizes.append(_chunk_size(plan))
        assert cfg.samples > sizes[0] > sizes[1] > sizes[2] == 1

    @pytest.mark.parametrize("budget", ["current", 1])
    def test_budget_does_not_change_output(self, monkeypatch, case, budget):
        model, cfg, want = case
        if budget != "current":
            monkeypatch.setattr("matcon.montecarlo._CHUNK_BUDGET", budget)
        got = collect_samples(model, cfg)
        assert np.array_equal(want[0], got[0])
        assert np.array_equal(want[1], got[1])

    def test_two_threads_do_not_change_output(self, monkeypatch, case):
        model, cfg, want = case
        monkeypatch.setenv("MATCON_THREADS", "2")
        got = collect_samples(model, cfg)
        assert np.array_equal(want[0], got[0])
        assert np.array_equal(want[1], got[1])


class TestMemoryGuard:
    def test_byte_budget_shrinks_chunk_without_changing_output(self, monkeypatch):
        model = make_example("sec73", d=4)
        cfg = MCConfig(samples=50, seed=23)
        want = collect_samples(model, cfg)
        # room for three 4x4 complex realizations per chunk
        monkeypatch.setattr("matcon.montecarlo._CHUNK_BYTES", 3 * 4 * 4 * 16)
        assert _chunk_size(SamplerPlan(model)) == 3
        got = collect_samples(model, cfg)
        assert np.array_equal(want[0], got[0])
        assert np.array_equal(want[1], got[1])

    def test_sample_over_budget_rejected(self, monkeypatch):
        monkeypatch.setattr("matcon.montecarlo._CHUNK_BYTES", 1000)
        with pytest.raises(ValueError, match="4096 bytes"):
            collect_samples(make_example("sec73", d=16), MCConfig(samples=4, seed=0))
        # the diagonal route needs only 16 * 8 bytes per sample
        collect_samples(make_example("sec71", d=16, n=1), MCConfig(samples=4, seed=0))

    def test_fixed_matrix_stack_over_budget_rejected(self, monkeypatch):
        rng = np.random.default_rng(24)
        model = make_model([FixedRademacher(rand_hermitian(rng, 4)) for _ in range(3)])
        monkeypatch.setattr("matcon.models._STACK_BYTES", 2 * 4 * 4 * 16)
        # 3 x 16 entries of 40 bytes each
        with pytest.raises(ValueError, match="48 fixed-matrix entries take 1920 bytes"):
            SamplerPlan(model)

    def test_one_entry_summands_outside_plan_budget(self, monkeypatch):
        # each one-entry summand is already an object of the model, so only
        # fixed matrices, which expand into many entries, count (the model is
        # built first: make_example checks its positions against the budget)
        model = make_example("sec73", d=4)
        monkeypatch.setattr("matcon.models._STACK_BYTES", 100)
        assert SamplerPlan(model).terms == 16


class TestEmpiricalMoments:
    def test_zero_model(self):
        model = make_model([FiniteSummand([(1.0, np.zeros((2, 2)))])])
        left, right = empirical_second_moments(model, MCConfig(samples=20, seed=0))
        assert np.all(left.array == 0.0)
        assert np.all(right.array == 0.0)

    def test_fixed_rademacher_family(self):
        rng = np.random.default_rng(10)
        hs = [rand_hermitian(rng, 2) for _ in range(3)]
        model = make_model([FixedRademacher(h) for h in hs])
        want = sum(h.array @ h.array for h in hs)
        left, right = empirical_second_moments(model, MCConfig(samples=20000, seed=11))
        scale = float(np.max(np.abs(want)))
        tol = 5.0 * scale / math.sqrt(20000)
        assert np.max(np.abs(left.array - want)) <= tol
        assert np.max(np.abs(right.array - want)) <= tol

    def test_sec73_matches_scaled_identity(self):
        d, samples = 4, 20000
        model = make_example("sec73", d=d)
        left, right = empirical_second_moments(model, MCConfig(samples=samples, seed=12))
        tol = 5.0 * math.sqrt(d / samples)
        assert np.max(np.abs(left.array - d * np.eye(d))) <= tol
        assert np.max(np.abs(right.array - d * np.eye(d))) <= tol

    def test_uncentered_rejected(self):
        model = make_model([FiniteSummand([(1.0, np.eye(2))])])
        with pytest.raises(ValueError):
            empirical_second_moments(model, MCConfig(samples=10, seed=0))


class TestBoundReport:
    def test_sec71_sandwich(self):
        rep = bound_report(make_example("sec71", d=16, n=100), MCConfig(samples=200, seed=13))
        assert rep.sandwich_ok
        assert rep.v == pytest.approx(1.0)
        assert rep.L == pytest.approx(0.1)
        assert rep.v_provenance == "analytic"
        assert rep.L_provenance == "analytic"

    def test_isotropic_fixed_family_formulas(self):
        model = make_model([FixedRademacher(as_hermitian(basis_diag(i, 4))) for i in range(4)])
        rep = bound_report(model, MCConfig(samples=100, seed=14))
        assert rep.C == pytest.approx(28.0)
        assert rep.v == pytest.approx(1.0)
        assert rep.L == pytest.approx(1.0)
        assert rep.upper == pytest.approx(math.sqrt(28.0) + 28.0)
        assert rep.lower == pytest.approx(0.75)
        # every realization of the sum has unit norm
        assert rep.mc_sqnorm.mean == pytest.approx(1.0)
        assert rep.mc_sqnorm.std_error == 0.0
        assert rep.sandwich_ok

    def test_zero_model(self):
        model = make_model([FiniteSummand([(1.0, np.zeros((3, 3)))])])
        rep = bound_report(model, MCConfig(samples=16, seed=15))
        assert rep.lower == 0.0 and rep.upper == 0.0
        assert rep.mc_sqnorm.mean == 0.0
        assert rep.sandwich_ok

    def test_uncentered_model_reports_mean_norm(self):
        shift = np.diag([2.0, 0.0])
        summand = FiniteSummand([(0.5, shift + np.eye(2)), (0.5, shift - np.eye(2))])
        model = make_model([summand])
        rep = bound_report(model, MCConfig(samples=64, seed=16))
        assert rep.mean_norm == pytest.approx(2.0)
        assert rep.envelope_upper >= rep.mean_norm
        assert rep.envelope_lower >= 0.0
        # centered part is a +-I coin: v = L = 1
        assert rep.v == pytest.approx(1.0)
        assert rep.L == pytest.approx(1.0)
        assert rep.sandwich_ok

    def test_centered_model_has_no_mean_norm(self):
        rep = bound_report(make_example("sec73", d=2), MCConfig(samples=32, seed=17))
        assert rep.mean_norm is None

    def test_jensen_inequality_exact_on_shared_samples(self):
        rep = bound_report(make_example("sec73", d=5), MCConfig(samples=300, seed=18))
        assert rep.mc_norm.mean <= math.sqrt(rep.mc_sqnorm.mean) + 1e-12

    def test_sandwich_definition(self):
        rep = bound_report(make_example("sec72", d=4, n=20), MCConfig(samples=250, seed=19))
        spread = rep.mc_sqnorm.std_error
        root = math.sqrt(rep.mc_sqnorm.mean)
        want = rep.lower - rep.k * spread <= root <= rep.upper + rep.k * spread
        assert rep.sandwich_ok == want

    def test_median_of_means_report(self):
        rep = bound_report(
            make_example("sec74", d=4),
            MCConfig(samples=1024, seed=20, estimator=MEDIAN_OF_MEANS),
        )
        assert rep.L_provenance == "montecarlo"
        assert rep.mc_sqnorm.std_error is None
        assert rep.mc_sqnorm.spread >= 0.0
        assert rep.sandwich_ok


class TestOracleAgreement:
    def test_agreement_over_100_seeds(self):
        # finite-support model: exact enumeration vs the sampler, 100 fixed seeds
        rng = np.random.default_rng(21)
        hs = [rand_hermitian(rng, 2) for _ in range(3)]
        model = make_model([FixedRademacher(h) for h in hs])
        exact = brute_force_expected_norm(
            [FiniteSummand([(0.5, h.array), (0.5, -h.array)]) for h in hs], r=2
        )
        hits = 0
        for seed in range(100):
            est = estimate_norm_moment(model, r=2, cfg=MCConfig(samples=400, seed=seed))
            if abs(est.mean - exact) <= 3.0 * est.std_error:
                hits += 1
        assert hits >= 99
