from __future__ import annotations

import math
import os
import subprocess
import sys
import tracemalloc

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
    analytic_max_sq,
    bound_report,
    brute_force_expected_norm,
    collect_samples,
    estimate_max_summand_sq,
    large_dev_param,
    make_example,
    make_model,
    model_from_json,
    spectral_norm,
)
from matcon import montecarlo
from matcon.models import PARETO, SamplerPlan, ScalarSeries, _max_law, _row_sq_norm, seed_value
from matcon.montecarlo import (
    _chunk_size,
    _estimate,
    _median,
    default_blocks,
)
from reference_draws import as_matrices, per_term_plan


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
    left = np.zeros((model.d1, model.d1), dtype=np.complex128)
    right = np.zeros((model.d2, model.d2), dtype=np.complex128)
    for start in range(0, cfg.samples, chunk):
        stop = min(start + chunk, cfg.samples)
        z, _ = plan.realize(seed, np.arange(start, stop, dtype=np.uint64))
        z = as_matrices(plan, z)
        left += np.einsum("kab,kcb->ac", z, z.conj(), optimize=False)
        right += np.einsum("kba,kbc->ac", z.conj(), z, optimize=False)
    left /= cfg.samples
    right /= cfg.samples
    left = (left + left.conj().T) / 2.0
    right = (right + right.conj().T) / 2.0
    return HermitianMatrix(left), HermitianMatrix(right)


def rand_hermitian(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return HermitianMatrix((g + g.conj().T) / 2)


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


class TestMedian:
    """_median is np.median's value bit for bit."""

    def test_matches_np_median_bit_for_bit(self):
        rng = np.random.default_rng(180)
        specials = np.array([np.inf, -np.inf, 0.0, -0.0])
        for n in range(1, 41):
            for trial in range(6):
                vals = 10.0 ** rng.uniform(-5.0, 5.0, n) * rng.choice([-1.0, 1.0], n)
                if trial >= 3:
                    k = rng.integers(1, n + 1)
                    vals[rng.choice(n, k, replace=False)] = rng.choice(specials, k)
                with np.errstate(invalid="ignore"):  # inf + -inf in numpy's mean
                    want = float(np.median(vals))
                assert float.hex(_median(vals)) == float.hex(want), (n, vals)

    def test_nan_gives_nan(self):
        rng = np.random.default_rng(181)
        for n in range(1, 41):
            vals = rng.normal(size=n)
            vals[rng.integers(n)] = np.nan
            assert math.isnan(_median(vals))
            assert math.isnan(np.median(vals))


class TestOddSampleCount:
    """An odd count gets min(16, n) consecutive near-equal blocks, not one."""

    COUNT = 1001
    # 1001 = 16 * 62 + 9: nine blocks of 63, then seven of 62
    SIZES = [63] * 9 + [62] * 7

    def _sq_norms(self, samples):
        cfg = MCConfig(samples=samples, seed=1, estimator=MEDIAN_OF_MEANS)
        norms, _ = collect_samples(make_example("sec74", d=8), cfg)
        return norms**2, cfg

    def test_odd_count_spread_from_16_blocks(self):
        values, cfg = self._sq_norms(self.COUNT)
        bounds = np.cumsum([0] + self.SIZES)
        assert bounds[-1] == self.COUNT
        means = np.array([values[a:b].mean() for a, b in zip(bounds[:-1], bounds[1:])])
        med = float(np.median(means))
        est = _estimate(values, cfg)
        assert est.mean == med
        assert est.spread == float(np.median(np.abs(means - med)))
        assert est.spread > 0.0

    def test_short_odd_count_is_one_sample_per_block(self):
        values = np.array([4.0, 1.0, 9.0, 2.0, 5.0])
        est = _estimate(values, MCConfig(samples=5, seed=0, estimator=MEDIAN_OF_MEANS))
        assert (est.mean, est.spread) == (4.0, 2.0)  # |deviations| 0, 3, 5, 2, 1

    def test_even_count_blocks_unchanged(self):
        values, cfg = self._sq_norms(1000)
        means = values.reshape(default_blocks(1000), -1).mean(axis=1)
        med = float(np.median(means))
        est = _estimate(values, cfg)
        assert float.hex(est.mean) == float.hex(med)
        assert float.hex(est.spread) == float.hex(float(np.median(np.abs(means - med))))

    def test_odd_count_report_has_sandwich_slack(self):
        rep = bound_report(make_example("sec74", d=8), MCConfig(
            samples=self.COUNT, seed=1, estimator=MEDIAN_OF_MEANS))
        assert rep.mc_sqnorm.spread > 0.0


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
        want = max(spectral_norm(h) for h in hs) ** 2
        assert large_dev_param(model) ** 2 == pytest.approx(want)
        with pytest.raises(ValueError, match="use large_dev_param"):
            estimate_max_summand_sq(model, cfg=MCConfig(samples=64, seed=5))

    def test_sec71_constant(self):
        model = make_example("sec71", d=3, n=5)
        assert large_dev_param(model) ** 2 == pytest.approx(0.2)
        with pytest.raises(ValueError, match="use large_dev_param"):
            estimate_max_summand_sq(model, cfg=MCConfig(samples=64, seed=6))

    def test_refuses_models_with_exact_L(self):
        # finite ||S_i||^2 supports give L exactly (large_dev_param), and
        # no max_i ||S_i||^2 is sampled to estimate it from
        rng = np.random.default_rng(4)
        coin = FiniteSummand([(0.25, np.eye(3)), (0.75, -np.eye(3) / 3.0)])
        for model in (
            make_example("sec71", d=3, n=5),
            make_example("sec73", d=3),
            make_model([FixedRademacher(rand_hermitian(rng, 3)) for _ in range(4)]),
            make_model([coin, coin]),
        ):
            with pytest.raises(ValueError) as err:
                estimate_max_summand_sq(model, cfg=MCConfig(samples=64, seed=5))
            assert "use large_dev_param" in str(err.value)

    def test_sec74_median_of_means(self):
        model = make_example("sec74", d=4)
        cfg = MCConfig(samples=4096, seed=7, estimator=MEDIAN_OF_MEANS)
        est = estimate_max_summand_sq(model, cfg=cfg)
        assert est.std_error is None
        assert est.spread >= 0.0
        # E max_i P_i^2 over 4 quartic-tail magnitudes sits a little above 2
        assert 2.0 <= est.mean <= 6.0


class TestMaxSummandSqSamplesOnlyMaxSq:
    """estimate_max_summand_sq is the estimate of collect_samples' max_i
    ||S_i||^2, which equals sample_norms'; sec74 draws it from the law of
    the maximum and builds no Z."""

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
            "mixed_gaussian": make_model([FixedGaussian(rand_hermitian(rng, 3)), coin]),
        }

    @pytest.mark.parametrize(
        "name", ["sec73", "fixed_rademacher", "sec74", "mixed_finite", "mixed_gaussian"]
    )
    @pytest.mark.parametrize("estimator", [MEAN, MEDIAN_OF_MEANS])
    def test_equals_collect_samples_route(self, name, estimator):
        model = self.models()[name]
        cfg = MCConfig(samples=320, seed=41, estimator=estimator)
        plan = SamplerPlan(model)
        # max_i ||S_i||^2 is drawn only where L is sampled
        sampled = collect_samples(model, cfg)[1]
        assert (sampled is not None) == plan.sampled_max_sq == (name in ("sec74", "mixed_gaussian"))
        if sampled is None:
            with pytest.raises(ValueError):
                estimate_max_summand_sq(model, cfg)
            return
        assert estimate_max_summand_sq(model, cfg) == _estimate(sampled, cfg)
        idx = np.arange(200, 320, dtype=np.uint64)
        assert np.array_equal(sampled[200:], plan.sample_norms(41, idx)[1])

    def test_builds_no_realization(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("Z was realized")

        monkeypatch.setattr(SamplerPlan, "realize", refuse)
        estimate_max_summand_sq(self.models()["sec74"], MCConfig(samples=64, seed=42))


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

    def test_continuous_laws_still_draw_it(self):
        # sec74 takes max_i ||S_i||^2 from the law of the maximum, the
        # Gaussian 2 x 2 model from realize; both draw it, as sample_norms does
        h = rand_hermitian(np.random.default_rng(5), 2)
        cfg = MCConfig(samples=32, seed=3)
        for model in (make_example("sec74", d=4), make_model([FixedGaussian(h)])):
            _, max_sq = collect_samples(model, cfg)
            _, want = SamplerPlan(model).sample_norms(cfg.seed, np.arange(32, dtype=np.uint64))
            assert max_sq is not None and np.array_equal(max_sq, want)
            report = bound_report(model, cfg)
            assert report.L_provenance == "montecarlo"
            assert report.L == math.sqrt(_estimate(want, cfg).mean)

    def test_collect_samples_keyword(self, refuse_max_sq):
        # the laws decide: there is no switch, and exact models draw none
        coin = FiniteSummand([(0.5, basis_diag(0, 2)), (0.5, -2.0 * basis_diag(1, 2))])
        cfg = MCConfig(samples=40, seed=8)
        for model in (make_example("sec71", d=3, n=2), make_example("sec73", d=3),
                      make_model([coin, coin])):
            with pytest.raises(TypeError):
                collect_samples(model, cfg, max_sq=False)
            norms, max_sq = collect_samples(model, cfg)
            assert norms.shape == (40,) and max_sq is None


class TestMaxSqSampledByLaw:
    """collect_samples draws max_i ||S_i||^2 exactly when some law has no
    finite ||S||^2 support (Gaussian, Pareto), and then as sample_norms
    draws it; a plan with a law of the maximum draws no summand coefficient
    at all."""

    @staticmethod
    def models():
        h = np.array([[1.0, 0.5], [0.5, -2.0]])
        coin = FiniteSummand([(0.5, basis_diag(0, 2)), (0.5, -2.0 * basis_diag(1, 2))])
        signs = {"summands": [
            {"family": "scaled_basis_rademacher", "index": i % 4, "scale": 0.3, "dim": 4}
            for i in range(4 * 6)
        ]}
        # name -> (model, whether max_i ||S_i||^2 is sampled)
        return {
            "sec71": (make_example("sec71", d=8, n=5), False),
            "sec72": (make_example("sec72", d=8, n=5), False),
            "basis_signs_file": (model_from_json(signs), False),
            "sec73": (make_example("sec73", d=3), False),
            "fixed_rademacher": (make_model([FixedRademacher(h)]), False),
            "finite": (make_model([coin, coin]), False),
            "sec74": (make_example("sec74", d=8), True),
            "fixed_gaussian": (make_model([FixedGaussian(h)]), True),
            "finite_and_gaussian": (make_model([coin, FixedGaussian(h), coin]), True),
        }

    @pytest.mark.parametrize("name", ["sec71", "sec72", "basis_signs_file", "sec74"])
    def test_row_law_draws_no_coefficient(self, monkeypatch, name):
        model, sampled = self.models()[name]
        assert SamplerPlan(model).max_law is not None

        def refuse(self, seed, idx):
            raise AssertionError("summand coefficients were drawn")

        monkeypatch.setattr(SamplerPlan, "_coefficients", refuse)
        norms, max_sq = collect_samples(model, MCConfig(samples=300, seed=4))
        assert norms.shape == (300,) and (max_sq is not None) == sampled

    @pytest.mark.parametrize("name", [
        "sec71", "sec72", "basis_signs_file", "sec73", "fixed_rademacher", "finite",
        "sec74", "fixed_gaussian", "finite_and_gaussian",
    ])
    def test_array_exactly_when_a_law_is_continuous(self, name):
        model, sampled = self.models()[name]
        cfg = MCConfig(samples=150, seed=6)
        _, max_sq = collect_samples(model, cfg)
        assert (max_sq is not None) == sampled == (analytic_max_sq(model) is None)
        if sampled:
            _, want = SamplerPlan(model).sample_norms(cfg.seed, np.arange(150, dtype=np.uint64))
            assert np.array_equal(max_sq, want)


def dense_route(plan, cfg):
    """(||Z||, max_sq) from the plan's realizations as matrices (a diagonal
    plan's diagonals set into d x d matrices): top eigenvalue of the Gram
    matrix of the smaller side."""
    z, max_sq = plan.realize(cfg.seed, np.arange(cfg.samples, dtype=np.uint64))
    z = as_matrices(plan, z)
    if plan.model.d1 <= plan.model.d2:
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
        # max_i |z_ii| of the diagonals that realize returns on the per-term
        # route (collect_samples draws these models from the law of the
        # maximum instead) is the Gram route's norm of the same realizations
        # as matrices, and max_i ||S_i||^2 is the one realize draws
        plan = per_term_plan(make_example(name, d=d, n=5))
        assert plan.diagonal
        for seed in (0, 1, 2):
            cfg = MCConfig(samples=150, seed=seed)
            norms, max_sq = plan.sample_norms(seed, np.arange(150, dtype=np.uint64))
            want_norms, want_max_sq = dense_route(plan, cfg)
            assert np.array_equal(norms, want_norms)
            assert np.array_equal(max_sq, want_max_sq)
            assert (max_sq is None) == (name != "sec74")

    def test_diagonal_fixed_matrices_match_dense_route_bitwise(self):
        # a fixed matrix with only diagonal entries is a diagonal summand too
        rng = np.random.default_rng(23)
        for model in (
            make_model([FixedRademacher(HermitianMatrix(basis_diag(0, 3)))]),
            make_model(
                [FixedRademacher(np.diag(rng.normal(size=4))) for _ in range(3)]
                + [FixedGaussian(np.diag(rng.normal(size=4)))]
                + list(make_example("sec74", d=4).summands)
            ),
        ):
            assert SamplerPlan(model).diagonal
            cfg = MCConfig(samples=150, seed=45)
            norms, max_sq = collect_samples(model, cfg)
            want_norms, want_max_sq = dense_route(SamplerPlan(model), cfg)
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
            want_norms, want_max_sq = dense_route(SamplerPlan(model), cfg)
            assert np.array_equal(norms, want_norms)
            assert np.array_equal(max_sq, want_max_sq)


def per_term_norms(model, cfg: MCConfig) -> np.ndarray:
    """||Z|| = max_i |z_ii| of a one-law diagonal model of one-entry
    summands from the per-term stream: the law's coefficient at every
    summand position times its value, summed by cell in position order."""
    c = model._columns
    (law,) = c.laws
    rows, values = c.row[model._inverse], c.value.real[model._inverse]
    positions = np.arange(model.n_summands, dtype=np.uint64)[None, :]
    norms = np.empty(cfg.samples)
    step = max(1, montecarlo._CHUNK_BUDGET // model.n_summands)  # chunks of cache size
    for start in range(0, cfg.samples, step):
        idx = np.arange(start, min(start + step, cfg.samples), dtype=np.uint64)
        terms = law.draw(cfg.seed, idx[:, None], positions) * values
        cells = (np.arange(len(idx))[:, None] * model.d1 + rows).ravel()
        diag = np.bincount(cells, weights=terms.ravel(), minlength=len(idx) * model.d1)
        norms[start:start + len(idx)] = np.abs(diag.reshape(len(idx), -1)).max(axis=1)
    return norms


class TestRowLawRoute:
    """sec71 and sec72 draw ||Z|| from the law of the maximum of their d
    independent cells, whose row law is tabulated, and sec74 from its
    closed form: one uniform a sample."""

    def test_degenerate_rows_match_per_term_route(self):
        # at n = 1 every sample has |z_ii| = 1 (sec71) or z = 0 (sec72, p = 1)
        # on either stream
        for name in ("sec71", "sec72"):
            model = make_example(name, d=5, n=1)
            assert SamplerPlan(model).max_law is not None
            cfg = MCConfig(samples=300, seed=3)
            norms, _ = collect_samples(model, cfg)
            assert np.array_equal(norms, per_term_norms(model, cfg))

    @pytest.mark.parametrize("name", ["sec71", "sec72", "basis_signs_file", "sec74"])
    def test_builds_no_per_position_table(self, monkeypatch, name):
        if name == "basis_signs_file":
            model = model_from_json({"summands": [
                {"family": "scaled_basis_rademacher", "index": i % 32, "scale": 0.2, "dim": 32}
                for i in range(32 * 25)
            ]})
        else:
            model = make_example(name, d=256, n=100)

        def refuse(self):
            raise AssertionError("per-position tables were built")

        monkeypatch.setattr(SamplerPlan, "_build_tables", refuse)
        norms, max_sq = collect_samples(model, MCConfig(samples=200, seed=9))
        assert norms.shape == (200,) and (max_sq is None) == (name != "sec74")

    def test_plan_memory_is_per_cell(self):
        # the per-term tables of this model take about 19 MiB
        model = make_example("sec71", d=4096, n=100)
        tracemalloc.start()
        try:
            plan = SamplerPlan(model)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert plan.max_law is not None
        assert held < 1 << 20 and peak < 24 * model.n_summands

    # sec74 samples max_i ||S_i||^2 too; scaled_pareto has |a| = 2.5
    @pytest.mark.parametrize("name", ["sec71", "sec72", "sec74", "scaled_pareto"])
    def test_chunks_do_not_change_output(self, monkeypatch, name):
        if name == "scaled_pareto":
            model = make_model(
                [ScalarSeries(PARETO, (16, 16), (i,), (i,), (-2.5,), 2.5) for i in range(16)]
            )
        else:
            model = make_example(name, d=16, n=100)
        assert SamplerPlan(model).max_law is not None
        cfg = MCConfig(samples=300, seed=12)
        want = collect_samples(model, cfg)
        monkeypatch.setattr("matcon.montecarlo._CHUNK_BUDGET", 1)
        assert _chunk_size(SamplerPlan(model)) == 1
        got = collect_samples(model, cfg)
        assert np.array_equal(want[0], got[0]) and np.array_equal(want[1], got[1])
        if name == "scaled_pareto":  # |a| scales the norm of sec74's law
            unit, _ = collect_samples(make_example("sec74", d=16), cfg)
            assert np.array_equal(want[0], 2.5 * unit)

    def test_chunk_size_counts_cell_draws(self):
        plan = SamplerPlan(make_example("sec71", d=256, n=100))
        # one uniform a sample; the byte budget still counts the 256 cells
        budget = montecarlo._CHUNK_BUDGET
        assert _chunk_size(plan) == min(budget, montecarlo._CHUNK_BYTES // (8 * 256)) == budget


# E||Z||^2 = E max_i z_ii^2 of the paper's diagonal examples at n = 100
EXACT_SQ_NORM = {
    ("sec71", 16): 4.5178, ("sec71", 64): 6.8398, ("sec71", 256): 9.2649,
    ("sec72", 16): 4.9507, ("sec72", 64): 9.2021, ("sec72", 256): 14.4343,
}
# fixed before the oracle was first run; a failing seed is a finding, not
# a reason to pick another
ORACLE_SEEDS = (1, 2, 3, 4, 5)


class TestExactSqNormOracle:
    """The Monte Carlo E||Z||^2 and P(||Z|| <= t) of sec71 and sec72 against
    their exact values, on the stream that collect_samples draws from the
    law of the maximum of the tabulated row law (row_law) and on the
    per-term stream of the sign and Bernoulli laws (per_term_norms)."""

    @pytest.mark.parametrize("name,d", sorted(EXACT_SQ_NORM))
    def test_exact_values(self, name, d):
        exact = _row_sq_norm(make_example(name, d=d, n=100))
        assert round(exact, 4) == EXACT_SQ_NORM[name, d]

    @pytest.mark.parametrize("name,d,n", [("sec71", 2, 3), ("sec72", 3, 2), ("sec72", 2, 1)])
    def test_matches_enumeration(self, name, d, n):
        model = make_example(name, d=d, n=n)
        supports = []
        for s in model.summands:
            (lo, hi, q), a = s.law.two_point, s.dense()
            outcomes = [(1.0 - q, lo * a), (q, hi * a)] if q < 1 else [(1.0, hi * a)]
            supports.append(FiniteSummand(outcomes))
        want = brute_force_expected_norm(supports, r=2)
        assert _row_sq_norm(model) == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_builds_no_plan(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a plan was built")

        monkeypatch.setattr(SamplerPlan, "__init__", refuse)
        exact = _row_sq_norm(make_example("sec71", d=16, n=100))
        assert round(exact, 4) == EXACT_SQ_NORM["sec71", 16]

    def test_other_plans_have_none(self):
        for name in ("sec73", "sec74"):
            assert _row_sq_norm(make_example(name, d=4)) is None

    @pytest.mark.parametrize("stream", ["row_law", "per_term"])
    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    @pytest.mark.parametrize("name,d", sorted(EXACT_SQ_NORM))
    def test_monte_carlo_within_4se(self, name, d, seed, stream):
        model = make_example(name, d=d, n=100)
        cfg = MCConfig(samples=2000, seed=seed)
        if stream == "row_law":
            norms, _ = collect_samples(model, cfg)
        else:
            norms = per_term_norms(model, cfg)
        est = _estimate(norms**2, cfg)
        exact = _row_sq_norm(model)
        assert abs(est.mean - exact) <= 4.0 * est.std_error
        # P(||Z|| <= t) = F(t)^d at t = (E||Z||^2)^(1/2), F from the table
        t = math.sqrt(EXACT_SQ_NORM[name, d])
        mags, log_cdf = _max_law(model)
        p = math.exp(d * log_cdf[np.searchsorted(mags, t, side="right") - 1])
        assert abs(np.mean(norms <= t) - p) <= 4.0 * math.sqrt(p * (1.0 - p) / cfg.samples)


def _pareto_mean_norm(d: int) -> float:
    """E||Z|| of sec74: ||Z|| is (min of d uniforms)^(-1/4), and that
    minimum has the law Beta(1, d), so E||Z|| = Gamma(3/4) Gamma(d+1) /
    Gamma(d+3/4)."""
    return math.exp(math.lgamma(0.75) + math.lgamma(d + 1.0) - math.lgamma(d + 0.75))


class TestParetoNormOracle:
    """The Monte Carlo E||Z|| and P(||Z|| <= t) of sec74 against their
    closed forms, on the stream that collect_samples draws from the law of
    the maximum (max_law) and on the per-term stream of the Pareto law
    (per_term_norms).  E||Z||^2 is not checked: ||Z||^2 has infinite
    variance, so no standard error of it converges."""

    @pytest.mark.parametrize("stream", ["max_law", "per_term"])
    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    @pytest.mark.parametrize("d", [2, 8, 32, 128])
    def test_monte_carlo_within_4se(self, d, seed, stream):
        model = make_example("sec74", d=d)
        cfg = MCConfig(samples=2000, seed=seed)
        if stream == "max_law":
            norms, _ = collect_samples(model, cfg)
        else:
            norms = per_term_norms(model, cfg)
        est = _estimate(norms, cfg)
        exact = _pareto_mean_norm(d)
        assert abs(est.mean - exact) <= 4.0 * est.std_error
        # P(||Z|| <= t) = (1 - t^-4)^d at t = E||Z||
        p = (1.0 - exact**-4) ** d
        assert abs(np.mean(norms <= exact) - p) <= 4.0 * math.sqrt(p * (1.0 - p) / cfg.samples)


# E||Z||^2 of sec73 by enumerating its d^2 signs: 16, 512 and 65,536
# combinations
SEC73_SQ_NORM = {2: 3.0, 3: 5.753373457205, 4: 8.861673850608796}


class TestSec73EnumerationOracle:
    """The Monte Carlo E||Z||^2 of sec73, drawn as a real dense Z whose norm
    comes from its Gram matrix, against the exact value."""

    @pytest.mark.parametrize("d", sorted(SEC73_SQ_NORM))
    def test_exact_values(self, d):
        summands = make_example("sec73", d=d).summands
        exact = brute_force_expected_norm(
            [FiniteSummand([(0.5, s.dense()), (0.5, -s.dense())]) for s in summands], r=2
        )
        assert exact == pytest.approx(SEC73_SQ_NORM[d], rel=0, abs=1e-12)

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    @pytest.mark.parametrize("d", sorted(SEC73_SQ_NORM))
    def test_monte_carlo_within_4se(self, d, seed):
        model = make_example("sec73", d=d)
        plan = SamplerPlan(model)
        assert plan.real and not plan.diagonal
        cfg = MCConfig(samples=2000, seed=seed)
        norms, _ = collect_samples(model, cfg)
        est = _estimate(norms**2, cfg)
        assert abs(est.mean - SEC73_SQ_NORM[d]) <= 4.0 * est.std_error


class TestThreading:
    """Sampling runs on one thread, chunk after chunk in index order; no
    setting, of the chunk size or of the environment, changes a value."""

    GUARD_RUNS = (
        ["report", "--model", "sec73", "--d", "8", "--samples", "256", "--seed", "3"],
        ["experiment", "--model", "sec74", "--d", "8,32", "--samples", "256", "--seed", "3"],
    )
    GUARD_SCRIPT = (
        "import sys\n"
        "import matcon.cli\n"
        "code = matcon.cli.main(sys.argv[1:])\n"
        "print('concurrent.futures' in sys.modules, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )

    def test_thread_variable_changes_nothing(self):
        # sampling reads no worker count from the environment: MATCON_THREADS
        # at 2 or at 0 gives the bytes of an unset variable and imports no pool
        for argv in self.GUARD_RUNS:
            outputs = []
            for value in (None, "2", "0"):
                env = {k: v for k, v in os.environ.items() if k != "MATCON_THREADS"}
                if value is not None:
                    env["MATCON_THREADS"] = value
                proc = subprocess.run(
                    [sys.executable, "-c", self.GUARD_SCRIPT, *argv], capture_output=True, env=env
                )
                assert (proc.returncode, proc.stderr) == (0, b"False\n"), (value, proc.stderr)
                outputs.append(proc.stdout)
            assert outputs[0].count(b"\n") >= 2  # a header and a row at least
            assert outputs[1] == outputs[0] and outputs[2] == outputs[0], argv

    def test_blas_thread_count_changes_nothing(self):
        # OpenBLAS reads its thread count once, at numpy's import, so each
        # count runs in a fresh interpreter; a d = 64 sign matrix takes its
        # norms from dense 64 x 64 Gram products and eigenvalue problems
        argv = ["report", "--model", "sec73", "--d", "64", "--samples", "64", "--seed", "3"]
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "matcon", *argv], capture_output=True, env=env
            )
            assert proc.returncode == 0, (threads, proc.stderr)
            outputs.append(proc.stdout)
        assert outputs[0].count(b"\n") == 2  # the header and one row
        assert outputs[1] == outputs[0]

    @pytest.mark.parametrize("name", ["sec73", "sec71", "sec74"])
    def test_prefix_and_chunking_do_not_change_output(self, monkeypatch, name):
        model = make_example(name, d=8, n=3)
        # 300 samples run as chunks of 128; the first 100 alone as one chunk
        n_all, m_all = collect_samples(model, MCConfig(samples=300, seed=9))
        n_pre, m_pre = collect_samples(model, MCConfig(samples=100, seed=9))
        assert np.array_equal(n_all[:100], n_pre)
        # max_i ||S_i||^2 is sampled for sec74's Pareto law alone
        assert (m_all is None) == (m_pre is None) == (name != "sec74")
        assert m_all is None or np.array_equal(m_all[:100], m_pre)
        monkeypatch.setattr("matcon.montecarlo._MAX_CHUNK", 7)
        n_7, m_7 = collect_samples(model, MCConfig(samples=300, seed=9))
        assert np.array_equal(n_all, n_7)
        assert np.array_equal(m_all, m_7)


# the earlier memory-sized terms budget
_OLD_CHUNK_BUDGET = 1 << 21
# chunk sizes under the old budget, the current one and a one-sample budget:
# sec71 and sec74 draw one uniform a sample, and their diagonal plans are
# held to the draw budget and the bytes of their 256 and 128 cells; sec73
# draws 4,096 signs, and its dense chunks hold at most _MAX_CHUNK samples
_BUDGET_CHUNKS = {"sec71": [65536, 16384, 1], "sec73": [128, 4, 1], "sec74": [131072, 16384, 1]}


class TestChunkBudgetAtModelScale:
    """The terms budget sets how many samples a chunk holds, never what they
    are: the trend grid's largest model, a dense sign matrix and the Pareto
    grid's largest model (whose max_i ||S_i||^2 is sampled) give the same
    bits under the old budget, the current one and a one-sample budget."""

    @pytest.fixture(
        scope="class",
        params=[("sec71", 256, 100, 100), ("sec73", 64, 1, 150), ("sec74", 128, 1, 150)],
        ids=["sec71", "sec73", "sec74"],
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
        assert sizes == _BUDGET_CHUNKS[model.name]

    @pytest.mark.parametrize("budget", ["current", 1])
    def test_budget_does_not_change_output(self, monkeypatch, case, budget):
        model, cfg, want = case
        if budget != "current":
            monkeypatch.setattr("matcon.montecarlo._CHUNK_BUDGET", budget)
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
        model = make_model([FixedRademacher(HermitianMatrix(basis_diag(i, 4))) for i in range(4)])
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

    @pytest.mark.parametrize("shift,scale", [(2.0, 1.0), (0.5, 4.0)])
    def test_envelope_lower_end(self, shift, scale):
        # E R = diag(shift, 0) plus a +-scale*I coin: v = scale^2, L = scale,
        # so lower = scale/2 + scale/4.  The envelope's lower end is
        # max(||E R||, lower - ||E R||), never below the older
        # max(0, ||E R|| - upper)
        mean = np.diag([shift, 0.0])
        coin = scale * np.eye(2)
        model = make_model([FiniteSummand([(0.5, mean + coin), (0.5, mean - coin)])])
        rep = bound_report(model, MCConfig(samples=64, seed=16))
        assert (rep.mean_norm, rep.lower) == (shift, 0.75 * scale)
        assert rep.envelope_lower == max(shift, 0.75 * scale - shift)
        assert rep.envelope_lower >= max(0.0, shift - rep.upper)
        assert rep.envelope_upper == shift + rep.upper

    def test_uncentered_model_reports_mean_norm(self):
        shift = np.diag([2.0, 0.0])
        summand = FiniteSummand([(0.5, shift + np.eye(2)), (0.5, shift - np.eye(2))])
        model = make_model([summand])
        rep = bound_report(model, MCConfig(samples=64, seed=16))
        assert rep.mean_norm == pytest.approx(2.0)
        assert rep.envelope_upper >= rep.mean_norm
        assert rep.envelope_lower >= 0.0
        # lower = sqrt(1)/2 + 1/4 = 0.75 < ||E R||: Jensen's end, ||E R||
        assert rep.envelope_lower == 2.0
        # centered part is a +-I coin: v = L = 1
        assert rep.v == pytest.approx(1.0)
        assert rep.L == pytest.approx(1.0)
        assert rep.sandwich_ok

    def test_centered_model_has_no_mean_norm(self):
        rep = bound_report(make_example("sec73", d=2), MCConfig(samples=32, seed=17))
        assert rep.mean_norm is None

    def test_jensen_inequality_exact_on_shared_samples(self):
        model, cfg = make_example("sec73", d=5), MCConfig(samples=300, seed=18)
        rep = bound_report(model, cfg)
        norms, _ = collect_samples(model, cfg)
        assert rep.mc_sqnorm == _estimate(norms**2, cfg)
        assert _estimate(norms, cfg).mean <= math.sqrt(rep.mc_sqnorm.mean) + 1e-12

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
