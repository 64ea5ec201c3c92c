from __future__ import annotations

import copy
import hashlib
import json
import math

import numpy as np
import pytest

from matcon import (
    CenteredBernoulliBasis,
    FiniteSummand,
    FixedGaussian,
    FixedRademacher,
    HermitianMatrix,
    ParetoDiagonal,
    RademacherEntry,
    ScaledBasisRademacher,
    analytic_max_sq,
    analytic_second_moments,
    center,
    make_example,
    make_model,
    model_from_json,
    model_to_json,
    brute_force_expected_norm,
)
from matcon import rng
from matcon.bounds import large_dev_param, variance_param
from matcon.linalg import hermitian_stack, spectral_norm, spectral_norms
from matcon.models import (
    _ROW_ATOMS,
    PARETO,
    SIGN,
    IndependentSumModel,
    SamplerPlan,
    ScalarSeries,
    _columns_of,
    _matrix_from_json,
    _summands_from_json,
    moment_diagonals,
)
from matcon.montecarlo import MCConfig, bound_report
from reference_draws import pareto_sample, sample_summands


def rand_hermitian(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return HermitianMatrix((g + g.conj().T) / 2)


class TestExamples:
    def test_sec71_structure(self):
        m = make_example("sec71", d=2, n=4)
        assert len(m.summands) == 8
        assert m.d1 == m.d2 == 2
        assert m.centered
        # fair sign times 0.5 * E_ii
        assert all(s.law is SIGN and s.rows == s.cols for s in m.summands)
        assert all(s.values == pytest.approx((0.5,)) for s in m.summands)

    def test_sec72_structure(self):
        m = make_example("sec72", d=2, n=3)
        assert len(m.summands) == 6
        # centered Bernoulli(1/3) times E_ii
        assert all(s.law.name == "bernoulli" for s in m.summands)
        assert all(s.law.p == pytest.approx(1.0 / 3.0) for s in m.summands)
        assert all(s.rows == s.cols and s.values == (1.0,) for s in m.summands)

    def test_sec73_structure(self):
        m = make_example("sec73", d=3)
        assert len(m.summands) == 9
        # fair sign times E_ij
        assert all(s.law is SIGN and s.values == (1.0,) for s in m.summands)
        positions = {(s.rows[0], s.cols[0]) for s in m.summands}
        assert positions == {(i, j) for i in range(3) for j in range(3)}

    def test_sec74_structure(self):
        m = make_example("sec74", d=5)
        assert len(m.summands) == 5
        # symmetric Pareto times E_ii
        assert all(s.law is PARETO for s in m.summands)
        assert [(s.rows, s.cols, s.values) for s in m.summands] == [
            ((i,), (i,), (1.0,)) for i in range(5)
        ]
        assert m.centered

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_example("sec99", d=2)

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            make_example("sec73", d=0)
        with pytest.raises(ValueError):
            make_example("sec71", d=2, n=0)

    def test_empty_model_rejected(self):
        for build in (lambda: make_model([]), lambda: model_from_json({"summands": []})):
            with pytest.raises(ValueError, match="at least one summand"):
                build()

    def test_scale_whose_square_overflows_rejected(self):
        for scale in (1e200, -1e155, math.inf, math.nan):
            with pytest.raises(ValueError, match="scale"):
                ScaledBasisRademacher(0, scale, 2)
        assert ScaledBasisRademacher(0, 2.0**500, 2).sq_norm_support()[0] == (2.0**1000,)

    @pytest.mark.parametrize(
        "build",
        [
            lambda i, d: RademacherEntry(i, 0, d),
            lambda i, d: RademacherEntry(0, i, d),
            lambda i, d: ScaledBasisRademacher(i, 2.0, d),
            lambda i, d: CenteredBernoulliBasis(i, 0.5, d),
            lambda i, d: ParetoDiagonal(i, d),
        ],
        ids=["entry_row", "entry_col", "scaled_basis", "bernoulli", "pareto"],
    )
    def test_positions_and_dim_must_be_integers(self, build):
        for index, dim in ((0.7, 2), (1.0, 2), (True, 2), (np.float64(1.0), 2), (0, 3.5),
                           (0, 2.0), (0, np.bool_(True))):
            with pytest.raises(ValueError, match="must be integers"):
                build(index, dim)
        wide = build(np.int32(1), np.int64(2))
        assert wide.shape == (2, 2) and wide == build(1, 2)


class TestSampling:
    def test_fixed_rademacher_support(self):
        rng = np.random.default_rng(0)
        h = rand_hermitian(rng, 3)
        model = make_model([FixedRademacher(h)])
        for k in range(32):
            (s,) = sample_summands(model, seed=7, index=k)
            assert np.allclose(s, h.array) or np.allclose(s, -h.array)

    def test_degenerate_bernoulli_is_zero(self):
        model = make_model([CenteredBernoulliBasis(index=1, prob=1.0, dim=3)])
        for k in range(16):
            (s,) = sample_summands(model, seed=3, index=k)
            assert np.all(s == 0.0)

    def test_sign_frequency(self):
        # the 1x1 scaled-basis model is a bare Rademacher sign
        model = make_example("sec71", d=1, n=1)
        plan = SamplerPlan(model)
        z, _ = plan.realize(11, np.arange(10_000, dtype=np.uint64))
        plus = int(np.sum(np.real(z[:, 0, 0]) > 0))
        sigma = 0.5 * math.sqrt(10_000)
        assert abs(plus - 5_000) <= 3 * sigma

    def test_deterministic_and_order_free(self):
        model = make_example("sec73", d=3)
        a = sample_summands(model, seed=5, index=9)
        b = sample_summands(model, seed=5, index=9)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        plan = SamplerPlan(model)
        z_all, _ = plan.realize(5, np.arange(16, dtype=np.uint64))
        z_one, _ = plan.realize(5, np.array([9], dtype=np.uint64))
        assert np.array_equal(z_all[9], z_one[0])
        total = sum(a)
        assert np.allclose(total, z_one[0])

    def test_shapes_and_hermitian_families(self):
        rng = np.random.default_rng(1)
        h = rand_hermitian(rng, 2)
        model = make_model([FixedRademacher(h), FixedGaussian(h)])
        for k in range(8):
            for s in sample_summands(model, seed=2, index=k):
                assert s.shape == (2, 2) and s.dtype == np.complex128
                assert np.allclose(s, s.conj().T)

    def test_pareto_diagonal_support(self):
        model = make_example("sec74", d=3)
        for k in range(16):
            mats = sample_summands(model, seed=4, index=k)
            for i, s in enumerate(mats):
                diag = np.diag(s)
                val = np.real(diag[i])
                assert abs(val) >= 1.0 - 1e-12
                off = s.copy()
                off[i, i] = 0.0
                assert np.all(off == 0.0)


class TestPareto:
    def test_boundary(self):
        assert pareto_sample(1.0, 1.0) == pytest.approx(1.0)

    def test_survival_inversion(self):
        assert pareto_sample(1.0 / 16.0, -1.0) == pytest.approx(-2.0)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            pareto_sample(0.0, 1.0)

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            pareto_sample(0.5, 0.0)

    def test_array_form(self):
        u = np.array([1.0, 1.0 / 16.0])
        s = np.array([1.0, 1.0])
        assert np.allclose(pareto_sample(u, s), [1.0, 2.0])


class TestMoments:
    def test_fixed_rademacher_family(self):
        rng = np.random.default_rng(2)
        hs = [rand_hermitian(rng, 3) for _ in range(4)]
        model = make_model([FixedRademacher(h) for h in hs])
        left, right = analytic_second_moments(model)
        want = sum(h.array @ h.array for h in hs)
        assert np.allclose(left, want, atol=1e-12)
        assert np.allclose(right, want, atol=1e-12)

    def test_sec71_identity(self):
        left, right = analytic_second_moments(make_example("sec71", d=3, n=5))
        assert np.allclose(left, np.eye(3), atol=1e-12)
        assert np.allclose(right, np.eye(3), atol=1e-12)

    def test_sec73_scaled_identity(self):
        left, right = analytic_second_moments(make_example("sec73", d=4))
        assert np.allclose(left, 4.0 * np.eye(4), atol=1e-12)
        assert np.allclose(right, 4.0 * np.eye(4), atol=1e-12)

    def test_sec74_diagonal(self):
        # E P^2 = 2 exactly for the quartic-tail power law
        left, _ = analytic_second_moments(make_example("sec74", d=3))
        assert np.allclose(left, 2.0 * np.eye(3), atol=1e-12)

    def test_uncentered_rejected(self):
        point = FiniteSummand([(1.0, np.eye(2))])
        model = make_model([point])
        with pytest.raises(ValueError):
            analytic_second_moments(model)

    @pytest.mark.parametrize("name", ["complex_fixed", "sec73"])
    def test_read_only_and_exactly_hermitian(self, name):
        # a sum of dense complex terms A A* is Hermitian only up to rounding
        # (at d = 3 the unsymmetrized sum is not Hermitian bit for bit)
        rng = np.random.default_rng(5)
        hs = [rand_hermitian(rng, 3) for _ in range(5)]
        model = {
            "complex_fixed": lambda: make_model(
                [FixedRademacher(h) for h in hs[:3]] + [FixedGaussian(h) for h in hs[3:]]
            ),
            "sec73": lambda: make_example("sec73", d=3),
        }[name]()
        for m in analytic_second_moments(model):
            assert np.array_equal(m, m.conj().T)
            assert not m.flags.writeable
            with pytest.raises(ValueError):
                m[0, 0] = 0.0


def _hand_ec2(law):
    """E c^2 of each law, written out here rather than read from the law."""
    if law.name == "bernoulli":
        p = law.p
        return p * (1.0 - p) ** 2 + (1.0 - p) * p**2
    # E eps^2 = E g^2 = 1; E P^2 = E u^(-1/2) = 1 / (1 - 1/2)
    return {"sign": 1.0, "gaussian": 1.0, "pareto": 2.0}[law.name]


def _hand_moments(model):
    """sum over summands of E c^2 (A A*, A* A), or sum_k p_k (M_k M_k*,
    M_k* M_k) for finite support, with E c^2 taken from each law."""
    left = np.zeros((model.d1, model.d1), dtype=np.complex128)
    right = np.zeros((model.d2, model.d2), dtype=np.complex128)
    for s in model.summands:
        if isinstance(s, FiniteSummand):
            terms = list(s.outcomes())
        else:
            a = np.zeros(s.shape, dtype=np.complex128)
            for i, j, v in zip(s.rows, s.cols, s.values):
                a[i, j] += v
            terms = [(_hand_ec2(s.law), a)]
        for w, a in terms:
            left += w * (a @ a.conj().T)
            right += w * (a.conj().T @ a)
    return left, right


def _moment_cases():
    rng = np.random.default_rng(30)
    hs = [rand_hermitian(rng, 3) for _ in range(3)]
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    finite = FiniteSummand([(0.25, a), (0.25, b), (0.5, -(a + b) / 2.0)])
    return {
        "fixed_rademacher": [FixedRademacher(h) for h in hs],
        "fixed_gaussian": [FixedGaussian(h) for h in hs],
        "scaled_basis": [
            ScaledBasisRademacher(index=i, scale=0.5 + i + j, dim=3)
            for i in (0, 2, 2)
            for j in range(2)
        ],
        "bernoulli": [
            CenteredBernoulliBasis(index=i, prob=p, dim=3)
            for i, p in ((0, 0.1), (1, 1.0), (1, 0.3), (0, 0.5))
        ],
        "entry": [
            RademacherEntry(row=r, col=c, dim=3) for r, c in ((0, 1), (2, 1), (0, 1))
        ],
        "pareto": [ParetoDiagonal(index=i, dim=3) for i in (0, 2, 2)],
        "finite": [finite, finite],
        "mixed": [
            ScaledBasisRademacher(index=1, scale=3.0, dim=3),
            FixedRademacher(hs[0]),
            RademacherEntry(row=2, col=0, dim=3),
            finite,
            ParetoDiagonal(index=0, dim=3),
            FixedRademacher(hs[1]),
        ],
        # first four entries of the 3x3 full sign matrix: (0,0), (0,1), (0,2),
        # (1,0), so E[ZZ*] = diag(3, 1, 0) differs from E[Z*Z] = diag(2, 1, 1)
        "sec73_rows": list(make_example("sec73", d=3).summands[:4]),
    }


class TestMomentsAgainstHand:
    @pytest.mark.parametrize("case", sorted(_moment_cases()))
    def test_matches_dense_reference(self, case):
        model = make_model(_moment_cases()[case])
        left, right = analytic_second_moments(model)
        want_left, want_right = _hand_moments(model)
        assert np.allclose(left, want_left, rtol=0.0, atol=1e-12)
        assert np.allclose(right, want_right, rtol=0.0, atol=1e-12)

    def test_sec73_sides_differ(self):
        left, right = analytic_second_moments(make_model(_moment_cases()["sec73_rows"]))
        assert np.array_equal(np.diag(left).real, [3.0, 1.0, 0.0])
        assert np.array_equal(np.diag(right).real, [2.0, 1.0, 1.0])


class TestExactMaxSq:
    def test_sec71(self):
        # every summand has norm n^{-1/2} exactly
        val = analytic_max_sq(make_example("sec71", d=2, n=4))
        assert val == pytest.approx(0.25)

    def test_sec72_matches_enumeration(self):
        d, n = 2, 2
        model = make_example("sec72", d=d, n=n)
        got = analytic_max_sq(model)
        # enumerate the dn independent Bernoulli outcomes directly
        p = 1.0 / n
        vals = np.array([(1.0 - p) ** 2, p**2])
        probs = np.array([p, 1.0 - p])
        total = 0.0
        for combo in np.ndindex(*(2,) * (d * n)):
            pr = float(np.prod(probs[list(combo)]))
            total += pr * float(np.max(vals[list(combo)]))
        assert got == pytest.approx(total, rel=1e-12)

    def test_sec73_is_one(self):
        assert analytic_max_sq(make_example("sec73", d=5)) == pytest.approx(1.0)

    def test_pareto_has_no_closed_form(self):
        assert analytic_max_sq(make_example("sec74", d=3)) is None

    def test_fixed_gaussian_has_no_closed_form(self):
        h = HermitianMatrix(np.eye(2))
        assert analytic_max_sq(make_model([FixedGaussian(h)])) is None

    def test_finite_family(self):
        a = FiniteSummand([(0.5, 3.0 * np.eye(1)), (0.5, -3.0 * np.eye(1))])
        b = FiniteSummand([(0.25, np.eye(1)), (0.75, -np.eye(1) / 3.0)])
        model = make_model([a, b])
        # max is 9 unless both summands take small values
        assert analytic_max_sq(model) == pytest.approx(9.0)


class TestCenter:
    def test_centered_model_unchanged(self):
        model = make_example("sec73", d=2)
        out, mean = center(model)
        assert out is model
        assert np.all(mean == 0.0)

    def test_point_mass(self):
        m = np.diag([1.0, -2.0])
        model = make_model([FiniteSummand([(1.0, m)])])
        out, mean = center(model)
        assert out.centered
        assert np.allclose(mean, m)
        (s,) = sample_summands(out, seed=0, index=0)
        assert np.all(s == 0.0)

    def test_shared_summand_centered_once(self):
        rng = np.random.default_rng(8)
        f = FiniteSummand([(0.3, rng.normal(size=(4, 4))), (0.7, rng.normal(size=(4, 4)))])
        model = make_model([f] * 3000)
        out, mean = center(model)
        assert len(out._distinct) == 1
        assert out.centered and out.n_summands == 3000
        want = np.zeros((4, 4), dtype=complex)
        for _ in range(3000):
            want += f.mean()
        assert np.array_equal(mean, want)

    def test_shared_report_equals_unshared(self):
        rng = np.random.default_rng(8)
        outcomes = [(0.3, rng.normal(size=(4, 4))), (0.7, rng.normal(size=(4, 4)))]
        shared = make_model([FiniteSummand(outcomes)] * 3000)
        unshared = make_model([FiniteSummand(outcomes) for _ in range(3000)])
        cfg = MCConfig(samples=16, seed=3)
        assert repr(bound_report(shared, cfg)) == repr(bound_report(unshared, cfg))

    def test_uncentered_bernoulli_support(self):
        p = 0.25
        e11 = np.zeros((2, 2))
        e11[1, 1] = 1.0
        raw = FiniteSummand([(p, e11), (1.0 - p, np.zeros((2, 2)))])
        model = make_model([raw])
        assert not model.centered
        out, mean = center(model)
        assert np.allclose(mean, p * e11)
        outcomes = out.summands[0].outcomes()
        mats = sorted((np.real(m[1, 1]) for _, m in outcomes))
        assert mats == pytest.approx([-p, 1.0 - p])


class TestLargeSampleConsistency:
    SAMPLES = 100_000

    def _zbar_and_moment(self, model):
        plan = SamplerPlan(model)
        acc = np.zeros((model.d1, model.d2), dtype=complex)
        sq = np.zeros((model.d1, model.d1), dtype=complex)
        chunk = 20_000
        for start in range(0, self.SAMPLES, chunk):
            z, _ = plan.realize(77, np.arange(start, start + chunk, dtype=np.uint64))
            acc += z.sum(axis=0)
            sq += np.einsum("kab,kcb->ac", z, z.conj())
        return acc / self.SAMPLES, sq / self.SAMPLES

    @pytest.mark.parametrize(
        "name,d,n", [("sec71", 3, 4), ("sec72", 3, 4), ("sec73", 3, 1)]
    )
    def test_mean_and_moment_match(self, name, d, n):
        model = make_example(name, d=d, n=n)
        zbar, sq = self._zbar_and_moment(model)
        left, _ = analytic_second_moments(model)
        # mean of Z: entry variances sum to v-ish scale; 5 sigma entrywise
        var = np.real(np.trace(left)) / (model.d1 * model.d2)
        se = math.sqrt(max(var, 1e-30) / self.SAMPLES)
        assert np.max(np.abs(zbar)) <= 5 * se + 1e-12
        # second moment entrywise within 5 crude standard errors
        tol = 5 * math.sqrt(1.0 / self.SAMPLES) * max(
            1.0, float(np.max(np.abs(left)))
        )
        assert np.max(np.abs(sq - left)) <= 5 * tol

    def test_sec74_median_of_means_moment(self):
        model = make_example("sec74", d=2)
        plan = SamplerPlan(model)
        blocks = 16
        per = 6_250
        block_means = []
        for b in range(blocks):
            z, _ = plan.realize(
                78, np.arange(b * per, (b + 1) * per, dtype=np.uint64)
            )
            diag = np.real(z[:, 0, 0])
            block_means.append(float(np.mean(diag**2)))
        est = float(np.median(block_means))
        assert 1.6 <= est <= 2.4


class TestJsonRoundTrip:
    def test_builtin_shorthand(self):
        model = model_from_json({"name": "sec73", "d": 3})
        assert model.n == 9
        assert len(model.summands) == 9

    def test_round_trip_all_families(self):
        rng = np.random.default_rng(3)
        h = rand_hermitian(rng, 2)
        fin = FiniteSummand([(0.5, np.eye(2)), (0.5, -np.eye(2))])
        model = make_model(
            [
                FixedRademacher(h),
                FixedGaussian(h),
                ScaledBasisRademacher(index=0, scale=0.5, dim=2),
                CenteredBernoulliBasis(index=1, prob=0.25, dim=2),
                RademacherEntry(row=0, col=1, dim=2),
                ParetoDiagonal(index=1, dim=2),
                fin,
            ],
            name="mixed",
        )
        doc = model_to_json(model)
        back = model_from_json(json.loads(json.dumps(doc)))
        assert back.d1 == 2 and back.d2 == 2
        assert back.name == "mixed"
        assert back.summands == model.summands
        a = sample_summands(model, seed=9, index=3)
        b = sample_summands(back, seed=9, index=3)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_missing_dimension_rejected(self):
        with pytest.raises(ValueError):
            model_from_json({"name": "sec73"})

    def test_shape_mismatch_rejected(self):
        doc = {
            "d1": 3,
            "d2": 3,
            "summands": [
                {"family": "rademacher_entry", "row": 0, "col": 0, "dim": 2}
            ],
        }
        with pytest.raises(ValueError):
            model_from_json(doc)

    def test_matrix_reader_matches_per_entry_conversion(self):
        def entry(e):
            if isinstance(e, list):
                return complex(float(e[0]), float(e[1]))
            return complex(float(e), 0.0)

        rng = np.random.default_rng(8)
        cases = [
            rng.normal(size=(3, 4)).tolist(),
            rng.normal(size=(3, 4, 2)).tolist(),
            [[-0.0, [1.5, -0.0]], [2, [0, 3]]],  # real and complex entries mixed
            [[1, -2], [2**60 + 1, 0]],
            [[5e-324, -1e308]],
        ]
        for rows in cases:
            want = np.array([[entry(e) for e in row] for row in rows], dtype=np.complex128)
            got = _matrix_from_json({"matrix": rows}, "matrix")
            assert got.dtype == np.complex128
            assert got.tobytes() == want.tobytes()

    def test_missing_summand_field_rejected(self):
        doc = {"summands": [{"family": "rademacher_entry", "row": 0, "col": 0}]}
        with pytest.raises(ValueError):
            model_from_json(doc)


class TestAgainstBruteForce:
    def test_sampler_matches_enumeration_sec73(self):
        # tiny grid: compare MC second moment of the norm to exact enumeration
        d = 2
        model = make_example("sec73", d=d)
        outcomes = []
        for s in model.summands:
            e = np.zeros((d, d))
            e[s.rows[0], s.cols[0]] = s.values[0]
            outcomes.append(FiniteSummand([(0.5, e), (0.5, -e)]))
        exact = brute_force_expected_norm(outcomes, r=2)
        plan = SamplerPlan(model)
        z, _ = plan.realize(123, np.arange(30_000, dtype=np.uint64))
        norms = np.linalg.norm(z, ord=2, axis=(1, 2))
        vals = norms**2
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - exact) <= 3.5 * se

    def test_summand_mean_helper(self):
        mean = CenteredBernoulliBasis(index=0, prob=0.5, dim=2).mean()
        assert mean.shape == (2, 2)
        assert np.all(mean == 0.0)


# A mixed model in the model-file format: one summand of each built-in family,
# with entries that share cells, complex fixed matrices and a centered
# FiniteSummand in the middle.  The digests below were recorded from this
# document with the per-family implementation that preceded the single
# ScalarSeries representation; they pin the draws across versions, which a
# round trip within one version cannot.
GOLDEN_SEED = 2028
GOLDEN_DOC = {
    "name": "golden",
    "d1": 3,
    "d2": 3,
    "summands": [
        {
            "family": "fixed_rademacher",
            "matrix": [
                [[0.75, 0.0], [0.5, -1.25], [-0.3, 0.2]],
                [[0.5, 1.25], [-1.1, 0.0], [0.0, 0.9]],
                [[-0.3, -0.2], [0.0, -0.9], [0.4, 0.0]],
            ],
        },
        {"family": "scaled_basis_rademacher", "index": 0, "scale": 0.7, "dim": 3},
        {
            "family": "finite",
            "outcomes": [
                {
                    "probability": 0.5,
                    "matrix": [
                        [[0.2, 0.1], [-0.6, 0.0], [0.0, 0.35]],
                        [[1.3, -0.4], [0.05, 0.0], [0.0, 0.0]],
                        [[0.0, 0.0], [0.8, 0.25], [-0.15, 0.6]],
                    ],
                },
                {
                    "probability": 0.5,
                    "matrix": [
                        [[-0.2, -0.1], [0.6, 0.0], [0.0, -0.35]],
                        [[-1.3, 0.4], [-0.05, 0.0], [0.0, 0.0]],
                        [[0.0, 0.0], [-0.8, -0.25], [0.15, -0.6]],
                    ],
                },
            ],
        },
        {
            "family": "fixed_gaussian",
            "matrix": [[1.5, -0.25, 0.0], [-0.25, 0.0, 0.6], [0.0, 0.6, -0.45]],
        },
        {"family": "centered_bernoulli_basis", "index": 1, "prob": 0.3, "dim": 3},
        {"family": "rademacher_entry", "row": 0, "col": 2, "dim": 3},
        {"family": "pareto_diagonal", "index": 0, "dim": 3},
    ],
}
GOLDEN_REALIZE_SHA256 = "4e8ea51ddcddc6149e8bbded27c24c9cc15f300bd2c91ddef591083489122e33"
GOLDEN_MAX_SQ_SHA256 = "7eb6950bb9090d09bcf3fc357bfd8b2015c39496eca18c42a64fc5d16b556e1a"
GOLDEN_MOMENTS_SHA256 = "6d28a72a809745948c4faebc8d620a1342db97a638c94f59ded1018634c8ec0e"
GOLDEN_DISCRETE_MAX_SQ = 4.554714395052703


def _sha256(*arrays) -> str:
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()


class TestGoldenSamples:
    """Draws, moments and E max ||S_i||^2 of GOLDEN_DOC, pinned across versions."""

    def model(self, doc=GOLDEN_DOC):
        return model_from_json(json.loads(json.dumps(doc)))

    def test_realize(self):
        z, max_sq = SamplerPlan(self.model()).realize(
            GOLDEN_SEED, np.arange(64, dtype=np.uint64)
        )
        assert _sha256(z, max_sq) == GOLDEN_REALIZE_SHA256

    def test_realize_max_sq(self):
        max_sq = SamplerPlan(self.model()).realize_max_sq(
            GOLDEN_SEED, np.arange(64, dtype=np.uint64)
        )
        assert _sha256(max_sq) == GOLDEN_MAX_SQ_SHA256

    def test_analytic_second_moments(self):
        left, right = analytic_second_moments(self.model())
        assert _sha256(left, right) == GOLDEN_MOMENTS_SHA256

    def test_analytic_max_sq_of_discrete_families(self):
        continuous = ("fixed_gaussian", "pareto_diagonal")
        doc = dict(GOLDEN_DOC)
        doc["summands"] = [s for s in doc["summands"] if s["family"] not in continuous]
        assert analytic_max_sq(self.model(doc)) == GOLDEN_DISCRETE_MAX_SQ


# a diagonal plan without a row law: diagonal fixed matrices of both
# families and a Pareto entry sharing cells
GOLDEN_DIAGONAL_DOC = {
    "name": "golden_diagonal",
    "d1": 4,
    "d2": 4,
    "summands": [
        {"family": "fixed_gaussian",
         "matrix": [[1.5, 0.0, 0.0, 0.0], [0.0, -0.25, 0.0, 0.0],
                    [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.6]]},
        {"family": "fixed_rademacher",
         "matrix": [[0.0, 0.0, 0.0, 0.0], [0.0, 0.75, 0.0, 0.0],
                    [0.0, 0.0, -1.1, 0.0], [0.0, 0.0, 0.0, 0.3]]},
        {"family": "fixed_gaussian",
         "matrix": [[-0.4, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0],
                    [0.0, 0.0, 0.9, 0.0], [0.0, 0.0, 0.0, 0.0]]},
        {"family": "pareto_diagonal", "index": 3, "dim": 4},
    ],
}
# sha256 of (diagonals, max_sq) at GOLDEN_SEED over samples 0..63
GOLDEN_DIAGONAL_SHA256 = {
    "sec74": "7ef376e14e7ed2cef343bcd5694bf940e4607c1ad27374790fbb711313658f40",
    "fixed_gaussian": "6e829ece1ce65736b71252cc436abc49169546d3d12da710483af159de4e07a7",
}
# sha256 of the row-law diagonals alone (their max_sq is exact, not drawn)
GOLDEN_ROWS_SHA256 = {
    "sec71": "8df5419f8b8c12255a7531d4adfed72f24696677f155f09eefc02967ea5bf4d4",
    "sec72": "09fda4396280574f88e4987e383356f1646334b75a56020e8e23ffe77ca4317f",
}


class TestGoldenDiagonalKernels:
    """The raw diagonals and max_i ||S_i||^2 of the two diagonal kernels,
    pinned across versions: TestDiagonalKernel compares realize_diagonal
    with realize, which share their draws."""

    IDX = np.arange(64, dtype=np.uint64)

    @pytest.mark.parametrize("key", sorted(GOLDEN_DIAGONAL_SHA256))
    def test_realize_diagonal(self, key):
        if key == "sec74":
            model = make_example("sec74", d=8)
        else:
            model = model_from_json(json.loads(json.dumps(GOLDEN_DIAGONAL_DOC)))
        plan = SamplerPlan(model)
        assert plan.diagonal and plan.row is None
        diag, max_sq = plan.realize_diagonal(GOLDEN_SEED, self.IDX)
        assert _sha256(diag, max_sq) == GOLDEN_DIAGONAL_SHA256[key]

    @pytest.mark.parametrize("name", sorted(GOLDEN_ROWS_SHA256))
    def test_realize_rows(self, name):
        plan = SamplerPlan(make_example(name, d=8, n=5))
        assert plan.row is not None
        diag, max_sq = plan.realize_rows(GOLDEN_SEED, self.IDX)
        assert max_sq is None
        assert _sha256(diag) == GOLDEN_ROWS_SHA256[name]


def _mixed_summands(shared: bool) -> list:
    """Finite-support, fixed-matrix and one-entry summands interleaved; with shared
    true each repeated summand is one object, otherwise an equal copy."""
    m = np.array([[0.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, -1.0]])
    h = np.array([[1.0, 0.5j, 0.0], [-0.5j, 0.0, 0.25], [0.0, 0.25, 3.0]])
    makers = {
        "finite": lambda: FiniteSummand([(0.25, m), (0.5, 0.0 * m), (0.25, -m)]),
        "fixed": lambda: FixedRademacher(HermitianMatrix(h)),
        "entry": lambda: RademacherEntry(0, 2, 3),
        "basis": lambda: ScaledBasisRademacher(1, 0.7, 3),
        "bernoulli": lambda: CenteredBernoulliBasis(2, 0.3, 3),
    }
    order = "entry finite basis entry fixed bernoulli entry finite fixed basis bernoulli entry"
    one = {name: make() for name, make in makers.items()}
    return [one[name] if shared else makers[name]() for name in order.split()]


def _shared_and_unshared(name: str):
    if name == "mixed":
        return make_model(_mixed_summands(True)), make_model(_mixed_summands(False))
    d, n = 256, 100
    if name == "sec71":
        scale = 1.0 / math.sqrt(n)
        copies = [ScaledBasisRademacher(i, scale, d) for i in range(d) for _ in range(n)]
    else:
        copies = [CenteredBernoulliBasis(i, 1.0 / n, d) for i in range(d) for _ in range(n)]
    return make_example(name, d=d, n=n), make_model(copies, name=name, n=n)


class TestSharedSummands:
    """A model whose positions share summand objects gives bitwise the same
    moments, E max ||S_i||^2 and draws as one built from equal copies."""

    @pytest.fixture(scope="class", params=["sec71", "sec72", "mixed"])
    def pair(self, request):
        return _shared_and_unshared(request.param)

    def test_object_counts(self, pair):
        shared, unshared = pair
        assert shared.summands == unshared.summands
        assert len(unshared._distinct) == unshared.n_summands
        assert len(shared._distinct) < shared.n_summands

    def test_second_moments(self, pair):
        (a_left, a_right), (b_left, b_right) = map(analytic_second_moments, pair)
        assert np.array_equal(a_left, b_left)
        assert np.array_equal(a_right, b_right)

    def test_max_sq(self, pair):
        shared, unshared = pair
        assert analytic_max_sq(shared) == analytic_max_sq(unshared)

    def test_plan_draws(self, pair):
        shared, unshared = map(SamplerPlan, pair)
        idx = np.arange(5, 9, dtype=np.uint64)
        for a, b in zip(shared.realize(13, idx), unshared.realize(13, idx)):
            assert np.array_equal(a, b)
        assert np.array_equal(shared.realize_max_sq(13, idx), unshared.realize_max_sq(13, idx))
        assert shared.diagonal == unshared.diagonal
        if shared.diagonal:
            for a, b in zip(shared.realize_diagonal(13, idx), unshared.realize_diagonal(13, idx)):
                assert np.array_equal(a, b)

    def test_mixed_plan_matches_reference_summands(self):
        model = make_model(_mixed_summands(True))
        z, _ = SamplerPlan(model).realize(13, np.array([6], dtype=np.uint64))
        total = sum(sample_summands(model, 13, 6))
        assert np.allclose(z[0], total, rtol=0.0, atol=1e-12)


def _uncentered_mixed_model():
    """Mixed summands with two uncentered FiniteSummand objects, one of them
    at two positions."""
    lift = FiniteSummand([(0.25, np.diag([2.0, 0.0, 1.0])), (0.75, np.eye(3))])
    tilt = FiniteSummand([(0.5, np.diag([0.0, 1.5j, 0.0])), (0.5, np.zeros((3, 3)))])
    summands = _mixed_summands(True)
    return make_model(summands[:3] + [lift] + summands[3:8] + [tilt, lift] + summands[8:])


class TestSingleLayout:
    """A model holds its distinct summand objects and a position index;
    `summands` and `n_summands` are read from them."""

    def models(self):
        mixed = _uncentered_mixed_model()
        return {
            "make_model": mixed,
            "make_example": make_example("sec72", d=4, n=3),
            "center": center(mixed)[0],
            "model_from_json": model_from_json(json.loads(json.dumps(GOLDEN_DOC))),
        }

    @pytest.mark.parametrize("builder", ["make_model", "make_example", "center",
                                         "model_from_json"])
    def test_layout_is_the_only_input(self, builder):
        model = self.models()[builder]
        assert not model._inverse.flags.writeable
        assert model.n_summands == len(model._inverse)
        assert model.summands == tuple(model._distinct[i] for i in model._inverse)
        rebuilt = IndependentSumModel(
            model.d1, model.d2, model._distinct, model._inverse, model.name, model.n
        )
        assert rebuilt == model and rebuilt.centered == model.centered

    def test_equality_compares_summand_values(self):
        a, b = RademacherEntry(0, 1, 2), RademacherEntry(0, 1, 2)
        assert make_model([a, a]) == make_model([a, b])
        assert make_model([a, a]) != make_model([a, a], name="other")
        assert make_model([a, a]) != make_model([a, RademacherEntry(1, 0, 2)])

    def test_center_keeps_the_position_index(self):
        model = _uncentered_mixed_model()
        assert not model.centered
        out, _ = center(model)
        assert out.centered and out._inverse is model._inverse

    def test_center_takes_finite_means_only(self, monkeypatch):
        model = _uncentered_mixed_model()
        want_model, want_mean = center(model)

        def refuse(self):
            raise AssertionError("the mean of a ScalarSeries was taken")

        monkeypatch.setattr(ScalarSeries, "mean", refuse)
        got_model, got_mean = center(model)
        assert got_mean.tobytes() == want_mean.tobytes()
        assert got_model == want_model
        for a, b in zip(got_model.summands, want_model.summands):
            if isinstance(a, FiniteSummand):
                assert a.probabilities.tobytes() == b.probabilities.tobytes()
                assert a.matrices.tobytes() == b.matrices.tobytes()

    def test_repr_does_not_list_positions(self):
        assert len(repr(make_example("sec71", d=64, n=100))) < 300

class TestRowLaw:
    """A diagonal plan whose cells each hold m one-entry summands of one
    two-point law and one value tabulates the law of z_ii once."""

    @pytest.mark.parametrize(
        "name,n", [("sec71", 1), ("sec71", 7), ("sec71", 100), ("sec71", 400),
                   ("sec72", 1), ("sec72", 3), ("sec72", 100)],
    )
    def test_table_mean_and_variance(self, name, n):
        model = make_example(name, d=3, n=n)
        _, atoms, cdf = SamplerPlan(model).row
        s = model.summands[0]
        pmf = np.diff(cdf, prepend=0.0)
        assert cdf[-1] == 1.0 and (pmf >= 0.0).all()
        mean = float(np.dot(pmf, atoms))
        var = float(np.dot(pmf, atoms**2)) - mean**2
        assert mean == pytest.approx(0.0, abs=1e-12)  # m E[c] a with E[c] = 0
        assert var == pytest.approx(n * s.law.ec2 * s.values[0] ** 2, rel=1e-12, abs=1e-12)

    def test_model_file_of_repeated_basis_signs(self):
        d, m = 6, 12
        doc = {"summands": [
            {"family": "scaled_basis_rademacher", "index": i % d, "scale": 0.3, "dim": d}
            for i in range(d * m)
        ]}
        plan = SamplerPlan(model_from_json(doc))
        first, atoms, cdf = plan.row
        # cells listed cyclically: cell i first appears at position i
        assert np.array_equal(first[0], np.arange(d))
        assert np.allclose(atoms, 0.3 * (2.0 * np.arange(m + 1) - m), rtol=0, atol=1e-15)
        idx = np.arange(40, 72, dtype=np.uint64)
        u = rng.uniform_halfopen(5, idx[:, None], np.arange(d, dtype=np.uint64)[None, :], 2)
        want = atoms[np.searchsorted(cdf, u, side="right")]
        diag, max_sq = plan.realize_rows(5, idx)
        assert np.array_equal(diag, want)
        assert max_sq is None

    def test_atom_cap(self):
        assert SamplerPlan(make_example("sec71", d=1, n=_ROW_ATOMS)).row is not None
        assert SamplerPlan(make_example("sec71", d=1, n=_ROW_ATOMS + 1)).row is None

    def test_other_layouts_keep_the_per_term_route(self):
        d = 3
        layouts = {
            "sec73": make_example("sec73", d=d),
            "pareto": make_example("sec74", d=d),
            "two values": make_model(
                [ScaledBasisRademacher(i, 0.5 + (k % 2), d) for i in range(d) for k in range(4)]
            ),
            "two laws": make_model(
                [ScaledBasisRademacher(0, 1.0, 2), CenteredBernoulliBasis(1, 0.5, 2)]
            ),
            "unbalanced": make_model([ScaledBasisRademacher(i % 2, 1.0, d) for i in range(4)]),
            "one summand, many cells": make_model([FixedRademacher(np.eye(d))] * 2),
        }
        for label, model in layouts.items():
            assert SamplerPlan(model).row is None, label


class TestGuideTable:
    """realize_rows inverts the row CDF through its guide table exactly as
    np.searchsorted(cdf, u, side="right") does."""

    @staticmethod
    def keys(cdf, size):
        """u = 0, the largest u below 1, every bucket edge b / size, every
        CDF value, and the neighbours of each within [0, 1)."""
        points = np.concatenate([[0.0, 1.0 - 2.0**-53], np.arange(size + 1) / size, cdf])
        keys = np.concatenate([points, np.nextafter(points, 0.0), np.nextafter(points, 1.0)])
        return np.unique(keys[(keys >= 0.0) & (keys < 1.0)])

    @pytest.mark.parametrize("m", [1, 7, 100, 400, 1 << 16])
    @pytest.mark.parametrize("name", ["sec71", "sec72"])  # sign; Bernoulli(1/m)
    def test_equals_searchsorted(self, monkeypatch, name, m):
        plan = SamplerPlan(make_example(name, d=1, n=m))
        _, atoms, cdf = plan.row
        size = len(plan._guide)
        assert size == min(1 << 16, next(1 << k for k in range(40) if 1 << k >= 16 * (m + 1)))
        u = self.keys(cdf, size)
        monkeypatch.setattr(rng, "uniform_halfopen", lambda seed, index, position, slot: u[:, None])
        diag, _ = plan.realize_rows(0, np.arange(len(u), dtype=np.uint64))
        assert np.array_equal(diag[:, 0], atoms[np.searchsorted(cdf, u, side="right")])

    def test_degenerate_bernoulli_row(self):
        # sec72 at n = 1: p = 1, so c = 0 always and the CDF is [0, 1]
        plan = SamplerPlan(make_example("sec72", d=3, n=1))
        _, atoms, cdf = plan.row
        assert np.array_equal(cdf, [0.0, 1.0]) and not np.isnan(plan._guide).any()
        diag, _ = plan.realize_rows(4, np.arange(50, dtype=np.uint64))
        assert np.array_equal(diag, np.full((50, 3), atoms[1]))


class TestRealRealizations:
    """A plan whose COO values and outcomes are all real realizes real Z."""

    def models(self):
        rng = np.random.default_rng(155)
        sym = rng.normal(size=(3, 3))
        sym = sym + sym.T
        herm = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        herm = herm + herm.conj().T
        return {
            "sec73_3": (make_example("sec73", d=3), np.float64),
            "sec73_16": (make_example("sec73", d=16), np.float64),
            "real_fixed": (_from_matrices("fixed_rademacher", sym), np.float64),
            "real_finite": (_from_matrices("finite", sym), np.float64),
            "complex_fixed": (_from_matrices("fixed_rademacher", herm), np.complex128),
            "complex_finite": (_from_matrices("finite", herm), np.complex128),
        }

    def test_dtype_and_norms(self):
        for name, (model, dtype) in self.models().items():
            plan = SamplerPlan(model)
            assert plan.real == (dtype == np.float64), name
            z, _ = plan.realize(17, np.arange(48, dtype=np.uint64))
            assert z.dtype == dtype, name
            got = spectral_norms(z)
            want = spectral_norms(z.astype(np.complex128))
            assert np.allclose(got, want, rtol=1e-14, atol=0.0), name

    def test_real_realizations_equal_the_summands(self):
        for name, (model, dtype) in self.models().items():
            z, _ = SamplerPlan(model).realize(17, np.array([5], dtype=np.uint64))
            assert np.allclose(z[0], sum(sample_summands(model, 17, 5)), rtol=0, atol=1e-12)


def _from_matrices(family, m):
    """A two-summand model file of one family: fixed matrices m and 2m, or
    two finite summands with outcomes +-m and +-2m."""
    def doc(a):
        entries = [[[float(x.real), float(x.imag)] for x in row] for row in a]
        if family == "finite":
            minus = [[[-re, -im] for re, im in row] for row in entries]
            return {"family": "finite", "outcomes": [
                {"probability": 0.5, "matrix": entries}, {"probability": 0.5, "matrix": minus}
            ]}
        return {"family": family, "matrix": entries}

    return model_from_json({"summands": [doc(m), doc(2.0 * m)]})


class TestFixedMatrixStacks:
    """A model file's fixed matrices are validated and normed as one stack
    per shape, with the summands, norms and refusals of one call each."""

    @staticmethod
    def matrices():
        g = np.random.default_rng(2201)
        out = []
        for d in (3, 2, 3, 1, 2, 3):
            a = g.normal(size=(d, d)) + 1j * g.normal(size=(d, d))
            out.append(a + a.conj().T)
        return out

    @staticmethod
    def doc(family, m):
        return {"family": family,
                "matrix": [[[float(x.real), float(x.imag)] for x in row] for row in m]}

    def test_one_stack_per_shape_equals_the_constructors(self, monkeypatch):
        mats = self.matrices()
        families = ("fixed_rademacher", "fixed_gaussian")
        docs = [self.doc(families[i % 2], m) for i, m in enumerate(mats)]
        docs.insert(2, {"family": "rademacher_entry", "row": 0, "col": 1, "dim": 3})
        want = [(FixedRademacher, FixedGaussian)[i % 2](m) for i, m in enumerate(mats)]
        calls = []
        monkeypatch.setattr(
            "matcon.models.hermitian_stack", lambda a: calls.append(a.shape) or hermitian_stack(a)
        )
        got = _summands_from_json(docs)
        assert got.pop(2) == RademacherEntry(0, 1, 3)
        assert sorted(calls) == [(1, 1, 1), (2, 2, 2), (3, 3, 3)]
        assert got == want
        assert [s.norm for s in got] == [spectral_norm(m) for m in mats]

    def test_refusal_names_the_first_bad_summand(self):
        good, skew = np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]])
        big_skew = np.array([[0.0, 2.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(ValueError) as first:
            FixedRademacher(big_skew)
        # the 3x3 stack is built after the 2x2 one, whose bad matrix comes later
        for docs in (
            [self.doc("fixed_rademacher", good), self.doc("fixed_gaussian", big_skew),
             self.doc("fixed_rademacher", skew)],
            [self.doc("fixed_gaussian", big_skew), {"family": "no_such_family"}],
            [self.doc("fixed_gaussian", big_skew), {"family": "finite", "outcomes": []}],
        ):
            with pytest.raises(ValueError) as err:
                model_from_json({"summands": docs})
            assert str(err.value) == str(first.value)


class TestPositionGuard:
    @pytest.mark.parametrize(
        "name,d,n,positions",
        [("sec71", 10, 11, 110), ("sec72", 5, 22, 110), ("sec73", 11, 1, 121)],
    )
    def test_refused_before_building(self, monkeypatch, name, d, n, positions):
        # room for the plan arrays of 100 positions: 8 bytes each (the
        # position index) for a row-law example, 48 (per-term tables) else
        per = 8 if name in ("sec71", "sec72") else 48
        monkeypatch.setattr("matcon.models._STACK_BYTES", 100 * per)
        with pytest.raises(ValueError) as err:
            make_example(name, d=d, n=n)
        message = str(err.value)
        assert f"{positions} summand positions of {name} take {per * positions} bytes" in message
        assert f"{100 * per}-byte plan budget" in message

    def test_budget_is_inclusive(self, monkeypatch):
        monkeypatch.setattr("matcon.models._STACK_BYTES", 4800)
        assert make_example("sec71", d=10, n=10).n_summands == 100
        assert make_example("sec73", d=10).n_summands == 100

    def test_row_plan_tables_refused_past_budget(self, monkeypatch):
        # a row plan holds only the 8-byte position index; asked for its
        # per-term tables, it is refused as make_example refuses a per-term
        # example: 48 bytes a position
        from matcon.montecarlo import estimate_max_summand_sq

        monkeypatch.setattr("matcon.models._STACK_BYTES", 800)
        model = make_example("sec71", d=10, n=10)
        assert SamplerPlan(model).row is not None
        with pytest.raises(ValueError) as err:
            estimate_max_summand_sq(model, MCConfig(samples=8, seed=1))
        message = str(err.value)
        assert "100 summand positions of sec71 take 4800 bytes" in message
        assert "800-byte plan budget" in message

    def test_huge_n_refused_without_allocating(self):
        with pytest.raises(ValueError, match="2560000000 summand positions"):
            make_example("sec71", d=256, n=10**7)

    def test_benchmark_scale_models_admitted(self):
        assert make_example("sec71", d=256, n=400).n_summands == 102_400
        assert make_example("sec73", d=256).n_summands == 65_536


# valid model documents, one per route through model_from_json and every family
FUZZ_BASES = (
    {"name": "sec71", "d": 3, "n": 2},
    {"name": "sec74", "d": 2},
    {
        "name": "pair", "d1": 2, "d2": 2, "n": 2,
        "summands": [
            {"family": "fixed_rademacher", "matrix": [[1.0, 0.5], [0.5, -1.0]]},
            {"family": "fixed_gaussian", "matrix": [[1.0, [0.0, 1.0]], [[0.0, -1.0], 2.0]]},
        ],
    },
    {
        "summands": [
            {"family": "scaled_basis_rademacher", "index": 0, "scale": 0.5, "dim": 2},
            {"family": "centered_bernoulli_basis", "index": 1, "prob": 0.25, "dim": 2},
            {"family": "rademacher_entry", "row": 0, "col": 1, "dim": 2},
            {"family": "pareto_diagonal", "index": 1, "dim": 2},
        ],
    },
    {
        "summands": [
            {"family": "finite", "outcomes": [
                {"probability": 0.5, "matrix": [[1.0, 0.0], [0.0, 2.0]]},
                {"probability": 0.5, "matrix": [[-1.0, 0.0], [0.0, 0.0]]},
            ]},
        ],
    },
)
FUZZ_VALUES = (
    None, True, False, 0, 1, 2, -1, 5, 2**70, 0.5, 2.0, -0.0, 1e308, float("nan"),
    float("inf"), "x", "2", "", [], {}, [1], [[1.0]], [[1.0, 2.0]], [[1.0], [2.0, 3.0]],
    [[[1.0, 0.0, 1.0]]], [[[1.0, 2.0]]], {"a": 1}, [{}], ["finite"], {"family": "finite"},
    "finite", "sec73", "pareto_diagonal",
)
FUZZ_KEYS = ("family", "name", "n", "d", "d1", "d2", "summands", "matrix", "outcomes",
             "probability", "index", "dim", "row", "col", "prob", "scale")
# every refusal names a field or states the rule the document broke
FUZZ_RULES = ("field ", "must", "expected", "needs", "unknown", "does not match",
              "out of range", "overflows", "budget", "not Hermitian", "shape")


def _containers(node, out):
    if isinstance(node, (dict, list)):
        out.append(node)
        for child in node.values() if isinstance(node, dict) else node:
            _containers(child, out)
    return out


def _fuzz_document(rng):
    """A base document with one to three random edits: a value replaced, a
    key or element removed, or a key added."""
    doc = copy.deepcopy(FUZZ_BASES[rng.integers(len(FUZZ_BASES))])
    for _ in range(rng.integers(1, 4)):
        nodes = _containers(doc, [])
        node = nodes[rng.integers(len(nodes))]
        value = copy.deepcopy(FUZZ_VALUES[rng.integers(len(FUZZ_VALUES))])
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        edit = rng.integers(3)
        if edit == 2 and isinstance(node, dict):
            node[FUZZ_KEYS[rng.integers(len(FUZZ_KEYS))]] = value
        elif not keys:
            continue
        elif edit == 1:
            del node[keys[rng.integers(len(keys))]]
        else:
            node[keys[rng.integers(len(keys))]] = value
    return doc


class TestModelFileFuzz:
    def test_every_refusal_is_a_value_error_naming_the_rule(self):
        rng = np.random.default_rng(20260)
        refused = 0
        for _ in range(2000):
            doc = _fuzz_document(rng)
            try:
                model_from_json(doc)
            except ValueError as exc:
                refused += 1
                message = str(exc)
                assert "\n" not in message and any(r in message for r in FUZZ_RULES), (
                    doc, message)
        # most edits break the document; the rest must still build
        assert 1000 < refused < 2000


def _cyclic_basis_doc():
    """Sign summands on the cells 3k mod 7 with four cycling scales, so that
    the cells hold different counts and every sum mixes scales."""
    scales = (0.31, 1.73, 2.9, 0.47)
    return {"summands": [
        {"family": "scaled_basis_rademacher", "index": 3 * k % 7, "scale": scales[k % 4], "dim": 7}
        for k in range(61)
    ]}


def _pin_model(key):
    if key == "cyclic":
        return model_from_json(_cyclic_basis_doc())
    if key == "mixed":
        return make_model(_mixed_summands(True))
    name, d, n = key.split("-")
    return make_example(name, d=int(d), n=int(n))


def _hex_digest(diag) -> str:
    return hashlib.sha256(",".join(map(float.hex, diag.tolist())).encode()).hexdigest()[:16]


# float.hex of v and L ("-" without a closed form) and the first 16 hex
# digits of the sha256 of the float.hex list of each moment diagonal,
# recorded with the dense per-object moment sum that preceded the
# per-object columns and the diagonal route
MOMENT_PINS = {
    key: tuple(None if x == "-" else x for x in values)
    for key, *values in map(str.split, """
sec71-4-100    0x1.0000000000003p+0  0x1.999999999999ap-4  5b1eddfff9804863 5b1eddfff9804863
sec71-16-100   0x1.0000000000003p+0  0x1.999999999999ap-4  02808e8482b10fb0 02808e8482b10fb0
sec71-64-100   0x1.0000000000003p+0  0x1.999999999999ap-4  81cedbeb20e9e8ce 81cedbeb20e9e8ce
sec71-256-100  0x1.0000000000003p+0  0x1.999999999999ap-4  bc7a69ac71ff4666 bc7a69ac71ff4666
sec72-4-100    0x1.fae147ae147bbp-1  0x1.f64f7b8aabe86p-1  616cc5aae22dbf0f 616cc5aae22dbf0f
sec72-16-100   0x1.fae147ae147bbp-1  0x1.fae145f4a654cp-1  782babe1975b35b0 782babe1975b35b0
sec72-64-100   0x1.fae147ae147bbp-1  0x1.fae147ae147aep-1  c6e61f92d071766e c6e61f92d071766e
sec72-256-100  0x1.fae147ae147bbp-1  0x1.fae147ae147aep-1  a897d35849d7f218 a897d35849d7f218
sec73-4-100    0x1.0000000000000p+2  0x1.0000000000000p+0  6323e6cb8ba6e960 6323e6cb8ba6e960
sec73-16-100   0x1.0000000000000p+4  0x1.0000000000000p+0  a3c76d5f1503ea20 a3c76d5f1503ea20
sec73-64-100   0x1.0000000000000p+6  0x1.0000000000000p+0  d1250b6bc2758ea0 d1250b6bc2758ea0
sec73-256-100  0x1.0000000000000p+8  0x1.0000000000000p+0  f7288d0efc23c98b f7288d0efc23c98b
sec74-4-100    0x1.0000000000000p+1  -                     00b1054c2ca5082f 00b1054c2ca5082f
sec74-16-100   0x1.0000000000000p+1  -                     5774b03de6efed61 5774b03de6efed61
sec74-64-100   0x1.0000000000000p+1  -                     2f272568d61e5f56 2f272568d61e5f56
sec74-256-100  0x1.0000000000000p+1  -                     5fd439ca9ad0c236 5fd439ca9ad0c236
sec71-256-400  0x1.fffffffffffa3p-1  0x1.999999999999ap-5  7d3a586e826f2445 7d3a586e826f2445
cyclic         0x1.fd98c7e28240bp+4  0x1.7333333333333p+1  ccdb4e9b77deba6e ccdb4e9b77deba6e
mixed          0x1.7af1c89b46890p+4  0x1.82c2b7eb68068p+1  8f55b67421bb3024 7309e52cc29e3555
""".strip().splitlines())
}


class TestMomentPins:
    """v, L and the moment diagonals keep every bit across set-up routes."""

    @pytest.mark.parametrize("key", sorted(MOMENT_PINS))
    def test_pinned(self, key):
        model = _pin_model(key)
        left, right = analytic_second_moments(model)
        try:
            L = large_dev_param(model).hex()
        except ValueError:  # no closed form (Pareto)
            L = None
        got = (variance_param(model).hex(), L,
               _hex_digest(np.diagonal(left).real), _hex_digest(np.diagonal(right).real))
        assert got == MOMENT_PINS[key]

    @pytest.mark.parametrize("key", sorted(MOMENT_PINS))
    def test_diagonal_route_equals_dense_route(self, key):
        model = _pin_model(key)
        left, right = analytic_second_moments(model)
        diagonals = moment_diagonals(model)
        if key == "mixed":  # fixed matrices and a finite support: dense moments
            assert diagonals is None
            return
        for dense, diag in zip((left, right), diagonals):
            assert np.diag(diag).astype(np.complex128).tobytes() == dense.tobytes()
        assert variance_param(model) == max(spectral_norm(left), spectral_norm(right))


def _example_from_constructors(name, d, n):
    """make_example's model built through the public family constructors,
    with the n repetitions of an entry sharing one object."""
    if name == "sec71":
        specs = [ScaledBasisRademacher(i, 1.0 / math.sqrt(n), d) for i in range(d)]
    elif name == "sec72":
        specs = [CenteredBernoulliBasis(i, 1.0 / n, d) for i in range(d)]
    elif name == "sec73":
        specs = [RademacherEntry(i, j, d) for i in range(d) for j in range(d)]
        return make_model(specs, name=name, n=d * d)
    else:
        return make_model([ParetoDiagonal(i, d) for i in range(d)], name=name, n=d)
    return make_model([s for s in specs for _ in range(n)], name=name, n=n)


def _assert_same(a, b):
    """Equal plan attributes: arrays in dtype and bits, containers item by item."""
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    elif isinstance(a, (list, tuple)):
        assert type(a) is type(b) and len(a) == len(b)
        for x, y in zip(a, b):
            _assert_same(x, y)
    else:
        assert a == b


class TestFastExampleBuild:
    """make_example hands the model the layout of its summands; the result
    equals the model that make_model derives from the constructors' summands."""

    @pytest.mark.parametrize(
        "name,d,n",
        [(name, d, n) for name in ("sec71", "sec72", "sec73", "sec74")
         for d, n in ((1, 1), (3, 4), (16, 1))]
        + [("sec71", 64, 100), ("sec72", 32, 7)],
    )
    def test_equals_constructor_build(self, name, d, n):
        fast, slow = make_example(name, d=d, n=n), _example_from_constructors(name, d, n)
        assert fast == slow  # d1, d2, summands, name, n, centered
        assert fast._distinct == slow._distinct
        assert [s.law for s in fast._distinct] == [s.law for s in slow._distinct]
        _assert_same(fast._inverse, slow._inverse)
        for field in ("laws", "code", "norm", "row", "col", "value", "weight"):
            _assert_same(getattr(fast._columns, field), getattr(slow._columns, field))
        fast_plan, slow_plan = SamplerPlan(fast), SamplerPlan(slow)
        assert vars(fast_plan).keys() == vars(slow_plan).keys()
        for key in vars(fast_plan).keys() - {"model"}:
            _assert_same(getattr(fast_plan, key), getattr(slow_plan, key))

    def test_guard_refuses_before_any_summand(self, monkeypatch):
        def built(*args):
            raise AssertionError("a summand was built")

        monkeypatch.setattr("matcon.models.ScalarSeries", built)
        monkeypatch.setattr("matcon.models._STACK_BYTES", 4800)
        with pytest.raises(ValueError, match="4800-byte plan budget"):
            make_example("sec73", d=11)

    @pytest.mark.parametrize("d", [2.0, True])
    def test_dim_must_be_an_integer(self, d):
        with pytest.raises(ValueError, match="positions and dim must be integers"):
            make_example("sec71", d=d, n=2)


def _max_sq_per_object(model):
    """E max_i ||S_i||^2 with one support key per distinct object, merged
    in order of first appearance: the reference for analytic_max_sq."""
    grouped = {}
    counts = np.bincount(model._inverse).tolist()
    for s, k in zip(model._distinct, counts):
        values, probs = s.sq_norm_support()
        key = tuple(map(float, values)), tuple(map(float, probs))
        grouped[key] = grouped.get(key, 0) + k
    union = np.array(sorted({v for values, _ in grouped for v in values}))
    log_cdf = np.zeros_like(union)
    with np.errstate(divide="ignore"):
        for (values, probs), k in grouped.items():
            cdf = np.concatenate(([0.0], np.cumsum(probs)))
            log_cdf += k * np.log(cdf[np.searchsorted(values, union, side="right")])
    return float(union[0] + np.dot(np.diff(union), -np.expm1(log_cdf[:-1])))


class TestMaxSqGrouping:
    def test_equal_supports_merge_as_per_object(self):
        # Bernoulli(0.3) and Bernoulli(0.7) share one ||S||^2 support, and so
        # do a sign series of scale 0.7 and a finite +-0.7 E_11; the groups
        # by (law, norm) must merge them in order of first object
        finite = FiniteSummand([(0.5, np.diag([0.0, 0.7])), (0.5, np.diag([0.0, -0.7]))])
        a, b = CenteredBernoulliBasis(0, 0.3, 2), CenteredBernoulliBasis(1, 0.7, 2)
        sign = ScaledBasisRademacher(0, 0.7, 2)
        summands = [finite, a, sign, b, RademacherEntry(0, 1, 2), a, finite,
                    ScaledBasisRademacher(1, -0.7, 2), b, CenteredBernoulliBasis(0, 0.3, 2)]
        model = make_model(summands)
        assert analytic_max_sq(model) == _max_sq_per_object(model)

    @pytest.mark.parametrize(
        "key", ["sec71-64-100", "sec72-16-100", "sec73-16-100", "cyclic", "mixed"]
    )
    def test_pinned_models(self, key):
        model = _pin_model(key)
        assert analytic_max_sq(model) == _max_sq_per_object(model)


# (name, d, n) of the column-build checks
COLUMN_CASES = [(name, d, n) for name in ("sec71", "sec72", "sec73", "sec74")
                for d, n in ((1, 1), (2, 3), (5, 1), (7, 16))] + [("sec72", 4, 1 << 16)]


class TestColumnBuild:
    """make_example computes its columns with numpy and builds its summand
    objects only when they are read."""

    @pytest.mark.parametrize("name,d,n", COLUMN_CASES)
    def test_columns_equal_constructor_objects(self, name, d, n):
        fast, slow = make_example(name, d=d, n=n), _example_from_constructors(name, d, n)
        want = _columns_of(slow._distinct)
        for field in ("laws", "code", "norm", "row", "col", "value", "weight"):
            _assert_same(getattr(fast._columns, field), getattr(want, field))
        _assert_same(fast._inverse, slow._inverse)
        # set-up reads the columns alone
        SamplerPlan(fast)
        analytic_second_moments(fast)
        analytic_max_sq(fast)
        assert center(fast)[0] is fast
        assert "_distinct" not in vars(fast)
        assert fast.summands == slow.summands
        assert model_to_json(fast) == model_to_json(slow)
        assert fast == slow

    @pytest.mark.parametrize("name", ["sec71", "sec72", "sec73", "sec74"])
    def test_report_builds_no_summand(self, monkeypatch, name):
        cfg = MCConfig(samples=32, seed=3)
        want = bound_report(_example_from_constructors(name, 16, 3), cfg)

        def built(*args):
            raise AssertionError("a summand was built")

        for constructor in ("ScalarSeries", "ScaledBasisRademacher", "CenteredBernoulliBasis",
                            "RademacherEntry", "ParetoDiagonal"):
            monkeypatch.setattr(f"matcon.models.{constructor}", built)
        assert bound_report(make_example(name, d=16, n=3), cfg) == want


def _bincount_twin(plan):
    """A copy of `plan` whose identity cell maps are explicit arrays, so
    that its scatters run the bincount."""
    if not hasattr(plan, "groups"):  # a row plan builds its tables on demand
        plan._build_tables()
    twin = copy.copy(plan)
    d1, d2 = plan.model.d1, plan.model.d2
    if plan.rows is None:
        twin.rows = np.arange(d1)
    if plan.cells is None:
        twin.cells = np.arange(d1 * d2)
    return twin


class TestIdentityCellMap:
    """A cell map that is the identity is recorded as None and skips the
    scatter; the draws plus 0.0 equal the bincount bit for bit."""

    IDX = np.arange(5, dtype=np.uint64)

    @pytest.mark.parametrize("name,d,table", [("sec73", 6, "cells"), ("sec74", 9, "rows")])
    def test_examples_record_identity(self, name, d, table):
        plan = SamplerPlan(make_example(name, d=d))
        assert getattr(plan, table) is None
        twin = _bincount_twin(plan)
        got, want = plan.realize(7, self.IDX), twin.realize(7, self.IDX)
        assert got[0].dtype == want[0].dtype and got[0].tobytes() == want[0].tobytes()
        if plan.diagonal:
            got, want = plan.realize_diagonal(7, self.IDX), twin.realize_diagonal(7, self.IDX)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()

    def test_negative_zero_weights(self):
        # scale -0.0: every term is a signed zero, and both routes give +0.0
        diag = SamplerPlan(make_model([ScaledBasisRademacher(i, -0.0, 4) for i in range(4)]))
        one = SamplerPlan(make_model([ScaledBasisRademacher(0, -0.0, 1)]))
        terms = diag._draw(7, self.IDX, False)[0] * diag.values
        assert np.signbit(terms).any()
        for got, want in ((diag.realize_diagonal(7, self.IDX)[0],
                           _bincount_twin(diag).realize_diagonal(7, self.IDX)[0]),
                          (one.realize(7, self.IDX)[0],
                           _bincount_twin(one).realize(7, self.IDX)[0])):
            assert got.tobytes() == want.tobytes()
            assert not np.signbit(got).any()
        assert diag.rows is None and one.cells is None
