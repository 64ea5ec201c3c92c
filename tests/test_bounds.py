from __future__ import annotations

import math

import numpy as np
import pytest

from matcon import (
    BoundInterval,
    FiniteSummand,
    FixedRademacher,
    HermitianMatrix,
    brute_force_expected_norm,
    dimensional_constant,
    estimate_max_summand_sq,
    large_dev_param,
    main_interval,
    make_example,
    make_model,
    psd_case_interval,
    rademacher_bound,
    spectral_norm,
    sweep_rademacher_domination,
    trace_moment_bound,
    variance_param,
)
from matcon.bounds import (
    FIRST_MOMENT,
    SECOND_MOMENT,
    DominationRecord,
    replay_domination_case,
)
from matcon.linalg import dilation_stack


def rand_hermitian(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return HermitianMatrix((g + g.conj().T) / 2)


class TestDimensionalConstant:
    def test_minimal(self):
        assert dimensional_constant(2) == pytest.approx(12.0)

    def test_total_eight(self):
        assert dimensional_constant(8) == pytest.approx(28.0)

    def test_nondecreasing(self):
        values = [dimensional_constant(total) for total in range(1, 200)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            dimensional_constant(0)


class TestVarianceParam:
    def test_sec71_is_one(self):
        assert variance_param(make_example("sec71", d=4, n=7)) == pytest.approx(1.0)

    def test_sec73_is_d(self):
        assert variance_param(make_example("sec73", d=6)) == pytest.approx(6.0)

    def test_sec74_is_two(self):
        assert variance_param(make_example("sec74", d=5)) == pytest.approx(2.0)

    def test_rectangular_takes_max_of_sides(self):
        # single deterministic-sign 1x2 summand: E SS* = [[2]], E S*S has norms 2, max picked
        s = FiniteSummand([(0.5, np.array([[1.0, 1.0]])), (0.5, -np.array([[1.0, 1.0]]))])
        model = make_model([s])
        assert variance_param(model) == pytest.approx(2.0)

    def test_uncentered_rejected(self):
        model = make_model([FiniteSummand([(1.0, np.eye(2))])])
        with pytest.raises(ValueError):
            variance_param(model)


class TestLargeDevParam:
    def test_sec71(self):
        L = large_dev_param(make_example("sec71", d=3, n=4))
        assert L**2 == pytest.approx(0.25)

    def test_sec73(self):
        L = large_dev_param(make_example("sec73", d=4))
        assert L**2 == pytest.approx(1.0)

    def test_fixed_rademacher_deterministic_max(self):
        rng = np.random.default_rng(0)
        hs = [rand_hermitian(rng, 3) for _ in range(4)]
        model = make_model([FixedRademacher(h) for h in hs])
        assert large_dev_param(model) == pytest.approx(max(spectral_norm(h) for h in hs))

    def test_analytic_unavailable_raises(self):
        model = make_example("sec74", d=3)
        with pytest.raises(ValueError):
            large_dev_param(model)

    def test_monte_carlo_mode(self):
        from matcon import MCConfig

        model = make_example("sec74", d=3)
        cfg = MCConfig(samples=4000, seed=3, estimator="median_of_means")
        L = math.sqrt(estimate_max_summand_sq(model, cfg).mean)
        # E max_i P_i^2 for 3 iid quartic-tail variables is a bit above E P^2 = 2
        assert 1.2 <= L <= 3.5


class TestMainInterval:
    def test_zero_inputs(self):
        iv = main_interval(0.0, 0.0, 4)
        assert iv.lower == 0.0 and iv.upper == 0.0

    def test_documented_point(self):
        iv = main_interval(1.0, 0.1, 4)
        assert iv.lower == pytest.approx(0.525)
        assert iv.constant == pytest.approx(20.0)
        assert iv.upper == pytest.approx(math.sqrt(20.0) + 2.0)

    def test_first_moment_constant(self):
        iv2 = main_interval(1.0, 0.1, 4, moment=SECOND_MOMENT)
        iv1 = main_interval(1.0, 0.1, 4, moment=FIRST_MOMENT)
        assert iv1.lower == pytest.approx(math.sqrt(1.0 / 8.0) + 0.1 / 8.0)
        assert iv1.upper == pytest.approx(iv2.upper)
        assert iv1.lower < iv2.lower

    def test_monotone_in_v_and_L(self):
        base = main_interval(1.0, 0.5, 6)
        more_v = main_interval(1.5, 0.5, 6)
        more_l = main_interval(1.0, 0.8, 6)
        assert more_v.lower > base.lower and more_v.upper > base.upper
        assert more_l.lower > base.lower and more_l.upper > base.upper

    def test_inputs_validation(self):
        with pytest.raises(ValueError):
            main_interval(-1.0, 1.0, 4)
        with pytest.raises(ValueError):
            main_interval(1.0, 0.0, 4)  # L = 0 forces v = 0
        with pytest.raises(ValueError):
            main_interval(1.0, 1.0, 0)
        with pytest.raises(ValueError):
            main_interval(1.0, 1.0, 4, moment="third")

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            BoundInterval(lower=2.0, upper=1.0, constant=12.0)


# the main theorem on exact E||Z||^2: the seed was fixed before the check
# was first run; a failing case is a finding, not a reason to pick another
THEOREM_SEED = 1506
THEOREM_CASES = 200


def _theorem_cases():
    """(d1 + d2, v, L, exact E||Z||^2) of THEOREM_CASES random centered
    finite models: d1, d2 <= 3, square in every other case, and n <= 4
    summands of 2 or 3 complex outcomes each, enumerated exactly."""
    rng = np.random.default_rng(THEOREM_SEED)
    cases = []
    for i in range(THEOREM_CASES):
        d1 = int(rng.integers(1, 4))
        d2 = d1 if i % 2 == 0 else int(rng.choice([d for d in (1, 2, 3) if d != d1]))
        summands = []
        for _ in range(int(rng.integers(1, 5))):
            c = int(rng.integers(2, 4))
            probs = rng.uniform(0.1, 1.0, size=c)
            probs /= probs.sum()
            mats = rng.normal(size=(c, d1, d2)) + 1j * rng.normal(size=(c, d1, d2))
            summands.append(FiniteSummand(zip(probs, mats)).centered())
        model = make_model(summands)
        exact = brute_force_expected_norm(summands, r=2)
        cases.append((d1 + d2, variance_param(model), large_dev_param(model), exact))
    return cases


class TestMainTheoremExact:
    """lower <= (E||Z||^2)^(1/2) <= upper of main_interval(v, L, d1 + d2)
    and E||Z||^2 >= v, on exact enumeration with no slack; each failure
    message gives the tightest ratio."""

    @pytest.fixture(scope="class")
    def cases(self):
        return _theorem_cases()

    def test_interval_holds(self, cases):
        bad, lows, highs = [], [], []
        for i, (dim, v, L, exact) in enumerate(cases):
            iv, root = main_interval(v, L, dim), math.sqrt(exact)
            if not iv.lower <= root <= iv.upper:
                bad.append(i)
            lows.append(root / iv.lower)
            highs.append(iv.upper / root)
        assert not bad, (
            f"{len(bad)} of {len(cases)} cases break the interval, first {bad[:5]}; "
            f"tightest exact/lower {min(lows):.6g}, upper/exact {min(highs):.6g}"
        )

    def test_second_moment_at_least_v(self, cases):
        # E||Z||^2 >= ||E ZZ*|| by Jensen, an equality for one rank-one summand
        ratios = [exact / v for _, v, _, exact in cases]
        assert min(ratios) >= 1.0 - 1e-12, f"tightest E||Z||^2 / v {min(ratios)!r}"

    def test_planted_fault_is_caught(self, cases):
        # sqrt(v) + L/4 in place of sqrt(v)/2 + L/4 is no lower bound
        caught = sum(math.sqrt(exact) < math.sqrt(v) + L / 4.0 for _, v, L, exact in cases)
        assert caught > 0, f"the planted lower end sqrt(v) + L/4 held on all {len(cases)} cases"


class TestRademacherBound:
    def test_single_summand(self):
        rng = np.random.default_rng(1)
        h = rand_hermitian(rng, 2)
        assert rademacher_bound([h]) == pytest.approx(math.sqrt(3.0) * spectral_norm(h))

    def test_isotropic_family(self):
        # sum of squares = identity: bound reduces to the dimensional root
        for d in (2, 4, 7):
            mats = []
            for i in range(d):
                e = np.zeros((d, d))
                e[i, i] = 1.0
                mats.append(HermitianMatrix(e))
            want = math.sqrt(1.0 + 2.0 * math.ceil(math.log(d)))
            assert rademacher_bound(mats) == pytest.approx(want)

    def test_empty_list(self):
        assert rademacher_bound([]) == 0.0

    def test_dominates_exact_enumeration(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            d = int(rng.integers(1, 7))
            n = int(rng.integers(1, 11))
            hs = [rand_hermitian(rng, d) for _ in range(n)]
            summands = [
                FiniteSummand([(0.5, h.array), (0.5, -h.array)]) for h in hs
            ]
            exact = math.sqrt(brute_force_expected_norm(summands, r=2))
            bound = rademacher_bound(hs)
            assert bound >= exact - 1e-9 * max(1.0, bound)

    def test_sweep_helper(self):
        records = sweep_rademacher_domination(cases=50, seed=20260814)
        assert len(records) == 50
        assert all(r.rel_slack >= -1e-9 for r in records)

    @pytest.mark.parametrize("seed", [21, 9090])
    def test_sweep_records_equal_replay(self, seed):
        records = sweep_rademacher_domination(cases=200, seed=seed)
        assert [r.index for r in records] == list(range(200))
        for r in records:
            alone = replay_domination_case(seed, r.index)
            assert alone.index == r.index
            assert (r.bound.hex(), r.exact.hex(), r.rel_slack.hex()) == (
                alone.bound.hex(), alone.exact.hex(), alone.rel_slack.hex()
            )

    def test_record_verdict(self):
        def record(rel_slack):
            return DominationRecord(index=0, bound=1.0, exact=1.0, rel_slack=rel_slack)

        assert record(0.5).holds and record(-1e-9).holds
        assert not record(-2e-9).holds
        assert not record(math.nan).holds


class TestTraceMomentBound:
    def test_p_zero_sentinel(self):
        rng = np.random.default_rng(3)
        assert trace_moment_bound([rand_hermitian(rng, 2)], p=0) == math.inf

    def test_p_one_value(self):
        rng = np.random.default_rng(4)
        hs = [rand_hermitian(rng, 3) for _ in range(2)]
        total = sum(h.array @ h.array for h in hs)
        want = math.sqrt(3.0 * spectral_norm(HermitianMatrix(total)))
        assert trace_moment_bound(hs, p=1) == pytest.approx(want)

    def test_trace_second_moment_enumeration(self):
        # E tr X^2 over all sign patterns equals tr of the sum of squares
        rng = np.random.default_rng(5)
        hs = [rand_hermitian(rng, 3) for _ in range(6)]
        total_tr = 0.0
        for combo in np.ndindex(*(2,) * len(hs)):
            x = sum((1.0 - 2.0 * c) * h.array for c, h in zip(combo, hs))
            total_tr += np.real(np.trace(x @ x))
        total_tr /= 2 ** len(hs)
        want = np.real(np.trace(sum(h.array @ h.array for h in hs)))
        assert total_tr == pytest.approx(want, rel=1e-10)

    def test_matches_rademacher_at_log_d(self):
        rng = np.random.default_rng(6)
        for d in (2, 4, 6):
            hs = [rand_hermitian(rng, d) for _ in range(3)]
            p = max(1, math.ceil(math.log(d)))
            tm = trace_moment_bound(hs, p=p)
            rb = rademacher_bound(hs)
            assert tm <= rb * (1.0 + 1e-12)

    def test_empty_list(self):
        assert trace_moment_bound([], p=2) == 0.0


class TestCaseBounds:
    def test_psd_upper_collapses_for_deterministic(self):
        iv = psd_case_interval(mean_norm=3.5, expected_max_norm=0.0, dim=4)
        assert iv.upper == pytest.approx(3.5)

    def test_hermitian_upper_documented_point(self):
        iv = main_interval(1.0, 1.0, 2)
        assert iv.upper == pytest.approx(math.sqrt(12.0) + 12.0)

    def test_psd_lower_documented_point(self):
        iv = psd_case_interval(mean_norm=4.0, expected_max_norm=1.0, dim=3)
        assert iv.lower == pytest.approx(2.25)

    def test_zero_stats(self):
        assert main_interval(0.0, 0.0, 2).lower == 0.0
        assert psd_case_interval(0.0, 0.0, dim=2).lower == 0.0

    def test_lower_at_most_upper_random_sweep(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            a, b = rng.uniform(0.0, 10.0, size=2)
            d1, d2 = (int(x) for x in rng.integers(1, 50, size=2))
            for iv in (
                psd_case_interval(a, b, dim=d1),
                main_interval(a, math.sqrt(b), d1),
                main_interval(a, math.sqrt(b), d1 + d2),
            ):
                assert iv.lower <= iv.upper

    def test_rectangular_equals_dilated_hermitian(self):
        # the rectangular stats of a family B_i (max of the two Gram norms,
        # max_i ||B_i||, d1 + d2) are the Hermitian stats of its dilations
        rng = np.random.default_rng(8)
        for _ in range(100):
            d1, d2 = (int(x) for x in rng.integers(1, 6, size=2))
            n = int(rng.integers(1, 4))
            b = rng.normal(size=(n, d1, d2)) + 1j * rng.normal(size=(n, d1, d2))
            bh = b.conj().transpose(0, 2, 1)
            v = max(spectral_norm(sum(b @ bh)), spectral_norm(sum(bh @ b)))
            L = max(spectral_norm(x) for x in b)
            dil = dilation_stack(b)
            herm = main_interval(
                spectral_norm(sum(dil @ dil)),
                max(spectral_norm(x) for x in dil),
                dil.shape[-1],
            )
            rect = main_interval(v, L, d1 + d2)
            rect_lo, rect_up = rect.lower, rect.upper
            assert abs(rect_lo - herm.lower) <= 1e-12 * max(1.0, rect_lo)
            assert abs(rect_up - herm.upper) <= 1e-12 * max(1.0, rect_up)

    def test_negative_stats_rejected(self):
        with pytest.raises(ValueError):
            psd_case_interval(-1.0, 0.0, dim=2)
        with pytest.raises(ValueError):
            main_interval(1.0, -2.0, 2)
        with pytest.raises(ValueError):
            main_interval(1.0, 1.0, 0)


class TestPsdComponentInequalities:
    def test_components_bounded_by_expected_norm(self):
        # W = sum of independent two-outcome PSD summands, enumerated exactly
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            summands = []
            for _ in range(n):
                g1 = rng.normal(size=(3, 3))
                g2 = rng.normal(size=(3, 3))
                summands.append(
                    FiniteSummand(
                        [(0.5, g1 @ g1.T / 3.0), (0.5, g2 @ g2.T / 3.0)]
                    )
                )
            mean_w = sum(s.mean() for s in summands)
            mean_norm = spectral_norm(HermitianMatrix(mean_w))
            e_norm_w = brute_force_expected_norm(summands, r=1)

            # E max_i ||T_i|| over the product distribution
            norms = [s.outcome_norms() for s in summands]
            probs = [s.probabilities for s in summands]
            e_max = 0.0
            for combo in np.ndindex(*(len(p) for p in probs)):
                pr = float(np.prod([p[c] for p, c in zip(probs, combo)]))
                e_max += pr * max(nr[c] for nr, c in zip(norms, combo))

            assert mean_norm <= e_norm_w + 1e-12 * max(1.0, e_norm_w)
            assert e_max <= e_norm_w + 1e-12 * max(1.0, e_norm_w)
