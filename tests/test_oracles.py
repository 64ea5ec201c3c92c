from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from matcon import (
    HermitianMatrix,
    KINDS,
    FactCase,
    FiniteSummand,
    brute_force_expected_norm,
    spectral_norm,
    sweep_fact_kind,
    sweep_symmetrization,
    symmetrization_check,
    verify_fact,
)
from matcon import oracles
from matcon.bounds import sweep_rademacher_domination
from matcon.oracles import (
    case_rng,
    odd_double_factorial,
    random_fact_case,
    random_hermitian_family,
    replay_fact_case,
)


def rand_hermitian(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return HermitianMatrix((g + g.conj().T) / 2)


def rand_psd(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return HermitianMatrix(g @ g.conj().T / d)


class TestFactCaseConstruction:
    def test_heinz_rejects_bad_hypotheses(self):
        with pytest.raises(ValueError):
            FactCase.heinz(-1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            FactCase.heinz(1.0, 1.0, 1.5)

    def test_gm_am_trace_rejects_bad_exponents(self):
        rng = np.random.default_rng(0)
        h, w, y = (rand_hermitian(rng, 2) for _ in range(3))
        with pytest.raises(ValueError):
            FactCase.gm_am_trace(h, w, y, r=1, q=3)
        with pytest.raises(ValueError):
            FactCase.gm_am_trace(h, w, y, r=-1, q=0)

    def test_sum_squares_rejects_non_psd(self):
        bad = HermitianMatrix(np.diag([1.0, -1.0]))
        with pytest.raises(ValueError):
            FactCase.sum_squares([bad])

    def test_trace_product_rejects_non_psd(self):
        rng = np.random.default_rng(1)
        h = rand_hermitian(rng, 2)
        bad = HermitianMatrix(np.diag([1.0, -2.0]))
        with pytest.raises(ValueError):
            FactCase.trace_product(h, bad)

    def test_monotonicity_rejects_unordered_pair(self):
        a = HermitianMatrix(np.diag([2.0, 2.0]))
        h = HermitianMatrix(np.diag([1.0, 3.0]))
        with pytest.raises(ValueError):
            FactCase.monotonicity(a, h)

    def test_double_factorial_rejects_negative(self):
        with pytest.raises(ValueError):
            FactCase.double_factorial(-1)

    def test_named_constructor_equals_replay(self):
        # a named constructor on a sweep case's raw draws builds the batch
        # that replay validates from the sweep's own stacks, bit for bit
        for kind in KINDS:
            for index in range(20):
                [(_, raw)] = random_fact_case(kind, case_rng(11, kind, index))
                built = getattr(FactCase, kind)(**{k: v[0] for k, v in raw.items()})
                replayed = replay_fact_case(11, kind, index)
                assert list(built.batch) == list(replayed.batch)
                for key, value in built.batch.items():
                    other = replayed.batch[key]
                    assert value.dtype == other.dtype and value.shape == other.shape
                    assert value.tobytes() == other.tobytes()


class TestVerifyFact:
    def test_heinz_symmetric_point(self):
        res = verify_fact(FactCase.heinz(4.0, 1.0, 0.5))
        assert res.holds
        assert res.lhs == pytest.approx(4.0)
        assert res.rhs == pytest.approx(5.0)

    def test_heinz_endpoints_are_tight(self):
        res = verify_fact(FactCase.heinz(3.0, 2.0, 0.0))
        assert res.holds
        assert res.lhs == pytest.approx(res.rhs)

    def test_double_factorial_p3(self):
        res = verify_fact(FactCase.double_factorial(3))
        assert res.holds
        assert res.lhs == pytest.approx(15.0)
        assert res.rhs == pytest.approx((7.0 / math.e) ** 3)

    def test_odd_double_factorial_values(self):
        assert [odd_double_factorial(p) for p in (1, 2, 3, 4)] == [1, 3, 15, 105]

    def test_gm_am_trace_random(self):
        rng = np.random.default_rng(2)
        h, w, y = (rand_hermitian(rng, 3) for _ in range(3))
        res = verify_fact(FactCase.gm_am_trace(h, w, y, r=2, q=1))
        assert res.holds
        assert res.slack >= -res.tolerance

    def test_gm_am_trace_fault_injection_detected(self):
        rng = np.random.default_rng(3)
        h, w, y = (rand_hermitian(rng, 3) for _ in range(3))
        case = FactCase.gm_am_trace(h, w, y, r=1, q=0)
        assert verify_fact(case).holds
        assert not verify_fact(case, inject_fault=True).holds

    def test_diff_powers_identity(self):
        rng = np.random.default_rng(4)
        w, y = rand_hermitian(rng, 3), rand_hermitian(rng, 3)
        res = verify_fact(FactCase.diff_powers(w, y, p=3))
        assert res.holds
        assert abs(res.lhs - res.rhs) <= res.tolerance

    def test_sum_squares_random(self):
        rng = np.random.default_rng(5)
        mats = [rand_psd(rng, 3) for _ in range(4)]
        res = verify_fact(FactCase.sum_squares(mats))
        assert res.holds

    def test_trace_product_random(self):
        rng = np.random.default_rng(6)
        res = verify_fact(FactCase.trace_product(rand_hermitian(rng, 3), rand_psd(rng, 3)))
        assert res.holds

    def test_monotonicity_random(self):
        rng = np.random.default_rng(7)
        a = rand_hermitian(rng, 3)
        h = HermitianMatrix(a.array + rand_psd(rng, 3).array)
        res = verify_fact(FactCase.monotonicity(a, h))
        assert res.holds

    def test_dilation_square_blocks(self):
        rng = np.random.default_rng(8)
        b = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        res = verify_fact(FactCase.dilation_square(b))
        assert res.holds
        scale = max(1.0, float(np.linalg.norm(b @ b.conj().T, ord="fro")))
        assert res.detail["upper_block_deviation"] <= 1e-12 * scale
        assert res.detail["lower_block_deviation"] <= 1e-12 * scale
        assert res.detail["offdiagonal_mass"] <= 1e-12 * scale

    def test_result_slack_consistent(self):
        res = verify_fact(FactCase.heinz(9.0, 4.0, 0.25))
        assert res.slack == pytest.approx(res.rhs - res.lhs)
        assert res.holds == (res.lhs <= res.rhs + res.tolerance)


class TestFiniteSummand:
    def test_probabilities_must_sum_to_one(self):
        h = np.eye(2)
        with pytest.raises(ValueError):
            FiniteSummand([(0.5, h), (0.4, -h)])
        with pytest.raises(ValueError):
            FiniteSummand([(1.2, h), (-0.2, -h)])

    def test_centered_has_zero_mean(self):
        rng = np.random.default_rng(9)
        a, b = rng.normal(size=(2, 2, 2))
        s = FiniteSummand([(0.3, a), (0.7, b)])
        c = s.centered()
        mean = sum(p * m for p, m in c.outcomes())
        assert np.max(np.abs(mean)) < 1e-12

    def test_sign_modulated_doubles_support(self):
        s = FiniteSummand([(1.0, np.eye(2))])
        sm = s.sign_modulated()
        assert len(sm.probabilities) == 2
        assert np.allclose(sm.probabilities, [0.5, 0.5])
        outs = sm.outcomes()
        assert np.allclose(outs[0][1], -outs[1][1])


class TestBruteForce:
    def test_sign_invariant_pair(self):
        rng = np.random.default_rng(10)
        h = rand_hermitian(rng, 3)
        s = FiniteSummand([(0.5, h.array), (0.5, -h.array)])
        val = brute_force_expected_norm([s], r=2)
        assert val == pytest.approx(spectral_norm(h) ** 2, rel=1e-12)

    def test_orthogonal_basis_pair_always_norm_one(self):
        e1 = np.diag([1.0, 0.0])
        e2 = np.diag([0.0, 1.0])
        summands = [
            FiniteSummand([(0.5, e1), (0.5, -e1)]),
            FiniteSummand([(0.5, e2), (0.5, -e2)]),
        ]
        assert brute_force_expected_norm(summands, r=2) == pytest.approx(1.0)

    def test_matches_monte_carlo_three_rademacher(self):
        rng = np.random.default_rng(11)
        mats = [rand_hermitian(rng, 3).array for _ in range(3)]
        summands = [
            FiniteSummand([(0.5, m), (0.5, -m)]) for m in mats
        ]
        exact = brute_force_expected_norm(summands, r=2)
        draws = 4000
        signs = rng.choice([-1.0, 1.0], size=(draws, 3))
        vals = np.empty(draws)
        for k in range(draws):
            z = sum(s * m for s, m in zip(signs[k], mats))
            vals[k] = np.linalg.norm(z, 2) ** 2
        se = vals.std(ddof=1) / math.sqrt(draws)
        assert abs(exact - vals.mean()) <= 3.0 * se

    def test_permutation_invariance(self):
        rng = np.random.default_rng(12)
        summands = []
        for _ in range(4):
            a, b = rand_hermitian(rng, 2).array, rand_hermitian(rng, 2).array
            summands.append(FiniteSummand([(0.25, a), (0.75, b)]))
        base = brute_force_expected_norm(summands, r=2)
        for perm in ([3, 1, 0, 2], [1, 0, 3, 2], [2, 3, 1, 0]):
            shuffled = [summands[i] for i in perm]
            assert brute_force_expected_norm(shuffled, r=2) == pytest.approx(
                base, abs=1e-12 * max(1.0, base)
            )

    def test_cap_enforced(self):
        s = FiniteSummand([(0.5, np.eye(1)), (0.5, -np.eye(1))])
        with pytest.raises(ValueError):
            brute_force_expected_norm([s] * 25, r=2)

    def test_first_moment(self):
        h = HermitianMatrix(np.diag([2.0, 0.0]))
        s = FiniteSummand([(0.5, h.array), (0.5, -h.array)])
        assert brute_force_expected_norm([s], r=1) == pytest.approx(2.0)


class TestSymmetrization:
    def test_already_symmetric_single_summand(self):
        rng = np.random.default_rng(13)
        m = rand_hermitian(rng, 2)
        s = FiniteSummand([(0.5, m.array), (0.5, -m.array)])
        res = symmetrization_check([s], r=1)
        assert res.holds
        nrm = spectral_norm(m)
        assert res.detail["centered_moment"] == pytest.approx(nrm)
        assert res.detail["signed_moment"] == pytest.approx(nrm)

    def test_deterministic_summands_center_to_zero(self):
        a = FiniteSummand([(1.0, np.diag([1.0, 2.0]))])
        b = FiniteSummand([(1.0, np.diag([3.0, -1.0]))])
        res = symmetrization_check([a, b], r=2)
        assert res.detail["centered_moment"] == 0.0

    def test_random_zero_mean_instances_hold(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            summands = []
            for _ in range(3):
                p = float(rng.uniform(0.2, 0.8))
                a = rand_hermitian(rng, 2).array
                summands.append(
                    FiniteSummand([(p, a), (1.0 - p, -p / (1.0 - p) * a)])
                )
            res = symmetrization_check(summands, r=2)
            assert res.holds, res.detail


class TestSweeps:
    @pytest.mark.parametrize("kind", KINDS)
    def test_small_sweep_passes(self, kind):
        res = sweep_fact_kind(kind, cases=40, seed=20260814)
        assert res.ok
        assert res.passed == res.cases == 40

    def test_sweep_deterministic_replay(self):
        a = sweep_fact_kind("heinz", cases=10, seed=5)
        b = sweep_fact_kind("heinz", cases=10, seed=5)
        assert a.passed == b.passed and a.failures == b.failures

    def test_fault_injection_fails_sweep(self):
        res = sweep_fact_kind("gm_am_trace", cases=40, seed=99, inject_fault=True)
        assert not res.ok
        assert res.failures

    def test_fault_injection_leaves_other_kinds_alone(self):
        res = sweep_fact_kind("heinz", cases=40, seed=99, inject_fault=True)
        assert res.ok

    def test_symmetrization_sweep(self):
        res = sweep_symmetrization(cases=25, seed=20260814)
        assert res.ok
        assert res.cases == 25

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            sweep_fact_kind("no_such_fact", cases=1, seed=0)


def _bits(result):
    """CheckResult fields with every float as its exact bit pattern."""
    return (
        result.holds,
        result.lhs.hex(),
        result.rhs.hex(),
        result.slack.hex(),
        result.tolerance.hex(),
        result.kind,
        tuple((key, value.hex()) for key, value in sorted(result.detail.items())),
    )


def _replay(kind, seed, cases, inject_fault=False):
    """verify_fact on every case, drawn one at a time from its key."""
    return [
        verify_fact(replay_fact_case(seed, kind, i), inject_fault=inject_fault)
        for i in range(cases)
    ]


class TestBatchedSweep:
    """The stacked sweep against case-by-case replay."""

    CASES = 300  # more than one block of stacked cases

    @pytest.mark.parametrize("inject_fault", [False, True])
    @pytest.mark.parametrize("kind", KINDS)
    def test_batch_equals_replay(self, kind, inject_fault):
        seed = 4242
        res = sweep_fact_kind(kind, cases=self.CASES, seed=seed, inject_fault=inject_fault)
        want = _replay(kind, seed, self.CASES, inject_fault)
        want_failed = [i for i, r in enumerate(want) if not r.holds]
        assert [i for i, _ in res.failures] == want_failed
        assert [_bits(r) for _, r in res.failures] == [
            _bits(r) for r in want if not r.holds
        ]
        if kind == "gm_am_trace" and inject_fault:
            assert res.failures

        # every case, not only the failures: evaluate the drawn stacks
        groups = random_fact_case(kind, case_rng(seed, kind, range(self.CASES)))
        got = [None] * self.CASES
        for ix, batch in groups:
            _, result = oracles._evaluate(kind, batch, inject_fault)
            for j, i in enumerate(ix):
                got[i] = _bits(result(j))
        assert got == [_bits(r) for r in want]

    @pytest.mark.parametrize("kind", KINDS)
    def test_prefix(self, kind):
        fault = kind == "gm_am_trace"
        short = sweep_fact_kind(kind, cases=90, seed=17, inject_fault=fault)
        full = sweep_fact_kind(kind, cases=self.CASES, seed=17, inject_fault=fault)
        head = tuple((i, r) for i, r in full.failures if i < 90)
        assert [(i, _bits(r)) for i, r in short.failures] == [
            (i, _bits(r)) for i, r in head
        ]
        assert short.cases == 90 and full.cases == self.CASES


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestDrawnCasesAreValid:
    """The sweeps evaluate their draws unchecked: a drawn batch is one the
    FactCase validation returns unchanged, bit for bit, and does not refuse."""

    SEEDS = (11, 2024, 90210)  # fixed in advance
    CASES = 2000

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_validation_returns_the_draw(self, kind, seed):
        seen = 0
        for ix, batch in random_fact_case(kind, case_rng(seed, kind, range(self.CASES))):
            checked = oracles._validated(kind, batch)
            assert checked.keys() == batch.keys()
            for field, value in batch.items():
                assert _same_bits(checked[field], value), (kind, field)
            seen += len(ix)
        assert seen == self.CASES


class TestCaseStreams:
    """Cases drawn as whole stacks from the counter RNG, keyed by (seed,
    stream, index, slot): a one-element draw is its row of the block draw."""

    CASES = 120
    SEED = 808

    def test_random_hermitian_families_are_exactly_hermitian(self):
        groups = random_hermitian_family(case_rng(self.SEED, "rademacher", range(self.CASES)))
        assert len(groups) > 10
        for _, stack in groups:
            assert np.array_equal(stack, stack.conj().swapaxes(-1, -2))

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_element_draw_is_its_block_row(self, kind):
        block = random_fact_case(kind, case_rng(self.SEED, kind, range(self.CASES)))
        seen = 0
        for ix, batch in block:
            for j, i in enumerate(ix.tolist()):
                [(pos, alone)] = random_fact_case(kind, case_rng(self.SEED, kind, i))
                assert pos.tolist() == [0] and alone.keys() == batch.keys()
                for field, value in batch.items():
                    assert _same_bits(alone[field][0], value[j]), (i, field)
                seen += 1
        assert seen == self.CASES

    def test_symmetrization_one_element_draw_is_its_block_row(self):
        block = oracles.random_zero_mean_summands(
            oracles.symmetrization_rng(self.SEED, range(self.CASES))
        )
        seen = 0
        for ix, (probs, mats) in block:
            for j, i in enumerate(ix.tolist()):
                [(pos, (p_alone, m_alone))] = oracles.random_zero_mean_summands(
                    oracles.symmetrization_rng(self.SEED, i)
                )
                assert pos.tolist() == [0]
                assert p_alone.shape[1] == probs.shape[1] >= 1
                for s in range(probs.shape[1]):
                    a = FiniteSummand(zip(p_alone[0, s], m_alone[0, s]))
                    assert _same_bits(a.probabilities, probs[j, s])
                    assert _same_bits(a.matrices, mats[j, s])
                    assert np.abs(a.mean()).max() <= 1e-12 * max(1.0, np.abs(a.matrices).max())
                seen += 1
        assert seen == self.CASES

    def test_domination_one_element_draw_is_its_block_row(self):
        key = case_rng(self.SEED, "rademacher", range(self.CASES))
        seen = 0
        for ix, stack in oracles.random_hermitian_family(key):
            for j, i in enumerate(ix.tolist()):
                alone_key = case_rng(self.SEED, "rademacher", i)
                [(pos, alone)] = oracles.random_hermitian_family(alone_key)
                assert pos.tolist() == [0]
                family = stack[j]
                assert _same_bits(alone[0], family)
                assert np.array_equal(family, family.conj().swapaxes(1, 2))
                seen += 1
        assert seen == self.CASES

    def test_streams_differ(self):
        index = range(50)
        words = {
            stream: oracles.case_rng(self.SEED, stream, index).uniform(0).tobytes()
            for stream in (*KINDS, "rademacher", "symmetrization")
        }
        assert len(set(words.values())) == 10
        assert [oracles._STREAMS[s] for s in words] == list(range(10))

    @pytest.mark.parametrize("kind", KINDS)
    def test_block_size_does_not_change_failures(self, monkeypatch, kind):
        fault = kind == "gm_am_trace"
        default = sweep_fact_kind(kind, cases=100, seed=17, inject_fault=fault)
        monkeypatch.setattr(oracles, "_SWEEP_BLOCK", 7)
        small = sweep_fact_kind(kind, cases=100, seed=17, inject_fault=fault)
        assert [(i, _bits(r)) for i, r in small.failures] == [
            (i, _bits(r)) for i, r in default.failures
        ]
        if fault:
            assert default.failures

    def test_block_size_does_not_change_symmetrization_or_domination(self, monkeypatch):
        def run():
            sym = sweep_symmetrization(cases=40, seed=17)
            dom = sweep_rademacher_domination(cases=40, seed=17)
            return (
                sym.cases,
                [(i, _bits(r)) for i, r in sym.failures],
                [(r.index, r.bound.hex(), r.exact.hex(), r.rel_slack.hex()) for r in dom],
            )

        default = run()
        monkeypatch.setattr(oracles, "_SWEEP_BLOCK", 7)
        assert run() == default

    def test_integer_draws_reach_both_endpoints(self):
        # d in 1..6, r in 0..3 and q in 0..2r for each r, p in 1..6 for
        # diff_powers and 0..12 for double_factorial
        cases = 2000
        d, r, q, p = [], [], [], []
        for ix, b in random_fact_case("gm_am_trace", case_rng(3, "gm_am_trace", range(cases))):
            d += [b["H"].shape[-1]] * len(ix)
            r += b["r"].tolist()
            q += b["q"].tolist()
        assert (min(d), max(d)) == (1, 6)
        assert (min(r), max(r)) == (0, 3)
        for rr in range(4):
            qs = [qq for qq, x in zip(q, r) if x == rr]
            assert (min(qs), max(qs)) == (0, 2 * rr)
        for ix, b in random_fact_case("diff_powers", case_rng(3, "diff_powers", range(cases))):
            p += b["p"].tolist()
        assert (min(p), max(p)) == (1, 6)
        key = case_rng(3, "double_factorial", range(cases))
        [(_, b)] = random_fact_case("double_factorial", key)
        assert (b["p"].min(), b["p"].max()) == (0, 12)


def _reference_expected_norm(summands, r):
    """E||sum S_i||^r over itertools.product of the outcomes, norms by svd."""
    total = 0.0
    for combo in itertools.product(*(s.outcomes() for s in summands)):
        prob = math.prod(p for p, _ in combo)
        z = sum(m for _, m in combo)
        total += prob * np.linalg.svd(z, compute_uv=False)[0] ** r
    return total


class TestEnumerationOracle:
    @staticmethod
    def _family(rng, n, d1, d2, hermitian):
        out = []
        for _ in range(n):
            k = int(rng.integers(1, 4))
            probs = rng.uniform(0.2, 1.0, size=k)
            probs /= probs.sum()
            mats = []
            for _ in range(k):
                g = rng.normal(size=(d1, d2)) + 1j * rng.normal(size=(d1, d2))
                mats.append((g + g.conj().T) / 2 if hermitian else g)
            out.append(FiniteSummand(list(zip(probs, mats))))
        return out

    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("shape", [(3, 3), (2, 4), (4, 2), (1, 3)])
    def test_gram_route_matches_svd_reference(self, shape, r):
        rng = np.random.default_rng(hash(shape) % 1000 + r)
        d1, d2 = shape
        for trial in range(6):
            family = self._family(rng, int(rng.integers(1, 5)), d1, d2, hermitian=d1 == d2)
            got = brute_force_expected_norm(family, r=r)
            want = _reference_expected_norm(family, r)
            assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("r", [1, 2])
    def test_mirrored_supports(self, r):
        # supports whose reversal is their negation (any probabilities), with
        # odd and even numbers of combinations: half the ranks get a Gram
        # eigenvalue, the other half mirror it
        rng = np.random.default_rng(60 + r)
        m = rng.normal(size=(4, 2, 3)) + 1j * rng.normal(size=(4, 2, 3))
        odd = [FiniteSummand([(0.3, a), (0.4, 0 * a), (0.3, -a)]) for a in m[:3]]
        even = [FiniteSummand([(0.5, a), (0.5, -a)]).sign_modulated() for a in m]
        skew = [FiniteSummand([(0.2, a), (0.8, -a)]) for a in m]
        for family in (odd, even, skew, odd[:2] + even[:1] + skew[:1]):
            assert brute_force_expected_norm(family, r=r) == pytest.approx(
                _reference_expected_norm(family, r), rel=1e-12
            )

    def test_large_enumeration_spans_gram_blocks(self):
        rng = np.random.default_rng(61)
        mats = rng.normal(size=(11, 5, 6)) + 1j * rng.normal(size=(11, 5, 6))
        family = [FiniteSummand([(0.5, m), (0.5, -m)]) for m in mats]
        assert brute_force_expected_norm(family, r=2) == pytest.approx(
            _reference_expected_norm(family, 2), rel=1e-12
        )


def _hex(values):
    return [float(v).hex() for v in values]


class TestStackedEnumeration:
    """The enumeration kernel on a group of cases gives each case the bits of
    brute_force_expected_norm on that case alone."""

    K = 7
    SHAPE = (2, 3)

    def _group(self, seed, mirrored):
        """Supports of K cases with support sizes (1, 3, 2): case c is
        mirrored (each support read backwards is its own negation) iff
        mirrored[c]."""
        rng = np.random.default_rng(seed)
        supports = []
        for m in (1, 3, 2):
            probs = rng.uniform(0.2, 1.0, size=(self.K, m))
            probs /= probs.sum(axis=1, keepdims=True)
            size = (self.K, m) + self.SHAPE
            mats = rng.normal(size=size) + 1j * rng.normal(size=size)
            for c in np.flatnonzero(mirrored):
                mats[c, (m + 1) // 2 :] = -mats[c, : m // 2][::-1]
                mats[c, m // 2 : (m + 1) // 2] = 0.0
            supports.append((probs, mats))
        return supports

    def _alone(self, supports, r):
        return [
            brute_force_expected_norm(
                [FiniteSummand(zip(p[c], m[c])) for p, m in supports], r[c]
            )
            for c in range(self.K)
        ]

    @pytest.mark.parametrize("r", [[1] * K, [2] * K, [3] * K, [1, 2, 3, 3, 2, 1, 2]])
    @pytest.mark.parametrize("mixed", [False, True])
    def test_group_equals_one_case_calls(self, r, mixed):
        mirrored = np.arange(self.K) % 2 == 0 if mixed else np.ones(self.K, dtype=bool)
        supports = self._group(40 + sum(r), mirrored)
        for p, m in supports:
            mirror = [np.array_equal(m[c, ::-1], -m[c]) for c in range(self.K)]
            assert mirror == mirrored.tolist()
        assert _hex(oracles._expected_norms(supports, r)) == _hex(self._alone(supports, r))

    @pytest.mark.parametrize("matrices", [1, 5])
    @pytest.mark.parametrize("mixed", [False, True])
    def test_gram_chunk_size_does_not_change_values(self, monkeypatch, matrices, mixed):
        mirrored = np.arange(self.K) % 3 == 0 if mixed else np.ones(self.K, dtype=bool)
        supports = self._group(50, mirrored)
        r = [1, 2, 3, 1, 2, 3, 2]
        default = _hex(oracles._expected_norms(supports, r))
        monkeypatch.setattr(oracles, "_GRAM_BYTES", matrices * 16 * math.prod(self.SHAPE))
        assert _hex(oracles._expected_norms(supports, r)) == default

    @staticmethod
    def _check_alone(seed, i):
        """symmetrization_check on symmetrization case i drawn alone."""
        key = oracles.symmetrization_rng(seed, i)
        [(_, (probs, mats))] = oracles.random_zero_mean_summands(key)
        family = [FiniteSummand(zip(p, m)) for p, m in zip(probs[0], mats[0])]
        return symmetrization_check(family, int(1 + key.integers(3, 0, 1)[0]))

    @pytest.mark.parametrize("seed", [21, 9090])
    def test_sweep_moments_equal_symmetrization_check(self, seed):
        cases = 200
        key = oracles.symmetrization_rng(seed, range(cases))
        seen = 0
        for i, M, R in oracles._symmetrization_moments(key):
            alone = self._check_alone(seed, i)
            assert _hex([M, R]) == _hex(
                [alone.detail["centered_moment"], alone.detail["signed_moment"]]
            ), i
            seen += 1
        assert seen == cases

    def test_sweep_failures_are_symmetrization_check_results(self, monkeypatch):
        # with a tolerance below every violation, each case fails
        monkeypatch.setattr(oracles, "_REL_TOL", -1e9)
        seed, cases = 21, 40
        res = sweep_symmetrization(cases=cases, seed=seed)
        assert [i for i, _ in res.failures] == list(range(cases))
        for i, result in res.failures:
            assert _bits(result) == _bits(self._check_alone(seed, i))


class TestFiniteSummandStack:
    def test_nan_in_one_outcome_rejected(self):
        good = np.eye(2)
        bad = np.eye(2)
        bad[1, 0] = np.nan
        with pytest.raises(ValueError):
            FiniteSummand([(0.25, good), (0.25, -good), (0.5, bad)])
        bad[1, 0] = np.inf
        with pytest.raises(ValueError):
            FiniteSummand([(0.5, good), (0.5, bad)])

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            FiniteSummand([(0.5, np.eye(2)), (0.5, np.eye(3))])
        with pytest.raises(ValueError):
            FiniteSummand([(0.5, np.ones((2, 3))), (0.5, np.ones((3, 2)))])

    def test_not_a_matrix_rejected(self):
        with pytest.raises(ValueError):
            FiniteSummand([(1.0, np.ones(3))])

    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_nan_probability_rejected(self, where):
        probs = [0.25, 0.25, 0.5]
        probs[where] = math.nan
        outcomes = [(p, s * np.eye(2)) for p, s in zip(probs, (1.0, -1.0, 0.0))]
        with pytest.raises(ValueError, match="probabilities"):
            FiniteSummand(outcomes)
        with pytest.raises(ValueError, match="probabilities"):
            FiniteSummand([(math.nan, np.eye(2))])

    def test_probabilities_not_summing_to_one_rejected(self):
        with pytest.raises(ValueError):
            FiniteSummand([(0.5, np.eye(2)), (0.5 + 1e-9, -np.eye(2))])

    def test_derived_stacks_match_outcome_lists(self):
        rng = np.random.default_rng(62)
        mats = rng.normal(size=(3, 2, 3)) + 1j * rng.normal(size=(3, 2, 3))
        s = FiniteSummand([(0.2, mats[0]), (0.3, mats[1]), (0.5, mats[2])])
        mu = s.mean()
        centered = FiniteSummand([(p, m - mu) for p, m in s.outcomes()])
        assert np.array_equal(s.centered().matrices, centered.matrices)
        assert np.array_equal(s.centered().probabilities, centered.probabilities)
        signed = FiniteSummand(
            [(p / 2.0, m) for p, m in s.outcomes()]
            + [(p / 2.0, -m) for p, m in reversed(s.outcomes())]
        )
        assert np.array_equal(s.sign_modulated().matrices, signed.matrices)
        assert np.array_equal(s.sign_modulated().probabilities, signed.probabilities)
        assert np.array_equal(
            s.outcome_norms(), [spectral_norm(m) for m in s.matrices]
        )
