"""End-to-end acceptance suite: nine numbered checks, one printed line each.

The PASS/FAIL lines are written past the capture plugin so they always
appear in the test log, with the measured values inline.  Monte Carlo
tolerances were pinned from pilot runs at the canonical seed (2028)
before the assertions were frozen:

* diagonal sign-series trend ratios (d = 16/64/256, n = 400, 200 samples):
  0.8081, 0.8141, 0.8321 against the band [0.6, 1.4], re-derived when the
  diagonal examples moved to row-law sampling (0.7931, 0.8315, 0.8512 on
  the per-term stream before)
* full sign-matrix scale ratio at d = 64: 1.9191 against [1.2, 2.3]
* pareto second moment, median of 16 block means over 1e6 draws: 1.9931
  against [1.8, 2.2]
* fitted growth exponent of E max_i P_i^2 over d in {8, 32, 128} at
  20000 samples: 0.4997 (asserted positive only; the value is logged)

The trend check at d = 16/64/256 asserts that |ratio - 1| is
non-increasing, which is a statement about one seeded run: the exact
ratios, from the row law of each diagonal entry, rise 0.8190 -> 0.8290 ->
0.8448 while single-run noise is about 0.02 per point, so the refinement
holds for the pinned seed but not for every seed.  The band holds for every
seed tried (2020-2035) on both streams.
"""

from __future__ import annotations

import csv
import io
import math
import time

import numpy as np
import pytest

from matcon.bounds import sweep_rademacher_domination
from matcon.cli import main
from matcon.models import FixedRademacher, make_example, make_model
from matcon.montecarlo import (
    MCConfig,
    MEAN,
    MEDIAN_OF_MEANS,
    bound_report,
    estimate_max_summand_sq,
)
from matcon.oracles import KINDS, sweep_fact_kind, sweep_symmetrization
from matcon.rng import uniform_positive
from reference_draws import pareto_sample

SEED = 2028

REL_SLACK_FLOOR = -1e-9
CASES_PER_KIND = 10_000
DESK_SAMPLES = 200
TREND_GRID = (16, 64, 256)
TREND_BAND = (0.6, 1.4)
SCALE_BAND = (1.2, 2.3)
PARETO_BAND = (1.8, 2.2)
EXPONENT_GRID = (8, 32, 128)


def emit(capsys, num: int, ok: bool, detail: str) -> None:
    """One PASS/FAIL line per check, pushed past the capture plugin."""
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\n{status} acceptance {num}/9: {detail}", flush=True)


def parse_csv(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode())))


def generator_hermitian_family(rng, max_n: int, max_dim: int) -> list[np.ndarray]:
    """A fixed Hermitian family drawn from a numpy Generator: n in 1..max_n,
    d in 1..max_dim, then n matrices (G + G*)/2 of complex Gaussian G.  The
    fixed-sign desk models of check 4 are pinned to these draws."""
    n = int(rng.integers(1, max_n + 1))
    d = int(rng.integers(1, max_dim + 1))
    family = []
    for _ in range(n):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        family.append((g + g.conj().T) / 2.0)
    return family


def desk_models() -> list[tuple[str, object]]:
    entries = []
    for name in ("sec71", "sec72"):
        for d in (4, 16, 64):
            entries.append((f"{name} d={d} n=100", make_example(name, d=d, n=100)))
    for name in ("sec73", "sec74"):
        for d in (4, 16, 64):
            entries.append((f"{name} d={d}", make_example(name, d=d)))
    for i in range(20):
        g = np.random.default_rng([SEED, 40, i])
        family = generator_hermitian_family(g, max_n=10, max_dim=6)
        model = make_model([FixedRademacher(h) for h in family])
        entries.append((f"fixed-sign {i} (n={len(family)}, d={model.d1})", model))
    return entries


@pytest.fixture(scope="module")
def desk_reports():
    t0 = time.monotonic()
    reports = []
    for label, model in desk_models():
        cfg = MCConfig(
            samples=DESK_SAMPLES,
            seed=SEED,
            estimator=MEDIAN_OF_MEANS if model.heavy_tail else MEAN,
        )
        reports.append((label, bound_report(model, cfg)))
    return reports, time.monotonic() - t0


def run_trend(path) -> tuple[int, bytes]:
    code = main(
        ["experiment", "--model", "sec71",
         "--d", ",".join(str(d) for d in TREND_GRID),
         "--n", "400", "--samples", str(DESK_SAMPLES),
         "--seed", str(SEED), "--out", str(path)]
    )
    return code, path.read_bytes()


def run_scale(path) -> tuple[int, bytes]:
    code = main(
        ["report", "--model", "sec73", "--d", "64",
         "--samples", str(DESK_SAMPLES), "--seed", str(SEED),
         "--format", "csv", "--out", str(path)]
    )
    return code, path.read_bytes()


@pytest.fixture(scope="module")
def trend_run(tmp_path_factory):
    return run_trend(tmp_path_factory.mktemp("trend") / "trend.csv")


@pytest.fixture(scope="module")
def scale_run(tmp_path_factory):
    return run_scale(tmp_path_factory.mktemp("scale") / "scale.csv")


def test_01_sign_series_domination_exact(capsys):
    t0 = time.monotonic()
    records = sweep_rademacher_domination(cases=200, seed=SEED)
    elapsed = time.monotonic() - t0
    worst = min(r.rel_slack for r in records)
    ok = len(records) == 200 and worst >= REL_SLACK_FLOOR and elapsed < 60.0
    detail = (
        f"sign-series bound dominates exact enumeration on 200 families, "
        f"min relative slack {worst:.3e} (floor {REL_SLACK_FLOOR:.0e}), "
        f"{elapsed:.1f}s"
    )
    emit(capsys, 1, ok, detail)
    assert ok, detail


def test_02_fact_oracle_sweeps(capsys):
    t0 = time.monotonic()
    totals = []
    for kind in KINDS:
        res = sweep_fact_kind(kind, CASES_PER_KIND, SEED)
        totals.append((kind, res.passed, res.ok))
    injected = sweep_fact_kind("gm_am_trace", 200, SEED, inject_fault=True)
    elapsed = time.monotonic() - t0
    clean = all(ok for _, _, ok in totals)
    ok = clean and not injected.ok and elapsed < 120.0
    detail = (
        f"{len(KINDS)} fact kinds x {CASES_PER_KIND} cases all hold, "
        f"injected fault detected ({injected.passed}/200 survive), "
        f"{elapsed:.1f}s"
    )
    if not clean:
        bad = [(k, p) for k, p, o in totals if not o]
        detail += f"; failing kinds {bad}"
    emit(capsys, 2, ok, detail)
    assert ok, detail


def test_03_symmetrization_sandwich_enumerated(capsys):
    res = sweep_symmetrization(cases=100, seed=SEED)
    ok = res.ok and res.cases == 100
    detail = (
        f"two-sided symmetrization comparison holds on {res.passed}/100 "
        f"enumerated instances (n <= 5, two outcomes, r in {{1, 2}})"
    )
    emit(capsys, 3, ok, detail)
    assert ok, detail


def test_04_interval_sandwich_desk_scale(desk_reports, capsys):
    reports, elapsed = desk_reports
    failures = [label for label, rep in reports if not rep.sandwich_ok]
    margins = []
    for _, rep in reports:
        root = math.sqrt(max(rep.mc_sqnorm.mean, 0.0))
        slack = rep.k * rep.mc_sqnorm.spread
        margins.append(min(root - (rep.lower - slack), (rep.upper + slack) - root))
    ok = not failures and len(reports) == 32 and elapsed < 300.0
    detail = (
        f"interval sandwich holds for {len(reports) - len(failures)}/"
        f"{len(reports)} models at {DESK_SAMPLES} samples, "
        f"worst margin {min(margins):.3f}, {elapsed:.1f}s"
    )
    if failures:
        detail += f"; failing models {failures}"
    emit(capsys, 4, ok, detail)
    assert ok, detail


def test_05_diagonal_sign_trend(trend_run, capsys):
    code, data = trend_run
    rows = parse_csv(data)
    ratios = [float(r["ratio"]) for r in rows if r["experiment"] == "sec71"]
    lo, hi = TREND_BAND
    in_band = all(lo <= r <= hi for r in ratios)
    dist = [abs(r - 1.0) for r in ratios]
    monotone = all(a >= b for a, b in zip(dist, dist[1:]))
    ok = code == 0 and len(ratios) == len(TREND_GRID) and in_band and monotone
    detail = (
        f"norm-squared over 2 log d at d = {TREND_GRID} gives ratios "
        f"{', '.join(f'{r:.4f}' for r in ratios)}; band [{lo}, {hi}] "
        f"{'holds' if in_band else 'FAILS'}, distance to 1 "
        f"{'non-increasing' if monotone else 'NOT monotone'}"
    )
    emit(capsys, 5, ok, detail)
    assert ok, detail


def test_06_full_sign_matrix_scale(scale_run, capsys):
    code, data = scale_run
    rows = parse_csv(data)
    mc = float(rows[0]["mc_sqnorm_mean"])
    ratio = math.sqrt(mc) / math.sqrt(64.0)
    lo, hi = SCALE_BAND
    ok = code == 0 and len(rows) == 1 and lo <= ratio <= hi
    detail = (
        f"full sign matrix at d = 64: sqrt(mean norm^2)/sqrt(d) = "
        f"{ratio:.4f} in [{lo}, {hi}] (band covers both the sqrt(2) "
        f"and the classical 2 prediction; measured value recorded)"
    )
    emit(capsys, 6, ok, detail)
    assert ok, detail


def test_07_heavy_tail_moments(capsys):
    u = uniform_positive(SEED, np.arange(1_000_000, dtype=np.uint64), 0, 0)
    p_sq = pareto_sample(u, np.ones_like(u)) ** 2
    mom = float(np.median(p_sq.reshape(16, -1).mean(axis=1)))
    lo, hi = PARETO_BAND

    l_sq = []
    for d in EXPONENT_GRID:
        cfg = MCConfig(samples=20_000, seed=SEED, estimator=MEDIAN_OF_MEANS)
        l_sq.append(estimate_max_summand_sq(make_example("sec74", d=d), cfg).mean)
    slope = float(np.polyfit(np.log(EXPONENT_GRID), np.log(l_sq), 1)[0])

    ok = lo <= mom <= hi and slope > 0.0
    detail = (
        f"pareto P^2 median-of-16-means over 1e6 draws = {mom:.4f} in "
        f"[{lo}, {hi}]; E max P_i^2 over d = {EXPONENT_GRID} fits growth "
        f"exponent {slope:.4f} (asserted positive; the closed form "
        f"E max P_i^2 = Gamma(1/2)Gamma(d+1)/Gamma(d+1/2) ~ sqrt(pi d) has "
        f"slope 0.4947 over this grid; recorded, not asserted)"
    )
    emit(capsys, 7, ok, detail)
    assert ok, detail


def test_08_first_moment_consistency(desk_reports, capsys):
    reports, _ = desk_reports
    failures = []
    jensen_margins = []
    lower_margins = []
    for label, rep in reports:
        root = math.sqrt(max(rep.mc_sqnorm.mean, 0.0))
        slack = 3.0 * (rep.mc_norm.spread + rep.mc_sqnorm.spread)
        jensen = rep.mc_norm.mean <= root + slack
        floor = math.sqrt(rep.v) / 8.0 + rep.L / 8.0
        lower = rep.mc_norm.mean >= floor - 3.0 * rep.mc_norm.spread
        jensen_margins.append(root + slack - rep.mc_norm.mean)
        lower_margins.append(rep.mc_norm.mean - floor + 3.0 * rep.mc_norm.spread)
        if not (jensen and lower):
            failures.append(label)
    ok = not failures
    detail = (
        f"first moment vs second moment and eighth-fraction floor hold on "
        f"{len(reports) - len(failures)}/{len(reports)} models "
        f"(worst margins {min(jensen_margins):.3f}, {min(lower_margins):.3f})"
    )
    if failures:
        detail += f"; failing models {failures}"
    emit(capsys, 8, ok, detail)
    assert ok, detail


def test_09_byte_identical_reruns(trend_run, scale_run, tmp_path, capsys):
    code_a, first_trend = trend_run
    code_b, second_trend = run_trend(tmp_path / "trend.csv")
    code_c, first_scale = scale_run
    code_d, second_scale = run_scale(tmp_path / "scale.csv")
    same_trend = first_trend == second_trend
    same_scale = first_scale == second_scale
    ok = (
        same_trend
        and same_scale
        and code_a == code_b
        and code_c == code_d
    )
    detail = (
        f"reruns at the same seed reproduce the CSV output byte for byte "
        f"(experiment grid {len(first_trend)}B {'==' if same_trend else '!='} "
        f"{len(second_trend)}B; report {len(first_scale)}B "
        f"{'==' if same_scale else '!='} {len(second_scale)}B)"
    )
    emit(capsys, 9, ok, detail)
    assert ok, detail
