"""Seeded Monte Carlo estimation of norm moments and report assembly.

Determinism contract: every estimate is a pure function of (model, config).
Sample values come from the counter RNG, so they do not depend on how the
index range is chunked; chunk size is fixed by the model and the outputs
read, partial results are written back by index, and reductions run in
index order.  The MATCON_THREADS environment variable caps the worker count
and affects speed only, never results.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import models
from .bounds import BoundInputs, large_dev_param, main_interval, variance_param
from .linalg import spectral_norm, spectral_norms
from .models import (
    IndependentSumModel,
    SamplerPlan,
    analytic_second_moments,  # noqa: F401 -- still importable from this module
    center,
    seed_value,
)

MEAN = "mean"
MEDIAN_OF_MEANS = "median_of_means"

# draws (samples x draws per sample) alloted to one chunk: about 512 KiB per
# float64 temporary, so a chunk's draws, weights and scatter indices stay in
# cache (a sweep over 2^12..2^21 was fastest at 2^16)
_CHUNK_BUDGET = 1 << 16
_MAX_CHUNK = 128
# bytes one chunk of realizations may take
_CHUNK_BYTES = 1 << 27
# spreads of the Monte Carlo E||Z||^2 the sandwich check allows on each side
_K = 3.0


def default_blocks(samples: int) -> int:
    """Largest power of two <= 16 dividing the sample count."""
    b = 16
    while b > 1 and samples % b:
        b //= 2
    return b


@dataclass(frozen=True)
class MCConfig:
    samples: int
    seed: int
    estimator: str = MEAN

    def __post_init__(self):
        if self.samples < 2:
            raise ValueError("need at least 2 samples")
        nbytes = 24 * self.samples  # float64 ||Z||, max_i ||S_i||^2 and ||Z||^2
        if nbytes > models._STACK_BYTES:
            raise ValueError(f"{self.samples} samples take {nbytes} bytes of per-sample "
                             f"arrays, over the {models._STACK_BYTES}-byte budget")
        if self.estimator not in (MEAN, MEDIAN_OF_MEANS):
            raise ValueError(f"estimator must be {MEAN!r} or {MEDIAN_OF_MEANS!r}")


@dataclass(frozen=True)
class Estimate:
    """mean with a spread measure: the standard error for the plain mean,
    or the inter-block median absolute deviation for median-of-means
    (std_error is None there; the CLT-based error is undefined for the
    heavy-tailed models the estimator exists for)."""

    mean: float
    std_error: float | None
    spread: float


def _thread_count() -> int:
    raw = os.environ.get("MATCON_THREADS")
    if raw is None:
        return 1
    count = int(raw)
    if count < 1:
        raise ValueError("MATCON_THREADS must be a positive integer")
    return count


def _chunk_size(plan: SamplerPlan) -> int:
    """Samples per chunk, within the budget of draws (per sample: one per
    cell on the row route, one per COO entry and FiniteSummand choice
    otherwise) and the byte budget for the realized chunk: d real diagonal
    entries per sample on the diagonal route, d1*d2 complex entries
    otherwise (a real plan's half-size Z keeps that chunk).  It depends on
    the model alone."""
    model = plan.model
    shape, itemsize = ((model.d1,), 8) if plan.diagonal else ((model.d1, model.d2), 16)
    sample_bytes = math.prod(shape) * itemsize
    if sample_bytes > _CHUNK_BYTES:
        raise ValueError(
            f"one {'x'.join(map(str, shape))} realization takes {sample_bytes} "
            f"bytes, over the {_CHUNK_BYTES}-byte chunk budget"
        )
    draws = plan.terms if plan.row is None else model.d1
    cells = _CHUNK_BUDGET // max(1, draws)
    return max(1, min(_MAX_CHUNK, cells, _CHUNK_BYTES // sample_bytes))


def _for_chunks(samples: int, chunk: int, run) -> None:
    """Call run(start, stop) for each chunk of the sample range, on up to
    MATCON_THREADS threads; every call writes only its own slice."""
    starts = range(0, samples, chunk)
    threads = _thread_count()
    if threads <= 1:
        for s in starts:
            run(s, min(s + chunk, samples))
    else:
        from concurrent.futures import ThreadPoolExecutor  # milliseconds to import
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda s: run(s, min(s + chunk, samples)), starts))


def collect_samples(model: IndependentSumModel, cfg: MCConfig):
    """Per-sample arrays (||Z||, max_i ||S_i||^2), in sample-index order.  The
    second is drawn only when E max_i ||S_i||^2 has no exact value (a
    Gaussian or Pareto law, SamplerPlan.sampled_max_sq), and is None
    otherwise: large_dev_param gives that L.

    ||Z|| is max_i |z_ii| when every realization is diagonal, with the z_ii
    drawn from their row law on a row-law plan, and the root of the top
    eigenvalue of the Gram matrix of the smaller side otherwise.
    """
    plan = SamplerPlan(model)
    seed = seed_value(cfg.seed)
    norms = np.empty(cfg.samples)
    sq = np.empty(cfg.samples) if plan.sampled_max_sq else None

    def run(start: int, stop: int) -> None:
        idx = np.arange(start, stop, dtype=np.uint64)
        if plan.diagonal:
            realize = plan.realize_diagonal if plan.row is None else plan.realize_rows
            diag, m = realize(seed, idx)
            norms[start:stop] = np.abs(diag).max(axis=1)
        else:
            z, m = plan.realize(seed, idx)
            norms[start:stop] = spectral_norms(z)
        if sq is not None:
            sq[start:stop] = m

    _for_chunks(cfg.samples, _chunk_size(plan), run)
    return norms, sq


def _estimate(values: np.ndarray, cfg: MCConfig) -> Estimate:
    # a constant sample is reported exactly: repeated-addition rounding in the
    # accumulator must not manufacture a nonzero standard error
    constant = bool(np.all(values == values[0]))
    if cfg.estimator == MEAN:
        if constant:
            mean, se = float(values[0]), 0.0
        else:
            mean = float(np.mean(values))
            se = float(np.std(values, ddof=1) / math.sqrt(len(values)))
        return Estimate(mean=mean, std_error=se, spread=se)
    if constant:
        med, mad = float(values[0]), 0.0
    else:
        block_means = _block_means(values)
        med = _median(block_means)
        mad = _median(np.abs(block_means - med))
    return Estimate(mean=med, std_error=None, spread=mad)


def _block_means(values: np.ndarray) -> np.ndarray:
    """Means of default_blocks(n) equal consecutive blocks; when that leaves
    one block (an odd count), of min(16, n) consecutive near-equal blocks cut
    where np.array_split cuts."""
    blocks = default_blocks(len(values))
    if blocks > 1:
        return values.reshape(blocks, -1).mean(axis=1)
    return np.array([b.mean() for b in np.array_split(values, min(16, len(values)))])


def _median(values: np.ndarray) -> float:
    """np.median's value bit for bit, NaN when any value is NaN, without the
    numpy.ma import its first call makes.  numpy takes the mean of the one or
    two middle values, summed from +0.0 (so -0.0 comes out as 0.0)."""
    s = np.sort(values)
    if np.isnan(s[-1]):
        return math.nan
    m = len(s) // 2
    if len(s) % 2:
        return 0.0 + float(s[m])
    return (0.0 + float(s[m - 1]) + float(s[m])) / 2.0


def estimate_max_summand_sq(model: IndependentSumModel, cfg: MCConfig) -> Estimate:
    """Estimate of E max_i ||S_i||^2, the square of the large-deviation
    parameter; samples max_i ||S_i||^2 alone, never Z."""
    plan = SamplerPlan(model)
    seed = seed_value(cfg.seed)
    max_sq = np.empty(cfg.samples)

    def run(start: int, stop: int) -> None:
        idx = np.arange(start, stop, dtype=np.uint64)
        max_sq[start:stop] = plan.realize_max_sq(seed, idx)

    # realize_max_sq draws every coefficient, also on a row-law plan
    chunk = min(_chunk_size(plan), max(1, _CHUNK_BUDGET // max(1, plan.terms)))
    _for_chunks(cfg.samples, chunk, run)
    return _estimate(max_sq, cfg)


@dataclass(frozen=True)
class BoundReport:
    """Everything the report row needs.

    For an uncentered input model the bounds and estimates describe the
    centered sum Z = R - E R; mean_norm records ||E R|| and
    (envelope_lower, envelope_upper) the envelope
    [max(||E R||, lower - ||E R||), ||E R|| + upper] for (E||R||^2)^(1/2):
    the lower end by Jensen (||E R|| <= E||R|| <= (E||R||^2)^(1/2)) and by
    Minkowski ((E||Z||^2)^(1/2) <= (E||R||^2)^(1/2) + ||E R||), the upper
    end by Minkowski.  Centered models carry None in those fields.
    """

    model_name: str
    d1: int
    d2: int
    n: int
    v: float
    v_provenance: str
    L: float
    L_provenance: str
    C: float
    lower: float
    upper: float
    mc_norm: Estimate
    mc_sqnorm: Estimate
    sandwich_ok: bool
    k: float
    samples: int
    seed: int
    mean_norm: float | None = None
    envelope_lower: float | None = None
    envelope_upper: float | None = None


def bound_report(model: IndependentSumModel, cfg: MCConfig) -> BoundReport:
    """Assemble parameters, interval, and Monte Carlo estimates.

    v comes from the exact per-summand moments.  L is large_dev_param's
    exact value when every summand has finite ||S||^2 support, and the
    Monte Carlo mean of the sampled max_i ||S_i||^2 when collect_samples
    draws it (a Gaussian or Pareto law).  sandwich_ok checks
    lower - k*spread <= sqrt(mc_sqnorm.mean) <= upper + k*spread with k = 3.
    """
    work = model
    mean_norm = None
    if not model.centered:
        work, mean_sum = center(model)
        mean_norm = spectral_norm(mean_sum)

    v = variance_param(work)
    norms, max_sq = collect_samples(work, cfg)
    if max_sq is None:
        L, L_prov = large_dev_param(work), "analytic"
    else:
        L = math.sqrt(max(_estimate(max_sq, cfg).mean, 0.0))
        L_prov = "montecarlo"

    interval = main_interval(BoundInputs(v=v, L=L, d1=work.d1, d2=work.d2))
    mc_norm = _estimate(norms, cfg)
    mc_sqnorm = _estimate(norms**2, cfg)
    root = math.sqrt(max(mc_sqnorm.mean, 0.0))
    slack = _K * mc_sqnorm.spread
    ok = interval.lower - slack <= root <= interval.upper + slack

    env_lower = env_upper = None
    if mean_norm is not None:
        env_lower = max(mean_norm, interval.lower - mean_norm)
        env_upper = mean_norm + interval.upper

    return BoundReport(
        model_name=model.name,
        d1=work.d1,
        d2=work.d2,
        n=model.n,
        v=v,
        v_provenance="analytic",
        L=L,
        L_provenance=L_prov,
        C=interval.constant,
        lower=interval.lower,
        upper=interval.upper,
        mc_norm=mc_norm,
        mc_sqnorm=mc_sqnorm,
        sandwich_ok=bool(ok),
        k=_K,
        samples=cfg.samples,
        seed=seed_value(cfg.seed),
        mean_norm=mean_norm,
        envelope_lower=env_lower,
        envelope_upper=env_upper,
    )
