"""Reference draws of single summands from scalar counter-RNG calls.

Written apart from the vectorized sampler, so that the tests can check
`SamplerPlan` against them: `sample_summands(model, seed, index)` realizes
every summand of one sample in model order, and their sum is that sample's
realization of Z.
"""

from __future__ import annotations

import numpy as np

from matcon import rng
from matcon.models import FiniteSummand, SamplerPlan, ScalarLaw, seed_value


def pareto_sample(u, s):
    """Map a uniform variate on (0, 1] and a sign to s * u^(-1/4).

    The magnitude has survival function t^-4 on t >= 1; u = 0 is rejected
    because the image would be infinite.
    """
    u = np.asarray(u, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    if np.any(u <= 0.0) or np.any(u > 1.0):
        raise ValueError("u must lie in (0, 1]")
    if not np.all(np.abs(s) == 1.0):
        raise ValueError("s must be +-1")
    out = s * u**-0.25
    return float(out) if out.ndim == 0 else out


def reference_coefficient(law: ScalarLaw, seed: int, index: int, pos: int) -> float:
    """c of one ScalarSeries summand from scalar RNG calls."""
    if law.name == "sign":
        return float(rng.signs(seed, index, pos, 0))
    if law.name == "gaussian":
        return float(rng.gaussians(seed, index, pos, 0))
    if law.name == "bernoulli":
        u = float(rng.uniform_halfopen(seed, index, pos, 0))
        return (1.0 if u < law.p else 0.0) - law.p
    u = float(rng.uniform_positive(seed, index, pos, 0))
    return pareto_sample(u, float(rng.signs(seed, index, pos, 1)))


def sample_summand(s, seed: int, index: int, pos: int) -> np.ndarray:
    """One realization of summand `s` at summand position `pos`."""
    if isinstance(s, FiniteSummand):
        cums = np.cumsum(s.probabilities)
        u = float(rng.uniform_halfopen(seed, index, pos, 0))
        j = min(int(np.searchsorted(cums, u, side="right")), len(cums) - 1)
        return s.matrices[j]
    return reference_coefficient(s.law, seed, index, pos) * s.dense()


def sample_summands(model, seed, index: int) -> list[np.ndarray]:
    """One complex128 realization of every summand, in model order.

    Deterministic in (seed, index, summand position); the sum of the returned
    list is the corresponding realization of Z.
    """
    seed = seed_value(seed)
    return [sample_summand(s, seed, index, pos) for pos, s in enumerate(model.summands)]


def per_term_plan(model) -> SamplerPlan:
    """A plan of `model` on the per-term route: where the plan would draw
    ||Z|| from the law of its maximum, which realizes nothing, it builds the
    per-term tables instead, so that `realize` and `sample_norms` sum every
    summand."""
    plan = SamplerPlan(model)
    if plan.max_law is not None:
        plan.max_law = None
        plan._build_tables()
    return plan


def as_matrices(plan, sample: np.ndarray) -> np.ndarray:
    """Z from what `plan.realize` returns: a diagonal plan's (k, d) real
    diagonals set into zero d x d matrices, any other sample as it is."""
    if not plan.diagonal:
        return sample
    d = sample.shape[1]
    z = np.zeros((len(sample), d, d))
    z[:, np.arange(d), np.arange(d)] = sample
    return z
