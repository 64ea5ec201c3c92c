"""Descriptions and samplers for sums of independent random matrices.

A model is an ordered list of summands sharing one shape.  A summand is one
of two kinds:

- ScalarSeries: S = c * A, a scalar c drawn from a shared ScalarLaw (fair
  sign, standard Gaussian, centered Bernoulli(p), or symmetric Pareto with
  tail t^-4) times a fixed matrix A held as COO entries.  The six built-in
  families FixedRademacher, FixedGaussian, ScaledBasisRademacher,
  CenteredBernoulliBasis, RademacherEntry and ParetoDiagonal are its
  constructors, and keep their names in model files.
- FiniteSummand: an explicit finite-support summand, outcomes
  [(probability, matrix)].

Both kinds answer the same questions: shape, mean, centering, second moments,
the distribution of ||S||^2, and one reference draw.  The four canonical
examples (sec71..sec74) assemble the diagonal sign series, the centered
Bernoulli diagonal, the full sign matrix, and the heavy-tailed diagonal.

Sampling is driven by the counter RNG: every coefficient is a pure function
of (seed, sample index, summand position, slot), so realizations are
independent of evaluation order and worker count.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable

import numpy as np

from . import rng
from .linalg import as_hermitian, as_stack, spectral_norm, spectral_norms

_MEAN_TOL = 1e-12


def seed_value(seed) -> int:
    """A seed as the 64-bit integer the counter RNG keys on."""
    return int(seed) % (1 << 64)


# ---------------------------------------------------------------------------
# Scalar laws.  Draw slots per summand position: slot 0 is the primary
# variate (sign, uniform, or first Box-Muller word), slot 1 the secondary one
# (Gaussian second word, Pareto sign).  Positions are unique, so slots never
# collide across summands.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarLaw:
    """Distribution of the scalar c in S = c * A, identified by its name and
    Bernoulli parameter p.

    `ec2` is E c^2; `sq_support` the distribution of c^2 as sorted
    (values, probs), None for a continuous law; `draw(seed, index, position)`
    the vectorized draw of c, broadcasting like the counter RNG;
    `heavy_tail` makes median-of-means the default estimator.
    """

    name: str
    ec2: float = field(compare=False)
    sq_support: tuple | None = field(compare=False)
    draw: Callable = field(compare=False)
    heavy_tail: bool = field(default=False, compare=False)
    p: float | None = None


def _pareto_draw(seed, index, position):
    u = rng.uniform_positive(seed, index, position, 0)
    return rng.signs(seed, index, position, 1) * u**-0.25


SIGN = ScalarLaw("sign", 1.0, ((1.0,), (1.0,)), lambda s, i, pos: rng.signs(s, i, pos, 0))
GAUSSIAN = ScalarLaw("gaussian", 1.0, None, lambda s, i, pos: rng.gaussians(s, i, pos, 0))
# P = s * u^(-1/4): P(|P| >= t) = t^-4, E P^2 = integral of 4 t^-3 from 1 = 2
PARETO = ScalarLaw("pareto", 2.0, None, _pareto_draw, heavy_tail=True)


def bernoulli_law(p: float) -> ScalarLaw:
    """c = delta - p with delta ~ Bernoulli(p), 0 < p <= 1."""
    pairs = {(1.0 - p) ** 2: p}
    if 1.0 - p > 0.0:
        pairs[p**2] = pairs.get(p**2, 0.0) + (1.0 - p)
    values = tuple(sorted(pairs))

    def draw(seed, index, position):
        u = rng.uniform_halfopen(seed, index, position, 0)
        return (u < p).astype(np.float64) - p

    return ScalarLaw(
        "bernoulli", p * (1.0 - p), (values, tuple(pairs[v] for v in values)), draw, p=p
    )


def _reference_coefficient(law: ScalarLaw, seed: int, index: int, pos: int) -> float:
    """c of one summand from scalar RNG calls, written apart from the laws'
    vectorized draws so that sample_summands is an independent check of
    SamplerPlan."""
    if law.name == "sign":
        return float(rng.signs(seed, index, pos, 0))
    if law.name == "gaussian":
        return float(rng.gaussians(seed, index, pos, 0))
    if law.name == "bernoulli":
        u = float(rng.uniform_halfopen(seed, index, pos, 0))
        return (1.0 if u < law.p else 0.0) - law.p
    u = float(rng.uniform_positive(seed, index, pos, 0))
    return pareto_sample(u, float(rng.signs(seed, index, pos, 1)))


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


# ---------------------------------------------------------------------------
# Summands
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False, slots=True)
class ScalarSeries:
    """S = c * A for a scalar c ~ `law` and a fixed d1 x d2 matrix A.

    A is held as COO entries A[rows[e], cols[e]] = values[e], no cell twice
    (tuples for the one-entry families, read-only arrays for a fixed
    matrix), with its spectral norm in `norm`.  Every law has mean zero, so
    S is centered.  Built by the six family constructors below.
    """

    law: ScalarLaw
    shape: tuple[int, int]
    rows: tuple | np.ndarray
    cols: tuple | np.ndarray
    values: tuple | np.ndarray
    norm: float

    zero_mean = True

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        mine, theirs = (self.rows, self.cols, self.values), (other.rows, other.cols, other.values)
        return (
            self.law == other.law
            and self.shape == other.shape
            and all(map(np.array_equal, mine, theirs))
        )

    __hash__ = None

    @property
    def heavy_tail(self) -> bool:
        return self.law.heavy_tail

    def dense(self) -> np.ndarray:
        a = np.zeros(self.shape, dtype=np.complex128)
        a[np.asarray(self.rows, dtype=np.intp), np.asarray(self.cols, dtype=np.intp)] = self.values
        return a

    def mean(self) -> np.ndarray:
        return np.zeros(self.shape, dtype=np.complex128)

    def moment_cell(self):
        """(row, col, E c^2 |a|^2) when A has the one entry a: then E[S S*] is
        that weight at (row, row) and E[S* S] at (col, col).  None otherwise."""
        if len(self.rows) != 1:
            return None
        return self.rows[0], self.cols[0], self.law.ec2 * abs(self.values[0]) ** 2

    def second_moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Exact (E[S S*], E[S* S]) = E c^2 (A A*, A* A)."""
        a = self.dense()
        ah = np.ascontiguousarray(a.conj().T)
        return self.law.ec2 * (a @ ah), self.law.ec2 * (ah @ a)

    def sq_norm_support(self):
        """Distribution of ||S||^2 = c^2 ||A||^2 as (values, probs), None for a
        continuous law."""
        if self.law.sq_support is None:
            return None
        values, probs = self.law.sq_support
        norm_sq = self.norm**2
        return tuple(v * norm_sq for v in values), probs

    def sample(self, seed: int, index: int, pos: int) -> np.ndarray:
        return _reference_coefficient(self.law, seed, index, pos) * self.dense()

    def to_json(self) -> dict:
        """The document of the family that builds this summand; a sign series
        with one entry 1 is written as rademacher_entry, one with a single
        diagonal entry as scaled_basis_rademacher."""
        d = self.shape[0]
        if len(self.rows) == 1:
            r, c, v = int(self.rows[0]), int(self.cols[0]), float(self.values[0])
            if self.law.name == "pareto":
                return {"family": "pareto_diagonal", "index": r, "dim": d}
            if self.law.name == "bernoulli":
                p = self.law.p
                return {"family": "centered_bernoulli_basis", "index": r, "prob": p, "dim": d}
            if self.law.name == "sign" and v == 1.0:
                return {"family": "rademacher_entry", "row": r, "col": c, "dim": d}
            if self.law.name == "sign" and r == c:
                return {"family": "scaled_basis_rademacher", "index": r, "scale": v, "dim": d}
        family = "fixed_rademacher" if self.law.name == "sign" else "fixed_gaussian"
        return {"family": family, "matrix": _matrix_to_json(self.dense())}


def _check_cell(row: int, col: int, dim: int, message: str) -> None:
    for value in (row, col, dim):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"positions and dim must be integers, got {value!r}")
    if not (0 <= row < dim and 0 <= col < dim):
        raise ValueError(message)


def _fixed(law: ScalarLaw, matrix) -> ScalarSeries:
    h = as_hermitian(matrix)
    rows, cols = np.nonzero(h.array)
    values = h.array[rows, cols]
    if not values.imag.any():
        values = np.ascontiguousarray(values.real)
    for a in (rows, cols, values):
        a.setflags(write=False)
    return ScalarSeries(law, h.shape, rows, cols, values, spectral_norm(h))


def FixedRademacher(matrix) -> ScalarSeries:
    """S = eps * H for a fixed Hermitian H and a fair sign eps."""
    return _fixed(SIGN, matrix)


def FixedGaussian(matrix) -> ScalarSeries:
    """S = g * H for a fixed Hermitian H and a standard normal g."""
    return _fixed(GAUSSIAN, matrix)


def ScaledBasisRademacher(index: int, scale: float, dim: int) -> ScalarSeries:
    """S = scale * eps * E_ii inside a dim x dim matrix; scale^2 must be finite."""
    _check_cell(index, index, dim, "index out of range")
    scale = float(scale)
    if not math.isfinite(scale * scale):
        raise ValueError(f"scale {scale!r} is not finite or its square overflows")
    return ScalarSeries(SIGN, (dim, dim), (index,), (index,), (scale,), abs(scale))


def CenteredBernoulliBasis(index: int, prob: float, dim: int) -> ScalarSeries:
    """S = (delta - p) * E_ii with delta ~ Bernoulli(p), 0 < p <= 1."""
    _check_cell(index, index, dim, "index out of range")
    if not 0.0 < prob <= 1.0:
        raise ValueError("prob must satisfy 0 < p <= 1")
    law = bernoulli_law(float(prob))
    return ScalarSeries(law, (dim, dim), (index,), (index,), (1.0,), 1.0)


def RademacherEntry(row: int, col: int, dim: int) -> ScalarSeries:
    """S = eps * E_ij inside a dim x dim matrix."""
    _check_cell(row, col, dim, "entry position out of range")
    return ScalarSeries(SIGN, (dim, dim), (row,), (col,), (1.0,), 1.0)


def ParetoDiagonal(index: int, dim: int) -> ScalarSeries:
    """S = P * E_ii with P = s * u^(-1/4): symmetric, P(|P| >= t) = t^-4."""
    _check_cell(index, index, dim, "index out of range")
    return ScalarSeries(PARETO, (dim, dim), (index,), (index,), (1.0,), 1.0)


# Finite supports as stacks: probabilities (..., c) and outcome matrices
# (..., c, d1, d2), one support per leading index.  FiniteSummand holds one;
# the symmetrization sweep holds a whole shape group of them.


def check_support(probs: np.ndarray, mats: np.ndarray) -> None:
    """Raise unless every support of the stacks has finite outcomes and
    positive probabilities that sum to 1 within 1e-12."""
    if not np.isfinite(mats).all():
        raise ValueError("matrix entries must be finite")
    # written so that a NaN probability fails both tests
    if not (probs > 0.0).all():
        raise ValueError("outcome probabilities must be positive")
    sums = probs.sum(axis=-1)
    bad = np.flatnonzero(~(np.abs(sums - 1.0) <= 1e-12))
    if bad.size:
        raise ValueError(f"probabilities sum to {sums.flat[bad[0]]!r}, expected 1")


def support_means(probs: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """E S of every support of the stacks, as (..., d1, d2): the probability
    row times the flattened outcomes, one matrix product per support."""
    flat = mats.reshape(mats.shape[:-2] + (-1,))
    means = probs[..., None, :].astype(np.complex128) @ flat
    return means.reshape(mats.shape[:-3] + mats.shape[-2:])


def centered_support(probs: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """The outcomes of every support of the stacks minus their mean."""
    return mats - support_means(probs, mats)[..., None, :, :]


def sign_modulated_support(probs: np.ndarray, mats: np.ndarray):
    """(probabilities, outcomes) of eps * S for every support S of the stacks
    and an independent fair sign eps: the outcomes m_1 .. m_c, then
    -m_c .. -m_1, each with half its probability, so that each support read
    backwards is its own negation."""
    half = probs / 2.0
    return (
        np.concatenate([half, half[..., ::-1]], axis=-1),
        np.concatenate([mats, -mats[..., ::-1, :, :]], axis=-3),
    )


class FiniteSummand:
    """A random matrix with finite support: outcomes [(probability, matrix)].

    Probabilities must be positive and sum to 1 within 1e-12; all outcome
    matrices share one shape.  The outcomes are validated as one stack.
    """

    __slots__ = ("probabilities", "matrices")

    heavy_tail = False

    def __init__(self, outcomes):
        pairs = list(outcomes)
        if not pairs:
            raise ValueError("FiniteSummand needs at least one outcome")
        probs = np.array([float(p) for p, _ in pairs], dtype=np.float64)
        mats = as_stack((m for _, m in pairs), "outcome matrices must share one shape")
        check_support(probs, mats)
        self._set(probs, mats)

    @classmethod
    def _of_stack(cls, probs: np.ndarray, mats: np.ndarray) -> "FiniteSummand":
        """The summand of a support the program derived valid, unchecked."""
        out = cls.__new__(cls)
        out._set(probs, mats)
        return out

    def _set(self, probs: np.ndarray, mats: np.ndarray) -> None:
        probs.setflags(write=False)
        mats.setflags(write=False)
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "matrices", mats)

    def __setattr__(self, name, value):
        raise AttributeError("FiniteSummand is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return np.array_equal(self.probabilities, other.probabilities) and np.array_equal(
            self.matrices, other.matrices
        )

    __hash__ = None

    @property
    def support_size(self) -> int:
        return self.matrices.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrices.shape[1], self.matrices.shape[2]

    @property
    def zero_mean(self) -> bool:
        """True when ||E S||_F <= 1e-12 * max(1, largest outcome entry)."""
        scale = max(1.0, float(np.abs(self.matrices).max(initial=0.0)))
        # an overflowing norm reads inf: not zero mean, and no warning
        with np.errstate(over="ignore"):
            return float(np.linalg.norm(self.mean(), ord="fro")) <= _MEAN_TOL * scale

    def outcomes(self) -> list[tuple[float, np.ndarray]]:
        return [(float(p), m) for p, m in zip(self.probabilities, self.matrices)]

    def mean(self) -> np.ndarray:
        return support_means(self.probabilities, self.matrices)

    def outcome_norms(self) -> np.ndarray:
        return spectral_norms(self.matrices)

    def centered(self) -> "FiniteSummand":
        """S - E S; raises when an outcome minus the mean overflows."""
        with np.errstate(over="ignore", invalid="ignore"):
            mats = centered_support(self.probabilities, self.matrices)
        if not np.isfinite(mats).all():
            raise ValueError("centering overflows: an outcome minus the mean is not finite")
        return FiniteSummand._of_stack(self.probabilities, mats)

    def sign_modulated(self) -> "FiniteSummand":
        """Support of eps * S for an independent fair sign eps (see
        sign_modulated_support)."""
        return FiniteSummand._of_stack(
            *sign_modulated_support(self.probabilities, self.matrices)
        )

    def moment_cell(self):
        return None

    def second_moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Exact (E[S S*], E[S* S]) = sum_k p_k (M_k M_k*, M_k* M_k)."""
        probs, mats = self.probabilities, self.matrices
        left = np.einsum("k,kab,kcb->ac", probs, mats, mats.conj())
        right = np.einsum("k,kba,kbc->ac", probs, mats.conj(), mats)
        return left, right

    def sq_norm_support(self):
        agg: dict[float, float] = {}
        for p, v in zip(self.probabilities, self.outcome_norms() ** 2):
            agg[float(v)] = agg.get(float(v), 0.0) + float(p)
        values = np.array(sorted(agg))
        return values, np.array([agg[v] for v in values])

    def sample(self, seed: int, index: int, pos: int) -> np.ndarray:
        cums = np.cumsum(self.probabilities)
        u = float(rng.uniform_halfopen(seed, index, pos, 0))
        j = min(int(np.searchsorted(cums, u, side="right")), len(cums) - 1)
        return self.matrices[j]

    def to_json(self) -> dict:
        return {
            "family": "finite",
            "outcomes": [
                {"probability": p, "matrix": _matrix_to_json(m)} for p, m in self.outcomes()
            ],
        }


def as_finite_summand(s) -> FiniteSummand:
    return s if isinstance(s, FiniteSummand) else FiniteSummand(s)


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndependentSumModel:
    """Z = sum of independent summands, all of shape (d1, d2).

    `centered` is computed, never trusted from the caller: it is true iff
    every summand has zero mean (always for a ScalarSeries, computed from the
    support for a FiniteSummand).  `n` is the reported model size: the
    repetition count for the built-in examples, the summand count otherwise.

    The summand objects may repeat (make_example shares one object among the
    n repetitions of an entry).  The model keeps the distinct objects in
    order of first appearance and, for each position, the index of its
    object among them, so that per-summand work runs once per object.
    """

    d1: int
    d2: int
    summands: tuple
    name: str = "custom"
    n: int | None = None
    centered: bool = field(init=False, default=False)
    _distinct: tuple = field(init=False, default=(), repr=False, compare=False)
    _inverse: np.ndarray | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        if not self.summands:
            raise ValueError("model needs at least one summand")
        summands = tuple(self.summands)
        object.__setattr__(self, "summands", summands)
        # dicts keep first insertion order, so the keys of by_id list the
        # objects in order of first appearance
        ids = list(map(id, summands))
        by_id = dict(zip(ids, summands))
        rank = dict(zip(by_id, range(len(by_id))))
        inverse = np.fromiter(map(rank.__getitem__, ids), dtype=np.intp, count=len(ids))
        inverse.setflags(write=False)
        distinct = tuple(by_id.values())
        for s in distinct:
            if s.shape != (self.d1, self.d2):
                raise ValueError(
                    f"summand shape {s.shape} != model shape ({self.d1}, {self.d2})"
                )
        if self.n is None:
            object.__setattr__(self, "n", len(summands))
        object.__setattr__(self, "_distinct", distinct)
        object.__setattr__(self, "_inverse", inverse)
        object.__setattr__(self, "centered", all(s.zero_mean for s in distinct))

    @property
    def n_summands(self) -> int:
        return len(self.summands)

    @property
    def heavy_tail(self) -> bool:
        """True when some summand has a heavy-tailed law."""
        return any(s.heavy_tail for s in self._distinct)


def make_model(summands, name: str = "custom", n: int | None = None) -> IndependentSumModel:
    summands = tuple(summands)
    # an empty model is refused by IndependentSumModel
    d1, d2 = summands[0].shape if summands else (0, 0)
    return IndependentSumModel(d1=d1, d2=d2, summands=summands, name=name, n=n)


EXAMPLE_NAMES = ("sec71", "sec72", "sec73", "sec74")


def make_example(name: str, d: int, n: int = 1) -> IndependentSumModel:
    """The four canonical examples.

    sec71: d*n summands n^(-1/2) eps_ij E_ii  (diagonal sign series)
    sec72: d*n summands (delta_ij - 1/n) E_ii, delta ~ Bernoulli(1/n)
    sec73: d*d summands eps_ij E_ij           (full sign matrix; n ignored)
    sec74: d   summands P_i E_ii, Pareto tail (n ignored)
    """
    key = str(name).lower()
    if d < 1:
        raise ValueError("d must be >= 1")
    if key in ("sec71", "sec72") and n < 1:
        raise ValueError("n must be >= 1")
    positions = {"sec71": d * n, "sec72": d * n, "sec73": d * d}.get(key, d)
    if positions * _POSITION_BYTES > _STACK_BYTES:
        raise ValueError(
            f"{positions} summand positions of {key} take "
            f"{positions * _POSITION_BYTES} bytes of plan arrays, over the "
            f"{_STACK_BYTES}-byte plan budget"
        )
    # summands are immutable and every position draws its own coefficient,
    # so the n repetitions of sec71 and sec72 share one summand object
    if key == "sec71":
        scale = 1.0 / math.sqrt(n)
        specs = [ScaledBasisRademacher(i, scale, d) for i in range(d)]
        return make_model([s for s in specs for _ in range(n)], name="sec71", n=n)
    if key == "sec72":
        specs = [CenteredBernoulliBasis(i, 1.0 / n, d) for i in range(d)]
        return make_model([s for s in specs for _ in range(n)], name="sec72", n=n)
    if key == "sec73":
        specs = [RademacherEntry(i, j, d) for i in range(d) for j in range(d)]
        return make_model(specs, name="sec73", n=d * d)
    if key == "sec74":
        specs = [ParetoDiagonal(i, d) for i in range(d)]
        return make_model(specs, name="sec74", n=d)
    raise ValueError(f"unknown example {name!r}; expected one of {EXAMPLE_NAMES}")


def analytic_second_moments(model: IndependentSumModel):
    """Exact (E[ZZ*], E[Z*Z]) for a centered model, as read-only Hermitian
    arrays.

    Independence and zero means make the second moment of the sum the sum of
    per-summand second moments.  A summand S = c * a E_{row,col} only adds
    E c^2 |a|^2 to one diagonal cell on each side; those are summed by index
    in model order and added once, so the cost is O(N + d^2) plus the dense
    terms of the other summands.  Each distinct summand object is asked once.
    The sums are replaced by (M + M*)/2: dense terms are Hermitian only up to
    rounding.
    """
    if not model.centered:
        raise ValueError("model is not centered; center() it first")
    nbytes = 16 * (model.d1**2 + model.d2**2)
    if nbytes > _STACK_BYTES:
        raise ValueError(
            f"the {model.d1}x{model.d1} and {model.d2}x{model.d2} second-moment "
            f"matrices take {nbytes} bytes, over the {_STACK_BYTES}-byte budget"
        )
    left = np.zeros((model.d1, model.d1), dtype=np.complex128)
    right = np.zeros((model.d2, model.d2), dtype=np.complex128)
    cells = [s.moment_cell() for s in model._distinct]
    dense = np.array([c is None for c in cells])
    inverse = model._inverse
    moments = {i: model._distinct[i].second_moments() for i in np.flatnonzero(dense).tolist()}
    for i in inverse[dense[inverse]].tolist():
        a, b = moments[i]
        left += a
        right += b
    one_entry = inverse[~dense[inverse]]
    if one_entry.size:
        # dense objects get a placeholder cell that no position gathers
        table = zip(*(c if c is not None else (0, 0, 0.0) for c in cells))
        rows, cols, weights = (np.array(column)[one_entry] for column in table)
        left[np.diag_indices(model.d1)] += np.bincount(
            rows, weights=weights, minlength=model.d1
        )
        right[np.diag_indices(model.d2)] += np.bincount(
            cols, weights=weights, minlength=model.d2
        )
    left, right = (left + left.conj().T) / 2.0, (right + right.conj().T) / 2.0
    left.setflags(write=False)
    right.setflags(write=False)
    return left, right


def analytic_max_sq(model: IndependentSumModel):
    """Exact E max_i ||S_i||^2 when every summand has finite ||S||^2 support.

    Uses the survival product: P(max <= v) is the product of per-summand
    CDFs, evaluated on the sorted union of support points, with each
    distinct support raised to the number of positions that carry it.
    Returns None when a summand has a continuous law (Gaussian, Pareto).
    """
    supports = []
    for s in model._distinct:
        sup = s.sq_norm_support()
        if sup is None:
            return None
        supports.append(sup)
    grouped: Counter = Counter()
    per_object = np.bincount(model._inverse, minlength=len(supports)).tolist()
    for (values, probs), count in zip(supports, per_object):
        grouped[tuple(map(float, values)), tuple(map(float, probs))] += count
    union = np.array(sorted({float(v) for values, _ in grouped for v in values}))
    cdf = np.ones_like(union)
    for (values, probs), count in grouped.items():
        vals = np.asarray(values)
        cums = np.cumsum(np.asarray(probs))
        idx = np.searchsorted(vals, union, side="right")
        f = np.where(idx > 0, cums[np.minimum(idx, len(cums)) - 1], 0.0)
        cdf *= f**count
    pmf = np.diff(np.concatenate(([0.0], cdf)))
    return float(np.dot(union, pmf))


def center(model: IndependentSumModel):
    """Replace each summand by S_i - E S_i; returns (centered model, E R).

    E R = sum of summand means is the quantity the triangle-inequality
    envelope needs for uncentered reporting.  Each distinct summand object
    is centered once, so positions that shared an object still share one.
    """
    mean_sum = np.zeros((model.d1, model.d2), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        means = [s.mean() for s in model._distinct]
        nonzero = np.array([m.any() for m in means])
        # summed in position order; an exactly zero mean adds nothing
        for i in model._inverse[nonzero[model._inverse]]:
            mean_sum += means[i]
    if not np.isfinite(mean_sum).all():
        raise ValueError("centering overflows: the summed means are not finite")
    if model.centered:
        return model, mean_sum
    distinct = [s if s.zero_mean else s.centered() for s in model._distinct]
    specs = tuple(distinct[i] for i in model._inverse)
    centered = IndependentSumModel(model.d1, model.d2, specs, name=model.name, n=model.n)
    return centered, mean_sum


# ---------------------------------------------------------------------------
# Sampling engine
# ---------------------------------------------------------------------------

# bytes the plan may spend on the entries of fixed matrices (summands with
# more than one entry, which a model file describes compactly), and what one
# entry takes: row, owner and cell indices, the real and the imaginary part.
# The same budget bounds the summand positions of a built-in example, whose
# plan holds six 8-byte arrays over them (codes, positions, norms, rows,
# cells, real values); make_example checks it before building the list.
# It also bounds the two dense complex second-moment matrices.
_STACK_BYTES = 1 << 27
_ENTRY_BYTES = 40
_POSITION_BYTES = 48


class SamplerPlan:
    """Precompiled vectorized sampler for one model.

    The ScalarSeries summands are grouped by law, and each law draws the
    coefficients of all its summands at once (a draw depends only on the
    position, so the grouping does not change it).  Every coefficient then
    multiplies the COO values of its matrix in one scatter over all cells,
    which adds the terms of each cell in summand order.  `diagonal` is true
    when every realization of Z is a real diagonal matrix: Z is square, there
    is no FiniteSummand, and every COO entry is real and on the diagonal.
    `real` is true when every COO value and every FiniteSummand outcome is
    real; `realize` then returns real Z.  `layers` is m > 0 when the plan is
    diagonal, d >= 2, and each diagonal cell holds m entries: the entries
    are then ordered by (rank within the cell, cell), so a chunk's terms
    form one (k, m, d) array whose sum over axis 1 adds each cell's terms in
    the order the scatter does.  `terms` counts the scattered entries and
    FiniteSummand choices of one sample.  The per-position arrays are
    gathered from those of the model's distinct summand objects, so Python
    touches each object once.
    """

    def __init__(self, model: IndependentSumModel):
        self.model = model
        distinct, inverse = model._distinct, model._inverse
        finite = np.array([isinstance(s, FiniteSummand) for s in distinct])
        # per FiniteSummand object: outcome CDF, matrices (real when all are)
        # and norms, shared by its positions
        finite_ids = np.flatnonzero(finite).tolist()
        real_finite = not any(distinct[i].matrices.imag.any() for i in finite_ids)
        outcomes = {
            i: (np.cumsum(distinct[i].probabilities),
                distinct[i].matrices.real.copy() if real_finite else distinct[i].matrices,
                distinct[i].outcome_norms())
            for i in finite_ids
        }
        at = np.flatnonzero(finite[inverse])
        self.finite: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]] = [
            (pos, *outcomes[i]) for pos, i in zip(at.tolist(), inverse[at].tolist())
        ]
        # the ScalarSeries positions in model order, and for each the index
        # of its object among the distinct ScalarSeries
        is_series = ~finite
        positions = np.flatnonzero(is_series[inverse])
        series = [distinct[i] for i in np.flatnonzero(is_series).tolist()]
        obj = (np.cumsum(is_series) - 1)[inverse[positions]]

        counts_of = np.array([len(s.rows) for s in series], dtype=np.intp)
        counts = counts_of[obj]
        n_entries = int(counts.sum())
        n_fixed = int(counts[counts > 1].sum())
        if n_fixed * _ENTRY_BYTES > _STACK_BYTES:
            raise ValueError(
                f"{n_fixed} fixed-matrix entries take {n_fixed * _ENTRY_BYTES} bytes, "
                f"over the {_STACK_BYTES}-byte plan budget"
            )
        # column g of a coefficient draw belongs to the g-th ScalarSeries
        # position; equal laws form one group, compared once per law object
        # (summands of the examples share few) rather than once per summand
        laws = {id(s.law): s.law for s in series}
        code = {law: i for i, law in enumerate(dict.fromkeys(laws.values()))}
        by_id = {key: code[law] for key, law in laws.items()}
        codes = np.array([by_id[id(s.law)] for s in series], dtype=np.intp)[obj]
        positions = positions.astype(np.uint64)
        norms = np.array([s.norm for s in series], dtype=np.float64)[obj]

        # the COO entries of the distinct ScalarSeries back to back: entry e
        # of a position is entry start[obj] + e of these tables
        n_table = int(counts_of.sum())

        def table(attr, dtype):
            items = chain.from_iterable([getattr(s, attr) for s in series])
            return np.fromiter(items, dtype=dtype, count=n_table)

        start = np.cumsum(counts_of) - counts_of
        first = np.cumsum(counts) - counts
        entries = np.arange(n_entries) + np.repeat(start[obj] - first, counts)
        # None when entry e belongs to series e, so no gather is needed
        self.owner = None
        if not (counts.size and (counts == 1).all()):
            self.owner = np.repeat(np.arange(len(obj)), counts)
        rows, cols = table("rows", np.intp), table("cols", np.intp)
        values = table("values", np.complex128)
        self.rows = rows[entries]
        self.cells = (rows * model.d2 + cols)[entries]
        self.values = values.real[entries]
        self.imag = values.imag[entries] if values.imag.any() else None
        self.terms = n_entries + len(self.finite)
        self.real = self.imag is None and real_finite
        self.diagonal = (
            model.d1 == model.d2
            and self.real
            and not self.finite
            and np.array_equal(rows, cols)
        )
        self.layers = 0
        if self.diagonal and model.d1 >= 2:
            per_cell = np.bincount(self.rows, minlength=model.d1)
            if (per_cell == per_cell[0]).all():
                self.layers = int(per_cell[0])
        if self.layers:
            # stable within each cell, so a cell's terms keep their order
            order = np.argsort(self.rows, kind="stable").reshape(model.d1, -1).T.ravel()
            self.rows, self.cells = self.rows[order], self.cells[order]
            self.values = self.values[order]
            if self.owner is None:  # entry e is series e: reorder the series
                positions, codes, norms = positions[order], codes[order], norms[order]
            else:
                self.owner = self.owner[order]
        self.norms = norms
        self.groups = [
            (law, np.flatnonzero(codes == i), positions[codes == i][None, :])
            for law, i in code.items()
        ]

    def _coefficients(self, seed: int, idx: np.ndarray) -> np.ndarray:
        """(k, number of ScalarSeries) draws of c for a batch of indices."""
        col = idx[:, None]
        if len(self.groups) == 1:
            law, _, positions = self.groups[0]
            return law.draw(seed, col, positions)
        coef = np.empty((len(idx), len(self.norms)))
        for law, columns, positions in self.groups:
            coef[:, columns] = law.draw(seed, col, positions)
        return coef

    def _entry_coefficients(self, coef: np.ndarray) -> np.ndarray:
        """(k, entries) coefficient of the series each COO entry belongs to:
        coef itself, not a copy, when entry e belongs to series e."""
        return coef if self.owner is None else coef[:, self.owner]

    @staticmethod
    def _scatter(weights: np.ndarray, cells: np.ndarray, width: int) -> np.ndarray:
        """Row s of the (k, width) result sums weights[s, e] into column
        cells[e], adding the terms of each cell in entry order."""
        k = weights.shape[0]
        flat = (np.arange(k)[:, None] * width + cells).ravel()
        return np.bincount(flat, weights=weights.ravel(), minlength=k * width).reshape(k, width)

    def _max_sq(self, coef: np.ndarray) -> np.ndarray:
        return ((coef * self.norms) ** 2).max(axis=1, initial=0.0)

    def _finite_choices(self, seed: int, idx: np.ndarray):
        """Yield each FiniteSummand's outcome matrices and norms with the
        (k,) outcome indices drawn for the batch."""
        for pos, cums, mats, norms in self.finite:
            u = rng.uniform_halfopen(seed, idx, pos, 0)
            j = np.minimum(np.searchsorted(cums, u, side="right"), len(cums) - 1)
            yield mats, norms, j

    def realize(self, seed, indices, max_sq: bool = True):
        """Realizations Z, real when the plan is, and max_i ||S_i||^2 (None
        when `max_sq` is false) for a batch of sample indices."""
        seed = seed_value(seed)
        idx = np.asarray(indices, dtype=np.uint64)
        k = idx.shape[0]
        shape, width = (k, self.model.d1, self.model.d2), self.model.d1 * self.model.d2
        coef = self._coefficients(seed, idx)
        sq = self._max_sq(coef) if max_sq else None
        terms = self._entry_coefficients(coef)
        if self.real:
            z = np.empty(shape)
        else:
            z = np.empty(shape, dtype=np.complex128)
            z.imag = 0.0
            if self.imag is not None:
                z.imag = self._scatter(terms * self.imag, self.cells, width).reshape(shape)
        terms *= self.values  # in place: coef is not read again
        z.real = self._scatter(terms, self.cells, width).reshape(shape)
        for mats, norms, j in self._finite_choices(seed, idx):
            z += mats[j]
            if max_sq:
                np.maximum(sq, norms[j] ** 2, out=sq)
        return z, sq

    def realize_max_sq(self, seed, indices) -> np.ndarray:
        """max_i ||S_i||^2 alone for a batch of sample indices, identical to
        the second output of `realize` without building Z."""
        seed = seed_value(seed)
        idx = np.asarray(indices, dtype=np.uint64)
        sq = self._max_sq(self._coefficients(seed, idx))
        for _, norms, j in self._finite_choices(seed, idx):
            np.maximum(sq, norms[j] ** 2, out=sq)
        return sq

    def realize_diagonal(self, seed, indices, max_sq: bool = True):
        """For a diagonal plan: the real diagonals (k, d) of the realizations
        and max_i ||S_i||^2 (None when `max_sq` is false).  Each entry sums
        the same terms in the same order as the matching entry of `realize`,
        so the values are identical."""
        if not self.diagonal:
            raise ValueError("realize_diagonal needs a diagonal plan")
        seed = seed_value(seed)
        coef = self._coefficients(seed, np.asarray(indices, dtype=np.uint64))
        sq = self._max_sq(coef) if max_sq else None
        terms = self._entry_coefficients(coef)
        terms *= self.values  # in place: coef is not read again
        if self.layers:
            return np.add.reduce(terms.reshape(len(terms), self.layers, -1), axis=1), sq
        return self._scatter(terms, self.rows, self.model.d1), sq


def sample_summands(model: IndependentSumModel, seed, index: int) -> list[np.ndarray]:
    """One complex128 realization of every summand, in model order.

    Deterministic in (seed, index, summand position); the sum of the returned
    list is the corresponding realization of Z.  Draws each coefficient with
    scalar RNG calls, independently of SamplerPlan.
    """
    seed = seed_value(seed)
    return [s.sample(seed, index, pos) for pos, s in enumerate(model.summands)]


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def _matrix_to_json(a: np.ndarray):
    a = np.asarray(a, dtype=np.complex128)
    if np.all(a.imag == 0.0):
        return [[float(x.real) for x in row] for row in a]
    return [[[float(x.real), float(x.imag)] for x in row] for row in a]


_INTEGRAL = {"index", "row", "col", "dim", "n", "d", "d1", "d2"}
# beyond 2^53 a whole float cannot be told from its neighbours, and no budget
# admits a count or index that large
_INTEGRAL_LIMIT = 1 << 53


def _number(doc: dict, key: str):
    """Numeric field `key` of a model-file object, the one reader of a number
    outside a matrix: a finite JSON number, not a bool or a string, whole,
    within +-2^53 and returned as an int when it counts or indexes, else a
    float."""
    if key not in doc:
        raise ValueError(f"missing field {key!r}")
    value, integral = doc[key], key in _INTEGRAL
    if integral and type(value) in (int, float) and abs(value) > _INTEGRAL_LIMIT:
        raise ValueError(f"field {key!r} must be an integer within +-2^53")
    finite = type(value) in (int, float) and abs(value) <= sys.float_info.max
    if not finite or (integral and value % 1):
        kind = "an integer" if integral else "a finite number"
        raise ValueError(f"field {key!r} must be {kind}, got {value!r}")
    return int(value) if integral else float(value)


def _matrix_from_json(doc: dict, key: str) -> np.ndarray:
    """Matrix field `key`: equal-length rows of finite JSON numbers or
    [re, im] pairs of them, checked and converted as one flat list."""
    rows = doc.get(key)
    if (
        not isinstance(rows, list)
        or not rows
        or not all(isinstance(row, list) and row for row in rows)
        or len({len(row) for row in rows}) != 1
    ):
        raise ValueError(f"field {key!r} must be a non-empty list of equal-length rows")
    flat = list(chain.from_iterable(rows))
    pairs = list in set(map(type, flat))
    if pairs:  # a real entry becomes (e, 0.0); a list of another length stays a list
        padded = (e if type(e) is list and len(e) == 2 else (e, 0.0) for e in flat)
        flat = list(chain.from_iterable(padded))
    try:
        finite = set(map(type, flat)) <= {int, float} and all(map(math.isfinite, flat))
    except OverflowError:  # an integer beyond float range
        finite = False
    if not finite:
        raise ValueError(f"field {key!r} entries must be finite numbers or [re, im] pairs of them")
    a = np.array(flat, dtype=np.float64)
    return (a.view(np.complex128) if pairs else a.astype(np.complex128)).reshape(len(rows), -1)


def _outcomes_from_json(doc: dict, key: str) -> list:
    outcomes = doc.get(key)
    if not isinstance(outcomes, list) or not all(
        isinstance(o, dict) and "probability" in o and "matrix" in o for o in outcomes
    ):
        raise ValueError(
            f"field {key!r} must be a list of objects with 'probability' and 'matrix'"
        )
    return [(_number(o, "probability"), _matrix_from_json(o, "matrix")) for o in outcomes]


_READERS = {"matrix": _matrix_from_json, "outcomes": _outcomes_from_json}
# family -> (constructor, its fields in argument order)
_FAMILIES = {
    "fixed_rademacher": (FixedRademacher, ("matrix",)),
    "fixed_gaussian": (FixedGaussian, ("matrix",)),
    "scaled_basis_rademacher": (ScaledBasisRademacher, ("index", "scale", "dim")),
    "centered_bernoulli_basis": (CenteredBernoulliBasis, ("index", "prob", "dim")),
    "rademacher_entry": (RademacherEntry, ("row", "col", "dim")),
    "pareto_diagonal": (ParetoDiagonal, ("index", "dim")),
    "finite": (FiniteSummand, ("outcomes",)),
}


def summand_from_json(doc: dict):
    if not isinstance(doc, dict):
        raise ValueError("summand document must be a JSON object")
    family = doc.get("family")
    if not isinstance(family, str) or family not in _FAMILIES:
        raise ValueError(f"unknown summand family {family!r}")
    build, keys = _FAMILIES[family]
    return build(*(_READERS.get(key, _number)(doc, key) for key in keys))


def model_to_json(model: IndependentSumModel) -> dict:
    return {
        "name": model.name,
        "d1": model.d1,
        "d2": model.d2,
        "n": model.n,
        "summands": [s.to_json() for s in model.summands],
    }


def model_from_json(doc: dict) -> IndependentSumModel:
    if not isinstance(doc, dict):
        raise ValueError("model document must be a JSON object")
    if "summands" not in doc:
        name = doc.get("name")
        if name is None:
            raise ValueError("model document needs 'summands' or a built-in 'name'")
        n = _number(doc, "n") if "n" in doc else 1
        return make_example(str(name), d=_number(doc, "d"), n=n)
    if not isinstance(doc["summands"], list):
        raise ValueError("field 'summands' must be a list of summand objects")
    model = make_model(
        [summand_from_json(s) for s in doc["summands"]],
        name=str(doc.get("name", "custom")),
        n=_number(doc, "n") if "n" in doc else None,
    )
    if "d1" in doc or "d2" in doc:
        if (_number(doc, "d1"), _number(doc, "d2")) != (model.d1, model.d2):
            raise ValueError("declared (d1, d2) does not match the summand shapes")
    return model
