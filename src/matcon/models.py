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

Both kinds answer the same questions: shape, mean, centering, second moments
and the distribution of ||S||^2.  The four canonical
examples (sec71..sec74) assemble the diagonal sign series, the centered
Bernoulli diagonal, the full sign matrix, and the heavy-tailed diagonal.

Sampling is driven by the counter RNG: every coefficient is a pure function
of (seed, sample index, summand position, slot), so realizations are
independent of evaluation order and chunking.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Callable

import numpy as np

from . import rng
from .linalg import as_stack, hermitian_stack, spectral_norms

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
    `magnitude`, when set, the same draw of |c| alone, with no sign drawn;
    `heavy_tail` makes median-of-means the default estimator; `two_point`
    is (lo, hi, P(c = hi)) for a law with two values, else None.
    """

    name: str
    ec2: float = field(compare=False)
    sq_support: tuple | None = field(compare=False)
    draw: Callable = field(compare=False)
    heavy_tail: bool = field(default=False, compare=False)
    p: float | None = None
    two_point: tuple | None = field(default=None, compare=False)
    magnitude: Callable | None = field(default=None, compare=False)


SIGN = ScalarLaw("sign", 1.0, ((1.0,), (1.0,)), lambda s, i, pos: rng.signs(s, i, pos, 0),
                 two_point=(-1.0, 1.0, 0.5))
GAUSSIAN = ScalarLaw("gaussian", 1.0, None, lambda s, i, pos: rng.gaussians(s, i, pos, 0))
# P = s * u^(-1/4): P(|P| >= t) = t^-4, E P^2 = integral of 4 t^-3 from 1 = 2
PARETO = ScalarLaw(
    "pareto", 2.0, None,
    lambda s, i, pos: rng.signs(s, i, pos, 1) * rng.pareto_magnitudes(s, i, pos, 0),
    heavy_tail=True, magnitude=lambda *key: rng.pareto_magnitudes(*key, 0))


def bernoulli_law(p: float) -> ScalarLaw:
    """c = delta - p with delta ~ Bernoulli(p), 0 < p <= 1."""
    pairs = {(1.0 - p) ** 2: p}
    if 1.0 - p > 0.0:
        pairs[p**2] = pairs.get(p**2, 0.0) + (1.0 - p)
    values = tuple(sorted(pairs))

    def draw(seed, index, position):
        u = rng.uniform_halfopen(seed, index, position, 0)
        return (u < p).astype(np.float64) - p

    support = (values, tuple(pairs[v] for v in values))
    return ScalarLaw("bernoulli", p * (1.0 - p), support, draw, p=p, two_point=(-p, 1.0 - p, p))


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

    def dense(self) -> np.ndarray:
        a = np.zeros(self.shape, dtype=np.complex128)
        a[np.asarray(self.rows, dtype=np.intp), np.asarray(self.cols, dtype=np.intp)] = self.values
        return a

    def mean(self) -> np.ndarray:
        return np.zeros(self.shape, dtype=np.complex128)

    def second_moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Exact (E[S S*], E[S* S]) = E c^2 (A A*, A* A)."""
        a = self.dense()
        ah = np.ascontiguousarray(a.conj().T)
        return self.law.ec2 * (a @ ah), self.law.ec2 * (ah @ a)

    def sq_norm_support(self):
        return _series_sq_support(self.law, self.norm)

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


def _series_sq_support(law: ScalarLaw, norm: float):
    """Distribution of ||S||^2 = c^2 ||A||^2 of S = c * A, c ~ law and
    ||A|| = norm, as (values, probs); None for a continuous law."""
    if law.sq_support is None:
        return None
    values, probs = law.sq_support
    norm_sq = float(norm) ** 2
    return tuple(v * norm_sq for v in values), probs


def _check_cell(row: int, col: int, dim: int, message: str) -> None:
    for value in (row, col, dim):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"positions and dim must be integers, got {value!r}")
    if not (0 <= row < dim and 0 <= col < dim):
        raise ValueError(message)


def _fixed_stack(laws, stack: np.ndarray) -> list[ScalarSeries]:
    """law * H for the Hermitian part H of each matrix of a finite complex
    (k, d, d) stack, validated (hermitian_stack) and normed (spectral_norms)
    as one stack: by their stack contract, bit for bit as one matrix at a
    time."""
    hs, _ = hermitian_stack(stack)
    out = []
    for law, h, norm in zip(laws, hs, spectral_norms(hs).tolist()):
        rows, cols = np.nonzero(h)
        values = h[rows, cols]
        if not values.imag.any():
            values = np.ascontiguousarray(values.real)
        for a in (rows, cols, values):
            a.setflags(write=False)
        out.append(ScalarSeries(law, h.shape, rows, cols, values, norm))
    return out


def _fixed(law: ScalarLaw, matrix) -> ScalarSeries:
    return _fixed_stack([law], as_stack([matrix]))[0]


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
class _Columns:
    """What set-up reads of each distinct summand object of a model, as
    arrays over the objects.  `code` indexes `laws`, the distinct laws in
    order of first appearance, and is -1 for a FiniteSummand; `norm` is
    ||A|| of a ScalarSeries.  A ScalarSeries whose A has the one entry
    a = `value` at (`row`, `col`) has the cell weight `weight` = E c^2 |a|^2:
    E[S S*] is that weight at (row, row) and E[S* S] at (col, col).  Every
    other summand is dense, with row and col -1."""

    laws: tuple
    code: np.ndarray
    norm: np.ndarray
    row: np.ndarray
    col: np.ndarray
    value: np.ndarray
    weight: np.ndarray


def _columns_of(distinct) -> _Columns:
    """The columns of distinct summand objects, asked of each once and
    written straight into the arrays."""
    laws: dict = {}  # law -> code; equal laws share one code
    k = len(distinct)
    code, (row, col) = np.full(k, -1, dtype=np.intp), np.full((2, k), -1, dtype=np.intp)
    norm, value, weight = np.zeros(k), np.zeros(k, dtype=np.complex128), np.zeros(k)
    for i, s in enumerate(distinct):
        if isinstance(s, FiniteSummand):
            continue
        code[i], norm[i] = laws.setdefault(s.law, len(laws)), s.norm
        if len(s.rows) == 1:
            a = value[i] = s.values[0]
            row[i], col[i], weight[i] = s.rows[0], s.cols[0], s.law.ec2 * abs(a) ** 2
    return _Columns(tuple(laws), code, norm, row, col, value, weight)


@dataclass(frozen=True, eq=False)
class IndependentSumModel:
    """Z = sum of independent summands, all of shape (d1, d2).

    The summand objects may repeat (make_example shares one object among the
    n repetitions of an entry), so the model holds one row of columns
    (_Columns) per distinct object, in order of first appearance, and for
    each position the index of its object; `summands` lists the positions.
    Every builder (make_model, make_example, center) hands it the columns,
    the read-only position index and `_build`, a function returning the
    distinct objects, which are built when first read (`summands`,
    model_to_json, ==).  Set-up reads the columns alone, so per-summand work
    runs once per object and never asks a ScalarSeries object.

    `centered` is computed, never trusted from the caller: it is true iff
    every summand has zero mean (always for a ScalarSeries, computed from the
    support for a FiniteSummand).  `n` is the reported model size: the
    repetition count for the built-in examples, the summand count otherwise.
    Models compare by d1, d2, name, n and their summands' values, each pair
    of objects that the positions line up compared once.
    """

    d1: int
    d2: int
    _columns: _Columns = field(repr=False)
    _inverse: np.ndarray = field(repr=False)
    _build: Callable = field(repr=False)
    name: str = "custom"
    n: int | None = None
    centered: bool = field(init=False, default=False)

    def __post_init__(self):
        self._inverse.setflags(write=False)
        if self.n is None:
            object.__setattr__(self, "n", len(self._inverse))
        finite = np.flatnonzero(self._columns.code < 0).tolist()
        object.__setattr__(self, "centered", all(self._distinct[i].zero_mean for i in finite))

    @cached_property
    def _distinct(self) -> tuple:
        """The distinct summand objects, in order of first appearance."""
        return self._build()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if (self.d1, self.d2, self.name, self.n, self.n_summands) != (
            other.d1, other.d2, other.name, other.n, other.n_summands
        ):
            return False
        # each pair of objects that some position lines up, compared once
        mine, theirs = self._distinct, other._distinct
        pairs = np.divmod(np.unique(self._inverse * len(theirs) + other._inverse), len(theirs))
        return all(mine[i] is theirs[j] or mine[i] == theirs[j] for i, j in zip(*pairs))

    __hash__ = None

    @property
    def summands(self) -> tuple:
        """The summand object of each position, in model order."""
        return tuple(map(self._distinct.__getitem__, self._inverse.tolist()))

    @property
    def n_summands(self) -> int:
        return len(self._inverse)

    @property
    def heavy_tail(self) -> bool:
        """True when some summand has a heavy-tailed law."""
        return any(law.heavy_tail for law in self._columns.laws)


def make_model(summands, name: str = "custom", n: int | None = None) -> IndependentSumModel:
    summands = tuple(summands)
    if not summands:
        raise ValueError("model needs at least one summand")
    # dicts keep first insertion order, so the keys of by_id list the objects
    # in order of first appearance
    ids = list(map(id, summands))
    by_id = dict(zip(ids, summands))
    rank = dict(zip(by_id, range(len(by_id))))
    inverse = np.fromiter(map(rank.__getitem__, ids), dtype=np.intp, count=len(ids))
    distinct = tuple(by_id.values())
    d1, d2 = distinct[0].shape
    for s in distinct:
        if s.shape != (d1, d2):
            raise ValueError(f"summand shape {s.shape} != model shape ({d1}, {d2})")
    return IndependentSumModel(d1, d2, _columns_of(distinct), inverse, lambda: distinct, name, n)


EXAMPLE_NAMES = ("sec71", "sec72", "sec73", "sec74")


def make_example(name: str, d: int, n: int = 1) -> IndependentSumModel:
    """The four canonical examples.

    sec71: d*n summands n^(-1/2) eps_ij E_ii  (diagonal sign series)
    sec72: d*n summands (delta_ij - 1/n) E_ii, delta ~ Bernoulli(1/n)
    sec73: d*d summands eps_ij E_ij           (full sign matrix; n ignored)
    sec74: d   summands P_i E_ii, Pareto tail (n ignored)

    The model is given its columns (_Columns) and position index as numpy
    arrays, so set-up runs no Python per summand; the summand objects come
    from the family constructors when first read.  The positions are
    checked against the plan budget before anything is built: 8 bytes each,
    for the position index, when the plan has a row law (sec71 and sec72
    with n <= _ROW_ATOMS), else _POSITION_BYTES for the per-term tables.
    """
    key = str(name).lower()
    if d < 1:
        raise ValueError("d must be >= 1")
    if key in ("sec71", "sec72") and n < 1:
        raise ValueError("n must be >= 1")
    if key not in EXAMPLE_NAMES:
        raise ValueError(f"unknown example {name!r}; expected one of {EXAMPLE_NAMES}")
    positions = {"sec71": d * n, "sec72": d * n, "sec73": d * d}.get(key, d)
    row_law = key in ("sec71", "sec72") and n <= _ROW_ATOMS
    _check_positions(key, positions, _INDEX_BYTES if row_law else _POSITION_BYTES)
    _check_cell(0, 0, d, "index out of range")
    if key == "sec71":
        scale = 1.0 / math.sqrt(n)
        law, value, family = SIGN, scale, lambda i, j: ScaledBasisRademacher(i, scale, d)
    elif key == "sec72":
        p = 1.0 / n
        law, value, family = bernoulli_law(p), 1.0, lambda i, j: CenteredBernoulliBasis(i, p, d)
    elif key == "sec73":
        law, value, family, n = SIGN, 1.0, lambda i, j: RademacherEntry(i, j, d), d * d
    else:
        law, value, family, n = PARETO, 1.0, lambda i, j: ParetoDiagonal(i, d), d
    cells = np.arange(d)
    rows, cols = (np.repeat(cells, d), np.tile(cells, d)) if key == "sec73" else (cells, cells)
    k = len(rows)
    # the column values, each computed once as _columns_of computes it
    columns = _Columns(
        (law,),
        np.zeros(k, dtype=np.intp),
        np.full(k, abs(value)),
        rows,
        cols,
        np.full(k, value, dtype=np.complex128),
        np.full(k, law.ec2 * abs(value) ** 2),
    )
    # summands are immutable and every position draws its own coefficient,
    # so the n repetitions of sec71 and sec72 share one summand object
    inverse = np.repeat(np.arange(k), positions // k)
    return IndependentSumModel(
        d, d, columns, inverse, lambda: tuple(map(family, rows.tolist(), cols.tolist())), key, n
    )


def _check_positions(name: str, positions: int, per_position: int) -> None:
    """Refuse `positions` summand positions of model `name` whose plan
    arrays, at `per_position` bytes each, would exceed the plan budget."""
    if positions * per_position > _STACK_BYTES:
        raise ValueError(
            f"{positions} summand positions of {name} take "
            f"{positions * per_position} bytes of plan arrays, over the "
            f"{_STACK_BYTES}-byte plan budget"
        )


def _check_moments(model: IndependentSumModel, matrices: bool) -> None:
    """Refuse an uncentered model, and with `matrices` one whose two dense
    second-moment matrices would exceed the budget."""
    if not model.centered:
        raise ValueError("model is not centered; center() it first")
    nbytes = 16 * (model.d1**2 + model.d2**2)
    if matrices and nbytes > _STACK_BYTES:
        raise ValueError(
            f"the {model.d1}x{model.d1} and {model.d2}x{model.d2} second-moment "
            f"matrices take {nbytes} bytes, over the {_STACK_BYTES}-byte budget"
        )


def _cell_sums(model: IndependentSumModel, objects: np.ndarray):
    """The diagonals that the one-entry summand objects `objects`, one per
    position, add to E[ZZ*] and E[Z*Z], summed by cell in position order."""
    c = model._columns
    rows, cols = np.zeros(model.d1), np.zeros(model.d2)
    # unbuffered adds, in position order from +0.0 as bincount adds, over
    # blocks of positions so that no gather spans them all
    for start in range(0, len(objects), _POSITION_BLOCK):
        block = objects[start:start + _POSITION_BLOCK]
        weights = c.weight[block]
        np.add.at(rows, c.row[block], weights)
        np.add.at(cols, c.col[block], weights)
    return rows, cols


def _hermitian_means(left: np.ndarray, right: np.ndarray):
    """(M + M*)/2 of both second moments, matrices or real diagonals (which
    it leaves as they are); raises when an entry overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        left, right = (left + left.conj().T) / 2.0, (right + right.conj().T) / 2.0
    if not (np.isfinite(left).all() and np.isfinite(right).all()):
        raise ValueError("second moments overflow: an entry of E[ZZ*] or E[Z*Z] is not finite")
    return left, right


def analytic_second_moments(model: IndependentSumModel):
    """Exact (E[ZZ*], E[Z*Z]) for a centered model, as read-only Hermitian
    arrays.

    Independence and zero means make the second moment of the sum the sum of
    per-summand second moments.  A summand S = c * a E_{row,col} only adds
    E c^2 |a|^2 to one diagonal cell on each side; those are summed by index
    in model order and added once, so the cost is O(N + d^2) plus the dense
    terms of the other summands.  Each distinct dense summand is asked once.
    The sums are replaced by (M + M*)/2: dense terms are Hermitian only up to
    rounding.
    """
    _check_moments(model, matrices=True)
    left = np.zeros((model.d1, model.d1), dtype=np.complex128)
    right = np.zeros((model.d2, model.d2), dtype=np.complex128)
    dense = model._columns.row < 0
    inverse = model._inverse
    # an overflow shows as a non-finite entry, refused by _hermitian_means
    with np.errstate(over="ignore", invalid="ignore"):
        moments = {i: model._distinct[i].second_moments() for i in np.flatnonzero(dense).tolist()}
        for i in inverse[dense[inverse]].tolist():
            a, b = moments[i]
            left += a
            right += b
        one_entry = inverse[~dense[inverse]]
        if one_entry.size:
            rows, cols = _cell_sums(model, one_entry)
            left[np.diag_indices(model.d1)] += rows
            right[np.diag_indices(model.d2)] += cols
    left, right = _hermitian_means(left, right)
    left.setflags(write=False)
    right.setflags(write=False)
    return left, right


def moment_diagonals(model: IndependentSumModel):
    """(diagonal of E[ZZ*], diagonal of E[Z*Z]) as real vectors when every
    summand holds one entry, so that both moments are diagonal; None
    otherwise.  They are the diagonals of analytic_second_moments bit for
    bit (same sums, same order, same (M + M*)/2 and checks), without a
    d x d matrix."""
    _check_moments(model, matrices=False)
    if (model._columns.row < 0).any():
        return None
    return _hermitian_means(*_cell_sums(model, model._inverse))


def _sampled_max_sq(model: IndependentSumModel) -> bool:
    """Whether E max_i ||S_i||^2 is sampled rather than exact: true when a
    summand has a continuous law (Gaussian, Pareto)."""
    return any(law.sq_support is None for law in model._columns.laws)


def analytic_max_sq(model: IndependentSumModel):
    """Exact E max_i ||S_i||^2 when every summand has finite ||S||^2 support.

    Uses the survival product: P(max <= v) is the product of per-summand
    CDFs, evaluated on the sorted union of support points, with each
    distinct support raised to the number of positions that carry it.
    Returns None when the value is sampled instead (_sampled_max_sq).
    """
    if _sampled_max_sq(model):
        return None
    c = model._columns
    per_object = np.bincount(model._inverse, minlength=len(c.code))
    # ||S||^2 of a ScalarSeries has the law c^2 ||A||^2: one support for
    # each (law, norm) and each FiniteSummand, asked of its first object;
    # equal supports then merge in order of first object
    series = np.flatnonzero(c.code >= 0)
    _, first, group = np.unique(
        c.code[series] + 1j * c.norm[series], return_index=True, return_inverse=True
    )
    per_group = np.bincount(group, weights=per_object[series], minlength=len(first))
    finite = np.flatnonzero(c.code < 0)
    objects = np.concatenate([series[first], finite]).tolist()
    positions = np.concatenate([per_group.astype(np.intp), per_object[finite]]).tolist()
    grouped: Counter = Counter()
    for i, k in sorted(zip(objects, positions)):
        if c.code[i] >= 0:
            values, probs = _series_sq_support(c.laws[c.code[i]], c.norm[i])
        else:
            values, probs = model._distinct[i].sq_norm_support()
        grouped[tuple(map(float, values)), tuple(map(float, probs))] += k
    union = np.array(sorted({float(v) for values, _ in grouped for v in values}))
    log_cdf = np.zeros_like(union)
    with np.errstate(divide="ignore"):  # log 0 = -inf: below a support
        for (values, probs), count in grouped.items():
            cdf = np.concatenate(([0.0], np.cumsum(probs)))
            log_cdf += count * np.log(cdf[np.searchsorted(values, union, side="right")])
    return _expected_max(union, log_cdf)


def _expected_max(values: np.ndarray, log_cdf: np.ndarray) -> float:
    """E max of independent variables >= 0 from the sorted union `values` of
    their supports and log P(max <= v) there: the least value plus the
    integral of the survival, taken as -expm1(log P) so that survivals far
    below 1 keep their digits."""
    return float(values[0] + np.dot(np.diff(values), -np.expm1(log_cdf[:-1])))


def _row_sq_norm(model: IndependentSumModel) -> float | None:
    """Exact E||Z||^2 = E max_i z_ii^2 of a model with a row law (_row_law),
    whose d cells are independent with one law; None for any other model."""
    row = _row_law(model)
    if row is None:
        return None
    _, atoms, cdf = row
    order = np.argsort(atoms**2, kind="stable")
    with np.errstate(divide="ignore"):
        log_cdf = model.d1 * np.log(np.cumsum(np.diff(cdf, prepend=0.0)[order]))
    return _expected_max(atoms[order] ** 2, log_cdf)


def center(model: IndependentSumModel):
    """Replace each summand by S_i - E S_i; returns (centered model, E R).

    E R = sum of summand means is the quantity the triangle-inequality
    envelope needs for uncentered reporting; a ScalarSeries has mean zero,
    so only FiniteSummand means are taken.  Each FiniteSummand object is
    centered once; the centered model shares the model's position index and
    columns, since a FiniteSummand's column row does not depend on it.
    """
    mean_sum = np.zeros((model.d1, model.d2), dtype=np.complex128)
    nonzero, means = np.zeros(len(model._columns.code), dtype=bool), {}
    with np.errstate(over="ignore", invalid="ignore"):
        for i in np.flatnonzero(model._columns.code < 0).tolist():
            means[i] = model._distinct[i].mean()
            nonzero[i] = means[i].any()
        # summed in position order; an exactly zero mean adds nothing
        for i in model._inverse[nonzero[model._inverse]].tolist():
            mean_sum += means[i]
    if not np.isfinite(mean_sum).all():
        raise ValueError("centering overflows: the summed means are not finite")
    if model.centered:
        return model, mean_sum
    distinct = tuple(s if s.zero_mean else s.centered() for s in model._distinct)
    centered = IndependentSumModel(
        model.d1, model.d2, model._columns, model._inverse, lambda: distinct, model.name, model.n
    )
    return centered, mean_sum


# ---------------------------------------------------------------------------
# Sampling engine
# ---------------------------------------------------------------------------

# bytes the plan may spend on the entries of fixed matrices (summands with
# more than one entry, which a model file describes compactly), and what one
# entry takes: row, owner and cell indices, the real and the imaginary part.
# The same budget bounds the summand positions of a built-in example, whose
# per-term tables are six 8-byte arrays over them (codes, positions, norms,
# rows, cells, real values) and whose row plan reads only the 8-byte
# position index; make_example checks it before building anything.  It
# also bounds the two dense complex second-moment matrices.
_STACK_BYTES = 1 << 27
_ENTRY_BYTES = 40
_POSITION_BYTES = 48
_INDEX_BYTES = 8
# most entries per cell for which the row law is tabulated (m + 1 atoms)
_ROW_ATOMS = 1 << 16
# positions that a pass over all of them reads at a time
_POSITION_BLOCK = 1 << 16


class SamplerPlan:
    """Precompiled vectorized sampler for one model.  `realize` takes one of
    three routes, fixed when the plan is built: the row law, the per-term
    diagonal scatter, or Z.

    `row` is decided first, from the columns and the position index alone
    (_row_law).  It is set when the model is square, has one two-point law
    and no FiniteSummand, every summand holds one real diagonal entry of
    one value, and every cell holds the same m <= _ROW_ATOMS entries: each
    z_ii is then a sum of m independent copies, with an exact law on m + 1
    atoms, and `row` holds (first summand position of each cell, atoms,
    CDF).  Such a plan is diagonal and real, builds no per-position array,
    and `terms` counts its positions.

    Any other plan builds its per-term tables once (_build_tables).  The
    ScalarSeries summands are grouped by law, and each law draws the
    coefficients of all its summands at once (a draw depends only on the
    position, so the grouping does not change it).  Every coefficient then
    multiplies the COO values of its matrix in one scatter over all cells,
    which adds the terms of each cell in summand order.  A cell map that is
    the identity (entry e is cell e, as for sec73's cells and sec74's
    rows) is recorded as None, and its scatter is the weighted draws plus
    0.0, which is the bincount sum bit for bit.  `diagonal` is true
    when every realization of Z is a real diagonal matrix: Z is square, there
    is no FiniteSummand, and every COO entry is real and on the diagonal.
    `real` is true when every COO value and every FiniteSummand outcome is
    real; `realize` then returns real Z.  `terms` counts the scattered
    entries and FiniteSummand choices of one sample.  The per-position
    arrays are gathered from the model's columns; Python reads only fixed
    matrices and FiniteSummands, once per object.  `magnitude` selects
    the magnitude route of sample_norms.
    """

    def __init__(self, model: IndependentSumModel):
        self.model = model
        self.sampled_max_sq = _sampled_max_sq(model)
        self.row = _row_law(model)
        if self.row is None:
            self._build_tables()
        else:
            self.diagonal = self.real = True
            self.terms = len(model._inverse)
            self._guide = _guide_table(*self.row[1:])
        self.magnitude = self.row is None and self.diagonal and self.rows is None and (
            self.owner is None and np.array_equal(self.norms, np.abs(self.values)))

    def _build_tables(self) -> None:
        """The per-position tables of the per-term route: rows, cells,
        values, imag, owner, norms, groups and finite, with `diagonal`,
        `real` and `terms`.  Summand objects are read only for
        FiniteSummands and fixed matrices."""
        model = self.model
        inverse, c = model._inverse, model._columns
        finite = c.code < 0
        # per FiniteSummand object: outcome CDF, matrices (real when all are)
        # and norms, shared by its positions
        finite_ids = np.flatnonzero(finite).tolist()
        objects = {i: model._distinct[i] for i in finite_ids}
        real_finite = not any(s.matrices.imag.any() for s in objects.values())
        outcomes = {
            i: (np.cumsum(s.probabilities),
                s.matrices.real.copy() if real_finite else s.matrices,
                s.outcome_norms())
            for i, s in objects.items()
        }
        at = np.flatnonzero(finite[inverse])
        self.finite: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]] = [
            (pos, *outcomes[i]) for pos, i in zip(at.tolist(), inverse[at].tolist())
        ]
        # the ScalarSeries positions in model order, and the object of each
        positions = np.flatnonzero(~finite[inverse])
        obj = inverse[positions]
        positions = positions.astype(np.uint64)

        # COO entries per object: one for a one-entry cell, those of its
        # matrix for a fixed matrix, none for a FiniteSummand; the tables
        # below hold them back to back from start[object]
        one = c.row >= 0
        fixed = np.flatnonzero(~one & ~finite).tolist()
        counts_of = one.astype(np.intp)
        counts_of[fixed] = [len(model._distinct[i].rows) for i in fixed]
        start = np.cumsum(counts_of) - counts_of
        counts = counts_of[obj]
        n_fixed = int(counts[counts > 1].sum())
        if n_fixed * _ENTRY_BYTES > _STACK_BYTES:
            raise ValueError(
                f"{n_fixed} fixed-matrix entries take {n_fixed * _ENTRY_BYTES} bytes, "
                f"over the {_STACK_BYTES}-byte plan budget"
            )
        first = np.cumsum(counts) - counts
        entries = np.arange(int(counts.sum())) + np.repeat(start[obj] - first, counts)
        # entry e of the sample belongs to ScalarSeries position owner[e];
        # owner is None when that is e itself, so no gather is needed
        self.owner = None
        if not (counts.size and (counts == 1).all()):
            self.owner = np.repeat(np.arange(len(obj)), counts)
        rows, cols = np.empty((2, int(counts_of.sum())), dtype=np.intp)
        values = np.empty(len(rows), dtype=np.complex128)
        for table, column in ((rows, c.row), (cols, c.col), (values, c.value)):
            table[start[one]] = column[one]
        for i in fixed:
            s, at = model._distinct[i], slice(start[i], start[i] + counts_of[i])
            rows[at], cols[at], values[at] = s.rows, s.cols, s.values
        self.rows = _unless_identity(rows[entries], model.d1)
        self.cells = _unless_identity((rows * model.d2 + cols)[entries], model.d1 * model.d2)
        self.values = values.real[entries]
        self.imag = values.imag[entries] if values.imag.any() else None
        self.terms = len(entries) + len(self.finite)
        self.real = self.imag is None and real_finite
        self.diagonal = (
            model.d1 == model.d2
            and self.real
            and not self.finite
            and np.array_equal(rows, cols)
        )
        # column g of a coefficient draw belongs to the g-th ScalarSeries
        # position, and positions of one law form one group
        self.norms = c.norm[obj]
        codes = c.code[obj]
        self.groups = [
            (law, np.flatnonzero(codes == i), positions[codes == i][None, :])
            for i, law in enumerate(c.laws)
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

    @staticmethod
    def _scatter(weights: np.ndarray, cells: np.ndarray | None, width: int) -> np.ndarray:
        """Row s of the (k, width) result sums weights[s, e] into column
        cells[e], adding the terms of each cell in entry order.  With cells
        None (the identity) that is weights + 0.0, which turns a -0.0 into
        the +0.0 the sum gives; weights is overwritten."""
        if cells is None:
            weights += 0.0
            return weights
        k = weights.shape[0]
        flat = (np.arange(k)[:, None] * width + cells).ravel()
        return np.bincount(flat, weights=weights.ravel(), minlength=k * width).reshape(k, width)

    def _max_sq(self, coef: np.ndarray) -> np.ndarray:
        return ((coef * self.norms) ** 2).max(axis=1, initial=0.0)

    def _draw(self, seed, indices):
        """The draws of a batch of sample indices: the (k, entries)
        coefficient of the series each COO entry belongs to (the draws
        themselves, not a copy, when entry e belongs to series e), each
        FiniteSummand's outcome matrices with the (k,) outcome indices drawn,
        and max_i ||S_i||^2 (None unless `sampled_max_sq`), all from one
        draw of the coefficients.  The counter RNG reduces the seed mod 2^64."""
        idx = np.asarray(indices, dtype=np.uint64)
        coef = self._coefficients(seed, idx)
        sq = self._max_sq(coef) if self.sampled_max_sq else None
        choices = []
        for pos, cums, mats, norms in self.finite:
            u = rng.uniform_halfopen(seed, idx, pos, 0)
            j = np.minimum(np.searchsorted(cums, u, side="right"), len(cums) - 1)
            if sq is not None:
                np.maximum(sq, norms[j] ** 2, out=sq)
            choices.append((mats, j))
        return (coef if self.owner is None else coef[:, self.owner]), choices, sq

    def realize(self, seed, indices):
        """Realizations for a batch of sample indices, and max_i ||S_i||^2
        (None unless `sampled_max_sq`): the real diagonals (k, d1) on a
        diagonal plan, Z (real when the plan is) otherwise.  A row plan
        draws one uniform u per (sample, cell), keyed on the cell's first
        summand position at slot 2, which no per-term law uses, and inverts
        the CDF as np.searchsorted(cdf, u, side="right") does, through the
        guide table (_guide_table); any other diagonal plan sums its terms
        by cell."""
        if self.row is not None:
            first, atoms, cdf = self.row
            u = rng.uniform_halfopen(seed, np.asarray(indices)[:, None], first, 2)
            # B is a power of two, so u * B is exact, and u < 1 keeps it below B
            z = self._guide[(u * len(self._guide)).astype(np.intp)]
            ambiguous = np.isnan(z)
            # cdf[-1] is exactly 1 > u, so the index stays within the atoms
            z[ambiguous] = atoms[np.searchsorted(cdf, u[ambiguous], side="right")]
            return z, None
        terms, choices, sq = self._draw(seed, indices)
        if self.diagonal:
            terms *= self.values  # in place: the draws are not read again
            return self._scatter(terms, self.rows, self.model.d1), sq
        shape = (terms.shape[0], self.model.d1, self.model.d2)
        width = self.model.d1 * self.model.d2
        if self.imag is not None:
            imag = self._scatter(terms * self.imag, self.cells, width).reshape(shape)
        terms *= self.values
        # bincount of no entries counts in integers; a complex z starts
        # with imaginary part +0.0
        z = self._scatter(terms, self.cells, width).reshape(shape)
        z = z.astype(np.float64 if self.real else np.complex128, copy=False)
        if self.imag is not None:
            z.imag = imag
        for mats, j in choices:
            z += mats[j]
        return z, sq

    def sample_norms(self, seed, indices):
        """(||Z||, max_i ||S_i||^2 or None as `realize` gives it) per sample.
        On the magnitude route (summand i is c_i a_i E_ii, ||A_i|| = |a_i|)
        they are max_i |c_i| ||A_i|| and its square, bit for bit, with no sign
        drawn: rounding is symmetric in sign and squaring monotone.  Else
        ||Z|| is max_i |z_ii| on a diagonal plan, or the root of the top
        eigenvalue of the Gram matrix of Z's smaller side."""
        if self.magnitude:
            # positions down and samples across, so each maximum reduces whole rows
            row, norms = np.asarray(indices, dtype=np.uint64)[None, :], 0.0
            for law, columns, positions in self.groups:
                key = (seed, row, positions.T)
                mags = law.magnitude(*key) if law.magnitude else np.abs(law.draw(*key))
                mags *= self.norms[columns, None]
                norms = np.maximum(norms, mags.max(axis=0))
            return norms, norms**2 if self.sampled_max_sq else None
        z, sq = self.realize(seed, indices)
        return np.abs(z).max(axis=1) if self.diagonal else spectral_norms(z), sq


def _unless_identity(cells: np.ndarray, width: int) -> np.ndarray | None:
    """A plan's cell map, or None when entry e is cell e of `width`."""
    identity = len(cells) == width and np.array_equal(cells, np.arange(width))
    return None if identity else cells


def _row_law(model: IndependentSumModel):
    """SamplerPlan.row of a model, read from its columns and position
    index, or None when the model has no row law.

    z_ii sums m independent c * a, for the one value a of every entry and
    c = hi with probability q and lo otherwise: atom k is
    (k hi + (m - k) lo) a with binomial probability from lgamma, and the
    CDF is scaled so that its last entry is exactly 1."""
    c, inverse = model._columns, model._inverse
    two_point = c.laws[0].two_point if len(c.laws) == 1 else None
    value = c.value[inverse[0]].real
    if (
        model.d1 != model.d2
        or two_point is None
        or (c.row < 0).any()  # a FiniteSummand or a fixed matrix
        or (c.row != c.col).any()
        or (c.value != value).any()  # also where a value is not real
    ):
        return None
    per_object = np.bincount(inverse, minlength=len(c.row))
    per_cell = np.bincount(c.row, weights=per_object, minlength=model.d1)
    m = int(per_cell[0])
    if not ((per_cell == m).all() and m <= _ROW_ATOMS):
        return None
    # objects are numbered in order of first appearance, so the running
    # maximum of the position index first reaches object j at j's first
    # position; the lowest object of a cell holds the cell's first position
    _, lowest = np.unique(c.row, return_index=True)
    first = np.searchsorted(np.maximum.accumulate(inverse), lowest).astype(np.uint64)
    lo, hi, q = two_point
    k = np.arange(m + 1.0)
    atoms = (k * hi + (m - k) * lo) * value
    if q < 1.0:
        log_fact = np.array([math.lgamma(j + 1.0) for j in range(m + 1)])
        log_pmf = log_fact[m] - log_fact - log_fact[::-1]
        log_pmf += k * math.log(q) + (m - k) * math.log1p(-q)
        cdf = np.cumsum(np.exp(log_pmf))
    else:  # c = hi always
        cdf = (k == m).astype(np.float64)
    return first[None, :], atoms, cdf / cdf[-1]


def _guide_table(atoms: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """Guide table of a CDF (Chen and Asau, 1974): entry b of B buckets is
    atoms[searchsorted(cdf, u, "right")], the same for every u in
    [b/B, (b + 1)/B), and NaN where that index is not the same for all of
    them.  B is the least power of two >= 16 (m + 1), at most 2^16, so a
    key falls in an ambiguous bucket with probability at most 1/16 for
    m < 4096."""
    size = min(1 << 16, 1 << (16 * len(atoms) - 1).bit_length())
    grid = np.arange(size + 1) / size  # exact: size is a power of two
    lo = np.searchsorted(cdf, grid[:-1], side="right")
    return np.where(lo == np.searchsorted(cdf, grid[1:], side="left"), atoms[lo], np.nan)


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
        shown = repr(value)  # a huge JSON integer is cut after 40 characters
        shown = shown if len(shown) <= 40 else shown[:40] + "..."
        raise ValueError(f"field {key!r} must be {kind}, got {shown}")
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


# the families whose matrices a model file builds as stacks
_FIXED_LAWS = {FixedRademacher: SIGN, FixedGaussian: GAUSSIAN}


def _read_summand(doc: dict):
    """(constructor, arguments) of a summand document, its fields read and
    checked."""
    if not isinstance(doc, dict):
        raise ValueError("summand document must be a JSON object")
    family = doc.get("family")
    if not isinstance(family, str) or family not in _FAMILIES:
        raise ValueError(f"unknown summand family {family!r}")
    build, keys = _FAMILIES[family]
    return build, [_READERS.get(key, _number)(doc, key) for key in keys]


def _summands_from_json(docs: list) -> list:
    """The summands of a model file, in file order.  Fixed matrices are read
    in turn but built as one stack per shape (_fixed_stack); a refused file
    still names its first bad summand."""
    summands, shapes = [], {}  # shape -> positions of its fixed matrices
    try:
        for doc in docs:
            build, args = _read_summand(doc)
            if build in _FIXED_LAWS:
                shapes.setdefault(args[0].shape, []).append(len(summands))
                summands.append((_FIXED_LAWS[build], args[0]))
            else:
                summands.append(build(*args))
        for at in shapes.values():
            laws, matrices = zip(*map(summands.__getitem__, at))
            for i, s in zip(at, _fixed_stack(laws, as_stack(matrices))):
                summands[i] = s
    except ValueError:
        for s in summands:  # a fixed matrix not yet built may come first
            if type(s) is tuple:
                _fixed(*s)
        raise
    return summands


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
        _summands_from_json(doc["summands"]),
        name=str(doc.get("name", "custom")),
        n=_number(doc, "n") if "n" in doc else None,
    )
    if "d1" in doc or "d2" in doc:
        if (_number(doc, "d1"), _number(doc, "d2")) != (model.d1, model.d2):
            raise ValueError("declared (d1, d2) does not match the summand shapes")
    return model
