"""Descriptions and samplers for sums of independent random matrices.

A model is an ordered list of summand specifications sharing one shape.
Built-in families cover fixed-matrix sign and Gaussian series, scaled
diagonal-basis signs, centered Bernoulli diagonals, single-entry signs,
Pareto-weighted diagonals, and arbitrary finite-support summands.  The four
canonical examples (sec71..sec74) assemble these into the diagonal sign
series, the centered Bernoulli diagonal, the full sign matrix, and the
heavy-tailed diagonal.

Sampling is driven by the counter RNG: every coefficient is a pure function
of (seed, sample index, summand position, slot), so realizations are
independent of evaluation order and worker count.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .linalg import HermitianMatrix, RectMatrix, as_hermitian, spectral_norm
from .oracles import FiniteSummand, as_finite_summand

_MEAN_TOL = 1e-12


@dataclass(frozen=True)
class RngSeed:
    """A 64-bit seed; plain ints are accepted anywhere a seed is expected."""

    seed: int


def seed_value(seed) -> int:
    if isinstance(seed, RngSeed):
        seed = seed.seed
    return int(seed) % (1 << 64)


# ---------------------------------------------------------------------------
# Summand families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FixedRademacher:
    """S = eps * H for a fixed Hermitian H and a fair sign eps."""

    matrix: HermitianMatrix

    def __post_init__(self):
        object.__setattr__(self, "matrix", as_hermitian(self.matrix))


@dataclass(frozen=True)
class FixedGaussian:
    """S = g * H for a fixed Hermitian H and a standard normal g."""

    matrix: HermitianMatrix

    def __post_init__(self):
        object.__setattr__(self, "matrix", as_hermitian(self.matrix))


@dataclass(frozen=True)
class ScaledBasisRademacher:
    """S = scale * eps * E_ii inside a dim x dim matrix."""

    index: int
    scale: float
    dim: int

    def __post_init__(self):
        if not 0 <= self.index < self.dim:
            raise ValueError("index out of range")


@dataclass(frozen=True)
class CenteredBernoulliBasis:
    """S = (delta - p) * E_ii with delta ~ Bernoulli(p), 0 < p <= 1."""

    index: int
    prob: float
    dim: int

    def __post_init__(self):
        if not 0 <= self.index < self.dim:
            raise ValueError("index out of range")
        if not 0.0 < self.prob <= 1.0:
            raise ValueError("prob must satisfy 0 < p <= 1")


@dataclass(frozen=True)
class RademacherEntry:
    """S = eps * E_ij inside a dim x dim matrix."""

    row: int
    col: int
    dim: int

    def __post_init__(self):
        if not (0 <= self.row < self.dim and 0 <= self.col < self.dim):
            raise ValueError("entry position out of range")


@dataclass(frozen=True)
class ParetoDiagonal:
    """S = P * E_ii with P = s * u^(-1/4): symmetric, P(|P| >= t) = t^-4."""

    index: int
    dim: int

    def __post_init__(self):
        if not 0 <= self.index < self.dim:
            raise ValueError("index out of range")


@dataclass(frozen=True)
class Finite:
    """An explicit finite-support summand."""

    support: FiniteSummand

    def __post_init__(self):
        object.__setattr__(self, "support", as_finite_summand(self.support))


SummandSpec = (
    FixedRademacher
    | FixedGaussian
    | ScaledBasisRademacher
    | CenteredBernoulliBasis
    | RademacherEntry
    | ParetoDiagonal
    | Finite
)

_BASIS_FAMILIES = (
    ScaledBasisRademacher,
    CenteredBernoulliBasis,
    RademacherEntry,
    ParetoDiagonal,
)


def summand_shape(spec) -> tuple[int, int]:
    if isinstance(spec, (FixedRademacher, FixedGaussian)):
        return spec.matrix.shape
    if isinstance(spec, _BASIS_FAMILIES):
        return (spec.dim, spec.dim)
    if isinstance(spec, Finite):
        return spec.support.shape
    raise TypeError(f"not a summand spec: {spec!r}")


def summand_mean(spec) -> np.ndarray:
    d1, d2 = summand_shape(spec)
    if isinstance(spec, Finite):
        return spec.support.mean()
    # every other family is symmetric or explicitly centered
    return np.zeros((d1, d2), dtype=np.complex128)


def summand_is_centered(spec) -> bool:
    if isinstance(spec, Finite):
        scale = max(1.0, float(np.abs(spec.support.matrices).max(initial=0.0)))
        return float(np.linalg.norm(spec.support.mean(), ord="fro")) <= _MEAN_TOL * scale
    return True


def _basis_second_moment(spec):
    """(row, col, E c^2) for a one-entry summand S = c * E_{row,col}, else None.

    Then E[S S*] = E c^2 * E_{row,row} and E[S* S] = E c^2 * E_{col,col}.
    """
    if isinstance(spec, ScaledBasisRademacher):
        return spec.index, spec.index, spec.scale**2
    if isinstance(spec, CenteredBernoulliBasis):
        return spec.index, spec.index, spec.prob * (1.0 - spec.prob)
    if isinstance(spec, RademacherEntry):
        return spec.row, spec.col, 1.0
    if isinstance(spec, ParetoDiagonal):
        return spec.index, spec.index, 2.0  # E P^2 = integral of 4 t^-3 from 1 = 2
    return None


def _dense_second_moments(spec) -> tuple[np.ndarray, np.ndarray]:
    """Exact (E[S S*], E[S* S]) for a fixed-matrix or finite-support summand."""
    if isinstance(spec, (FixedRademacher, FixedGaussian)):
        h = spec.matrix.array
        sq = h @ h  # E eps^2 = E g^2 = 1
        return sq, sq
    if isinstance(spec, Finite):
        probs = spec.support.probabilities
        mats = spec.support.matrices
        left = np.einsum("k,kab,kcb->ac", probs, mats, mats.conj())
        right = np.einsum("k,kba,kbc->ac", probs, mats.conj(), mats)
        return left, right
    raise TypeError(f"not a summand spec: {spec!r}")


def summand_sq_norm_support(spec):
    """Distribution of ||S||^2 as (values, probs) when finite, else None."""
    if isinstance(spec, FixedRademacher):
        return np.array([spectral_norm(spec.matrix) ** 2]), np.array([1.0])
    if isinstance(spec, FixedGaussian):
        return None
    if isinstance(spec, ScaledBasisRademacher):
        return np.array([spec.scale**2]), np.array([1.0])
    if isinstance(spec, CenteredBernoulliBasis):
        p = spec.prob
        pairs = {}
        pairs[(1.0 - p) ** 2] = pairs.get((1.0 - p) ** 2, 0.0) + p
        if 1.0 - p > 0.0:
            pairs[p**2] = pairs.get(p**2, 0.0) + (1.0 - p)
        values = np.array(sorted(pairs))
        return values, np.array([pairs[v] for v in values])
    if isinstance(spec, RademacherEntry):
        return np.array([1.0]), np.array([1.0])
    if isinstance(spec, ParetoDiagonal):
        return None
    if isinstance(spec, Finite):
        agg: dict[float, float] = {}
        for p, m in zip(spec.support.probabilities, spec.support.matrices):
            v = spectral_norm(m) ** 2
            agg[v] = agg.get(v, 0.0) + float(p)
        values = np.array(sorted(agg))
        return values, np.array([agg[v] for v in values])
    raise TypeError(f"not a summand spec: {spec!r}")


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndependentSumModel:
    """Z = sum of independent summands, all of shape (d1, d2).

    `centered` is computed, never trusted from the caller: it is true iff
    every summand has zero mean (exact for the built-in families, computed
    from the support for Finite).  `n` is the reported model size: the
    repetition count for the built-in examples, the summand count otherwise.
    """

    d1: int
    d2: int
    summands: tuple
    name: str = "custom"
    n: int | None = None
    centered: bool = field(init=False, default=False)

    def __post_init__(self):
        if not self.summands:
            raise ValueError("model needs at least one summand")
        object.__setattr__(self, "summands", tuple(self.summands))
        for s in self.summands:
            if summand_shape(s) != (self.d1, self.d2):
                raise ValueError(
                    f"summand shape {summand_shape(s)} != model shape "
                    f"({self.d1}, {self.d2})"
                )
        if self.n is None:
            object.__setattr__(self, "n", len(self.summands))
        object.__setattr__(
            self, "centered", all(summand_is_centered(s) for s in self.summands)
        )

    @property
    def n_summands(self) -> int:
        return len(self.summands)


def make_model(summands, name: str = "custom", n: int | None = None) -> IndependentSumModel:
    summands = tuple(summands)
    if not summands:
        raise ValueError("model needs at least one summand")
    d1, d2 = summand_shape(summands[0])
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
    if key == "sec71":
        scale = 1.0 / math.sqrt(n)
        specs = [
            ScaledBasisRademacher(index=i, scale=scale, dim=d)
            for i in range(d)
            for _ in range(n)
        ]
        return make_model(specs, name="sec71", n=n)
    if key == "sec72":
        specs = [
            CenteredBernoulliBasis(index=i, prob=1.0 / n, dim=d)
            for i in range(d)
            for _ in range(n)
        ]
        return make_model(specs, name="sec72", n=n)
    if key == "sec73":
        specs = [
            RademacherEntry(row=i, col=j, dim=d) for i in range(d) for j in range(d)
        ]
        return make_model(specs, name="sec73", n=d * d)
    if key == "sec74":
        specs = [ParetoDiagonal(index=i, dim=d) for i in range(d)]
        return make_model(specs, name="sec74", n=d)
    raise ValueError(f"unknown example {name!r}; expected one of {EXAMPLE_NAMES}")


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


def analytic_second_moments(model: IndependentSumModel):
    """Exact (E[ZZ*], E[Z*Z]) for a centered model, as Hermitian matrices.

    Independence and zero means make the second moment of the sum the sum of
    per-summand second moments.  One-entry summands only add E c^2 to one
    diagonal cell on each side; those are summed by index and added once, so
    the cost is O(N + d^2) plus the dense terms of the other families.
    Returns None if any summand lacks a closed form (none of the built-in
    families do).
    """
    if not model.centered:
        raise ValueError("model is not centered; center() it first")
    left = np.zeros((model.d1, model.d1), dtype=np.complex128)
    right = np.zeros((model.d2, model.d2), dtype=np.complex128)
    rows, cols, weights = [], [], []
    for s in model.summands:
        entry = _basis_second_moment(s)
        if entry is None:
            a, b = _dense_second_moments(s)
            left += a
            right += b
        else:
            rows.append(entry[0])
            cols.append(entry[1])
            weights.append(entry[2])
    if weights:
        left[np.diag_indices(model.d1)] += np.bincount(
            rows, weights=weights, minlength=model.d1
        )
        right[np.diag_indices(model.d2)] += np.bincount(
            cols, weights=weights, minlength=model.d2
        )
    return HermitianMatrix(left), HermitianMatrix(right)


def analytic_max_sq(model: IndependentSumModel):
    """Exact E max_i ||S_i||^2 when every summand has finite ||S||^2 support.

    Uses the survival product: P(max <= v) is the product of per-summand
    CDFs, evaluated on the sorted union of support points.  Returns None when
    a continuous family (FixedGaussian, ParetoDiagonal) is present.
    """
    supports = []
    for s in model.summands:
        sup = summand_sq_norm_support(s)
        if sup is None:
            return None
        supports.append(sup)
    grouped = Counter(
        (tuple(map(float, values)), tuple(map(float, probs)))
        for values, probs in supports
    )
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
    envelope needs for uncentered reporting.
    """
    mean_sum = np.zeros((model.d1, model.d2), dtype=np.complex128)
    changed = False
    new_specs = []
    for s in model.summands:
        mu = summand_mean(s)
        mean_sum += mu
        if isinstance(s, Finite) and not summand_is_centered(s):
            new_specs.append(Finite(s.support.centered()))
            changed = True
        else:
            new_specs.append(s)
    if not changed:
        return model, mean_sum
    centered_model = IndependentSumModel(
        d1=model.d1, d2=model.d2, summands=tuple(new_specs), name=model.name, n=model.n
    )
    return centered_model, mean_sum


# ---------------------------------------------------------------------------
# Sampling engine
# ---------------------------------------------------------------------------
#
# Draw-slot allocation per summand position: slot 0 is the primary variate
# (sign, uniform, or first Box-Muller word), slot 1 the secondary one
# (Gaussian second word, Pareto sign).  Positions are unique, so slots never
# collide across summands.


class _Bucket:
    __slots__ = ("kind", "positions", "rows", "cols", "scales", "probs", "mats", "norms")

    def __init__(self, kind, positions, **kw):
        self.kind = kind
        self.positions = np.asarray(positions, dtype=np.uint64)
        self.rows = kw.get("rows")
        self.cols = kw.get("cols")
        self.scales = kw.get("scales")
        self.probs = kw.get("probs")
        self.mats = kw.get("mats")
        self.norms = kw.get("norms")


# bytes the stacked matrices of one fixed-matrix family may take in a plan
_STACK_BYTES = 1 << 27


def _scatter(coef: np.ndarray, cells: np.ndarray, width: int) -> np.ndarray:
    """Row s of the (k, width) result sums coef[s, g] into column cells[g],
    adding the terms of each cell in summand order."""
    k, g = coef.shape
    flat = np.repeat(np.arange(k), g) * width + np.tile(cells, k)
    return np.bincount(flat, weights=coef.ravel(), minlength=k * width).reshape(k, width)


class SamplerPlan:
    """Precompiled vectorized sampler for one model.

    `diagonal` is true when every realization of Z is a diagonal matrix:
    Z is square and every summand is a one-entry family on the diagonal.
    """

    def __init__(self, model: IndependentSumModel):
        self.model = model
        self.buckets: list[_Bucket] = []
        self.finite: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []
        groups: dict[type, list[tuple[int, object]]] = {}
        for pos, s in enumerate(model.summands):
            if isinstance(s, Finite):
                sup = s.support
                cums = np.cumsum(sup.probabilities)
                self.finite.append((pos, cums, sup.matrices, sup.outcome_norms()))
            else:
                groups.setdefault(type(s), []).append((pos, s))
        for fam, items in groups.items():
            positions = [p for p, _ in items]
            specs = [s for _, s in items]
            if fam is ScaledBasisRademacher:
                self.buckets.append(
                    _Bucket(
                        "scaled_sign",
                        positions,
                        rows=np.array([s.index for s in specs]),
                        cols=np.array([s.index for s in specs]),
                        scales=np.array([s.scale for s in specs]),
                    )
                )
            elif fam is CenteredBernoulliBasis:
                self.buckets.append(
                    _Bucket(
                        "bernoulli",
                        positions,
                        rows=np.array([s.index for s in specs]),
                        cols=np.array([s.index for s in specs]),
                        probs=np.array([s.prob for s in specs]),
                    )
                )
            elif fam is RademacherEntry:
                self.buckets.append(
                    _Bucket(
                        "entry_sign",
                        positions,
                        rows=np.array([s.row for s in specs]),
                        cols=np.array([s.col for s in specs]),
                    )
                )
            elif fam is ParetoDiagonal:
                self.buckets.append(
                    _Bucket(
                        "pareto",
                        positions,
                        rows=np.array([s.index for s in specs]),
                        cols=np.array([s.index for s in specs]),
                    )
                )
            elif fam in (FixedRademacher, FixedGaussian):
                kind = "fixed_sign" if fam is FixedRademacher else "fixed_gaussian"
                nbytes = len(specs) * model.d1 * model.d2 * 16
                if nbytes > _STACK_BYTES:
                    raise ValueError(
                        f"{len(specs)} fixed {model.d1}x{model.d2} matrices take "
                        f"{nbytes} bytes, over the {_STACK_BYTES}-byte plan budget"
                    )
                mats = np.stack([s.matrix.array for s in specs])
                norms = np.array([spectral_norm(s.matrix) for s in specs])
                self.buckets.append(
                    _Bucket(kind, positions, mats=mats, norms=norms)
                )
            else:  # pragma: no cover - exhaustive over families
                raise TypeError(f"unhandled family {fam}")
        self.diagonal = (
            model.d1 == model.d2
            and not self.finite
            and all(
                b.mats is None and np.array_equal(b.rows, b.cols) for b in self.buckets
            )
        )

    def _coefficients(self, seed: int, idx: np.ndarray):
        """Yield each bucket with its (k, g) coefficient draws; the fixed
        matrix or entry of summand g is multiplied by coef[:, g]."""
        col = idx[:, None]
        for b in self.buckets:
            pos = b.positions[None, :]
            if b.kind == "scaled_sign":
                coef = rng.signs(seed, col, pos, 0) * b.scales[None, :]
            elif b.kind == "bernoulli":
                u = rng.uniform_halfopen(seed, col, pos, 0)
                coef = (u < b.probs[None, :]).astype(np.float64) - b.probs[None, :]
            elif b.kind in ("entry_sign", "fixed_sign"):
                coef = rng.signs(seed, col, pos, 0)
            elif b.kind == "pareto":
                u = rng.uniform_positive(seed, col, pos, 0)
                coef = rng.signs(seed, col, pos, 1) * u**-0.25
            else:  # fixed_gaussian
                coef = rng.gaussians(seed, col, pos, 0)
            yield b, coef

    def realize(self, seed, indices) -> tuple[np.ndarray, np.ndarray]:
        """Realizations Z and max_i ||S_i||^2 for a batch of sample indices."""
        seed = seed_value(seed)
        idx = np.asarray(indices, dtype=np.uint64)
        k = idx.shape[0]
        d1, d2 = self.model.d1, self.model.d2
        z = np.zeros((k, d1, d2), dtype=np.complex128)
        max_sq = np.zeros(k)

        for b, coef in self._coefficients(seed, idx):
            if b.mats is None:
                z += _scatter(coef, b.rows * d2 + b.cols, d1 * d2).reshape(k, d1, d2)
                np.maximum(max_sq, (coef**2).max(axis=1), out=max_sq)
            else:
                z += np.einsum("kg,gab->kab", coef, b.mats, optimize=False)
                np.maximum(
                    max_sq, ((coef * b.norms[None, :]) ** 2).max(axis=1), out=max_sq
                )

        for pos, cums, mats, norms in self.finite:
            u = rng.uniform_halfopen(seed, idx, pos, 0)
            j = np.minimum(
                np.searchsorted(cums, u, side="right"), len(cums) - 1
            )
            z += mats[j]
            np.maximum(max_sq, norms[j] ** 2, out=max_sq)

        return z, max_sq

    def realize_diagonal(self, seed, indices) -> tuple[np.ndarray, np.ndarray]:
        """For a diagonal plan: the real diagonals (k, d) of the realizations
        and max_i ||S_i||^2.  Each entry sums the same terms in the same order
        as the matching entry of `realize`, so the values are identical."""
        if not self.diagonal:
            raise ValueError("realize_diagonal needs a diagonal plan")
        seed = seed_value(seed)
        idx = np.asarray(indices, dtype=np.uint64)
        k = idx.shape[0]
        diag = np.zeros((k, self.model.d1))
        max_sq = np.zeros(k)
        for b, coef in self._coefficients(seed, idx):
            diag += _scatter(coef, b.rows, self.model.d1)
            np.maximum(max_sq, (coef**2).max(axis=1), out=max_sq)
        return diag, max_sq


def sample_summands(model: IndependentSumModel, seed, index: int) -> list[RectMatrix]:
    """One realization of every summand, in model order.

    Deterministic in (seed, index, summand position); the sum of the returned
    list is the corresponding realization of Z.
    """
    seed = seed_value(seed)
    out = []
    for pos, s in enumerate(model.summands):
        d1, d2 = model.d1, model.d2
        if isinstance(s, ScaledBasisRademacher):
            coef = float(rng.signs(seed, index, pos, 0)) * s.scale
            m = np.zeros((d1, d2), dtype=np.complex128)
            m[s.index, s.index] = coef
        elif isinstance(s, CenteredBernoulliBasis):
            u = float(rng.uniform_halfopen(seed, index, pos, 0))
            coef = (1.0 if u < s.prob else 0.0) - s.prob
            m = np.zeros((d1, d2), dtype=np.complex128)
            m[s.index, s.index] = coef
        elif isinstance(s, RademacherEntry):
            m = np.zeros((d1, d2), dtype=np.complex128)
            m[s.row, s.col] = float(rng.signs(seed, index, pos, 0))
        elif isinstance(s, ParetoDiagonal):
            u = float(rng.uniform_positive(seed, index, pos, 0))
            sign = float(rng.signs(seed, index, pos, 1))
            m = np.zeros((d1, d2), dtype=np.complex128)
            m[s.index, s.index] = pareto_sample(u, sign)
        elif isinstance(s, FixedRademacher):
            m = float(rng.signs(seed, index, pos, 0)) * s.matrix.array
        elif isinstance(s, FixedGaussian):
            m = float(rng.gaussians(seed, index, pos, 0)) * s.matrix.array
        elif isinstance(s, Finite):
            sup = s.support
            cums = np.cumsum(sup.probabilities)
            u = float(rng.uniform_halfopen(seed, index, pos, 0))
            j = min(int(np.searchsorted(cums, u, side="right")), len(cums) - 1)
            m = sup.matrices[j]
        else:
            raise TypeError(f"not a summand spec: {s!r}")
        out.append(RectMatrix(m))
    return out


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def _matrix_to_json(a: np.ndarray):
    a = np.asarray(a, dtype=np.complex128)
    if np.all(a.imag == 0.0):
        return [[float(x.real) for x in row] for row in a]
    return [[[float(x.real), float(x.imag)] for x in row] for row in a]


def _matrix_from_json(rows) -> np.ndarray:
    def entry(e):
        if isinstance(e, (list, tuple)):
            if len(e) != 2:
                raise ValueError("complex entries are [re, im] pairs")
            return complex(float(e[0]), float(e[1]))
        return complex(float(e), 0.0)

    return np.array([[entry(e) for e in row] for row in rows], dtype=np.complex128)


def summand_to_json(spec) -> dict:
    if isinstance(spec, FixedRademacher):
        return {"family": "fixed_rademacher", "matrix": _matrix_to_json(spec.matrix.array)}
    if isinstance(spec, FixedGaussian):
        return {"family": "fixed_gaussian", "matrix": _matrix_to_json(spec.matrix.array)}
    if isinstance(spec, ScaledBasisRademacher):
        return {
            "family": "scaled_basis_rademacher",
            "index": spec.index,
            "scale": spec.scale,
            "dim": spec.dim,
        }
    if isinstance(spec, CenteredBernoulliBasis):
        return {
            "family": "centered_bernoulli_basis",
            "index": spec.index,
            "prob": spec.prob,
            "dim": spec.dim,
        }
    if isinstance(spec, RademacherEntry):
        return {
            "family": "rademacher_entry",
            "row": spec.row,
            "col": spec.col,
            "dim": spec.dim,
        }
    if isinstance(spec, ParetoDiagonal):
        return {"family": "pareto_diagonal", "index": spec.index, "dim": spec.dim}
    if isinstance(spec, Finite):
        return {
            "family": "finite",
            "outcomes": [
                {"probability": float(p), "matrix": _matrix_to_json(m)}
                for p, m in spec.support.outcomes()
            ],
        }
    raise TypeError(f"not a summand spec: {spec!r}")


def summand_from_json(doc: dict):
    family = doc.get("family")
    if family == "fixed_rademacher":
        return FixedRademacher(HermitianMatrix(_matrix_from_json(doc["matrix"])))
    if family == "fixed_gaussian":
        return FixedGaussian(HermitianMatrix(_matrix_from_json(doc["matrix"])))
    if family == "scaled_basis_rademacher":
        return ScaledBasisRademacher(
            index=int(doc["index"]), scale=float(doc["scale"]), dim=int(doc["dim"])
        )
    if family == "centered_bernoulli_basis":
        return CenteredBernoulliBasis(
            index=int(doc["index"]), prob=float(doc["prob"]), dim=int(doc["dim"])
        )
    if family == "rademacher_entry":
        return RademacherEntry(
            row=int(doc["row"]), col=int(doc["col"]), dim=int(doc["dim"])
        )
    if family == "pareto_diagonal":
        return ParetoDiagonal(index=int(doc["index"]), dim=int(doc["dim"]))
    if family == "finite":
        outcomes = [
            (float(o["probability"]), _matrix_from_json(o["matrix"]))
            for o in doc["outcomes"]
        ]
        return Finite(FiniteSummand(outcomes))
    raise ValueError(f"unknown summand family {family!r}")


def model_to_json(model: IndependentSumModel) -> dict:
    return {
        "name": model.name,
        "d1": model.d1,
        "d2": model.d2,
        "n": model.n,
        "summands": [summand_to_json(s) for s in model.summands],
    }


def model_from_json(doc: dict) -> IndependentSumModel:
    if not isinstance(doc, dict):
        raise ValueError("model document must be a JSON object")
    if "summands" not in doc:
        name = doc.get("name")
        if name is None:
            raise ValueError("model document needs 'summands' or a built-in 'name'")
        if "d" not in doc:
            raise ValueError("built-in model document needs 'd'")
        return make_example(str(name), d=int(doc["d"]), n=int(doc.get("n", 1)))
    try:
        summands = [summand_from_json(s) for s in doc["summands"]]
    except KeyError as exc:
        raise ValueError(f"summand document missing field {exc.args[0]!r}") from exc
    model = make_model(
        summands,
        name=str(doc.get("name", "custom")),
        n=int(doc["n"]) if "n" in doc else None,
    )
    if "d1" in doc and (int(doc["d1"]), int(doc["d2"])) != (model.d1, model.d2):
        raise ValueError("declared (d1, d2) does not match the summand shapes")
    return model
