"""Closed-form bound quantities for sums of independent random matrices.

For a centered Hermitian sum X = sum Y_i of dimension dim, with variance
parameter v = ||E X^2|| and large-deviation parameter
L = (E max_i ||Y_i||^2)^(1/2), the matched second-moment estimates are

    sqrt(v/4) + L/4  <=  (E||X||^2)^(1/2)  <=  sqrt(C v) + C L,

with the dimensional constant C = 4 (1 + 2 ceil(log dim)), natural log.
A rectangular d1 x d2 sum Z = sum S_i is the Hermitian case on its
dilation: dim = d1 + d2, v = max(||E ZZ*||, ||E Z*Z||) and
L = (E max_i ||S_i||^2)^(1/2).  The first-moment lower bound replaces both
1/4 factors by 1/8.  Also provided: the sign-series bound
sqrt(1 + 2 ceil(log d)) ||sum H_i^2||^(1/2), the trace-moment bound it
derives from, and the PSD case interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_stack, diagonal_norm, hermitian_stack, spectral_norm, spectral_norms
from .models import FiniteSummand, IndependentSumModel, analytic_max_sq
from .models import analytic_second_moments, moment_diagonals
from .oracles import (
    _blocks,
    _expected_norms,
    brute_force_expected_norm,
    case_rng,
    odd_double_factorial,
    random_hermitian_family,
)

SECOND_MOMENT = "second"
FIRST_MOMENT = "first"


@dataclass(frozen=True)
class BoundInterval:
    lower: float
    upper: float
    constant: float

    def __post_init__(self):
        if not 0.0 <= self.lower <= self.upper:
            raise ValueError("need 0 <= lower <= upper")


def dimensional_constant(dim: int) -> float:
    """C(dim) = 4 (1 + 2 ceil(log dim)), natural log, standard ceiling."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    return 4.0 * (1.0 + 2.0 * math.ceil(math.log(dim)))


def variance_param(model: IndependentSumModel) -> float:
    """v = max of the spectral norms of E[ZZ*] and E[Z*Z], from the exact
    per-summand sums, which require a centered model.  When every summand
    holds one entry both moments are diagonal, and v is read from their
    diagonals with no d x d matrix, bit for bit as from the matrices.
    """
    diagonals = moment_diagonals(model)
    if diagonals is not None:
        return max(map(diagonal_norm, diagonals))
    return max(map(spectral_norm, analytic_second_moments(model)))


def large_dev_param(model: IndependentSumModel) -> float:
    """L = (E max_i ||S_i||^2)^(1/2) by the exact survival-product
    expectation, available whenever every summand has finite ||S||^2
    support (estimate_max_summand_sq gives the Monte Carlo value)."""
    value = analytic_max_sq(model)
    if value is None:
        raise ValueError(
            "no closed form for E max ||S_i||^2 (continuous summands); "
            "use estimate_max_summand_sq"
        )
    return math.sqrt(max(value, 0.0))


def main_interval(v: float, L: float, dim: int, moment: str = SECOND_MOMENT) -> BoundInterval:
    """The matched estimates for (E||X||^2)^(1/2) of a centered Hermitian sum
    of dimension dim (or E||X|| in first-moment form, which only lowers the
    lower bound).  A rectangular sum passes its dilation's dim = d1 + d2.
    L = 0 forces v = 0: all summands vanish almost surely, so both do."""
    if v < 0 or L < 0:
        raise ValueError("v and L must be nonnegative")
    if L == 0 and v > 0:
        raise ValueError("L = 0 forces v = 0")
    C = dimensional_constant(dim)
    if moment not in (SECOND_MOMENT, FIRST_MOMENT):
        raise ValueError(f"moment must be {SECOND_MOMENT!r} or {FIRST_MOMENT!r}")
    if moment == SECOND_MOMENT:
        lower = math.sqrt(v / 4.0) + L / 4.0
    else:
        lower = math.sqrt(v / 8.0) + L / 8.0
    upper = math.sqrt(C * v) + C * L
    return BoundInterval(lower=lower, upper=upper, constant=C)


def _family_stack(H_list) -> np.ndarray | None:
    """A caller's Hermitian family, validated and symmetrized, as a
    (1, n, d, d) stack; None for an empty one."""
    H_list = list(H_list)
    if not H_list:
        return None
    return hermitian_stack(as_stack(H_list, "matrices must share one dimension"))[0][None]


def _sums_of_squares(stacks: np.ndarray) -> np.ndarray:
    """sum_i H_i^2 of each family of a (k, n, d, d) stack of Hermitian
    matrices, with the terms added in family order from 0."""
    squares = stacks @ stacks
    return sum(squares[:, j] for j in range(stacks.shape[1]))


def _rademacher_bounds(stacks: np.ndarray) -> list[float]:
    """rademacher_bound of each family of a (k, n, d, d) stack."""
    factor = math.sqrt(1.0 + 2.0 * math.ceil(math.log(stacks.shape[-1])))
    return [factor * math.sqrt(v) for v in spectral_norms(_sums_of_squares(stacks)).tolist()]


def rademacher_bound(H_list) -> float:
    """sqrt(1 + 2 ceil(log d)) ||sum H_i^2||^(1/2): an upper bound on
    (E||sum eps_i H_i||^2)^(1/2) for fixed Hermitian H_i and fair signs."""
    stack = _family_stack(H_list)
    return 0.0 if stack is None else _rademacher_bounds(stack)[0]


def trace_moment_bound(H_list, p: int) -> float:
    """(d (2p-1)!! ||sum H_i^2||^p)^(1/(2p)), the trace-moment chain at level p.

    p = 0 returns inf: the zeroth moment carries no information, and callers
    sweep p.  At p = ceil(log d) the value never exceeds rademacher_bound
    beyond roundoff.
    """
    if p < 0:
        raise ValueError("p must be >= 0")
    if p == 0:
        return math.inf
    stack = _family_stack(H_list)
    if stack is None:
        return 0.0
    total = _sums_of_squares(stack)[0]
    d = total.shape[0]
    norm = spectral_norm(total)
    return (d * odd_double_factorial(p)) ** (1.0 / (2.0 * p)) * math.sqrt(norm)


# ---------------------------------------------------------------------------
# Case bound: PSD (the Hermitian case is main_interval)
# ---------------------------------------------------------------------------


def psd_case_interval(mean_norm: float, expected_max_norm: float, dim: int) -> BoundInterval:
    """Estimates of E||W|| for W = sum T_i of independent PSD summands, from
    ||E W|| and E max_i ||T_i||: 1/4 (sqrt(||E W||) + sqrt(E max))^2 below,
    (sqrt(||E W||) + sqrt(C E max))^2 above."""
    if mean_norm < 0 or expected_max_norm < 0:
        raise ValueError("stats must be nonnegative")
    C = dimensional_constant(dim)
    return BoundInterval(
        lower=0.25 * (math.sqrt(mean_norm) + math.sqrt(expected_max_norm)) ** 2,
        upper=(math.sqrt(mean_norm) + math.sqrt(C * expected_max_norm)) ** 2,
        constant=C,
    )


# ---------------------------------------------------------------------------
# Exact domination sweep for the sign-series bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DominationRecord:
    index: int
    bound: float
    exact: float
    rel_slack: float  # (bound - exact) / max(bound, tiny)

    @classmethod
    def of(cls, index: int, bound: float, exact: float) -> "DominationRecord":
        return cls(index=index, bound=bound, exact=exact,
                   rel_slack=(bound - exact) / max(bound, 1e-300))

    @property
    def holds(self) -> bool:
        """True iff rel_slack >= -1e-9; a NaN slack fails."""
        return self.rel_slack >= -1e-9


_HALVES = np.array([0.5, 0.5])


def replay_domination_case(seed: int, index: int) -> DominationRecord:
    """Domination sweep case `index`, drawn alone and checked by
    rademacher_bound and brute_force_expected_norm: the record the sweep
    gives that case, bit for bit."""
    [(_, stack)] = random_hermitian_family(case_rng(seed, "rademacher", index))
    family = stack[0]
    summands = [FiniteSummand._of_stack(_HALVES, np.stack([h, -h])) for h in family]
    exact = math.sqrt(brute_force_expected_norm(summands, r=2))
    return DominationRecord.of(index, rademacher_bound(family), exact)


def sweep_rademacher_domination(cases: int, seed: int) -> list[DominationRecord]:
    """Check the sign-series bound against exact enumeration on random
    families, case i drawn from the "rademacher" case stream (8); a record
    that does not hold (rel_slack < -1e-9) is a violation.  The cases of a
    shape group are bounded and enumerated together."""
    records = []
    for index in _blocks(cases):
        key = case_rng(seed, "rademacher", index)
        block = [None] * len(key)
        for ix, stack in random_hermitian_family(key):
            k = len(ix)
            supports = [
                (np.broadcast_to(_HALVES, (k, 2)), np.stack([h, -h], axis=1))
                for h in stack.swapaxes(0, 1)
            ]
            exact = _expected_norms(supports, [2] * k)
            for j, bound, value in zip(ix.tolist(), _rademacher_bounds(stack), exact):
                block[j] = DominationRecord.of(int(key.index[j]), bound, math.sqrt(value))
        records += block
    return records
