"""Executable checkers for the auxiliary matrix facts, plus an exact
brute-force expectation engine for finite-support sums that serves as ground
truth for the probabilistic estimates.

Eight fact kinds are covered.  Inequalities:

  heinz             lam^t mu^(1-t) + lam^(1-t) mu^t <= lam + mu
  gm_am_trace       tr[H W^q H Y^(2r-q)] + tr[H W^(2r-q) H Y^q]
                        <= tr[H^2 (W^2r + Y^2r)]
  sum_squares       ||sum A_i^2|| <= max_i ||A_i|| * ||sum A_i||   (A_i PSD)
  trace_product     tr[H A] <= ||H|| tr[A]                         (A PSD)
  monotonicity      A below H in Loewner order  =>  lmax(A) <= lmax(H)
  double_factorial  (2p-1)!! <= ((2p+1)/e)^p

Identities (checked to a Frobenius deviation):

  diff_powers       W^(2p-1) - Y^(2p-1) = sum_q W^q (W - Y) Y^(2p-2-q)
  dilation_square   dilation(B)^2 = blockdiag(B B*, B* B)

All facts are exact in real arithmetic; tolerances absorb rounding only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    _coerce_array,
    as_stack,
    dilation_stack,
    frobenius_norms,
    gram_top_eigenvalues,
    hermitian_stack,
    require_finite,
    spectral_norms,
)
from .models import (
    as_finite_summand,
    centered_support,
    check_support,
    sign_modulated_support,
)
from .rng import gaussians, integers, uniform_halfopen

KINDS = (
    "heinz",
    "gm_am_trace",
    "sum_squares",
    "trace_product",
    "monotonicity",
    "diff_powers",
    "double_factorial",
    "dilation_square",
)

_IDENTITY_KINDS = frozenset({"diff_powers", "dilation_square"})
_REL_TOL = 1e-9
_PSD_TOL_REL = 1e-10

# most outcome combinations an exact enumeration may visit
_ENUMERATION_CAP = 1 << 20
# combinations whose probability-weighted values are summed at a time
_ENUM_CHUNK = 1 << 14
# bytes of outcome sums whose Gram matrices are formed at a time
_GRAM_BYTES = 1 << 17


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one fact evaluation.

    For inequality kinds, holds iff lhs <= rhs + tolerance.  For identity
    kinds, lhs is the Frobenius deviation between the two sides, rhs is 0,
    and holds iff |lhs - rhs| <= tolerance.  slack is rhs - lhs.
    """

    holds: bool
    lhs: float
    rhs: float
    slack: float
    tolerance: float
    kind: str = ""
    detail: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Fact cases.  A *batch* holds k cases of one kind as a dict of stacked
# arrays keyed by the FactCase constructor's arguments: (k, d, d) for a
# matrix field, (k, n, d, d) for sum_squares' matrices, (k,) for a scalar.
# Validation and evaluation work on batches; FactCase and verify_fact use
# batches of one, the sweeps batches of every case with the same shapes.
# Stacked matmul, eigvalsh and trace give bit-identical values to the
# per-matrix calls, so a case's result does not depend on the batch it is
# evaluated in.
# ---------------------------------------------------------------------------

# batch fields that hold Hermitian matrices, in constructor order
_HERMITIAN_FIELDS = {
    "gm_am_trace": ("H", "W", "Y"),
    "sum_squares": ("mats",),
    "trace_product": ("H", "A"),
    "monotonicity": ("A", "H"),
    "diff_powers": ("W", "Y"),
}


def _require(ok: np.ndarray, message: str) -> None:
    if not np.all(ok):
        raise ValueError(message)


def _require_psd(a: np.ndarray, what: str) -> None:
    """Raise for the first matrix of a (k, d, d) or (k, n, d, d) stack whose
    smallest eigenvalue is below -1e-10 * max(1, ||M||_F); in a (k, n, d, d)
    stack the message names the matrix's index within its case."""
    flat = a.reshape((-1,) + a.shape[-2:])
    smallest = np.linalg.eigvalsh(flat)[:, 0]
    limit = _PSD_TOL_REL * np.maximum(1.0, frobenius_norms(flat))
    bad = np.flatnonzero(smallest < -limit)
    if bad.size:
        i = bad[0]
        if a.ndim == 4:
            what = f"{what} {i % a.shape[1]}"
        raise ValueError(f"{what} must be PSD; smallest eigenvalue {smallest[i]:.3e}")


def _check_hypotheses(kind: str, b: dict) -> None:
    """Raise for a case of batch `b` that violates a hypothesis of `kind`
    (Hermitian structure is checked when the matrices are symmetrized)."""
    if kind == "heinz":
        _require(~((b["lam"] < 0) | (b["mu"] < 0)), "heinz needs lam, mu >= 0")
        _require((0.0 <= b["theta"]) & (b["theta"] <= 1.0), "heinz needs theta in [0, 1]")
    elif kind == "gm_am_trace":
        r, q = b["r"], b["q"]
        _require((r >= 0) & (0 <= q) & (q <= 2 * r),
                 "gm_am_trace needs r >= 0 and 0 <= q <= 2r")
    elif kind == "sum_squares":
        _require_psd(b["mats"], "sum_squares matrix")
    elif kind == "trace_product":
        _require_psd(b["A"], "trace_product right factor")
    elif kind == "monotonicity":
        _require_psd(b["H"] - b["A"], "monotonicity difference H - A")
    elif kind == "diff_powers":
        _require(b["p"] >= 1, "diff_powers needs p >= 1")
    elif kind == "double_factorial":
        _require(b["p"] >= 0, "double_factorial needs p >= 0")


def _validated(kind: str, b: dict) -> dict:
    """Batch `b` of raw draws with its Hermitian fields symmetrized and the
    hypotheses of `kind` checked: the one validation of FactCase and the
    sweeps."""
    b = dict(b)
    for key in _HERMITIAN_FIELDS.get(kind, ()):
        a = require_finite(b[key])
        b[key] = hermitian_stack(a.reshape((-1,) + a.shape[-2:]))[0].reshape(a.shape)
    if kind == "dilation_square":
        require_finite(b["B"])
    _check_hypotheses(kind, b)
    return b


@dataclass(frozen=True, eq=False)
class FactCase:
    """One concrete instance of a checkable fact, held as its validated
    batch of one case.

    Build through the named constructors, which validate the hypotheses each
    fact actually needs by the routine the sweeps use; violated hypotheses
    raise instead of producing a false CheckResult.
    """

    kind: str
    batch: dict

    @classmethod
    def _checked(cls, kind: str, **fields) -> "FactCase":
        return cls(kind, _validated(kind, {k: np.array(v)[None] for k, v in fields.items()}))

    @classmethod
    def heinz(cls, lam: float, mu: float, theta: float) -> "FactCase":
        return cls._checked("heinz", lam=float(lam), mu=float(mu), theta=float(theta))

    @classmethod
    def gm_am_trace(cls, H, W, Y, r: int, q: int) -> "FactCase":
        H, W, Y = as_stack((H, W, Y), "gm_am_trace needs equal dimensions")
        return cls._checked("gm_am_trace", H=H, W=W, Y=Y, r=int(r), q=int(q))

    @classmethod
    def sum_squares(cls, mats) -> "FactCase":
        mats = list(mats)
        if not mats:
            raise ValueError("sum_squares needs at least one matrix")
        mats = as_stack(mats, "sum_squares needs equal dimensions")
        return cls._checked("sum_squares", mats=mats)

    @classmethod
    def trace_product(cls, H, A) -> "FactCase":
        H, A = as_stack((H, A), "trace_product needs equal dimensions")
        return cls._checked("trace_product", H=H, A=A)

    @classmethod
    def monotonicity(cls, A, H) -> "FactCase":
        A, H = as_stack((A, H), "monotonicity needs equal dimensions")
        return cls._checked("monotonicity", A=A, H=H)

    @classmethod
    def diff_powers(cls, W, Y, p: int) -> "FactCase":
        W, Y = as_stack((W, Y), "diff_powers needs equal dimensions")
        return cls._checked("diff_powers", W=W, Y=Y, p=int(p))

    @classmethod
    def double_factorial(cls, p: int) -> "FactCase":
        return cls._checked("double_factorial", p=int(p))

    @classmethod
    def dilation_square(cls, B) -> "FactCase":
        return cls._checked("dilation_square", B=_coerce_array(B))


def odd_double_factorial(p: int) -> int:
    """(2p-1)!! as an exact integer; the empty product for p = 0 is 1."""
    return math.prod(range(1, 2 * p, 2))


def _power_table(a: np.ndarray, top: int) -> np.ndarray:
    """(top + 1, k, d, d) table of the powers a^0 .. a^top of each matrix of
    a (k, d, d) stack, by repeated right multiplication from the identity."""
    out = np.empty((top + 1,) + a.shape, dtype=np.complex128)
    out[0] = np.eye(a.shape[-1])
    for j in range(top):
        out[j + 1] = out[j] @ a
    return out


def _trace(a: np.ndarray) -> np.ndarray:
    return np.trace(a, axis1=1, axis2=2).real


# Evaluators: batch -> (lhs, rhs) for inequalities, (deviation, scale,
# detail arrays) for identities.


def _heinz(b):
    lhs = [
        lam**t * mu ** (1.0 - t) + lam ** (1.0 - t) * mu**t
        for lam, mu, t in zip(b["lam"].tolist(), b["mu"].tolist(), b["theta"].tolist())
    ]
    return np.array(lhs), b["lam"] + b["mu"]


def _gm_am_trace(b):
    H, W, Y, r, q = b["H"], b["W"], b["Y"], b["r"], b["q"]
    top = int(2 * r.max())
    wp, yp = _power_table(W, top), _power_table(Y, top)
    at = np.arange(len(r))
    wq, w2rq, w2r = wp[q, at], wp[2 * r - q, at], wp[2 * r, at]
    yq, y2rq, y2r = yp[q, at], yp[2 * r - q, at], yp[2 * r, at]
    lhs = _trace(H @ wq @ H @ y2rq) + _trace(H @ w2rq @ H @ yq)
    return lhs, _trace(H @ H @ (w2r + y2r))


def _sum_squares(b):
    mats = b["mats"]
    k, n, d, _ = mats.shape
    squares = mats @ mats
    lhs = spectral_norms(sum(squares[:, j] for j in range(n)))
    largest = spectral_norms(mats.reshape(-1, d, d)).reshape(k, n).max(axis=1)
    return lhs, largest * spectral_norms(sum(mats[:, j] for j in range(n)))


def _trace_product(b):
    H, A = b["H"], b["A"]
    return _trace(H @ A), spectral_norms(H) * _trace(A)


def _monotonicity(b):
    return np.linalg.eigvalsh(b["A"])[:, -1], np.linalg.eigvalsh(b["H"])[:, -1]


def _diff_powers(b):
    W, Y, p = b["W"], b["Y"], b["p"]
    top = 2 * p - 2
    most = int(top.max())
    wp, yp = _power_table(W, most + 1), _power_table(Y, most + 1)
    at = np.arange(len(p))
    left = wp[top + 1, at] - yp[top + 1, at]
    diff = W - Y
    right = np.zeros_like(left)
    for j in range(most + 1):
        s = np.flatnonzero(top >= j)
        right[s] += wp[j, s] @ diff[s] @ yp[top[s] - j, s]
    scale = np.maximum(frobenius_norms(left), frobenius_norms(right))
    return frobenius_norms(left - right), scale, {}


def _double_factorial(b):
    ps = b["p"].tolist()
    lhs = [float(odd_double_factorial(p)) for p in ps]
    return np.array(lhs), np.array([((2.0 * p + 1.0) / math.e) ** p for p in ps])


def _dilation_square(b):
    B = b["B"]
    d1 = B.shape[1]
    Bh = B.conj().transpose(0, 2, 1)
    D = hermitian_stack(dilation_stack(B))[0]
    square = D @ D
    target = np.zeros_like(square)
    target[:, :d1, :d1] = B @ Bh
    target[:, d1:, d1:] = Bh @ B
    scale = np.maximum(frobenius_norms(square), frobenius_norms(target))
    detail = {
        "upper_block_deviation": frobenius_norms(square[:, :d1, :d1] - target[:, :d1, :d1]),
        "lower_block_deviation": frobenius_norms(square[:, d1:, d1:] - target[:, d1:, d1:]),
        "offdiagonal_mass": frobenius_norms(square[:, :d1, d1:])
        + frobenius_norms(square[:, d1:, :d1]),
    }
    return frobenius_norms(square - target), scale, detail


_EVALUATORS = {
    "heinz": _heinz,
    "gm_am_trace": _gm_am_trace,
    "sum_squares": _sum_squares,
    "trace_product": _trace_product,
    "monotonicity": _monotonicity,
    "diff_powers": _diff_powers,
    "double_factorial": _double_factorial,
    "dilation_square": _dilation_square,
}


def _evaluate(kind: str, b: dict, inject_fault: bool = False):
    """(holds, result) for batch `b`: the verdict of each case, and a function
    building the CheckResult of case i."""
    detail = {}
    if kind in _IDENTITY_KINDS:
        lhs, scale, detail = _EVALUATORS[kind](b)
        rhs, slack = np.zeros_like(lhs), -lhs
        tol = _REL_TOL * np.maximum(1.0, scale)
        holds = np.abs(lhs) <= tol
    else:
        lhs, rhs = _EVALUATORS[kind](b)
        if inject_fault and kind == "gm_am_trace":
            rhs = rhs / 2.0  # the planted fault of verify_fact's docstring
        slack = rhs - lhs
        tol = _REL_TOL * np.maximum(1.0, np.abs(rhs))
        holds = lhs <= rhs + tol

    def result(i: int) -> CheckResult:
        return CheckResult(
            holds=bool(holds[i]),
            lhs=float(lhs[i]),
            rhs=float(rhs[i]),
            slack=float(slack[i]),
            tolerance=float(tol[i]),
            kind=kind,
            detail={key: float(v[i]) for key, v in detail.items()},
        )

    return holds, result


def verify_fact(case: FactCase, inject_fault: bool = False) -> CheckResult:
    """Evaluate both sides of the fact numerically.

    inject_fault is a self-test hook: it deliberately mis-evaluates the
    gm_am_trace right-hand side (halving it, as if the two-term sum had been
    averaged) so harnesses can confirm they detect planted violations.
    """
    if case.kind not in _EVALUATORS:
        raise ValueError(f"unknown fact kind: {case.kind!r}")
    return _evaluate(case.kind, case.batch, inject_fault)[1](0)


def _expected_norms(supports, r) -> list[float]:
    """E||Z_c||^r of k cases c at once by exact enumeration of each case's
    product distribution: the one enumeration kernel.

    `supports` holds one (probabilities (k, m), outcomes (k, m, d1, d2))
    pair per summand, so the cases share their summand count, support sizes
    and shape; r holds each case's moment order.  Each value is that of the
    case enumerated alone, bit for bit: z sums the outcomes in summand order
    from zeros, ranks follow a mixed-radix counter over outcome indices
    (row-major, last summand fastest), and the expectation is a 1-d dot
    product per case and _ENUM_CHUNK ranks.  ||z||^2 is the top eigenvalue of
    the Gram matrix of the smaller side, formed _GRAM_BYTES of outcome sums
    at a time over all cases.
    """
    for probs, mats in supports:
        check_support(probs, mats)
    counts = [probs.shape[1] for probs, _ in supports]
    total = math.prod(counts)
    if total > _ENUMERATION_CAP:
        raise ValueError(f"enumeration needs {total} combinations, cap is {_ENUMERATION_CAP}")
    k, _, d1, d2 = supports[0][1].shape
    # When every support of every case read backwards is its own negation,
    # rank total-1-q sums the negated outcomes of rank q and has the same
    # Gram matrix, so only the first half of the ranks needs an eigenvalue.
    mirrored = all(np.array_equal(mats[:, ::-1], -mats) for _, mats in supports)
    half = (total + 1) // 2 if mirrored else total
    step = max(1, _GRAM_BYTES // (d1 * d2 * 16))
    sq_norms = np.empty((k, total))
    for start in range(0, k * half, step):
        case, rank = np.divmod(np.arange(start, min(start + step, k * half)), half)
        z = np.zeros((len(rank), d1, d2), dtype=np.complex128)
        for (_, mats), ix in zip(supports, np.unravel_index(rank, counts)):
            z += mats[case, ix]
        sq_norms[case, rank] = gram_top_eigenvalues(z)
    sq_norms[:, half:] = sq_norms[:, : total - half][:, ::-1]
    sq_norms = np.maximum(sq_norms, 0.0)
    values = [sq if rc == 2 else np.sqrt(sq) ** int(rc) for sq, rc in zip(sq_norms, r)]
    acc = [0.0] * k
    for start in range(0, total, _ENUM_CHUNK):
        stop = min(start + _ENUM_CHUNK, total)
        weights = np.ones((k, stop - start))
        for (probs, _), ix in zip(supports, np.unravel_index(np.arange(start, stop), counts)):
            weights *= probs[:, ix]
        for c in range(k):
            acc[c] += float(np.dot(weights[c], values[c][start:stop]))
    return acc


def _summand_supports(probs: np.ndarray, mats: np.ndarray) -> list:
    """The kernel's per-summand (probabilities, outcomes) pairs of k cases
    held as (k, n, m) and (k, n, m, d1, d2) stacks."""
    return list(zip(probs.swapaxes(0, 1), mats.swapaxes(0, 1)))


def brute_force_expected_norm(summands, r: int) -> float:
    """E||sum_i S_i||^r by exact enumeration of the product distribution.

    Summands must have finite support and equal shapes; the total number of
    outcome combinations must not exceed 2^20.  This is the enumeration
    kernel on one case (see _expected_norms).
    """
    ss = [as_finite_summand(s) for s in summands]
    if not ss:
        raise ValueError("need at least one summand")
    if len({s.shape for s in ss}) != 1:
        raise ValueError("summand shapes differ")
    if not isinstance(r, (int, np.integer)) or r < 1:
        raise ValueError("moment order r must be a positive integer")
    [value] = _expected_norms([(s.probabilities[None], s.matrices[None]) for s in ss], [r])
    return value


def _symmetrization_result(M: float, R: float) -> CheckResult:
    """Holds iff R/2 - tol <= M <= 2R + tol, tol = 1e-9 max(1, R)."""
    violation = max(R / 2.0 - M, M - 2.0 * R)
    tol = _REL_TOL * max(1.0, R)
    return CheckResult(
        holds=bool(violation <= tol),
        lhs=float(violation),
        rhs=0.0,
        slack=float(-violation),
        tolerance=tol,
        kind="symmetrization",
        detail={"centered_moment": float(M), "signed_moment": float(R)},
    )


def symmetrization_check(summands, r: int) -> CheckResult:
    """Exact two-sided symmetrization comparison.

    Computes M = (E||sum (S_i - E S_i)||^r)^(1/r) on the centered summands and
    R = (E||sum eps_i S_i||^r)^(1/r) with independent fair signs applied to the
    raw summands, both by full enumeration.  Holds iff R/2 - tol <= M <= 2R + tol.
    """
    ss = [as_finite_summand(s) for s in summands]
    M = brute_force_expected_norm([s.centered() for s in ss], r) ** (1.0 / r)
    R = brute_force_expected_norm([s.sign_modulated() for s in ss], r) ** (1.0 / r)
    return _symmetrization_result(M, R)


# ---------------------------------------------------------------------------
# Seeded random case generation for the sweep suites.  Every variate of case
# i of a sweep is the counter-RNG draw keyed by (seed, stream, i, slot), so a
# block of cases is drawn as whole stacks and any case replays alone, bit
# for bit, from (seed, stream, i).  The streams are the fact kinds 0-7 (in
# KINDS order), the sign-series domination sweep 8 and symmetrization 9.
# Slots 0-15 hold a case's scalars; matrix m of a case owns the slots
# 16 + 4 (m 2^32 + e): entry e = 0 holds up to four scalars of the matrix,
# entry e = 1 + row * cols + col the Gaussian real part (at +0, +1) and
# imaginary part (at +2, +3) of that matrix entry.
# ---------------------------------------------------------------------------

_STREAMS = {**{k: i for i, k in enumerate(KINDS)}, "rademacher": 8, "symmetrization": 9}
_MATRIX_SLOT = 16

# inclusive (low, high) ranges of a fact case's dimension, of r, and of p
_FACT_DIM = (1, 6)
_GM_AM_R = (0, 3)
_DIFF_POWERS_P = (1, 6)
_DOUBLE_FACTORIAL_P = (0, 12)

# cases drawn and checked at a time: bounds a sweep's memory, not its results
_SWEEP_BLOCK = 4096


class CaseKey:
    """The cases at indices `index` (a 1-d int64 array) of one sweep stream."""

    __slots__ = ("seed", "stream", "index")

    def __init__(self, seed: int, stream: int, index: np.ndarray):
        self.seed, self.stream, self.index = seed, stream, index

    def __len__(self) -> int:
        return len(self.index)

    def take(self, positions) -> "CaseKey":
        return CaseKey(self.seed, self.stream, self.index[positions])

    def uniform(self, slot: int) -> np.ndarray:
        return uniform_halfopen(self.seed, self.stream, self.index, slot)

    def integers(self, slot: int, low: int, high) -> np.ndarray:
        return integers(self.seed, self.stream, self.index, slot, low, high)

    def matrix_uniform(self, count: int, part: int) -> np.ndarray:
        """(k, count) uniforms in [0, 1): scalar `part` of matrices
        0 .. count - 1 of each case."""
        m = np.arange(count, dtype=np.uint64)
        slot = _MATRIX_SLOT + 4 * (m << np.uint64(32)) + np.uint64(part)
        return uniform_halfopen(self.seed, self.stream, self.index[:, None], slot)

    def gaussian_matrices(self, first: int, count: int, rows: int, cols: int) -> np.ndarray:
        """(k, count, rows, cols) complex matrices of independent standard
        normal real and imaginary parts: matrices first .. first + count - 1
        of each case."""
        m = np.arange(first, first + count, dtype=np.uint64)[:, None]
        entry = np.arange(1, rows * cols + 1, dtype=np.uint64)
        base = _MATRIX_SLOT + 4 * ((m << np.uint64(32)) + entry)
        slot = base[..., None] + np.array([0, 2], dtype=np.uint64)
        at = self.index[:, None, None, None]
        g = gaussians(self.seed, self.stream, at, slot)
        return g.view(np.complex128).reshape(len(self), count, rows, cols)


def case_rng(seed: int, stream: str, index) -> CaseKey:
    """The key of sweep cases `index` (an int or a sequence of ints) of
    `stream`: a fact kind, "rademacher" or "symmetrization"."""
    index = np.atleast_1d(np.asarray(index, dtype=np.int64))
    return CaseKey(int(seed) % (1 << 64), _STREAMS[stream], index)


def symmetrization_rng(seed: int, index) -> CaseKey:
    """The key of symmetrization sweep cases `index` (stream 9)."""
    return case_rng(seed, "symmetrization", index)


def _blocks(cases: int):
    """The case indices 0 .. cases - 1, _SWEEP_BLOCK at a time."""
    for start in range(0, cases, _SWEEP_BLOCK):
        yield np.arange(start, min(start + _SWEEP_BLOCK, cases))


def _by_shape(key: CaseKey, *dims: np.ndarray):
    """(positions, sub-key, shape) for each distinct tuple of `dims` among
    the cases of `key`, in order of first appearance."""
    groups: dict[tuple, list[int]] = {}
    for j, shape in enumerate(zip(*(d.tolist() for d in dims))):
        groups.setdefault(shape, []).append(j)
    for shape, positions in groups.items():
        positions = np.array(positions)
        yield positions, key.take(positions), shape


def random_hermitian(key: CaseKey, first: int, count: int, d: int) -> np.ndarray:
    """(k, count, d, d) Hermitian matrices (G + G*)/2 of Gaussian G."""
    g = key.gaussian_matrices(first, count, d, d)
    return (g + g.conj().swapaxes(-1, -2)) / 2.0


def random_psd(key: CaseKey, first: int, count: int, d: int) -> np.ndarray:
    """(k, count, d, d) PSD matrices G G* / d of Gaussian G."""
    g = key.gaussian_matrices(first, count, d, d)
    return (g @ g.conj().swapaxes(-1, -2)) / d


def random_fact_case(kind: str, key: CaseKey) -> list[tuple[np.ndarray, dict]]:
    """The random valid cases of `kind` at the indices of `key`, grouped by
    shape, as (positions, batch) pairs: positions index key.index, and the
    batch stacks the raw draws of those cases as the keyword arguments of
    the FactCase constructor of `kind`."""
    every = np.arange(len(key))
    if kind == "heinz":
        u = [key.uniform(slot) for slot in range(6)]
        lam = np.where(u[0] < 0.1, 0.0, 10.0 * u[1])
        mu = np.where(u[2] < 0.1, 0.0, 10.0 * u[3])
        theta = np.where(u[4] < 0.05, 0.0, np.where(u[4] < 0.1, 1.0, u[5]))
        return [(every, {"lam": lam, "mu": mu, "theta": theta})]
    if kind == "double_factorial":
        return [(every, {"p": key.integers(0, *_DOUBLE_FACTORIAL_P)})]
    if kind not in _EVALUATORS:
        raise ValueError(f"unknown fact kind: {kind!r}")
    d = key.integers(0, *_FACT_DIM)
    if kind == "dilation_square":
        d2 = key.integers(1, *_FACT_DIM)
        return [
            (ix, {"B": sub.gaussian_matrices(0, 1, rows, cols)[:, 0]})
            for ix, sub, (rows, cols) in _by_shape(key, d, d2)
        ]
    if kind == "sum_squares":
        n = key.integers(1, 1, 5)
        return [
            (ix, {"mats": random_psd(sub, 0, count, dim)})
            for ix, sub, (dim, count) in _by_shape(key, d, n)
        ]
    if kind == "gm_am_trace":
        r = key.integers(1, *_GM_AM_R)
        q = key.integers(2, 0, 2 * r)
    elif kind == "diff_powers":
        p = key.integers(1, *_DIFF_POWERS_P)
    groups = []
    for ix, sub, (dim,) in _by_shape(key, d):
        if kind == "gm_am_trace":
            H, W, Y = random_hermitian(sub, 0, 3, dim).swapaxes(0, 1)
            batch = {"H": H, "W": W, "Y": Y, "r": r[ix], "q": q[ix]}
        elif kind == "trace_product":
            batch = {"H": random_hermitian(sub, 0, 1, dim)[:, 0],
                     "A": random_psd(sub, 1, 1, dim)[:, 0]}
        elif kind == "monotonicity":
            a = random_hermitian(sub, 0, 1, dim)[:, 0]
            batch = {"A": a, "H": a + random_psd(sub, 1, 1, dim)[:, 0]}
        else:
            W, Y = random_hermitian(sub, 0, 2, dim).swapaxes(0, 1)
            batch = {"W": W, "Y": Y, "p": p[ix]}
        groups.append((ix, batch))
    return groups


def replay_fact_case(seed: int, kind: str, index: int) -> FactCase:
    """Sweep case `index` of `kind`, drawn alone by the sweep's own code."""
    [(_, batch)] = random_fact_case(kind, case_rng(seed, kind, index))
    return FactCase(kind, _validated(kind, batch))


@dataclass(frozen=True)
class SweepResult:
    kind: str
    cases: int
    failures: tuple  # (index, CheckResult) pairs

    @property
    def passed(self) -> int:
        return self.cases - len(self.failures)

    @property
    def ok(self) -> bool:
        return not self.failures


def _validated_batches(kind: str, groups):
    """Yield the drawn shape groups validated, as (positions, batch) pairs.
    An invalid case raises, once every group has been checked, the error its
    FactCase constructor raises, for the invalid case at the lowest
    position."""
    first = None
    for ix, raw in groups:
        try:
            batch = _validated(kind, raw)
        except ValueError:
            for j in range(len(ix)):
                try:
                    _validated(kind, {key: value[j : j + 1] for key, value in raw.items()})
                except ValueError as err:
                    if first is None or ix[j] < first[0]:
                        first = (ix[j], err)
                    break
            continue
        yield ix, batch
    if first is not None:
        raise first[1]


def sweep_fact_kind(kind: str, cases: int, seed: int, inject_fault: bool = False) -> SweepResult:
    """Check `cases` random cases of `kind`.

    The cases are drawn a block at a time by random_fact_case and checked in
    stacks of equal shape by the same validation and evaluation that
    FactCase and verify_fact apply to one case, so each failure equals
    verify_fact on replay_fact_case of its index.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown fact kind {kind!r}; expected one of {KINDS}")
    failures = []
    for index in _blocks(cases):
        key = case_rng(seed, kind, index)
        groups = random_fact_case(kind, key)
        for ix, batch in _validated_batches(kind, groups):
            holds, result = _evaluate(kind, batch, inject_fault)
            failures.extend((int(key.index[ix[j]]), result(j)) for j in np.flatnonzero(~holds))
    failures.sort(key=lambda f: f[0])
    return SweepResult(kind=kind, cases=cases, failures=tuple(failures))


def random_zero_mean_summands(key: CaseKey) -> list[tuple[np.ndarray, tuple]]:
    """The random centered families of the cases of `key`, grouped by
    shape, as (positions, (probabilities, outcomes)) pairs: positions index
    key.index, and the stacks are (k, n, 2) and (k, n, 2, rows, cols) for the
    k cases of a group, with n in 1..5 two-outcome summands of 1 to 3 rows
    and columns.

    Outcomes are {(p, A), (1-p, -p/(1-p) A)}, which has mean exactly zero;
    the two-sided symmetrization comparison is false for uncentered summands
    (a deterministic nonzero summand already breaks the lower half), so the
    sweep generates mean-zero instances by construction.  Summand j takes p
    and a zero-matrix coin from the scalars of matrix j.
    """
    n = key.integers(0, 1, 5)
    d1 = key.integers(1, 1, 3)
    d2 = key.integers(2, 1, 3)
    groups = []
    for ix, sub, (count, rows, cols) in _by_shape(key, n, d1, d2):
        p = 0.1 + 0.8 * sub.matrix_uniform(count, 0)
        zero = sub.matrix_uniform(count, 1) < 0.2
        a = np.where(zero[..., None, None], 0.0, sub.gaussian_matrices(0, count, rows, cols))
        scaled = -(p / (1.0 - p))[..., None, None] * a
        groups.append((ix, (np.stack([p, 1.0 - p], axis=-1), np.stack([a, scaled], axis=2))))
    return groups


def random_hermitian_family(key: CaseKey) -> list[tuple[np.ndarray, np.ndarray]]:
    """The random fixed Hermitian families of the cases of `key`, grouped by
    shape, as (positions, stack) pairs: positions index key.index, and the
    (k, n, d, d) stack holds the families of the k cases of a group, with n
    in 1..10 and d in 1..6."""
    n = key.integers(0, 1, 10)
    d = key.integers(1, 1, 6)
    return [
        (ix, random_hermitian(sub, 0, count, dim))
        for ix, sub, (count, dim) in _by_shape(key, n, d)
    ]


def _symmetrization_moments(key: CaseKey):
    """(case index, M, R) of each symmetrization case of `key`, the cases of
    a shape group enumerated together; each pair equals symmetrization_check
    on the case drawn alone, bit for bit."""
    rs = 1 + key.integers(3, 0, 1)
    for ix, (probs, mats) in random_zero_mean_summands(key):
        r = rs[ix].tolist()
        centered = _expected_norms(_summand_supports(probs, centered_support(probs, mats)), r)
        signed = _expected_norms(_summand_supports(*sign_modulated_support(probs, mats)), r)
        for i, rc, m, s in zip(key.index[ix].tolist(), r, centered, signed):
            yield i, m ** (1.0 / rc), s ** (1.0 / rc)


def sweep_symmetrization(cases: int, seed: int) -> SweepResult:
    """Exact two-sided symmetrization comparison on random centered
    two-outcome instances, r = 1 or 2 from slot 3 of each case; a failure
    carries symmetrization_check's result for its case."""
    failures = []
    for index in _blocks(cases):
        for i, M, R in _symmetrization_moments(symmetrization_rng(seed, index)):
            result = _symmetrization_result(M, R)
            if not result.holds:
                failures.append((i, result))
    failures.sort(key=lambda f: f[0])
    return SweepResult(kind="symmetrization", cases=cases, failures=tuple(failures))
