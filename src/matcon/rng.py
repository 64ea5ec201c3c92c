"""Counter-based random number generation.

Every variate is a pure function of a 64-bit key tuple
(seed, sample index, summand position, draw slot); the oracle sweeps use
(seed, stream, case index, slot).  No stream state exists,
so draws can be produced in any order, in parallel, and one at a time, with
bit-identical results.  The mixer is a splitmix-style 64-bit finalizer
applied to a chained key.
"""

from __future__ import annotations

import math

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_ONE = np.uint64(1)

# Modular wraparound is the whole point of the mixer; numpy warns on uint64
# overflow when 0-d operands decay to scalars, so the arithmetic runs under
# errstate(over="ignore").


def _as_u64(x) -> np.ndarray:
    if isinstance(x, (int, np.integer)):
        x = int(x) % (1 << 64)
    return np.asarray(x, dtype=np.uint64)


def _finalize(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        z = z ^ (z >> np.uint64(30))
        z = z * _MIX1
        z = z ^ (z >> np.uint64(27))
        z = z * _MIX2
        z = z ^ (z >> np.uint64(31))
    return z


def counter_words(seed, index, position, slot) -> np.ndarray:
    """Uniform 64-bit words keyed by (seed, index, position, slot).

    Arguments broadcast like numpy arrays; the result carries the broadcast
    shape.  Each distinct key yields an independent-looking word.
    """
    with np.errstate(over="ignore"):
        z = _finalize(_as_u64(seed) + _GOLDEN * (_as_u64(index) + _ONE))
        z = _finalize(z + _GOLDEN * (_as_u64(position) + _ONE))
        z = _finalize(z + _GOLDEN * (_as_u64(slot) + _ONE))
    return z


def uniform_halfopen(seed, index, position, slot) -> np.ndarray:
    """Uniform variates in [0, 1) with 53-bit resolution."""
    w = counter_words(seed, index, position, slot)
    return (w >> np.uint64(11)).astype(np.float64) * 2.0**-53


def uniform_positive(seed, index, position, slot) -> np.ndarray:
    """Uniform variates in (0, 1]; never zero, safe under log and power laws."""
    w = counter_words(seed, index, position, slot)
    return ((w >> np.uint64(11)) + _ONE).astype(np.float64) * 2.0**-53


def integers(seed, index, position, slot, low: int, high) -> np.ndarray:
    """int64 variates uniform on low..high inclusive; `high` may be an array
    broadcasting with the key.  Multiply-shift on the top 32 bits of the
    word, so the bias is below (high - low + 1) / 2^32."""
    span = np.asarray(high, dtype=np.int64) - low + 1
    if np.any(span < 1) or np.any(span > 1 << 32):
        raise ValueError("need 1 <= high - low + 1 <= 2^32")
    top = counter_words(seed, index, position, slot) >> np.uint64(32)
    return low + ((top * span.astype(np.uint64)) >> np.uint64(32)).astype(np.int64)


def signs(seed, index, position, slot) -> np.ndarray:
    """Rademacher variates, +-1.0 with equal probability (top bit of the word)."""
    w = counter_words(seed, index, position, slot)
    return 1.0 - 2.0 * (w >> np.uint64(63)).astype(np.float64)


def gaussians(seed, index, position, slot) -> np.ndarray:
    """Standard normal variates via Box-Muller; consumes slots `slot` and `slot+1`."""
    u1 = uniform_positive(seed, index, position, slot)
    with np.errstate(over="ignore"):
        next_slot = _as_u64(slot) + _ONE
    u2 = uniform_halfopen(seed, index, position, next_slot)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)
