"""Counter-based random number generation.

Every variate is a pure function of a 64-bit key tuple
(seed, sample index, summand position, draw slot); the oracle sweeps use
(seed, stream, case index, slot).  No stream state exists,
so draws can be produced in any order, in parallel, and one at a time, with
bit-identical results.  The mixer is a splitmix-style 64-bit finalizer
applied to a chained key: the seed is chained with the index and then the
position, a finalizer round after each (the prefix), and the prefix with the
slot in one more round (the slot finish).  A word is keyed on the whole
counter either way, so a law that reads two slots of one (seed, index,
position) finishes both from one computed prefix (gaussians): three
full-size rounds for a sampler's (k, 1) x (1, N) key instead of four.
"""

from __future__ import annotations

import math

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_ONE = np.uint64(1)
_TWO_PI = 2.0 * math.pi
_SIGN_BIT = np.uint64(1 << 63)
_ONE_BITS = np.float64(1.0).view(np.uint64)

# Modular wraparound is the whole point of the mixer; numpy warns on uint64
# overflow when 0-d operands decay to scalars, so the arithmetic runs under
# errstate(over="ignore").  A draw over a (k, N) key allocates its output and
# one scratch array of that shape; every other step runs in place.


def _as_u64(x) -> np.ndarray:
    if isinstance(x, (int, np.integer)):
        x = int(x) % (1 << 64)
    return np.asarray(x, dtype=np.uint64)


def _finalize(z: np.ndarray, tmp: np.ndarray, last: bool = True) -> None:
    """The splitmix64 finalizer, in place on z; tmp is scratch of z's shape.
    last=False skips the closing z ^= z >> 31, which never changes bit 63."""
    np.right_shift(z, np.uint64(30), out=tmp)
    z ^= tmp
    z *= _MIX1
    np.right_shift(z, np.uint64(27), out=tmp)
    z ^= tmp
    z *= _MIX2
    if last:
        np.right_shift(z, np.uint64(31), out=tmp)
        z ^= tmp


def _scalar_if_0d(a: np.ndarray):
    """Scalar keys give numpy scalars, array keys arrays."""
    return a if a.ndim else a[()]


def counter_words(seed, index, position, slot):
    """Uniform 64-bit words keyed by (seed, index, position, slot).

    Arguments broadcast like numpy arrays; the result carries the broadcast
    shape.  Each distinct key yields an independent-looking word.
    """
    return _scalar_if_0d(_words(seed, index, position, slot))


def _chain(z: np.ndarray, tmp, word, last: bool = True):
    """(z, tmp) after chaining one key word into z and finalizing: in place
    when tmp, scratch of z's shape, is given and the step keeps z's shape,
    else on fresh arrays, so a caller's key is never written.  Runs under
    errstate(over="ignore")."""
    step = _GOLDEN * (_as_u64(word) + _ONE)
    if tmp is not None and (np.ndim(step) == 0 or step.shape == z.shape):
        z += step
    else:
        z = np.asarray(z + step)
        tmp = np.empty_like(z)
    _finalize(z, tmp, last)
    return z, tmp


def _prefix(seed, index, position):
    """(the key chained through seed, index and position, its scratch)."""
    z, tmp = _chain(_as_u64(seed), None, index)
    return _chain(z, tmp, position)


def _words(seed, index, position, slot, sign_only: bool = False) -> np.ndarray:
    """counter_words as an array; with sign_only, only bit 63 of each word is
    exact, since the last finalizer step is skipped."""
    with np.errstate(over="ignore"):
        z, tmp = _prefix(seed, index, position)
        return _chain(z, tmp, slot, last=not sign_only)[0]


def _word_pair(seed, index, position, slot):
    """The words of slots `slot` and `slot + 1`, finished from one prefix:
    the first on a fresh array, the second in the prefix's own buffer."""
    with np.errstate(over="ignore"):
        z, tmp = _prefix(seed, index, position)
        first = _chain(z, None, slot)[0]
        second = _chain(z, tmp, _as_u64(slot) + _ONE)[0]
    return first, second


def _units(w: np.ndarray, offset: int = 0) -> np.ndarray:
    """((w >> 11) + offset) * 2^-53 as float64, shifted in w's buffer."""
    w >>= np.uint64(11)
    if offset:
        w += np.uint64(offset)
    u = w.astype(np.float64)
    u *= 2.0**-53
    return u


def uniform_halfopen(seed, index, position, slot):
    """Uniform variates in [0, 1) with 53-bit resolution."""
    return _scalar_if_0d(_units(_words(seed, index, position, slot)))


def uniform_positive(seed, index, position, slot):
    """Uniform variates in (0, 1]; never zero, safe under log and power laws."""
    return _scalar_if_0d(_units(_words(seed, index, position, slot), 1))


def integers(seed, index, position, slot, low: int, high) -> np.ndarray:
    """int64 variates uniform on low..high inclusive; `high` may be an array
    broadcasting with the key.  Multiply-shift on the top 32 bits of the
    word, so the bias is below (high - low + 1) / 2^32."""
    span = np.asarray(high, dtype=np.int64) - low + 1
    if np.any(span < 1) or np.any(span > 1 << 32):
        raise ValueError("need 1 <= high - low + 1 <= 2^32")
    top = counter_words(seed, index, position, slot) >> np.uint64(32)
    return low + ((top * span.astype(np.uint64)) >> np.uint64(32)).astype(np.int64)


def signs(seed, index, position, slot):
    """Rademacher variates, +-1.0 with equal probability: the top bit of the
    word becomes the sign bit of 1.0, so a set bit gives -1.0."""
    w = _words(seed, index, position, slot, sign_only=True)
    w &= _SIGN_BIT
    w |= _ONE_BITS
    return _scalar_if_0d(w.view(np.float64))


def gaussians(seed, index, position, slot):
    """Standard normal variates via Box-Muller; consumes slots `slot` and
    `slot+1`: the radius from uniform_positive's variate of the first, the
    angle from uniform_halfopen's of the second."""
    radius, angle = _word_pair(seed, index, position, slot)
    radius, angle = _units(radius, 1), _units(angle)
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle *= _TWO_PI
    np.cos(angle, out=angle)
    radius *= angle
    return _scalar_if_0d(radius)


def pareto_magnitudes(seed, index, position, slot):
    """Magnitudes u^(-1/4) of a symmetric Pareto law, P(|P| >= t) = t^-4 for
    t >= 1, with u as uniform_positive draws it at `slot`."""
    return np.power(uniform_positive(seed, index, position, slot), -0.25)
