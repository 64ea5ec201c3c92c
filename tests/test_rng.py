from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from matcon import rng
from matcon.rng import integers

# (low, high, chi-square critical value at p = 0.001 for high - low degrees
# of freedom), fixed before the test was first run
CHI2_CASES = [(1, 6, 20.52), (0, 12, 32.91), (0, 1, 10.83)]
CHI2_SEEDS = (11, 12, 13, 14, 15)
DRAWS = 60_000


@pytest.mark.parametrize("low,high,critical", CHI2_CASES)
@pytest.mark.parametrize("seed", CHI2_SEEDS)
def test_integers_uniform_chi_square(seed, low, high, critical):
    x = integers(seed, 3, np.arange(DRAWS), 0, low, high)
    assert x.dtype == np.int64
    assert (x.min(), x.max()) == (low, high)
    counts = np.bincount(x - low, minlength=high - low + 1)
    expected = DRAWS / (high - low + 1)
    assert ((counts - expected) ** 2 / expected).sum() < critical


def test_integers_per_case_upper_bound():
    r = integers(5, 1, np.arange(4000), 1, 0, 3)
    q = integers(5, 1, np.arange(4000), 2, 0, 2 * r)
    assert ((0 <= q) & (q <= 2 * r)).all()
    for rr in range(4):
        assert set(q[r == rr].tolist()) == set(range(2 * rr + 1))


def test_integers_single_value_and_key_purity():
    assert (integers(1, 2, np.arange(10), 3, 4, 4) == 4).all()
    block = integers(9, 0, np.arange(100), 7, 1, 6)
    alone = [int(integers(9, 0, i, 7, 1, 6)) for i in range(100)]
    assert block.tolist() == alone


@pytest.mark.parametrize("low,high", [(1, 0), (0, 1 << 32)])
def test_integers_rejects_bad_span(low, high):
    with pytest.raises(ValueError):
        integers(0, 0, 0, 0, low, high)


# Key shapes of the pin test: python ints, 0-d arrays and numpy scalars, a
# seed at 2^64 - 1, the (k, 1) x (1, N) broadcast of the samplers, full-shape
# keys, and an array slot as the oracle draws use (gaussians reads slot + 1).
_IDX = np.arange(5, dtype=np.uint64)[:, None]
_POS = np.arange(7, dtype=np.uint64)[None, :]
PIN_KEYS = {
    "scalar": (21, 3, 17, 0),
    "zero_d": (np.uint64(21), np.array(3), np.array(17, dtype=np.uint64), np.int64(1)),
    "big_seed": ((1 << 64) - 1, 0, 1 << 40, 2),
    "broadcast": (21, _IDX, _POS, 0),
    "full": (
        np.full((5, 7), 21, dtype=np.uint64),
        np.broadcast_to(_IDX, (5, 7)).copy(),
        np.broadcast_to(_POS, (5, 7)).copy(),
        np.ones((5, 7), dtype=np.uint64),
    ),
    "array_slot": (9, 4, np.arange(3)[:, None], 16 + 4 * np.arange(6)[None, :]),
}
PIN_FUNCTIONS = (
    "counter_words", "signs", "uniform_halfopen", "uniform_positive", "gaussians", "integers"
)
# sha256 of the raw bytes of each draw, recorded from the allocating
# implementation of counter_words before it was rewritten in place
PINNED = {
    ("scalar", "counter_words"): "325ebe4241409b6e8321ff491a786de444f08d96b99eb7542cddd4e0881df48a",
    ("scalar", "signs"): "e77817b649821c634355a917817c1224a360514b1244fe09e832bac4e8ea4440",
    ("scalar", "uniform_halfopen"): "065a857b46c664df5ab6f256813eb623f5ff061408f47da6febd102fb2c8f252",
    ("scalar", "uniform_positive"): "969b3e793b09b4b8855281f84917d928684cfdab62dd64a48435d4d0eb5da663",
    ("scalar", "gaussians"): "8e587bfe35f8b78e3db29fb48a122a14a0b5e8feb38f2357a95c8be8fafaa39a",
    ("scalar", "integers"): "f0a0278e4372459cca6159cd5e71cfee638302a7b9ca9b05c34181ac0a65ac5d",
    ("zero_d", "counter_words"): "ae69ac70d9f4c2f0b27ef687d8c474f9f5fd2426b64b4df2188f357367710308",
    ("zero_d", "signs"): "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
    ("zero_d", "uniform_halfopen"): "2ad5f286a57b1812dee3df17ec4de17fe6033d7779452abaf4ac331abc7b44f8",
    ("zero_d", "uniform_positive"): "b63226a56077d1feb2f66af334452eabeddb0fe8fe9b648db115a54c38d6b057",
    ("zero_d", "gaussians"): "2fb78807d3856ba36bc45f66f44489d684f66e9475c0751446bfe1dd1c8c1d99",
    ("zero_d", "integers"): "d86e8112f3c4c4442126f8e9f44f16867da487f29052bf91b810457db34209a4",
    ("big_seed", "counter_words"): "8c0228da8d302f1c3d968ad5ce96f7451b041b57f81e702bcd0baf827ab8e51c",
    ("big_seed", "signs"): "e77817b649821c634355a917817c1224a360514b1244fe09e832bac4e8ea4440",
    ("big_seed", "uniform_halfopen"): "8b84ec567b94df6e4f8295124501886df7fc866def629a135015384c32beaca2",
    ("big_seed", "uniform_positive"): "09033fdf5d95d895bade99cf3a25b29ed8c795372af1531cadabd5bcda879ff4",
    ("big_seed", "gaussians"): "b8ba824fd5dc4806406d9e2223f2d2bd88fb0ef55e1335972c58d90a8055ce0c",
    ("big_seed", "integers"): "7c9fa136d4413fa6173637e883b6998d32e1d675f88cddff9dcbcf331820f4b8",
    ("broadcast", "counter_words"): "6de389823147597e3d414333e948480e379487886c6c8839c1ba9fac40bb9469",
    ("broadcast", "signs"): "b366bfa4e27b742c8eb7f77a4b347946ac648610c27f7888c2ba06e99773814c",
    ("broadcast", "uniform_halfopen"): "f2a3962820b8acb566920cf0480ca3b5a78dfc9a76833f804c2f54c9589f8bd5",
    ("broadcast", "uniform_positive"): "7cabee5b05137402f6c84d690c98065d701e9c74ff9a690963bce2d8c25154fc",
    ("broadcast", "gaussians"): "adae9b38b4be352b1b2e1abecedf38e60b2e0c2e7b2855e624dd5e2153955d67",
    ("broadcast", "integers"): "de9664c89705c03584a29a15651995f75dfb80d9fdf0826ef08d1c08e4660ccc",
    ("full", "counter_words"): "6db8c5d073329a750d941bdf0c4a9cacd112011e1b9a5d7d7da11195b96d33a9",
    ("full", "signs"): "a6a29e471a116c003367bd0fb09416c125f5cb109d66b165b598d72be6fa158f",
    ("full", "uniform_halfopen"): "644e3e19ca08725a247e1a5358a9bd5bf7d3238f14cc261ec6a8c7bfde2d4db9",
    ("full", "uniform_positive"): "fb43f6b8f8bf7842860a7fa7f4a894598993e5916e28b55dd456bac78bb6d869",
    ("full", "gaussians"): "e8725c979dd333dedde10c1108bfba5d9be9b03b70376137bb063848ba2f1d10",
    ("full", "integers"): "294ddd48e81124be8d20b6c9721376f5e54d8ecfccd654f21dc0b18ff58ac9f8",
    ("array_slot", "counter_words"): "bcb39ddb687224458bc65d7b451763514b459939431db977353df833694afcb5",
    ("array_slot", "signs"): "92701d6850e37858e4fd4cd8862f06517d66e1d20994654fefc585e5b15e6316",
    ("array_slot", "uniform_halfopen"): "7511f135f39475aeeb7386f6c1b1a25ab204baea2e9c6560d7976edd01b2d1ae",
    ("array_slot", "uniform_positive"): "b4d4d41a9a6a370a48dc6a1d09d24b7965d917e53484f821e6ed79de91514de6",
    ("array_slot", "gaussians"): "be32c1adcb982fc9ba6e33fa2ff89faf7d075f5d6b1777c726536db485b3d109",
    ("array_slot", "integers"): "166088bbc581d6f649dca7de4f4e3b0724eb38eb8342cceb48580b53d98193a7",
}


def _pin_draw(key: str, function: str):
    args = PIN_KEYS[key]
    if function == "integers":
        # an array `high` broadcasting with the key, as the oracle sweeps use
        return integers(*args, 0, 2 * np.asarray(args[1]) + 1)
    return getattr(rng, function)(*args)


@pytest.mark.parametrize("function", PIN_FUNCTIONS)
@pytest.mark.parametrize("key", list(PIN_KEYS))
def test_draws_pinned(key, function):
    out = np.asarray(_pin_draw(key, function))
    shape = np.broadcast_shapes(*(np.shape(a) for a in PIN_KEYS[key]))
    assert out.shape == shape
    assert out.dtype == {"counter_words": np.uint64, "integers": np.int64}.get(function, np.float64)
    assert hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest() == PINNED[key, function]


@pytest.mark.parametrize("function", PIN_FUNCTIONS)
@pytest.mark.parametrize("key", ["scalar", "zero_d", "big_seed"])
def test_scalar_keys_give_plain_numbers(key, function):
    value = _pin_draw(key, function)
    assert np.ndim(value) == 0
    assert math.isfinite(float(value))


@pytest.mark.parametrize("key", ["full", "array_slot"])
def test_draws_do_not_write_into_their_keys(key):
    before = [np.array(a, copy=True) for a in PIN_KEYS[key]]
    for function in PIN_FUNCTIONS:
        _pin_draw(key, function)
    assert all(np.array_equal(a, b) for a, b in zip(PIN_KEYS[key], before))


# signs skip the finalizer's closing z ^= z >> 31, which never changes bit 63
SIGN_KEYS = {
    "scalar": (21, 3, 17, 0),
    "big_seed": ((1 << 64) - 1, 0, 1 << 40, 2),
    "broadcast": (1901, np.arange(9, dtype=np.uint64)[:, None],
                  np.arange(130, dtype=np.uint64)[None, :], 1),
    "2^16 words": (7, 4, np.arange(1 << 16, dtype=np.uint64), 0),
}


@pytest.mark.parametrize("key", list(SIGN_KEYS))
def test_signs_are_the_top_bit_of_counter_words(key):
    args = SIGN_KEYS[key]
    want = np.where(rng.counter_words(*args) >> np.uint64(63), -1.0, 1.0)
    got = np.asarray(rng.signs(*args))
    assert got.shape == want.shape and got.dtype == np.float64
    assert got.tobytes() == want.tobytes()


# gaussians and the Pareto law finish their two slot words from one counter
# prefix; they must keep the bits of the one-slot-at-a-time expressions
TWO_SLOT_KEYS = {
    "scalar": (21, 3, 17, 0),
    "broadcast": (1901, np.arange(9, dtype=np.uint64)[:, None],
                  np.arange(130, dtype=np.uint64)[None, :], 0),
    "oracle_slots": (9, 4, np.arange(3)[:, None, None, None],
                     16 + 4 * np.arange(12, dtype=np.uint64).reshape(2, 3, 2)),
    "seed_2^63": ((1 << 63) + 12345, np.arange(4, dtype=np.uint64)[:, None],
                  np.arange(6, dtype=np.uint64)[None, :], 0),
    "seed_2^64-1": ((1 << 64) - 1, 0, 1 << 40, 2),
}


def _next_slot(slot):
    return np.asarray(slot, dtype=np.uint64) + np.uint64(1)


def _same_bits(got, want):
    assert np.ndim(got) == np.ndim(want) and np.shape(got) == np.shape(want)
    assert np.asarray(got).dtype == np.float64
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("key", list(TWO_SLOT_KEYS))
def test_gaussians_equal_one_slot_expression(key):
    seed, index, position, slot = TWO_SLOT_KEYS[key]
    radius = rng.uniform_positive(seed, index, position, slot)
    angle = rng.uniform_halfopen(seed, index, position, _next_slot(slot))
    want = np.sqrt(np.log(radius) * -2.0) * np.cos(angle * (2.0 * math.pi))
    _same_bits(rng.gaussians(seed, index, position, slot), want)


@pytest.mark.parametrize("key", list(TWO_SLOT_KEYS))
def test_pareto_equals_one_slot_expression(key):
    from matcon.models import PARETO

    seed, index, position, slot = TWO_SLOT_KEYS[key]
    sign = rng.signs(seed, index, position, _next_slot(slot))
    want = sign * rng.uniform_positive(seed, index, position, slot) ** -0.25
    _same_bits(rng.paretos(seed, index, position, slot), want)
    if np.ndim(slot) == 0 and slot == 0:
        _same_bits(PARETO.draw(seed, index, position), want)
