"""Bulk seeding of NumPy's default generator.

``np.random.default_rng(e)`` hashes the integer entropy ``e`` through a
:class:`numpy.random.SeedSequence` (pool size 4) and seeds a
:class:`numpy.random.PCG64` from the hash.  Building one generator that way
costs ~17 µs, most of it interpreter work around a few dozen 32-bit
multiplies, which dominates any caller that draws a handful of values per
seed.  :func:`pcg64_states` runs the same hash for a whole block of
entropies in ``uint32`` array arithmetic, then PCG64's two 128-bit seeding
steps, and returns the ``(state, inc)`` pairs ``default_rng(e)`` starts
from.  Setting one reused ``Generator(PCG64)`` to each pair reproduces
``default_rng(e)``'s draws bit for bit.

NumPy documents the SeedSequence algorithm but does not promise it, so every
call checks its first result against ``np.random.PCG64(e).state`` and raises
on a mismatch rather than hand back different streams.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
import numpy.typing as npt

#: SeedSequence hashing constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_POOL_SIZE = 4

#: PCG64's default 128-bit LCG multiplier.
PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1

#: Largest entropy the pool-size-4 hash absorbs in one pass (four words).
ENTROPY_LIMIT = 1 << 128

_U32 = npt.NDArray[np.uint32]


def check_entropy(entropy: int) -> None:
    """Raise ``ValueError`` unless ``entropy`` is in ``[0, 2**128)``."""
    if not 0 <= entropy < ENTROPY_LIMIT:
        raise ValueError(f"entropy must be in [0, 2**128), got {entropy}")


def _hash_consts(init: int, mult: int, n: int) -> list[int]:
    """The running multiplier ``init * mult**k`` (mod 2**32), k = 1..n."""
    consts: list[int] = []
    value = init
    for _ in range(n):
        value = (value * mult) & _MASK32
        consts.append(value)
    return consts


def _hashmix(value: _U32, xor_const: int, mul_const: int) -> _U32:
    mixed: _U32 = (value ^ np.uint32(xor_const)) * np.uint32(mul_const)
    mixed ^= mixed >> np.uint32(_XSHIFT)
    return mixed


def _mix(x: _U32, y: _U32) -> _U32:
    result: _U32 = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    result ^= result >> np.uint32(_XSHIFT)
    return result


def _pool(words: list[_U32]) -> list[_U32]:
    """``SeedSequence.mix_entropy`` over four zero-padded entropy words.

    NumPy hashes a missing word exactly like a zero word, so every entropy
    below 2**128 follows the one fixed schedule of 4 + 12 hashmix calls.
    """
    n_calls = _POOL_SIZE + _POOL_SIZE * (_POOL_SIZE - 1)
    consts = _hash_consts(_INIT_A, _MULT_A, n_calls)
    xor_consts = [_INIT_A, *consts[:-1]]
    call = 0
    pool: list[_U32] = []
    for word in words:
        pool.append(_hashmix(word, xor_consts[call], consts[call]))
        call += 1
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                hashed = _hashmix(pool[i_src], xor_consts[call], consts[call])
                pool[i_dst] = _mix(pool[i_dst], hashed)
                call += 1
    return pool


def _generate_state(pool: list[_U32]) -> npt.NDArray[np.uint64]:
    """``SeedSequence.generate_state(4, np.uint64)``, one row per entropy."""
    consts = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
    xor_consts = [_INIT_B, *consts[:-1]]
    words = np.stack(
        [
            _hashmix(pool[i % _POOL_SIZE], xor_consts[i], consts[i])
            for i in range(2 * _POOL_SIZE)
        ],
        axis=1,
    )
    # NumPy pairs the 32-bit words little-endian, whatever the host order.
    state: npt.NDArray[np.uint64] = words.astype("<u4", copy=False).view("<u8")
    return state


def pcg64_states(entropies: Sequence[int]) -> list[tuple[int, int]]:
    """``(state, inc)`` of ``np.random.default_rng(e)`` for each entropy.

    Each pair equals ``np.random.PCG64(e).state["state"]``'s ``state`` and
    ``inc``.  Entropies must lie in ``[0, 2**128)``; anything else raises
    ``ValueError``.  Raises ``RuntimeError`` when the first pair disagrees
    with NumPy, i.e. when the installed NumPy seeds differently.
    """
    ints = [int(e) for e in entropies]
    for entropy in (min(ints, default=0), max(ints, default=0)):
        check_entropy(entropy)
    halves = np.stack(
        [
            np.fromiter((e & _MASK64 for e in ints), dtype=np.uint64, count=len(ints)),
            np.fromiter((e >> 64 for e in ints), dtype=np.uint64, count=len(ints)),
        ],
        axis=1,
    )
    words = halves.astype("<u8", copy=False).view("<u4")
    seeds = _generate_state(_pool([words[:, i] for i in range(_POOL_SIZE)]))
    states: list[tuple[int, int]] = []
    for s_hi, s_lo, i_hi, i_lo in seeds.tolist():
        # PCG64 seeding: inc = 2 * seq + 1, then two LCG steps from 0 with
        # the seed added in between.
        inc = ((((i_hi << 64) | i_lo) << 1) | 1) & _MASK128
        state = ((inc + ((s_hi << 64) | s_lo)) * PCG64_MULTIPLIER + inc) & _MASK128
        states.append((state, inc))
    if ints:
        expected = np.random.PCG64(ints[0]).state["state"]
        if states[0] != (expected["state"], expected["inc"]):
            raise RuntimeError(
                "this NumPy seeds PCG64 differently from "
                "repro.algorithms.rng; the bulk draws would not match "
                "np.random.default_rng"
            )
    return states
