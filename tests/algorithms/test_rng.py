"""Bulk PCG64 seeding against NumPy's own ``default_rng`` construction."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import rng
from repro.algorithms.rng import ENTROPY_LIMIT, pcg64_states

#: Both sides of every 32-bit word boundary, where the entropy grows a word.
WORD_EDGES = sorted(
    {0, 1, ENTROPY_LIMIT - 1}
    | {(1 << bits) + delta for bits in (32, 64, 96) for delta in (-1, 0, 1)}
)

entropy_st = st.one_of(
    st.sampled_from(WORD_EDGES),
    st.integers(min_value=0, max_value=ENTROPY_LIMIT - 1),
    st.integers(min_value=0, max_value=(1 << 64) - 1),
)


def numpy_state(entropy: int) -> tuple[int, int]:
    state = np.random.PCG64(entropy).state["state"]
    return state["state"], state["inc"]


@settings(max_examples=200, deadline=None)
@given(st.lists(entropy_st, min_size=1, max_size=8))
def test_states_equal_numpy_pcg64(entropies):
    assert pcg64_states(entropies) == [numpy_state(e) for e in entropies]


def test_word_boundaries_in_one_block():
    assert pcg64_states(WORD_EDGES) == [numpy_state(e) for e in WORD_EDGES]


def test_reused_generator_reproduces_default_rng_draws():
    entropies = [7, 1 << 40, (1 << 100) + 3]
    bitgen = np.random.PCG64(0)
    generator = np.random.Generator(bitgen)
    for entropy, (state, inc) in zip(entropies, pcg64_states(entropies)):
        bitgen.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        expected = np.random.default_rng(entropy).normal(0.0, 0.03, 96)
        assert generator.normal(0.0, 0.03, 96).tobytes() == expected.tobytes()


def test_empty_block():
    assert pcg64_states([]) == []


@pytest.mark.parametrize("bad", [-1, ENTROPY_LIMIT, ENTROPY_LIMIT + 5])
def test_out_of_range_entropy_raises(bad):
    with pytest.raises(ValueError, match="2\\*\\*128"):
        pcg64_states([3, bad, 4])
    with pytest.raises(ValueError):
        rng.check_entropy(bad)


def test_numpy_mismatch_trips_the_guard(monkeypatch):
    monkeypatch.setattr(rng, "PCG64_MULTIPLIER", rng.PCG64_MULTIPLIER + 2)
    with pytest.raises(RuntimeError, match="seeds PCG64 differently"):
        pcg64_states([11, 12])
