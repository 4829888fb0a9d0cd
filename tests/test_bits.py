import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from scalar_reference import pack_bits, unpack_bits
from stlstego import BitSequence, RandomSource


def test_msb_first_unpacking():
    assert BitSequence.from_bytes(b"\x80").bits == (1, 0, 0, 0, 0, 0, 0, 0)
    assert BitSequence.from_bytes(b"\x01").bits == (0, 0, 0, 0, 0, 0, 0, 1)
    assert BitSequence.from_bytes(b"\xa5", length=4).bits == (1, 0, 1, 0)


def test_length_pads_with_zeros():
    assert BitSequence.from_bytes(b"\xff", length=10).bits == (1,) * 8 + (0, 0)


def test_negative_length_rejected():
    with pytest.raises(ValueError):
        BitSequence.from_bytes(b"\xca\xfe", -3)


def test_to_bytes_pads_final_byte():
    assert BitSequence((1, 0, 1)).to_bytes() == b"\xa0"
    assert BitSequence(()).to_bytes() == b""


def test_rejects_non_bits():
    with pytest.raises(ValueError):
        BitSequence((0, 2, 1))


def test_complement():
    assert BitSequence((1, 0, 1)).complement() == BitSequence((0, 1, 0))


def test_random_is_seed_deterministic():
    a = BitSequence.random(64, RandomSource.seeded(5))
    b = BitSequence.random(64, RandomSource.seeded(5))
    assert a == b
    assert len(a) == 64


@given(st.binary(max_size=64))
def test_byte_round_trip(data):
    assert BitSequence.from_bytes(data).to_bytes() == data


@given(st.lists(st.integers(min_value=0, max_value=1), max_size=80))
def test_bit_round_trip_through_bytes(bits):
    seq = BitSequence(bits)
    assert BitSequence.from_bytes(seq.to_bytes(), length=len(seq)) == seq


@given(st.binary(max_size=40), st.one_of(st.none(), st.integers(min_value=0, max_value=400)))
def test_unpacking_matches_the_byte_loop(data, length):
    # lengths below, at and past 8 * len(data): truncation and zero padding
    assert BitSequence.from_bytes(data, length).bits == tuple(unpack_bits(data, length))


@given(st.lists(st.integers(min_value=0, max_value=1), max_size=90))
def test_packing_matches_the_byte_loop(bits):
    # any length, so the last byte is often partial
    assert BitSequence(bits).to_bytes() == pack_bits(bits)


def test_uint8_arrays_hold_plain_ints_and_are_checked():
    seq = BitSequence(np.array([1, 0, 1], dtype=np.uint8))
    assert seq.bits == (1, 0, 1) and all(type(b) is int for b in seq.bits)
    assert seq == BitSequence([1, 0, 1])
    assert BitSequence(np.zeros(0, dtype=np.uint8)).bits == ()
    with pytest.raises(ValueError):
        BitSequence(np.array([0, 2], dtype=np.uint8))



def test_the_constructor_takes_any_list_or_array_of_0_and_1_in_one_dimension():
    not_bits = [[0.7], [1.9], "1", np.zeros((2, 2), dtype=np.uint8), np.array([2], dtype=np.uint8)]
    for bits in not_bits:
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            BitSequence(bits)
    for kind in (bool, int, float):
        values = [kind(b) for b in (1, 0, 1, 1)]
        for bits in (values, np.array(values)):
            seq = BitSequence(bits)
            assert seq.bits == (1, 0, 1, 1) and all(type(b) is int for b in seq.bits)
            array = np.asarray(seq)
            assert array.dtype == np.uint8 and not array.flags.writeable
    from_array = BitSequence(np.array([1, 0, 1], dtype=np.uint8))
    assert from_array == BitSequence((1, 0, 1))
    assert hash(from_array) == hash(BitSequence((1, 0, 1)))
