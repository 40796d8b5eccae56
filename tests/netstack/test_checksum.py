"""Tests for the internet checksum."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netstack.checksum import internet_checksum, ones_complement_sum, pseudo_header


def test_known_rfc1071_example():
    # The classic example from RFC 1071 §3.
    data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
    assert ones_complement_sum(data) == 0xDDF2
    assert internet_checksum(data) == 0x220D


def test_empty_data_checksum():
    assert internet_checksum(b"") == 0xFFFF


def test_odd_length_padding():
    # Odd-length input is padded with a zero byte.
    assert ones_complement_sum(b"\xab") == ones_complement_sum(b"\xab\x00")


def test_initial_chaining():
    first = ones_complement_sum(b"\x12\x34")
    chained = ones_complement_sum(b"\x56\x78", initial=first)
    assert chained == ones_complement_sum(b"\x12\x34\x56\x78")


def test_checksum_of_zeroed_field_verifies():
    """Inserting the checksum into the data makes the total sum 0xFFFF."""
    data = bytearray(b"\x45\x00\x00\x1c\x00\x01\x00\x00\x40\x06\x00\x00" + b"\x0a" * 8)
    checksum = internet_checksum(bytes(data))
    data[10:12] = struct.pack("!H", checksum)
    assert ones_complement_sum(bytes(data)) == 0xFFFF


def test_pseudo_header_layout():
    pseudo = pseudo_header(0x0A000001, 0x0A000002, 6, 20)
    assert len(pseudo) == 12
    assert pseudo[8] == 0  # zero byte
    assert pseudo[9] == 6  # protocol
    assert pseudo[10:12] == b"\x00\x14"


@given(st.binary(max_size=256))
def test_checksum_in_range(data):
    value = internet_checksum(data)
    assert 0 <= value <= 0xFFFF


@given(st.binary(min_size=2, max_size=128).filter(lambda b: len(b) % 2 == 0))
def test_sum_word_order_independent(data):
    """Ones'-complement addition is commutative across 16-bit words."""
    words = [data[i : i + 2] for i in range(0, len(data), 2)]
    reordered = b"".join(reversed(words))
    assert ones_complement_sum(data) == ones_complement_sum(reordered)


def _rfc1071_sum(data: bytes, initial: int = 0) -> int:
    """The RFC 1071 word loop: add 16-bit words, fold the carries back."""
    if len(data) % 2:
        data += b"\x00"
    total = initial
    for (word,) in struct.iter_unpack("!H", data):
        total += word
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return total


_INITIALS = st.one_of(
    st.sampled_from([0, 1, 0xFFFF]), st.integers(min_value=0, max_value=0xFFFF)
)


@settings(max_examples=300, deadline=None)
@given(
    data=st.one_of(
        st.binary(max_size=2048),
        st.integers(min_value=0, max_value=64 * 1024).map(lambda n: b"\x00" * n),
        st.integers(min_value=0, max_value=64 * 1024).map(lambda n: b"\xff" * n),
        st.integers(min_value=0, max_value=64 * 1024).flatmap(
            lambda n: st.randoms(use_true_random=False).map(lambda rng: rng.randbytes(n))
        ),
    ),
    initial=_INITIALS,
)
def test_sum_matches_rfc1071_word_loop(data, initial):
    """The one-integer fold equals the word loop on every input: odd
    and even lengths up to 64 KiB, all-zero and all-0xFF buffers, and
    chained ``initial`` values."""
    assert ones_complement_sum(data, initial) == _rfc1071_sum(data, initial)
    assert internet_checksum(data, initial) == (~_rfc1071_sum(data, initial)) & 0xFFFF


@pytest.mark.parametrize("initial", [0, 1, 0xFFFF])
@pytest.mark.parametrize("length", [0, 1, 2, 3, 64 * 1024 - 1, 64 * 1024])
@pytest.mark.parametrize("fill", [b"\x00", b"\xff"])
def test_sum_matches_rfc1071_at_the_edges(fill, length, initial):
    data = fill * length
    assert ones_complement_sum(data, initial) == _rfc1071_sum(data, initial)
