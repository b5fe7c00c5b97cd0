"""Tests for Internet checksums and RFC 1624 incremental updates."""

from hypothesis import given
from hypothesis import strategies as st

from repro.net.checksum import (
    checksum,
    combine,
    finalize,
    ones_add,
    ones_sum,
    swap16,
    update_checksum,
    verify,
)


def test_known_rfc1071_example():
    # RFC 1071 example words: 0x0001, 0xf203, 0xf4f5, 0xf6f7 -> sum 0xddf2
    data = bytes.fromhex("0001f203f4f5f6f7")
    assert ones_sum(data) == 0xDDF2
    assert checksum(data) == (~0xDDF2) & 0xFFFF


def test_checksum_verifies():
    data = b"The quick brown fox jumps over the lazy dog"
    assert verify(data, checksum(data))
    assert not verify(data, checksum(data) ^ 1)


def test_odd_length_padding():
    assert ones_sum(b"\xab") == 0xAB00
    assert verify(b"\xab", checksum(b"\xab"))


def test_ones_add_carry():
    assert ones_add(0xFFFF, 0x0001) == 0x0001
    assert ones_add(0x8000, 0x8000) == 0x0001


def test_swap16():
    assert swap16(0x1234) == 0x3412
    assert swap16(swap16(0xABCD)) == 0xABCD


@given(st.binary(max_size=100), st.binary(max_size=100))
def test_combine_even_boundary(a, b):
    if len(a) % 2:
        a += b"\x00"
    assert combine(ones_sum(a), len(a), ones_sum(b)) == ones_sum(a + b)


@given(st.binary(max_size=101), st.binary(max_size=100))
def test_combine_any_boundary(a, b):
    assert combine(ones_sum(a), len(a), ones_sum(b)) == ones_sum(a + b)


@given(st.binary(min_size=8, max_size=256), st.integers(0, 200), st.binary(min_size=1, max_size=16))
def test_incremental_update_matches_recompute(data, offset, replacement):
    """Replacing a span and adjusting incrementally == full recompute."""
    offset = offset % max(1, len(data) - len(replacement) + 1)
    if offset + len(replacement) > len(data):
        replacement = replacement[: len(data) - offset]
    if not replacement:
        return
    old_span = data[offset : offset + len(replacement)]
    new_data = data[:offset] + replacement + data[offset + len(replacement):]
    old_cksum = checksum(data)
    updated = update_checksum(
        old_cksum, old_span, replacement, odd_offset=bool(offset % 2)
    )
    assert updated == checksum(new_data)


def test_incremental_update_rejects_length_mismatch():
    import pytest

    with pytest.raises(ValueError):
        update_checksum(0, b"ab", b"abc")


def test_finalize_folds_large_totals():
    # 0x1FFFE folds to 0xFFFF, complements to 0, which is canonicalized to
    # 0xFFFF (the UDP convention: never transmit 0).
    assert finalize(0x1FFFE) == 0xFFFF
    assert finalize(0x0001) == 0xFFFE


def test_checksum_never_zero():
    assert checksum(b"\x00" * 8) == 0xFFFF
    assert verify(b"\x00" * 8, 0xFFFF)


def _reference_ones_sum(data: bytes) -> int:
    """RFC 1071 section 4.1: add 16-bit words, then fold the carries."""
    if len(data) % 2:
        data = data + b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return total


def test_ones_sum_matches_word_loop_reference():
    import random

    rng = random.Random(1071)
    lengths = list(range(71)) + [rng.randrange(71, 3001) for _ in range(60)]
    for length in lengths:
        for data in (
            rng.randbytes(length),
            b"\x00" * length,  # sums to 0
            b"\xff" * length,  # sums to 0xFFFF, never 0
        ):
            assert ones_sum(data) == _reference_ones_sum(data), (length, data[:8])
