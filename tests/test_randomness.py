"""Seed derivation and byte streams must be stable forever."""

import pytest
from hypothesis import example, given, settings as hsettings, strategies as st

from bellgame.protocol import draw_settings, run_settings
from bellgame.randomness import ByteStream, derive_run_seed, mix64, stream_bytes

# Reference outputs of the splitmix64 sequence started at 0, as published
# with the original algorithm. derive_run_seed(0, i) is the (i+1)-th output.
SPLITMIX64_SEED0 = (
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
)


def test_splitmix64_known_answers():
    for i, expected in enumerate(SPLITMIX64_SEED0):
        assert derive_run_seed(0, i) == expected


def test_mix64_stays_in_64_bits():
    for x in (0, 1, 2**63, 2**64 - 1, 2**64 + 5, -1):
        assert 0 <= mix64(x) < 2**64


def test_run_seeds_distinct():
    seeds = {derive_run_seed(7, i) for i in range(10_000)}
    assert len(seeds) == 10_000


def test_run_seeds_deterministic():
    assert derive_run_seed(123, 456) == derive_run_seed(123, 456)
    assert derive_run_seed(123, 456) != derive_run_seed(123, 457)
    assert derive_run_seed(123, 456) != derive_run_seed(124, 456)


def test_stream_reproducible():
    a = ByteStream(99, b"label").take(200)
    b = ByteStream(99, b"label").take(200)
    assert a == b
    assert len(a) == 200


def test_stream_label_separation():
    assert ByteStream(99, b"one").take(32) != ByteStream(99, b"two").take(32)
    assert ByteStream(98, b"one").take(32) != ByteStream(99, b"one").take(32)


def test_take_is_prefix_stable():
    # reading 30 then 40 bytes equals reading 70 at once (crosses a block)
    s = ByteStream(5, b"x")
    combined = s.take(30) + s.take(40)
    assert combined == ByteStream(5, b"x").take(70)


def test_u8_matches_take():
    s = ByteStream(5, b"x")
    from_u8 = bytes(s.u8() for _ in range(130))
    assert from_u8 == ByteStream(5, b"x").take(130)


def test_take_zero_and_negative():
    s = ByteStream(5, b"x")
    assert s.take(0) == b""
    with pytest.raises(ValueError):
        s.take(-1)


# seeds beyond 64 bits and negative ones are masked, as ByteStream masks them
_SEEDS = st.integers(min_value=-(2**65), max_value=2**65)


@hsettings(max_examples=300, deadline=None)
@given(seed=_SEEDS, label=st.binary(max_size=24), n=st.integers(min_value=0, max_value=300))
@example(seed=1, label=b"tape/shared", n=64)  # exactly one block
@example(seed=1, label=b"tape/shared", n=65)  # the first byte of block 1
@example(seed=1, label=b"slices/L", n=128)  # exactly two blocks
@example(seed=0, label=b"", n=0)
def test_stream_bytes_is_the_stream_prefix(seed, label, n):
    assert stream_bytes(seed, label, n) == ByteStream(seed, label).take(n)


def test_stream_bytes_rejects_negative_counts():
    with pytest.raises(ValueError):
        stream_bytes(5, b"x", -1)


@hsettings(max_examples=300, deadline=None)
@given(seed=_SEEDS)
def test_run_settings_match_draw_settings(seed):
    assert run_settings(seed) == draw_settings(ByteStream(seed, b"settings"))


# Seeds whose settings stream starts with a rejected 255 byte: in the first
# position, the second, and both.
@pytest.mark.parametrize("seed, head", [(156, 0), (158, 1), (101802, None)])
def test_run_settings_rejected_byte(seed, head):
    first_two = ByteStream(seed, b"settings").take(2)
    if head is None:
        assert first_two == b"\xff\xff"
    else:
        assert first_two[head] == 255 and first_two[1 - head] != 255
    assert run_settings(seed) == draw_settings(ByteStream(seed, b"settings"))
