"""Seed derivation and byte streams must be stable forever."""

import hashlib
import re

import pytest
from hypothesis import example, given, settings as hsettings, strategies as st

from bellgame import randomness
from bellgame.core import ALL_SETTING_PAIRS
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


def test_take_zero_and_negative():
    s = ByteStream(5, b"x")
    assert s.take(0) == b""
    with pytest.raises(ValueError):
        s.take(-1)


@pytest.mark.parametrize(
    "n, message",
    [(True, "n must be an integer, got True"), (1.5, "n must be an integer, got 1.5"), (-1, "n must be >= 0, got -1")],
)
def test_take_counts_by_the_integer_rule(n, message):
    # a bool is no count, and a float raises the rule's ValueError, not a TypeError
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ByteStream(5, b"x").take(n)


# seeds beyond 64 bits and negative ones are masked, as ByteStream masks them
_SEEDS = st.integers(min_value=-(2**65), max_value=2**65)


@hsettings(max_examples=300, deadline=None)
@given(seed=_SEEDS, label=st.binary(max_size=24), n=st.integers(min_value=0, max_value=1100))
@example(seed=1, label=b"tape/shared", n=64)  # exactly one block
@example(seed=1, label=b"tape/shared", n=65)  # the first byte of block 1
@example(seed=1, label=b"slices/L", n=128)  # exactly two blocks
@example(seed=1, label=b"tape/shared", n=256)  # the long-exchange tape
@example(seed=1, label=b"slices/L", n=512)  # the long-exchange slices
@example(seed=1, label=b"slices/R", n=1000)  # ends mid-block
@example(seed=0, label=b"", n=0)
def test_stream_bytes_is_the_stream_prefix(seed, label, n):
    assert stream_bytes(seed, label, n) == ByteStream(seed, label).take(n)


@pytest.mark.parametrize("n", [-1, -64, -65])
def test_stream_bytes_rejects_negative_counts(n):
    with pytest.raises(ValueError):
        stream_bytes(5, b"x", n)


@pytest.mark.parametrize("n", [65, 100, 128, 256, 512, 1000])
def test_stream_bytes_copies_one_keyed_state_per_block(monkeypatch, n):
    # a read past block 0 builds one keyed state that nothing has been fed,
    # and digests one copy of it per block, fed the label and the counter
    real = randomness.blake2b
    expected = ByteStream(7, b"slices/L").take(n)
    built, copied, fed = [], [], []

    class Keyed:
        def __init__(self, state):
            self._state = state

        def copy(self):
            copied.append(self)
            return Keyed(self._state.copy())

        def update(self, data):
            fed.append(data)
            self._state.update(data)

        def digest(self):
            return self._state.digest()

    def recording(data=None, *, key, **kwargs):
        assert data is None, "a read past block 0 made a direct digest"
        built.append(key)
        return Keyed(real(key=key, **kwargs))

    monkeypatch.setattr(randomness, "blake2b", recording)
    assert stream_bytes(7, b"slices/L", n) == expected
    blocks = -(-n // 64)
    assert built == [(7).to_bytes(8, "little")]
    assert len(copied) == blocks and len(set(map(id, copied))) == 1
    assert fed == [b"slices/L" + i.to_bytes(8, "little") for i in range(blocks)]


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


@hsettings(max_examples=300, deadline=None)
@given(seed=_SEEDS)
@example(seed=156)
@example(seed=158)
@example(seed=101802)
def test_settings_are_the_shared_pairs(seed):
    # both paths hand out the members of ALL_SETTING_PAIRS themselves, the
    # redraw after a 255 included
    pair = draw_settings(ByteStream(seed, b"settings"))
    assert pair is ALL_SETTING_PAIRS[3 * pair.left + pair.right - 4]
    assert run_settings(seed) is pair


def test_blake2b_is_hashlib_blake2b():
    # randomness takes blake2b from _blake2 so that importing it starts no
    # OpenSSL; the bytes are the same only while the function is the same
    _blake2 = pytest.importorskip("_blake2")
    assert randomness.blake2b is _blake2.blake2b is hashlib.blake2b
