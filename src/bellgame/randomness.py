"""Deterministic seed derivation and labeled byte streams.

Per-run seeds come from the splitmix64 output sequence; all working bytes of
a run (tapes, randomness slices, referee draws) come from blake2b in counter
mode, keyed by the run seed and separated by short labels. Identical seeds
and labels produce identical bytes on every platform.

Block ``i`` of a stream is ``blake2b(label || i, key=seed)``, 64 bytes. A
stream read once from its start, up to 64 bytes, is therefore a prefix of
its first block: ``stream_bytes`` computes that one digest and nothing
else, and hands longer reads to ``ByteStream``. Every stream of a run in
the default configuration (tapes of 64 bytes, four 16-byte slices per wing,
the two setting bytes) is such a read.
"""

from __future__ import annotations

import hashlib

__all__ = ["MASK64", "mix64", "derive_run_seed", "ByteStream", "stream_bytes"]

MASK64 = (1 << 64) - 1

BLOCK_BYTES = 64
_FIRST_BLOCK = (0).to_bytes(8, "little")  # the counter of block 0

_GOLDEN = 0x9E3779B97F4A7C15


def mix64(x: int) -> int:
    """The splitmix64 finalizer: a strong 64-bit mixing function."""
    z = x & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def derive_run_seed(master_seed: int, run_index: int) -> int:
    """Seed for one run: the (run_index+1)-th output of the splitmix64
    sequence started at ``master_seed``."""
    return mix64((master_seed + (run_index + 1) * _GOLDEN) & MASK64)


class ByteStream:
    """An endless deterministic stream of bytes for one (seed, label) pair.

    Blocks are ``blake2b(label || counter, key=seed)``; reads never depend on
    anything but the seed, the label, and how many bytes were read before.
    """

    __slots__ = ("_key", "_label", "_counter", "_block", "_pos")

    def __init__(self, seed: int, label: bytes):
        self._key = (seed & MASK64).to_bytes(8, "little")
        self._label = bytes(label)
        self._counter = 0
        self._block = b""
        self._pos = 0

    def _refill(self) -> None:
        self._block = hashlib.blake2b(
            self._label + self._counter.to_bytes(8, "little"),
            key=self._key,
            digest_size=BLOCK_BYTES,
        ).digest()
        self._counter += 1
        self._pos = 0

    def take(self, n: int) -> bytes:
        """The next ``n`` bytes of the stream."""
        if n < 0:
            raise ValueError("cannot take a negative number of bytes")
        pos, block = self._pos, self._block
        if pos + n <= len(block):
            self._pos = pos + n
            return block[pos : pos + n]
        parts = [block[pos:]]
        need = n - len(parts[0])
        while need > 0:
            self._refill()
            chunk = self._block[:need] if need < BLOCK_BYTES else self._block
            parts.append(chunk)
            self._pos = len(chunk)
            need -= len(chunk)
        return b"".join(parts)

    def u8(self) -> int:
        """The next byte as an integer in [0, 255]."""
        if self._pos >= len(self._block):
            self._refill()
        b = self._block[self._pos]
        self._pos += 1
        return b


def stream_bytes(seed: int, label: bytes, n: int) -> bytes:
    """The first ``n`` bytes of ``ByteStream(seed, label)``: one blake2b
    digest when ``n`` is at most one block, the stream itself beyond that."""
    if 0 <= n <= BLOCK_BYTES:
        return hashlib.blake2b(
            label + _FIRST_BLOCK,
            key=(seed & MASK64).to_bytes(8, "little"),
            digest_size=BLOCK_BYTES,
        ).digest()[:n]
    return ByteStream(seed, label).take(n)
