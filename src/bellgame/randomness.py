"""Deterministic seed derivation and labeled byte streams.

Per-run seeds come from the splitmix64 output sequence; all working bytes of
a run (tapes, randomness slices, referee draws) come from blake2b in counter
mode, keyed by the run seed and separated by short labels. Identical seeds
and labels produce identical bytes on every platform.

Block ``i`` of a stream is ``blake2b(label || i, key=seed)``, 64 bytes,
where the key is the seed's 8 little-endian bytes. ``stream_bytes`` reads
a stream's first ``n`` bytes: up to 64 are one digest of block 0; a longer
read copies one keyed state, that nothing has been fed, once per block,
feeds each copy ``label || i`` and joins the digests. Every stream of a run
in the default configuration (tapes of 64 bytes, four 16-byte slices per
wing, the two setting bytes) is a one-digest read.

The run loop makes one keyed blake2b state per run: the settings
(``protocol``) are read from a digest of their first block on a copy of it,
and the oracle's two bytes (``quantum``) from a digest of theirs on the state
itself. Tapes and slices of any length go through ``stream_bytes``.
``ByteStream`` reads a stream in pieces; the package builds one only for the
redraw after a rejected 255 setting byte (``draw_settings`` in
``protocol._keyed_settings``), and ``sample_quantum_run`` takes one from its
direct callers.

``blake2b`` comes from the ``_blake2`` module, whose function is the very
object ``hashlib.blake2b`` is; importing ``hashlib`` would also start
OpenSSL, which costs more than the rest of this module's import.
"""

from __future__ import annotations

try:
    from _blake2 import blake2b  # the very object hashlib.blake2b is
except ImportError:  # an interpreter built without the _blake2 module
    from hashlib import blake2b

__all__ = ["mix64", "derive_run_seed", "ByteStream"]

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

    def take(self, n: int) -> bytes:
        """The next ``n`` bytes of the stream, read one ``u8`` at a time: the
        reference reader that ``stream_bytes`` is tested against."""
        if n < 0:
            raise ValueError("cannot take a negative number of bytes")
        return bytes([self.u8() for _ in range(n)])

    def u8(self) -> int:
        """The next byte as an integer in [0, 255]."""
        if self._pos >= len(self._block):
            message = self._label + self._counter.to_bytes(8, "little")
            self._block = blake2b(message, key=self._key, digest_size=BLOCK_BYTES).digest()
            self._counter += 1
            self._pos = 0
        b = self._block[self._pos]
        self._pos += 1
        return b


def stream_bytes(seed: int, label: bytes, n: int) -> bytes:
    """The first ``n`` bytes of ``ByteStream(seed, label)``: one blake2b
    digest when ``n`` is at most one block; beyond that, one digest per block
    on a copy of one keyed state, fed the block's ``label || counter``."""
    key = (seed & MASK64).to_bytes(8, "little")
    if 0 <= n <= BLOCK_BYTES:
        return blake2b(label + _FIRST_BLOCK, key=key, digest_size=BLOCK_BYTES).digest()[:n]
    if n < 0:
        raise ValueError("cannot take a negative number of bytes")
    keyed = blake2b(key=key, digest_size=BLOCK_BYTES)
    blocks = []
    for counter in range(-(-n // BLOCK_BYTES)):
        block = keyed.copy()
        block.update(label + counter.to_bytes(8, "little"))
        blocks.append(block.digest())
    return b"".join(blocks)[:n]
