"""Immutable bit sequences used as embedding payloads."""
from __future__ import annotations

import numpy as np


class BitSequence:
    """An ordered, immutable sequence of 0/1 values."""

    __slots__ = ("_bits",)

    def __init__(self, bits=()):
        if isinstance(bits, np.ndarray) and bits.dtype == np.uint8 and bits.ndim == 1:
            if bits.size and bits.max() > 1:
                raise ValueError("bits must be 0 or 1")
            self._bits = tuple(bits.tolist())
            return
        data = tuple(int(b) for b in bits)
        if any(b not in (0, 1) for b in data):
            raise ValueError("bits must be 0 or 1")
        self._bits = data

    @property
    def bits(self) -> tuple[int, ...]:
        return self._bits

    def __len__(self) -> int:
        return len(self._bits)

    def __iter__(self):
        return iter(self._bits)

    def __getitem__(self, index):
        return self._bits[index]

    def __eq__(self, other):
        if isinstance(other, BitSequence):
            return self._bits == other._bits
        return NotImplemented

    def __hash__(self):
        return hash(self._bits)

    def __repr__(self):
        head = "".join(map(str, self._bits[:64]))
        if len(self._bits) > 64:
            head += "..."
        return f"BitSequence({len(self._bits)}: {head})"

    def complement(self) -> "BitSequence":
        return BitSequence(1 - b for b in self._bits)

    @classmethod
    def from_bytes(cls, data: bytes, length: int | None = None) -> "BitSequence":
        """Unpack bytes MSB-first.

        With an explicit length the result is truncated to that many bits,
        or zero-padded when the bytes run short.
        """
        if length is not None and length < 0:
            raise ValueError(f"length must be >= 0, got {length}")
        bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
        if length is not None:  # unpackbits's own count pads empty input with garbage
            bits = np.pad(bits[:length], (0, max(length - len(bits), 0)))
        return cls(bits)

    def to_bytes(self) -> bytes:
        """Pack MSB-first, zero-padding the final partial byte."""
        return np.packbits(np.array(self._bits, dtype=np.uint8)).tobytes()

    @classmethod
    def random(cls, length: int, rng) -> "BitSequence":
        """Draw `length` bits from rng, any object with randbelow_many(bounds),
        in one call: a seeded RandomSource reads one word per bit."""
        return cls(rng.randbelow_many(np.full(length, 2)).astype(np.uint8))
