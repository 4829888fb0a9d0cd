"""Immutable bit sequences used as embedding payloads."""
from __future__ import annotations

import numpy as np


class BitSequence:
    """An ordered, immutable sequence of 0/1 values in one read-only uint8
    array, which np.asarray(seq) returns. np.array of the input must be 1-d
    with every value 0 or 1, else ValueError: [0.7], "1" and 2-d arrays are not bits."""

    __slots__ = ("_bits",)

    def __init__(self, bits=()):
        # an iterator is read into a list: np.array would hold it as one object
        array = np.array(list(bits) if hasattr(bits, "__next__") else bits)
        if array.ndim != 1 or not ((array == 0) | (array == 1)).all():
            raise ValueError("bits must be 0 or 1")
        self._bits = array.astype(np.uint8, copy=False)
        self._bits.flags.writeable = False

    def __array__(self, dtype=None, copy=None):
        return np.array(self._bits, dtype=dtype, copy=copy)

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple(self._bits.tolist())

    def __len__(self) -> int:
        return len(self._bits)

    def __iter__(self):
        return iter(self._bits.tolist())

    def __getitem__(self, index):
        # a slice is a tuple, as .bits is; an index reads the array in O(1)
        return self.bits[index] if isinstance(index, slice) else int(self._bits[index])

    def __eq__(self, other):
        if isinstance(other, BitSequence):
            return np.array_equal(self._bits, other._bits)
        return NotImplemented

    def __hash__(self):
        return hash(self.bits)

    def __repr__(self):
        head = "".join(map(str, self._bits[:64].tolist()))
        if len(self._bits) > 64:
            head += "..."
        return f"BitSequence({len(self._bits)}: {head})"

    def complement(self) -> "BitSequence":
        return BitSequence(1 - self._bits)

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
        return np.packbits(self._bits).tobytes()

    @classmethod
    def random(cls, length: int, rng) -> "BitSequence":
        """Draw `length` bits from rng, any object with randbelow_many(bounds),
        in one call: a seeded RandomSource reads one word per bit."""
        return cls(rng.randbelow_many(np.full(length, 2)))
