"""Fixed-width bit strings.

A BitString is an immutable (value, width) pair.  Bit 0 is the most
significant bit; hex serialization is lowercase, most-significant bit
first, padded to a whole number of nibbles.

The public constructor checks the width and the range of the value.
Results derived here from values that passed those checks (xor,
inversion, concatenation, split, take, drop) fit by construction and
skip them.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class BitString:
    value: int
    width: int

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError("width must be positive")
        if not 0 <= self.value < (1 << self.width):
            raise ValueError(f"value {self.value} does not fit in {self.width} bits")

    def __xor__(self, other: "BitString") -> "BitString":
        if self.width != other.width:
            raise ValueError(f"xor width mismatch: {self.width} != {other.width}")
        return _unchecked(self.value ^ other.value, self.width)

    def __invert__(self) -> "BitString":
        return _unchecked(self.value ^ ((1 << self.width) - 1), self.width)

    def bit(self, i: int) -> int:
        """Bit at position i, counting from the most significant bit."""
        if not 0 <= i < self.width:
            raise IndexError(i)
        return (self.value >> (self.width - 1 - i)) & 1

    def concat(self, other: "BitString") -> "BitString":
        return _unchecked((self.value << other.width) | other.value, self.width + other.width)

    def split(self, left_width: int) -> tuple["BitString", "BitString"]:
        """Split into (first left_width bits, remainder); take and drop
        both accept left_width exactly when 0 < left_width < width."""
        return self.take(left_width), self.drop(left_width)

    def take(self, n: int) -> "BitString":
        """First n bits (most significant end)."""
        if not 0 < n <= self.width:
            raise ValueError("take width out of range")
        return _unchecked(self.value >> (self.width - n), n)

    def drop(self, n: int) -> "BitString":
        """All but the first n bits."""
        if not 0 <= n < self.width:
            raise ValueError("drop width out of range")
        w = self.width - n
        return _unchecked(self.value & ((1 << w) - 1), w)

    def to_hex(self) -> str:
        nibbles = (self.width + 3) // 4
        return format(self.value, f"0{nibbles}x")

    @classmethod
    def from_hex(cls, hexstr: str, width: int) -> "BitString":
        return cls(int(hexstr, 16), width)

    @classmethod
    def zeros(cls, width: int) -> "BitString":
        return cls(0, width)

    @classmethod
    def ones(cls, width: int) -> "BitString":
        return cls((1 << width) - 1, width)

    def __str__(self) -> str:
        return format(self.value, f"0{self.width}b")


_set_value = BitString.value.__set__
_set_width = BitString.width.__set__


def _unchecked(value: int, width: int) -> BitString:
    """BitString without the constructor's checks, for a value already
    known to fit in width > 0 bits (about half the constructor's cost)."""
    bs = object.__new__(BitString)
    _set_value(bs, value)
    _set_width(bs, width)
    return bs


def parity(x: int) -> int:
    return bin(x).count("1") & 1
