import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsgames.bits import BitString, _unchecked, parity

bounded = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def bitstrings(draw, width=None):
    width = draw(st.integers(1, 80)) if width is None else width
    return BitString(draw(st.integers(0, (1 << width) - 1)), width)


def same(got, want: BitString) -> None:
    """got is the BitString the checked constructor builds for want."""
    assert type(got) is BitString
    assert (got.value, got.width) == (want.value, want.width)
    assert got == want and hash(got) == hash(want)


def test_xor_example():
    assert (BitString(0b1010, 4) ^ BitString(0b0110, 4)).value == 0b1100


def test_xor_width_mismatch():
    with pytest.raises(ValueError):
        BitString(1, 4) ^ BitString(1, 5)


def test_value_must_fit():
    with pytest.raises(ValueError):
        BitString(16, 4)
    with pytest.raises(ValueError):
        BitString(0, 0)


def test_hex_roundtrip_msb_first():
    b = BitString(0xAB, 8)
    assert b.to_hex() == "ab"
    assert BitString.from_hex("ab", 8) == b
    # widths that are not nibble multiples pad to whole nibbles
    assert BitString(0b101, 3).to_hex() == "5"
    assert BitString(0b10110, 5).to_hex() == "16"


def test_bit_indexing_is_msb_first():
    b = BitString(0b1000, 4)
    assert b.bit(0) == 1
    assert [b.bit(i) for i in range(4)] == [1, 0, 0, 0]
    for i in (4, -1):
        with pytest.raises(IndexError):
            b.bit(i)


def test_concat_split_take_drop():
    a, b = BitString(0b101, 3), BitString(0b01, 2)
    c = a.concat(b)
    assert c == BitString(0b10101, 5)
    assert c.split(3) == (a, b)
    assert c.take(3) == a
    assert c.drop(3) == b


def test_take_drop_split_reject_widths_out_of_range():
    # take keeps 1..width bits, drop removes 0..width-1, and split needs both
    c = BitString(0b10101, 5)
    for n in (0, 6, -1):
        with pytest.raises(ValueError, match="take width out of range"):
            c.take(n)
    for n in (5, 6, -1):
        with pytest.raises(ValueError, match="drop width out of range"):
            c.drop(n)
    for n in (0, 5, 6, -1):
        with pytest.raises(ValueError, match="width out of range"):
            c.split(n)


def test_invert():
    b = BitString(0b0110, 4)
    assert (~b).value == 0b1001


def test_parity():
    assert parity(0b1011) == 1
    assert parity(0) == 0


@bounded
@given(st.data(), bitstrings(), bitstrings())
def test_algebra_equals_checked_constructor(data, a, other):
    w, v = a.width, a.value
    b = data.draw(bitstrings(w))
    same(a ^ b, BitString(v ^ b.value, w))
    same(~a, BitString(v ^ ((1 << w) - 1), w))
    same(~~a, a)
    joined = a.concat(other)
    same(joined, BitString((v << other.width) | other.value, w + other.width))
    left, right = joined.split(w)
    same(left, a)
    same(right, other)
    n = data.draw(st.integers(1, w))
    same(a.take(n), BitString(v >> (w - n), n))
    k = data.draw(st.integers(0, w - 1))
    same(a.drop(k), BitString(v & ((1 << (w - k)) - 1), w - k))
    same(BitString.from_hex(a.to_hex(), w), a)


@bounded
@given(st.integers(-3, 0), st.integers(1, 80), st.integers(1, 1 << 90))
def test_constructor_rejects_bad_width_and_range(bad_width, width, excess):
    with pytest.raises(ValueError):
        BitString(0, bad_width)
    with pytest.raises(ValueError):
        BitString.zeros(bad_width)
    with pytest.raises(ValueError):
        BitString(-excess, width)
    with pytest.raises(ValueError):
        BitString((1 << width) - 1 + excess, width)
    with pytest.raises(ValueError):
        BitString.from_hex(format((1 << width) - 1 + excess, "x"), width)


@bounded
@given(st.data(), bitstrings(), bitstrings())
def test_xor_inverts_and_split_agrees_with_take_drop(data, a, other):
    w = a.width
    b = data.draw(bitstrings(w))
    assert (a ^ b) ^ b == a
    same(a ^ a, BitString.zeros(w))
    if other.width != w:
        with pytest.raises(ValueError, match="xor width mismatch"):
            a ^ other
    joined = a.concat(other)
    assert joined.split(w) == (joined.take(w), joined.drop(w)) == (a, other)
    if w > 1:
        n = data.draw(st.integers(1, w - 1))
        left, right = a.split(n)
        assert (left, right) == (a.take(n), a.drop(n))
        same(left.concat(right), a)
    same(BitString.from_hex(a.to_hex(), w), a)
    same(_unchecked(a.value, w), a)
