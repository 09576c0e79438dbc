"""Classical ORAM blocks as GoldreichScheme ciphertexts, and back.

The classical tree stores each block as the int pair (body, r) of a
GoldreichScheme ciphertext.  as_ciphertext rebuilds the ciphertext, so a
test can decrypt a stored block with GoldreichScheme.dec, independently
of the ORAM's codec; as_pair turns a ciphertext into its stored form.
misseal plants a codec fault that only the debug checks see.
"""

from qsgames.bits import BitString
from qsgames.oram import SkesBlock
from qsgames.schemes import Ciphertext


def as_ciphertext(scheme, block) -> Ciphertext:
    body, r = block
    return Ciphertext(scheme.name, BitString(body, scheme.msg_bits), r=BitString(r, scheme.r_bits))


def as_pair(c: Ciphertext) -> tuple:
    return c.body.value, c.r.value


def misseal(monkeypatch) -> None:
    """Make SkesBlock seal under F_k(r ^ 1): a block's body is then no
    encryption of its message under its r, though body ^ pad still is."""

    def pair(block):
        if block.pad is None:
            block.pad = block.prf.eval(BitString(block.r ^ 1, 32)).value
            block._pair = (block.msg ^ block.pad, block.r)
        return block._pair

    monkeypatch.setattr(SkesBlock, "pair", pair)
