"""Classical ORAM blocks as GoldreichScheme ciphertexts, and back.

The classical tree stores each block as the int pair (body, r) of a
GoldreichScheme ciphertext.  as_ciphertext rebuilds the ciphertext, so a
test can decrypt a stored block with GoldreichScheme.dec, independently
of the ORAM's codec; as_pair turns a ciphertext into its stored form.
"""

from qsgames.bits import BitString
from qsgames.schemes import Ciphertext


def as_ciphertext(scheme, block) -> Ciphertext:
    body, r = block
    return Ciphertext(scheme.name, BitString(body, scheme.msg_bits), r=BitString(r, scheme.r_bits))


def as_pair(c: Ciphertext) -> tuple:
    return c.body.value, c.r.value
