"""Counting the PRF evaluations of an ORAM block codec.

counted_evals patches IdealPrf.eval and a codec class's decode_path for
the rest of a test, so a cost pin can tell the evaluations made while
decoding from all the others.
"""

from qsgames import quantum
from qsgames.prf import IdealPrf


def counted_evals(monkeypatch, codec_cls) -> dict:
    """Counts of the IdealPrf evaluations made from now on: "all" of
    them, and those "decoding", made inside codec_cls.decode_path.
    The debug checks are off unless the test turns them on."""
    monkeypatch.setattr(quantum, "DEBUG_CHECKS", False)
    counts, inside = {"all": 0, "decoding": 0}, [False]
    evaluate, decode = IdealPrf.eval, codec_cls.decode_path

    def counted_eval(prf, x):
        counts["all"] += 1
        counts["decoding"] += inside[0]
        return evaluate(prf, x)

    def counted_decode(codec, blocks):
        inside[0] = True
        try:
            return decode(codec, blocks)
        finally:
            inside[0] = False

    monkeypatch.setattr(IdealPrf, "eval", counted_eval)
    monkeypatch.setattr(codec_cls, "decode_path", counted_decode)
    return counts
