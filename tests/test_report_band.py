"""Reports at seeds 1-8 match the seed band pinned in tests/golden/band.json.

The goldens pin one seed per entry at default parameters; the band
pins eight, for every catalog entry and for the benchmark's `scale`
rows, where the ORAMs and the quantum registers are at their largest.
A report depends on no other, so a mismatch names the row, its
parameters and the seeds that moved.  The band runs with the debug
checks off: test_golden.py already shows that they change no report,
and they would triple its time.
"""

import json

import pytest

import golden_data
from qsgames import quantum

ROWS = golden_data.band_rows()


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads((golden_data.GOLDEN_DIR / golden_data.BAND_FILE).read_text())


def test_band_pins_every_row(pinned):
    assert set(pinned) == set(ROWS)
    assert all(list(seeds) == [str(s) for s in golden_data.BAND_SEEDS] for seeds in pinned.values())


@pytest.mark.parametrize("label", sorted(ROWS))
def test_reports_match_band(label, pinned, monkeypatch):
    monkeypatch.setattr(quantum, "DEBUG_CHECKS", False)
    name, trials, overrides = ROWS[label]
    got = golden_data.band_row(name, trials, overrides)
    moved = [seed for seed in got if got[seed] != pinned[label].get(seed)]
    assert not moved, f"{name} at trials={trials}, overrides={overrides}: reports differ at seeds {moved}"
