"""Reports and ORAM traces match the files pinned under tests/golden/."""

import pytest

import golden_data
from qsgames import experiments


@pytest.mark.parametrize("name", sorted(experiments.REGISTRY))
def test_catalog_report_matches_golden(name):
    pinned = (golden_data.GOLDEN_DIR / f"{name}.json").read_text()
    assert golden_data.catalog_report(name) == pinned


def test_every_catalog_entry_is_pinned():
    pinned = {p.stem for p in golden_data.GOLDEN_DIR.glob("*.json")} - {"traces"}
    assert pinned == set(experiments.REGISTRY)


def test_oram_traces_match_golden():
    pinned = (golden_data.GOLDEN_DIR / golden_data.TRACES_FILE).read_text()
    assert golden_data.trace_digests() == pinned
