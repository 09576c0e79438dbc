"""Reports and ORAM traces match the files pinned under tests/golden/."""

import pytest

import golden_data
from qsgames import experiments, quantum


@pytest.mark.parametrize("name", sorted(experiments.REGISTRY))
def test_catalog_report_matches_golden(name):
    pinned = (golden_data.GOLDEN_DIR / f"{name}.json").read_text()
    assert golden_data.catalog_report(name) == pinned


def test_every_catalog_entry_is_pinned():
    pinned = {p.stem for p in golden_data.GOLDEN_DIR.glob("*.json")}
    assert pinned == set(experiments.REGISTRY) | {"traces", "band"}


def test_oram_traces_match_golden():
    pinned = (golden_data.GOLDEN_DIR / golden_data.TRACES_FILE).read_text()
    assert golden_data.trace_digests() == pinned


def test_debug_checks_leave_reports_unchanged(monkeypatch):
    # QSGAMES_DEBUG re-validates every state a gate, oracle or mask
    # produces; validation must neither fail nor change any report
    validations = [0]
    validate = quantum.DensityMatrix.validate

    def counting_validate(self):
        validations[0] += 1
        validate(self)

    monkeypatch.setattr(quantum.DensityMatrix, "validate", counting_validate)
    # the plain run is plain even when QSGAMES_DEBUG is set
    monkeypatch.setattr(quantum, "DEBUG_CHECKS", False)
    names = sorted(experiments.REGISTRY)
    plain = [golden_data.catalog_report(name, max_trials=4) for name in names]
    plain_validations = validations[0]
    monkeypatch.setattr(quantum, "DEBUG_CHECKS", True)
    checked = [golden_data.catalog_report(name, max_trials=4) for name in names]
    assert checked == plain
    assert validations[0] > 2 * plain_validations


@pytest.mark.parametrize("debug", [False, True], ids=["plain", "debug"])
def test_pure_hadamard_rows_stay_statevectors(monkeypatch, debug):
    # these rows' challenge arms are pure, so from the challenge to the
    # measurement no density matrix is built; every statevector is
    # norm-checked when it is constructed, in either mode
    dense, vectors = [0], [0]
    dense_init, vector_init = quantum.DensityMatrix.__post_init__, quantum.StateVector.__post_init__

    def counting_dense_init(self):
        dense[0] += 1
        dense_init(self)

    def counting_vector_init(self):
        vectors[0] += 1
        vector_init(self)

    monkeypatch.setattr(quantum, "DEBUG_CHECKS", debug)
    with pytest.raises(ValueError, match="not normalized"):
        quantum.StateVector(1, [1.0, 1.0])
    monkeypatch.setattr(quantum.DensityMatrix, "__post_init__", counting_dense_init)
    monkeypatch.setattr(quantum.StateVector, "__post_init__", counting_vector_init)
    rows = (("hadamard-prp-bound", {"m": 5}), ("hadamard-impossibility", None), ("qind-identical-arms", None))
    for name, overrides in rows:
        golden_data.catalog_report(name, overrides=overrides)
        assert dense[0] == 0, name
        assert vectors[0] > 0, name
        vectors[0] = 0
