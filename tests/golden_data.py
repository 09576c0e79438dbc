"""Golden reports, the seed band and ORAM trace digests.

The pinned files under tests/golden/ hold what this module computes:
one report per catalog entry (seed 11, at most 30 trials, without
`runtime_ms`, with the verdict), the sha256 of three fixed request
traces through the classical and the quantum ORAM, and the seed band
(band.json): the sha256 of each report of every catalog entry at seeds
1-8 and at most 30 trials, and of the benchmark's `scale` rows at 3
trials.  test_golden.py and test_report_band.py recompute everything
and compare byte for byte.

Regenerate only when a change is meant to alter results:

    PYTHONPATH=src python tests/golden_data.py --write
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import numpy as np

from qsgames import experiments
from qsgames.bits import BitString
from qsgames.oram import DataRequest, OramParams, oram_access, oram_init
from qsgames.qoram import QuantumDataRequest, qoram_access, qoram_init, report_json, safe_extractor_default
from qsgames.quantum import DensityMatrix
from qsgames.rng import BlumMicaliPrng, Rand

GOLDEN_DIR = Path(__file__).parent / "golden"
SEED = 11
MAX_TRIALS = 30
TRIALS = {"qind-identical-arms": 2}
TRACES_FILE = "traces.json"
BAND_FILE = "band.json"
BAND_SEEDS = range(1, 9)
# perfbench's `scale` workload: (entry, overrides), run at 3 trials
BAND_SCALE_ROWS = (
    ("hadamard-prp-bound", {"m": 5}),
    ("leaf-frequency-null", {"n_db": 1024}),
    ("qap-tag-null", {"n_db": 16, "n_dat": 1}),
)
BAND_SCALE_TRIALS = 3


def report_text(name: str, trials: int, seed: int, overrides: dict | None = None) -> str:
    """The report as the CLI writes it, minus runtime_ms, plus the verdict."""
    result, passed = experiments.get(name).run(trials=trials, seed=seed, overrides=dict(overrides or {}))
    payload = json.loads(result.to_json())
    del payload["runtime_ms"]
    payload["pass"] = passed
    return json.dumps(payload, sort_keys=True)


def catalog_report(name: str, max_trials: int = MAX_TRIALS, overrides: dict | None = None) -> str:
    trials = TRIALS.get(name, min(max_trials, experiments.get(name).defaults["trials"]))
    return report_text(name, trials, SEED, overrides) + "\n"


def catalog_reports() -> dict[str, str]:
    return {name: catalog_report(name) for name in sorted(experiments.REGISTRY)}


def _sha(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def oram_trace(blum_micali: bool) -> str:
    params = OramParams(n_db=16)
    rand = Rand(SEED)
    prng = BlumMicaliPrng(65537, 3, rand.integer(1, 65537)) if blum_micali else None
    client, server = oram_init(params, rand, prng=prng)
    requests = random.Random(SEED)
    lines = []
    for _ in range(60):
        rid = requests.randint(1, params.n_db)
        if requests.random() < 0.5:
            dr = DataRequest("read", rid)
        else:
            dr = DataRequest("write", rid, BitString(requests.getrandbits(params.n_dat), params.n_dat))
        _, _, ap = oram_access(client, server, dr)
        lines.append(f"{ap.to_json()} {client.last_read} {len(client.stash)}")
    return _sha(lines)


def _state_json(dm: DensityMatrix) -> str:
    mat = np.round(dm.mat, 9) + 0.0
    return json.dumps([[[z.real, z.imag] for z in row] for row in mat.tolist()])


def qoram_trace() -> str:
    params = OramParams(n_db=4, n_dat=1)
    client, server = qoram_init(params, Rand(SEED))
    requests = random.Random(SEED)
    payloads = Rand(SEED + 1)
    lines = []
    for _ in range(30):
        rid = requests.randint(1, params.n_db)
        if requests.random() < 0.5:
            qdr = QuantumDataRequest("read", rid)
        else:
            qdr = QuantumDataRequest("write", rid, DensityMatrix.random_pure(params.n_dat, payloads))
        transcript = qoram_access(client, server, qdr)[2].transcript
        report = report_json(safe_extractor_default(transcript, server))
        lines.append(f"{report} {_state_json(client.retrieved)}")
    return _sha(lines)


def band_rows() -> dict[str, tuple]:
    """label -> (entry, trials, overrides) for every row of the band."""
    rows = {name: (name, min(MAX_TRIALS, exp.defaults["trials"]), {})
            for name, exp in sorted(experiments.REGISTRY.items())}
    for name, overrides in BAND_SCALE_ROWS:
        label = name + "[" + ",".join(f"{k}={v}" for k, v in sorted(overrides.items())) + "]"
        rows[label] = (name, BAND_SCALE_TRIALS, overrides)
    return rows


def band_row(name: str, trials: int, overrides: dict) -> dict[str, str]:
    """seed -> sha256 of the report at that seed."""
    return {str(seed): hashlib.sha256(report_text(name, trials, seed, overrides).encode()).hexdigest()
            for seed in BAND_SEEDS}


def band_digests() -> str:
    band = {label: band_row(*row) for label, row in band_rows().items()}
    return json.dumps(band, indent=2, sort_keys=True) + "\n"


def trace_digests() -> str:
    digests = {
        "oram-counter-prf": oram_trace(blum_micali=False),
        "oram-blum-micali": oram_trace(blum_micali=True),
        "qoram": qoram_trace(),
    }
    return json.dumps(digests, indent=2, sort_keys=True) + "\n"


def main(argv: list[str]) -> int:
    if argv != ["--write"]:
        print(__doc__)
        return 2
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, report in catalog_reports().items():
        (GOLDEN_DIR / f"{name}.json").write_text(report)
    (GOLDEN_DIR / TRACES_FILE).write_text(trace_digests())
    (GOLDEN_DIR / BAND_FILE).write_text(band_digests())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
