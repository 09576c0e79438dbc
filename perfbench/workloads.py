"""The benchmark's workloads: which catalog entries run, at what size.

Each workload is a list of catalog entries with a trial count per pass
and parameter overrides.  Parameters come from the catalog defaults
unless overridden; trial counts are chosen so that one pass takes about
half a second to two seconds on a 2-core machine, which gives a 20 s
run enough passes for a steady median.

`top_layer` is the module expected to hold the largest self time in
the traced run, with the measurement it rests on; the traced run says
so when the measured ranking differs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# predicates whose outcome is certain for a correct program; any other
# rule is a statistical verdict that is printed but never counted failed
CERTAINTY_RULES = frozenset({
    "wins every trial",
    "zero wins",
    "advantage exactly 0 over paired challenge bits",
    "verifies every trial",
})


@dataclass(frozen=True)
class Entry:
    name: str
    trials: int
    overrides: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        """Entry name plus overrides, unique within a workload."""
        extra = ",".join(f"{k}={v}" for k, v in sorted(self.overrides.items()))
        return f"{self.name}[{extra}]" if extra else self.name


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    entries: tuple
    top_layer: str
    top_basis: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ap-classical",
            "classical ORAM games at catalog defaults: ORAM access, SKES, PRF and the "
            "generator-state search; about 80% of catalog time",
            (
                Entry("bm-oram-separation", 10),
                Entry("bm-oram-null", 50),
                Entry("leaf-frequency-null", 50),
            ),
            "oram",
            "oram_access is ~64% of bm-oram-null",
        ),
        Workload(
            "ap-quantum",
            "quantum ORAM games at defaults: qoram_access, block digests, Pauli masks, "
            "measurement; the classical ORAM is bypassed",
            (
                Entry("qap-tag-null", 50),
                Entry("qap-payload-null", 50),
            ),
            "qoram",
            "qoram_access is ~77% of the work",
        ),
        Workload(
            "catalog-small",
            "the 14 sub-millisecond catalog entries, where per-trial overhead dominates; "
            "both ORAMs are bypassed",
            (
                Entry("fair-coin-calibration", 2000),
                Entry("otp-reuse-break", 40),
                Entry("otp-reuse-null", 200),
                Entry("cca1-counterexample-break", 40),
                Entry("cca1-counterexample-null", 200),
                Entry("cca2-flip-break", 40),
                Entry("cca2-flip-null", 200),
                Entry("hadamard-impossibility", 20),
                Entry("hadamard-prp-bound", 200),
                Entry("ind-qcpa-hadamard-null", 200),
                Entry("qind-identical-arms", 40),
                Entry("euf-replay-null", 200),
                Entry("euf-random-null", 200),
                Entry("fs-roundtrip", 200),
            ),
            "rng",
            "Rand.split is about half of fair-coin-calibration",
        ),
        Workload(
            "scale",
            "the same layers at the top of the size sweep: 9-qubit density matrices, a "
            "1024-block ORAM tree, a 16-block quantum ORAM",
            (
                Entry("hadamard-prp-bound", 3, {"m": 5}),
                Entry("leaf-frequency-null", 3, {"n_db": 1024}),
                Entry("qap-tag-null", 3, {"n_db": 16, "n_dat": 1}),
            ),
            "qoram",
            "safe-extractor digests are 82% of qap-tag-null, the slowest entry",
        ),
    )
}


def resolve(workload: Workload, experiments) -> list:
    """Look up each entry in the catalog and check what the catalog
    itself does not: override keys must be parameters the entry has,
    and qind-identical-arms needs two trials to pair challenge bits."""
    resolved = []
    for entry in workload.entries:
        exp = experiments.get(entry.name)
        unknown = sorted(set(entry.overrides) - (set(exp.defaults) - {"trials", "seed"}))
        if unknown:
            raise ValueError(f"{entry.name}: override keys {unknown} are not parameters of the entry")
        if entry.name == "qind-identical-arms" and entry.trials < 2:
            raise ValueError("qind-identical-arms needs at least 2 trials")
        resolved.append((entry, exp))
    return resolved
