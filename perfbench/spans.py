"""Spans timed from outside the program, around calls into each module.

The tracer replaces public functions and methods with timing wrappers
for the length of a traced run and restores them afterwards.  Several
modules bind layer functions at import (`from .oram import
oram_access`), so a module-level function is replaced in every loaded
`qsgames` module that holds it, not only where it is defined; methods
are replaced on their class.  A symbol that no longer exists leaves its
metric absent instead of failing the run.

A span's key is `<layer>.<operation>`, where the layer is the module
name.  A call made while a span with the same key is open is part of
that span and is not counted again.  A layer's self time is the time of
its spans minus the time of the spans they contain.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from dataclasses import dataclass

PACKAGE = "qsgames"


@dataclass(frozen=True)
class Spec:
    """One wrapped callable: a module-level function or `Class.method`."""

    key: str
    module: str
    attr: str
    observe: str = ""  # what to record from the call: "qubits" or "stash"
    within: str = ""  # also count calls made inside an open span of this key


def _scheme_specs(layer: str, module: str, methods: tuple) -> list:
    """enc/dec of every scheme class defined in `module`."""
    try:
        mod = importlib.import_module(f"{PACKAGE}.{module}")
    except ImportError:
        return []
    specs = []
    for name, cls in sorted(vars(mod).items()):
        if isinstance(cls, type) and cls.__module__ == mod.__name__:
            for method in methods:
                if method in vars(cls):
                    op = "dec" if method == "dec" else "enc"
                    specs.append(Spec(f"{layer}.{op}", module, f"{name}.{method}"))
    return specs


def default_specs() -> list:
    specs = [
        Spec("rng.split", "rng", "Rand.split"),
        Spec("rng.bits", "rng", "Rand.bits"),
        Spec("prf.eval", "prf", "IdealPrf.eval", within="oram.access"),
        Spec("prf.eval", "prf", "ConcretePrf.eval", within="oram.access"),
        Spec("oram.init", "oram", "oram_init"),
        Spec("oram.access", "oram", "oram_access", observe="stash"),
        Spec("oram.snapshot", "oram", "ServerDB.snapshot"),
        Spec("qoram.init", "qoram", "qoram_init"),
        Spec("qoram.access", "qoram", "qoram_access"),
        Spec("qoram.extract", "qoram", "safe_extractor_default"),
        Spec("qoram.digest", "qoram", "QuantumBlock.digest"),
        Spec("quantum.gate", "quantum", "apply_gate", observe="qubits"),
        Spec("quantum.gate", "quantum", "apply_unitary", observe="qubits"),
        Spec("quantum.mask", "quantum", "qotp_apply", observe="qubits"),
        Spec("quantum.mask", "qscheme", "_pauli_mask_on", observe="qubits"),
        Spec("quantum.measure", "quantum", "measure_computational", observe="qubits"),
        Spec("quantum.ptrace", "quantum", "partial_trace", observe="qubits"),
        Spec("attacks.recover", "attacks", "BmOramAttack.challenge"),
        Spec("attacks.search", "_accel", "bm_recover_state"),
        Spec("fiatshamir.sign", "fiatshamir", "FsSigScheme.sign"),
        Spec("fiatshamir.verify", "fiatshamir", "FsSigScheme.verify"),
        Spec("fiatshamir.ro_query", "fiatshamir", "RandomOracleTable.query"),
    ]
    specs += _scheme_specs("schemes", "schemes", ("enc", "dec"))
    specs += _scheme_specs("qscheme", "qscheme", ("enc", "enc_on", "dec"))
    return specs


class Tracer:
    """Aggregates spans in memory; nothing is written while tracing."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # key -> [calls, total s, self s, calls within]
        self.maxima: dict[str, int] = {}  # "qubits", "stash" peaks of the current pass
        self.bytes_computed = 0
        self.trial_s: list[float] = []
        self.absent: list[str] = []
        self._stack: list[list] = []  # open spans: [key, time of child spans]
        self._open: dict[str, int] = {}
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def call(self, key: str, fn, args=(), kwargs=None, observe: str = "", within: str = ""):
        """Run fn inside a span named key and return its result."""
        kwargs = kwargs or {}
        if self._open.get(key):
            return fn(*args, **kwargs)
        if observe == "qubits":
            self._observe_state(args)
        frame = [key, 0.0]
        self._stack.append(frame)
        self._open[key] = 1
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            self._open[key] = 0
            st = self.stats.setdefault(key, [0, 0.0, 0.0, 0])
            st[0] += 1
            st[1] += dt
            st[2] += dt - frame[1]
            if within and self._open.get(within):
                st[3] += 1
            if self._stack:
                self._stack[-1][1] += dt
            if key == "games.trial":
                self.trial_s.append(dt)
        if observe == "stash":
            self._peak("stash", len(out[0].stash))
        return out

    def wrap(self, key: str, fn, observe: str = "", within: str = ""):
        def traced(*args, **kwargs):
            return self.call(key, fn, args, kwargs, observe, within)

        traced.__wrapped__ = fn
        return traced

    def _observe_state(self, args) -> None:
        state = next((a for a in args if hasattr(a, "n_qubits")), None)
        if state is None:
            return
        self._peak("qubits", state.n_qubits)
        array = getattr(state, "mat", getattr(state, "amps", None))
        if array is not None:
            self.bytes_computed += array.nbytes

    def _peak(self, name: str, value: int) -> None:
        if value > self.maxima.get(name, 0):
            self.maxima[name] = value

    def counts(self) -> dict:
        """Cumulative call counts plus this pass's maxima; resets maxima."""
        snap = {key: st[0] for key, st in self.stats.items()}
        snap.update({f"within:{key}": st[3] for key, st in self.stats.items()})
        snap["bytes_computed"] = self.bytes_computed
        snap.update({f"max:{k}": v for k, v in self.maxima.items()})
        self.maxima.clear()
        return snap

    # -- installation ------------------------------------------------------

    def install(self, specs: list) -> None:
        for spec in specs:
            try:
                mod = importlib.import_module(f"{PACKAGE}.{spec.module}")
            except ImportError:
                self._missing(f"{spec.key} ({spec.module} missing)")
                continue
            owner_name, _, attr = spec.attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = owner.__dict__.get(attr) if owner is not None else None
            if original is None:
                self._missing(f"{spec.key} ({spec.module}.{spec.attr} missing)")
                continue
            wrapper = self.wrap(spec.key, original, spec.observe, spec.within)
            if owner_name:
                self._patch(owner, attr, wrapper)
            else:
                # every loaded module that bound the function at import
                for name, loaded in list(sys.modules.items()):
                    if name == PACKAGE or name.startswith(PACKAGE + "."):
                        for bound, value in list(vars(loaded).items()):
                            if value is original:
                                self._patch(loaded, bound, wrapper)
        self._install_trials()

    def _install_trials(self) -> None:
        """Time each trial: the game callable passed to the trial loop,
        and every game_* function for entries that run their own loop."""
        try:
            games = importlib.import_module(f"{PACKAGE}.games")
        except ImportError:
            self._missing("games.trial (games missing)")
            return
        estimate = getattr(games, "estimate_advantage", None)
        if estimate is None:
            self._missing("games.trial (games.estimate_advantage missing)")
        else:
            def traced_estimate(game_fn, *args, **kwargs):
                return estimate(self.wrap("games.trial", game_fn), *args, **kwargs)

            self._patch(games, "estimate_advantage", traced_estimate)
        for name, fn in list(vars(games).items()):
            if name.startswith("game_") and callable(fn):
                self._patch(games, name, self.wrap("games.trial", fn))

    def _missing(self, what: str) -> None:
        if what not in self.absent:
            self.absent.append(what)

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics from the aggregated spans
# ---------------------------------------------------------------------------

LAYERS = ("experiments", "games", "rng", "prf", "schemes", "oram", "attacks", "qoram",
          "qscheme", "quantum", "fiatshamir")

UNITS = {
    "rng.split_ms": "ms", "rng.bits_us": "us", "rng.bits_calls": "count",
    "prf.eval_us": "us", "prf.eval_calls": "count", "prf.evals_per_access": "ratio",
    "schemes.enc_us": "us", "schemes.dec_us": "us", "schemes.enc_calls": "count",
    "oram.access_us": "us", "oram.access_calls": "count", "oram.init_ms": "ms",
    "oram.snapshot_share": "ratio", "oram.stash_peak": "count",
    "attacks.recover_ms": "ms", "attacks.search_ms": "ms",
    "qoram.access_us": "us", "qoram.access_calls": "count", "qoram.extract_us": "us",
    "qoram.digest_calls": "count", "qoram.digests_per_access": "ratio", "qoram.init_ms": "ms",
    "qscheme.enc_us": "us", "qscheme.dec_us": "us",
    "quantum.gate_us": "us", "quantum.gate_calls": "count", "quantum.mask_us": "us",
    "quantum.measure_us": "us", "quantum.ptrace_us": "us", "quantum.widest_qubits": "qubits",
    "quantum.bytes_computed": "B",
    "fiatshamir.sign_us": "us", "fiatshamir.verify_us": "us", "fiatshamir.ro_queries": "count",
    "games.trial_ms_p50": "ms", "games.trial_ms_p99": "ms",
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
}


def self_times(tracer: Tracer) -> dict:
    """Layer -> self seconds over all traced passes."""
    layers = dict.fromkeys(LAYERS, 0.0)
    for key, st in tracer.stats.items():
        layer = key.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + st[2]
    return layers


def layer_metrics(tracer: Tracer, counts: dict, traced_s: float) -> dict:
    """Metric -> value, for the metrics this workload gives a value.

    Counts are per pass; times are means per call over all traced
    passes; shares are of the traced passes' wall time.
    """
    st = tracer.stats

    def calls(key):
        return counts.get(key, 0)

    def mean(key, scale):
        return st[key][1] / st[key][0] * scale if calls(key) else None

    def per_access(key, access):
        return calls(key) / calls(access) if calls(access) else None

    values = {
        "rng.split_ms": mean("rng.split", 1e3),
        "rng.bits_us": mean("rng.bits", 1e6),
        "rng.bits_calls": calls("rng.bits"),
        "prf.eval_us": mean("prf.eval", 1e6),
        "prf.eval_calls": calls("prf.eval"),
        "prf.evals_per_access": per_access("within:prf.eval", "oram.access"),
        "schemes.enc_us": mean("schemes.enc", 1e6),
        "schemes.dec_us": mean("schemes.dec", 1e6),
        "schemes.enc_calls": calls("schemes.enc"),
        "oram.access_us": mean("oram.access", 1e6),
        "oram.access_calls": calls("oram.access"),
        "oram.init_ms": mean("oram.init", 1e3),
        "oram.snapshot_share": (st["oram.snapshot"][1] / st["oram.access"][1]
                                if calls("oram.access") and calls("oram.snapshot") else None),
        "oram.stash_peak": counts.get("max:stash", 0),
        "attacks.recover_ms": mean("attacks.recover", 1e3),
        "attacks.search_ms": mean("attacks.search", 1e3),
        "qoram.access_us": mean("qoram.access", 1e6),
        "qoram.access_calls": calls("qoram.access"),
        "qoram.extract_us": mean("qoram.extract", 1e6),
        "qoram.digest_calls": calls("qoram.digest"),
        "qoram.digests_per_access": per_access("qoram.digest", "qoram.access"),
        "qoram.init_ms": mean("qoram.init", 1e3),
        "qscheme.enc_us": mean("qscheme.enc", 1e6),
        "qscheme.dec_us": mean("qscheme.dec", 1e6),
        "quantum.gate_us": mean("quantum.gate", 1e6),
        "quantum.gate_calls": calls("quantum.gate"),
        "quantum.mask_us": mean("quantum.mask", 1e6),
        "quantum.measure_us": mean("quantum.measure", 1e6),
        "quantum.ptrace_us": mean("quantum.ptrace", 1e6),
        "quantum.widest_qubits": counts.get("max:qubits", 0),
        "quantum.bytes_computed": counts.get("bytes_computed", 0),
        "fiatshamir.sign_us": mean("fiatshamir.sign", 1e6),
        "fiatshamir.verify_us": mean("fiatshamir.verify", 1e6),
        "fiatshamir.ro_queries": calls("fiatshamir.ro_query"),
        "games.trial_ms_p50": None,
        "games.trial_ms_p99": None,
    }
    trial_ms = sorted(t * 1e3 for t in tracer.trial_s)
    if trial_ms:
        values["games.trial_ms_p50"] = statistics.median(trial_ms)
        values["games.trial_ms_p99"] = trial_ms[min(len(trial_ms) - 1, int(0.99 * len(trial_ms)))]
    for layer, secs in self_times(tracer).items():
        values[f"{layer}.self_share"] = secs / traced_s
    return {k: v for k, v in values.items() if v is not None}
