"""qsgames benchmark: catalog workloads end to end, per-layer spans traced.

    python3 perfbench/run.py --workload ap-classical --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Drives the public catalog API, `experiments.get(name).run(trials,
seed, overrides)`, in a closed loop: one client, one process per
workload, one experiment run at a time, every run with the workload
seed.  A warm-up pass is followed by timed passes over the workload's
entry list until `--seconds` have passed.

`--trace 0` reports the end-to-end metrics: trials per second (median
over passes), set-up time (median of fresh interpreters importing the
catalog), and peak resident memory.  Their times are reference seconds,
wall seconds scaled by the host's speed as probed between experiment
runs (`refclock.py`), because the speed of a shared host drifts by tens
of percent within a minute.  `--trace 1` alternates untraced
passes with traced ones, whose spans time calls into each module, then
runs the layer sweep, and reports the per-layer metrics and the tracing
overhead.

Every pass must reproduce each report byte for byte (without
`runtime_ms`, with the verdict), and traced passes must repeat every
count exactly.  An experiment run that raises or breaks a certainty
predicate counts as failed; statistical verdicts are printed only.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import os

# One BLAS thread, set before NumPy loads: the workbench runs each
# experiment on one core, and idle OpenBLAS workers spin on the second
# core of a 2-core machine (160% CPU for catalog-small), adding noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import refclock
import spans
import sweep
from workloads import CERTAINTY_RULES, WORKLOADS, resolve

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 9
MIN_PASSES = 3
PROBE_EVERY_S = 0.15  # wall seconds of experiment runs between host-speed probes
PROBE_WINDOW_S = 2.0  # a pass is converted at the mean host speed within this of it

# a fresh interpreter importing the catalog and resolving entries: the
# start-up cost every `qsgames --experiment` call pays.  It prints the
# monotonic clock when done (shared with the parent on Linux), then the
# host's speed measured in the same process.
PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "import qsgames.experiments as e; [e.get(n) for n in sys.argv[3:]]; "
    "done = time.perf_counter(); sys.path.insert(0, sys.argv[2]); import refclock; "
    "print(done, refclock.settled_speed())"
)


def log(line: str = "") -> None:
    print(line, flush=True)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _git_rev() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "none (not a git checkout)"


def _blas_threads() -> str:
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return f"{fn()} (OpenBLAS)"
    env = {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
           if k in os.environ}
    return f"unknown, env {env}" if env else "unknown"


def environment() -> dict:
    import importlib.util

    import numpy as np

    return {
        "git_rev": _git_rev(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------


def measure_setup(names: list) -> tuple[float, float]:
    """Median set-up time of fresh interpreters: (reference s, wall s)."""
    wall, ref = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", PROBE, str(SRC), str(HERE), *names],
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        done, speed = map(float, proc.stdout.split())
        wall.append(done - t0)
        ref.append((done - t0) * speed)
    return statistics.median(ref), statistics.median(wall)


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def canonical_report(result, passed: bool) -> str:
    """The report as the CLI writes it, minus runtime_ms, plus the verdict."""
    payload = json.loads(result.to_json())
    payload.pop("runtime_ms")
    payload["pass"] = passed
    return json.dumps(payload, sort_keys=True)


class Runner:
    """Runs passes over one workload and keeps the correctness record."""

    def __init__(self, resolved, seed: int):
        self.resolved = resolved
        self.seed = seed
        self.reference: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []
        self.errors: list[str] = []
        self.probes: list[tuple[float, float]] = []  # (time, host speed)

    def _probe(self) -> None:
        speed = refclock.speed()
        self.probes.append((time.perf_counter(), speed))

    def one_pass(self, tracer=None, announce: bool = False) -> tuple[float, int, float, float]:
        """Returns (wall seconds, trials completed, start, end).

        The wall seconds cover the experiment runs only.  Between runs,
        whenever PROBE_EVERY_S of them have passed, and at the end of
        the pass, the host's speed is probed (see `ref_rates`)."""
        trials = 0
        wall = pending = 0.0
        start = time.perf_counter()
        for entry, exp in self.resolved:
            if pending >= PROBE_EVERY_S:
                self._probe()
                pending = 0.0
            self.attempted += 1
            args = (entry.trials, self.seed, dict(entry.overrides))
            t_run = time.perf_counter()
            try:
                if tracer is None:
                    result, passed = exp.run(*args)
                else:
                    result, passed = tracer.call(f"experiments.{entry.label}", exp.run, args)
            except Exception as exc:  # a crashing experiment is a failed run, not a harness crash
                self.failed += 1
                self.errors.append(f"{entry.label}: {type(exc).__name__}: {exc}")
                continue
            finally:
                dt = time.perf_counter() - t_run
                pending += dt
                wall += dt
            trials += result.trials
            report = canonical_report(result, passed)
            certain = exp.pass_rule in CERTAINTY_RULES
            if certain and not passed:
                self.failed += 1
                self.errors.append(f"{entry.label}: broke its certainty predicate ({exp.pass_rule})")
            ref = self.reference.setdefault(entry.label, report)
            if report != ref:
                self.mismatches.append(entry.label)
            if announce:
                kind = "certainty" if certain else "statistical, not counted as failed"
                verdict = "PASS" if passed else "FAIL"
                log(f"  verdict {entry.label}: {verdict}  {exp.pass_rule} ({kind}); "
                    f"{result.successes}/{result.trials} wins, advantage {result.advantage:+.4f}")
        self._probe()
        return wall, trials, start, time.perf_counter()

    def passes(self, seconds: float) -> list:
        """Timed passes until `seconds` have elapsed and at least MIN_PASSES ran."""
        out = []
        start = time.perf_counter()
        while len(out) < MIN_PASSES or time.perf_counter() - start < seconds:
            out.append(self.one_pass())
        return out

    def digest(self) -> str:
        joined = "\n".join(self.reference[e.label] for e, _ in self.resolved if e.label in self.reference)
        return hashlib.sha256(joined.encode()).hexdigest()[:16]

    def deterministic(self) -> bool:
        return not self.mismatches and len(self.reference) == len(self.resolved)


def rate(passes: list) -> float:
    """Median trials per wall second over passes."""
    return statistics.median(trials / wall for wall, trials, _, _ in passes)


def ref_rates(passes: list, probes: list) -> list:
    """Trials per reference second of each pass.  A pass is converted
    at the mean host speed of the probes within PROBE_WINDOW_S of it:
    single probes are short and catch the host's sub-second swings,
    their mean follows its slower drift, which passes share."""
    out = []
    for wall, trials, start, end in passes:
        near = [v for t, v in probes if start - PROBE_WINDOW_S <= t <= end + PROBE_WINDOW_S]
        out.append(trials / (wall * statistics.fmean(near)))
    return out


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def run_untraced(runner, seconds: float) -> tuple[dict, bool]:
    log(f"set-up: {SETUP_PROBES} fresh interpreters import qsgames.experiments and resolve "
        f"{len(runner.resolved)} entries")
    setup_s, setup_wall = measure_setup(sorted({e.name for e, _ in runner.resolved}))
    log(f"set-up: {setup_s:.4f} reference s, {setup_wall:.4f} wall s (medians)")
    log("warm-up pass (untimed):")
    runner.one_pass(announce=True)
    passes = runner.passes(seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    per_ref = ref_rates(passes, runner.probes)
    speeds = [v for _, v in runner.probes]
    log(f"passes: {len(passes)} timed after 1 warm-up, {passes[0][1]} trials each")
    log(f"  trials per wall s, per pass: {', '.join(f'{p[1] / p[0]:.1f}' for p in passes)}")
    log(f"  trials per reference s, per pass: {', '.join(f'{r:.1f}' for r in per_ref)}")
    log(f"  host speed: {len(speeds)} probes, {min(speeds):.3f}-{max(speeds):.3f} of the "
        f"reference machine, median {statistics.median(speeds):.3f}")
    log(f"trials_per_s (wall) = {rate(passes):.6g} 1/s, median over passes")
    metrics = {
        "trials_per_s": {"value": statistics.median(per_ref), "unit": "1/s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }
    return metrics, True


# per-layer metrics with a value on every workload; the others exist
# only where their layer runs and are printed above the result line
REPORTED = (
    "games.trial_ms_p50", "games.trial_ms_p99", "rng.split_ms", "rng.bits_us", "rng.bits_calls",
    "prf.eval_us", "prf.eval_calls", "schemes.enc_calls", "oram.access_calls", "oram.stash_peak",
    "qoram.access_calls", "qoram.digest_calls", "quantum.gate_calls", "quantum.widest_qubits",
    "quantum.bytes_computed", "fiatshamir.ro_queries",
    *(f"{layer}.self_share" for layer in spans.LAYERS),
)


def sweep_unit(name: str) -> str:
    return name.split(".")[1].rsplit("_", 1)[-1]


def run_traced(workload, runner, seconds: float, seed: int) -> tuple[dict, bool]:
    log("warm-up pass (untimed):")
    runner.one_pass(announce=True)
    # untraced and traced passes alternate, so drift in machine speed
    # cancels out of the overhead ratio
    tracer = spans.Tracer()
    specs = spans.default_specs()
    untraced, traced, snapshots = [], [], []
    start = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - start < seconds:
        untraced.append(runner.one_pass())
        tracer.install(specs)
        try:
            traced.append(runner.one_pass(tracer))
        finally:
            tracer.uninstall()
        snapshots.append(tracer.counts())
    per_pass, prev = [], {}
    for snap in snapshots:
        per_pass.append({k: v if k.startswith("max:") else v - prev.get(k, 0) for k, v in snap.items()})
        prev = snap
    counts_repeat = all(c == per_pass[0] for c in per_pass)
    traced_s = sum(p[0] for p in traced)
    values = spans.layer_metrics(tracer, per_pass[0], traced_s)
    overhead = statistics.median((u[1] / u[0]) / (t[1] / t[0]) for u, t in zip(untraced, traced))

    log(f"passes: {len(traced)} traced, each after an untraced one; {len(tracer.trial_s)} trial spans")
    log(f"tracing overhead: untraced {rate(untraced):.2f} trials/s vs traced {rate(traced):.2f} "
        f"trials/s; median ratio over pass pairs {overhead:.3f}x")
    log(f"exact counts repeat across traced passes: {counts_repeat}")
    for entry, _ in runner.resolved:
        st = tracer.stats.get(f"experiments.{entry.label}")
        if st:
            log(f"  experiments.{entry.label}.ms_per_trial = {st[1] / (st[0] * entry.trials) * 1e3:.4f} ms")
    log("per-layer (counts per pass; times are means per call; shares of traced pass time):")
    for name in sorted(spans.UNITS):
        shown = f"{values[name]:.6g} {spans.UNITS[name]}" if name in values else "absent (no calls)"
        log(f"  {name} = {shown}")
    log("  quantum.bytes_computed is computed from array sizes: the input array's bytes per "
        "gate/mask/measure/ptrace call, 16*4^n for an n-qubit density matrix; not measured traffic")
    for item in tracer.absent:
        log(f"  span absent: {item}")
    log("inclusive time by span (share of traced pass time):")
    inclusive = sorted(((st[1], key) for key, st in tracer.stats.items()
                        if key.split(".")[0] not in ("experiments", "games")), reverse=True)
    for secs, key in inclusive[:6]:
        log(f"  {key:20s} {secs / traced_s * 100:6.2f}%")
    top = max(spans.LAYERS, key=lambda layer: values[f"{layer}.self_share"])
    agree = "matches" if top == workload.top_layer else "differs from"
    log(f"largest self time: {top} ({values[f'{top}.self_share'] * 100:.1f}%); this {agree} "
        f"the expected {workload.top_layer}, taken from earlier profiles that count callees "
        f"({workload.top_basis})")

    sweep_values, sweep_absent, sweep_errors = sweep.run(seed)
    log("layer sweep (median per call):")
    for name, value in sweep_values.items():
        log(f"  {name} = {value:.6g} {sweep_unit(name)}")
    for n in sweep.QUBITS:
        log(f"  sweep.bytes.q{n} = {16 * 4**n} B per density-matrix pass "
            f"(computed from array sizes, 16*4^n)")
    for item in sweep_absent:
        log(f"  sweep absent: {item}")
    for item in sweep_errors:
        log(f"  sweep wrong result: {item}")

    metrics = {"tracing.overhead": {"value": overhead, "unit": "x"}}
    metrics.update({name: {"value": values[name], "unit": spans.UNITS[name]}
                    for name in REPORTED if name in values})
    metrics.update({name: {"value": v, "unit": sweep_unit(name)} for name, v in sweep_values.items()})
    return metrics, counts_repeat and not sweep_errors


def run_all(args) -> int:
    """Each workload in its own process; prints one table."""
    rows = {}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            log(f"{name}: exit {proc.returncode}")
            return proc.returncode
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    log("")
    log(f"{'workload':14s} {'correct':8s} {'failed_ratio':>14s}  metrics")
    for name, res in rows.items():
        ratio = res["failed"] / res["attempted"]
        shown = "  ".join(f"{k}={v['value']:.4g} {v['unit']}" for k, v in res["metrics"].items()
                          if args.trace == 0 or not k.startswith("sweep."))
        log(f"{name:14s} {str(res['correct']):8s} {ratio:>8.4f} ratio  {shown}")
    log(json.dumps(rows, sort_keys=True))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "qsgames" / "__init__.py").is_file():
        print(f"no qsgames source under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import qsgames.experiments as experiments

    if not Path(experiments.__file__).resolve().is_relative_to(SRC):
        print(f"qsgames imported from {experiments.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    resolved = resolve(workload, experiments)
    env = environment()
    log(f"workload {workload.name} (seed {args.seed}, {args.seconds:g} s, trace {args.trace}): "
        f"{workload.why}")
    log("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    runner = Runner(resolved, args.seed)
    if args.trace:
        metrics, counts_ok = run_traced(workload, runner, args.seconds, args.seed)
    else:
        metrics, counts_ok = run_untraced(runner, args.seconds)

    for err, times in Counter(runner.errors).items():
        log(f"  failed run ({times}x): {err}")
    for label in sorted(set(runner.mismatches)):
        log(f"  report changed between passes: {label}")
    log(f"report digest: {runner.digest()}  (sha256 of the {len(runner.reference)} reports, "
        f"runtime_ms removed, verdict added)")
    log(f"failed_ratio = {runner.failed / runner.attempted:.4f} ratio "
        f"({runner.failed} of {runner.attempted} experiment runs)")
    for name, m in metrics.items():
        if args.trace == 0:
            log(f"{name} = {m['value']:.6g} {m['unit']}")
    correct = runner.deterministic() and counts_ok and runner.failed == 0
    log(json.dumps({"correct": correct, "attempted": runner.attempted, "failed": runner.failed,
                    "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
