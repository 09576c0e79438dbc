"""List the seeds at which one catalog entry's reports differ between two trees.

Each tree is a checkout of this repository.  The entry runs in a fresh
interpreter per tree, with that tree's src/ on the path, over a range
of seeds at its default trial count (or --trials), and the reports are
compared without `runtime_ms`, with the verdict, as the goldens and the
seed band pin them.  pytest does not collect this file.

    python tests/band_seed_diff.py OLD_TREE NEW_TREE --entry hadamard-prp-bound \\
        --seeds 1-200 [--trials N] [--param m=5 ...]

Exit status 0 when every report is byte-identical, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path


def worker(entry: str, seeds: range, trials: int | None, overrides: dict) -> None:
    """Print {seed: report} for the qsgames on sys.path.  It builds the
    report itself rather than through golden_data, which imports names
    that an older tree may not have."""
    from qsgames import experiments

    reports = {}
    for seed in seeds:
        result, passed = experiments.get(entry).run(trials=trials, seed=seed, overrides=dict(overrides))
        payload = json.loads(result.to_json())
        del payload["runtime_ms"]
        payload["pass"] = passed
        reports[seed] = json.dumps(payload, sort_keys=True)
    print(json.dumps(reports))


def reports_in(tree: Path, args) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"))
    spec = {"entry": args.entry, "seeds": args.seeds, "trials": args.trials, "param": args.param}
    out = subprocess.run([sys.executable, __file__, "--worker", json.dumps(spec)],
                         env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def parse_param(text: str) -> tuple:
    """key=value; a value that parses as JSON (5, 2.5, true) takes that type."""
    key, sep, value = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected key=value, got {text!r}")
    try:
        return key, json.loads(value)
    except ValueError:
        return key, value


def main(argv: list[str]) -> int:
    if argv[:1] == ["--worker"]:
        spec = json.loads(argv[1])
        worker(spec["entry"], seed_range(spec["seeds"]), spec["trials"], dict(spec["param"]))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--entry", required=True)
    parser.add_argument("--seeds", default="1-8", help="an inclusive range, such as 1-200")
    parser.add_argument("--trials", type=int, default=None, help="default: the entry's own")
    parser.add_argument("--param", type=parse_param, action="append", default=[], metavar="KEY=VALUE")
    args = parser.parse_args(argv)
    old, new = reports_in(args.old, args), reports_in(args.new, args)
    differ = [int(seed) for seed in old if old[seed] != new[seed]]
    print(f"{args.entry}: {len(old)} seeds, {len(differ)} differ" + (f": {differ}" if differ else ""))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
