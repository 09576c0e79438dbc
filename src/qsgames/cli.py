"""Batch experiment runner.

    qsgames --list
    qsgames --experiment bm-oram-separation --trials 200 --seed 7 \
            --out report.json --format json --param p=65537
    qsgames --report-suite results/

Reports are deterministic given (seed, params) apart from the runtime
field; the exit status is the experiment's acceptance predicate, so CI
can consume it directly: 0 pass, 1 fail, 2 invalid arguments or
parameters, 3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

from . import experiments

CSV_COLUMNS = ["experiment", "trials", "successes", "advantage", "ci95", "pass", "seed"]


def _coerce(value: str):
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            continue
    return value


def _pair(text: str, where: str) -> tuple[str, object]:
    """One `key=value` override; `where` names its source in the error."""
    if "=" not in text:
        raise ValueError(f"{where}: expected key=value, got {text!r}")
    key, value = text.split("=", 1)
    return key.strip(), _coerce(value.strip())


def parse_params(pairs: list[str]) -> dict:
    return dict(_pair(pair, "--param") for pair in pairs)


def load_config(path: str) -> dict:
    lines = (line.strip() for line in Path(path).read_text().splitlines())
    return dict(_pair(line, f"{path}:{lineno}") for lineno, line in enumerate(lines, 1)
                if line and not line.startswith("#"))


def render_report(result, passed: bool, claim: str, fmt: str) -> str:
    if fmt == "json":
        payload = json.loads(result.to_json())
        payload["claim"] = claim
        payload["pass"] = passed
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    writer.writerow(
        {
            "experiment": result.game,
            "trials": result.trials,
            "successes": result.successes,
            "advantage": f"{result.advantage:.6f}",
            "ci95": f"{result.ci95:.6f}",
            "pass": passed,
            "seed": result.seed,
        }
    )
    return buf.getvalue()


def run_experiment(name: str, trials: int | None, seed: int | None, overrides: dict,
                   out_path: str | None, fmt: str) -> int:
    try:
        exp = experiments.get(name)
    except KeyError as err:
        print(err.args[0], file=sys.stderr)
        return 2
    try:
        result, passed = exp.run(trials=trials, seed=seed, overrides=overrides)
    except (KeyError, ValueError, TypeError) as err:
        print(f"invalid parameters for {name}: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # noqa: BLE001 - a crash must not read as a predicate FAIL
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3
    report = render_report(result, passed, exp.claim, fmt)
    if out_path:
        try:
            Path(out_path).write_text(report)
        except OSError as err:
            print(f"cannot write the report: {err}", file=sys.stderr)
            return 2
    print(report, end="")
    status = "PASS" if passed else "FAIL"
    print(f"{status} {name}: {result.successes}/{result.trials}, "
          f"advantage {result.advantage:+.4f} (+-{result.ci95:.4f}), rule: {exp.pass_rule}",
          file=sys.stderr)
    return 0 if passed else 1


def list_catalog() -> int:
    for entry in experiments.list_experiments():
        print(f"{entry['name']:28s} {entry['description']}")
        print(f"{'':28s}   illustrates: {entry['claim']}")
        print(f"{'':28s}   defaults: {entry['defaults']}  pass: {entry['pass_rule']}")
    return 0


def _summarize_file(path: Path) -> dict:
    """The summary row of a .json or .csv report."""
    try:
        if path.suffix == ".json":
            obj = json.loads(path.read_text())
            return {
                "experiment": obj["game"],
                "advantage": f"{obj['advantage']:+.4f}",
                "ci95": f"{obj['ci95']:.4f}",
                "pass": str(obj["pass"]),
            }
        rows = list(csv.DictReader(path.read_text().splitlines()))
        row = rows[0]
        return {
            "experiment": row["experiment"],
            "advantage": f"{float(row['advantage']):+.4f}",
            "ci95": f"{float(row['ci95']):.4f}",
            "pass": row["pass"],
        }
    except Exception as err:  # noqa: BLE001 - unreadable files become error rows
        return {"experiment": path.name, "advantage": "-", "ci95": "-", "pass": f"ERROR: {err}"}


def report_suite(directory: str, out_path: str | None = None) -> int:
    try:
        paths = sorted(Path(directory).iterdir())
    except OSError as err:
        print(f"cannot read the report directory: {err}", file=sys.stderr)
        return 2
    rows = [_summarize_file(path) for path in paths if path.suffix in (".json", ".csv")]
    passed = sum(1 for r in rows if r["pass"] == "True")
    header = ["experiment", "advantage", "ci95", "pass"]
    widths = [max([len(h)] + [len(r[h]) for r in rows]) for h in header]
    lines = [
        "| " + " | ".join(h.ljust(w) for h, w in zip(header, widths)) + " |",
        "| " + " | ".join("-" * w for w in widths) + " |",
    ]
    for r in rows:
        lines.append("| " + " | ".join(r[h].ljust(w) for h, w in zip(header, widths)) + " |")
    lines.append(f"\n{passed}/{len(rows)} experiments pass")
    if out_path:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=header)
        writer.writeheader()
        writer.writerows(rows)
        try:
            Path(out_path).write_text(buf.getvalue())
        except OSError as err:
            print(f"cannot write the summary: {err}", file=sys.stderr)
            return 2
    print("\n".join(lines) + "\n", end="")
    return 0 if passed == len(rows) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="qsgames", description="security-game experiment runner")
    parser.add_argument("--list", action="store_true", help="print the experiment catalog")
    parser.add_argument("--experiment", help="experiment name to run")
    parser.add_argument("--trials", type=int, help="trial count override")
    parser.add_argument("--seed", type=int, help="seed override")
    parser.add_argument("--out", help="report output path")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--param", action="append", default=[], metavar="KEY=VALUE",
                        help="parameter override, repeatable")
    parser.add_argument("--config", help="file of key=value overrides")
    parser.add_argument("--report-suite", metavar="DIR", help="summarize a directory of reports")
    args = parser.parse_args(argv)

    if args.list:
        return list_catalog()
    if args.report_suite:
        return report_suite(args.report_suite, args.out)
    if not args.experiment:
        parser.print_help()
        return 2
    try:
        overrides = parse_params(args.param)
        if args.config:
            overrides = {**load_config(args.config), **overrides}
    except (OSError, ValueError) as err:
        print(err, file=sys.stderr)
        return 2
    return run_experiment(args.experiment, args.trials, args.seed, overrides, args.out, args.format)


if __name__ == "__main__":
    sys.exit(main())
