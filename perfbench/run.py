"""riskforge benchmark: four seeded CLI workloads in a closed loop.

Run from the root of a riskforge checkout:

    python3 perfbench/run.py --workload select --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                    # all four workloads, one process each
    python3 perfbench/run.py --trace 1          # the traced run, per-layer metrics
    python3 perfbench/run.py --write-digests    # refresh perfbench/digests.json

Each workload repeats a seeded cycle of 45 requests through the public CLI
entry point ``riskforge.cli.run(argv)``, in process, one request at a time
from one thread (workloads.py says what each workload stresses and why).
Set-up (generating and writing the models, warming up) is timed on its own
and excluded from every other metric. Every answer is checked after the
timed region; at the default seed every answer's digest is also compared
with perfbench/digests.json.

The last line of stdout is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. The full record, with the input
properties, failures and metadata, goes to .perfbench/ at the checkout root,
as do the generated models and the spans of a traced run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
CHILD_TIMEOUT_S = 900


def _require_program():
    """Put the checkout's own riskforge first on the path, or stop."""
    if not (SRC / "riskforge" / "__init__.py").is_file():
        sys.exit(f"perfbench: no riskforge sources at {SRC}; run from a riskforge checkout")
    sys.path.insert(0, str(SRC))
    import riskforge

    if Path(riskforge.__file__).resolve().parent != (SRC / "riskforge").resolve():
        sys.exit(f"perfbench: imported riskforge from {riskforge.__file__}, not from {SRC}")


def _print_metrics(label: str, metrics: dict):
    for name, m in metrics.items():
        print(f"{label:9s} {name:36s} {m['value']:>16.6g} {m['unit']}")


def _summary(record: dict) -> dict:
    """The driver's result object for one record."""
    metrics = record["per_layer"] if record["trace"] else record["end_to_end"]
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def run_one(args) -> int:
    import bench

    WORK.mkdir(exist_ok=True)
    record = bench.run_workload(args.workload, args.seed, args.seconds, bool(args.trace), WORK)
    record["meta"] = bench.metadata(ROOT)
    suffix = "-trace" if args.trace else ""
    out = WORK / f"result-{args.workload}{suffix}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(
        f"{args.workload}: {record['samples']} latency samples in {record['cycles']} cycles "
        f"of {record['cycle_requests']} requests, {record['measured_s']:.2f} s measured; "
        f"failed_ratio {record['failed_ratio']:.6g} "
        f"({record['failed']}/{record['attempted']}); digests: {record['digests']}"
    )
    for key, reason in sorted(record["failures"].items()):
        print(f"{args.workload}: request {key} failed: {reason}")
    _print_metrics(args.workload, record["end_to_end"])
    if args.trace:
        _print_metrics(args.workload, record["per_layer"])
    print(json.dumps(_summary(record)))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so peak memory is per workload."""
    import bench

    WORK.mkdir(exist_ok=True)
    records = {}
    for w in bench.workloads.WORKLOADS:
        argv = [
            sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(
            argv, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
        lines = proc.stdout.splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"perfbench: workload {w} exited with {proc.returncode}", file=sys.stderr)
            return 1
        suffix = "-trace" if args.trace else ""
        records[w] = json.loads((WORK / f"result-{w}{suffix}.json").read_text(encoding="utf-8"))
    print()
    print(f"{'workload':9s} {'metric':36s} {'value':>16s} unit")
    metrics = {}
    for w, record in records.items():
        shown = dict(record["end_to_end"])
        shown["failed_ratio"] = {"value": record["failed_ratio"], "unit": "ratio"}
        if args.trace:
            shown.update(record["per_layer"])
        _print_metrics(w, shown)
        metrics.update({f"{w}.{k}": v for k, v in _summary(record)["metrics"].items()})
    combined = {
        "meta": bench.metadata(ROOT),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workloads": records,
    }
    out = WORK / f"result-all{'-trace' if args.trace else ''}.json"
    out.write_text(json.dumps(combined, indent=2) + "\n", encoding="utf-8")
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in records.values()),
                "attempted": sum(r["attempted"] for r in records.values()),
                "failed": sum(r["failed"] for r in records.values()),
                "metrics": metrics,
            }
        )
    )
    return 0


def write_digests() -> int:
    import bench

    WORK.mkdir(exist_ok=True)
    doc = {"seed": bench.DEFAULT_SEED}
    doc.update({w: bench.answer_digests(w, WORK) for w in bench.workloads.WORKLOADS})
    bench.DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {bench.DIGESTS}")
    return 0


def main(argv=None) -> int:
    _require_program()
    import bench

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=bench.workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=bench.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.write_digests:
        return write_digests()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
