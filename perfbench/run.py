"""The repository's benchmark: one command, three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload {fig7-accept,fig6-population,serve-open} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` replays a fixed slice of the same seeded inputs with spans
around each layer's functions and prints the per-layer metrics instead.
Every run checks the program's outputs (see ``spec.json`` for what each
workload checks, which layers it loads and which it bypasses, and which
end-to-end metric each per-layer metric should move).  The last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The program is imported from ``src/`` of the checkout this file sits in;
without it the command exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys

import common

CONTRACT = json.loads((common.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in CONTRACT["workloads"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not common.program_present():
        print(f"error: the program is missing ({common.SRC / 'repro'})", file=sys.stderr)
        return 2
    common.import_program()

    if args.workload == "serve-open":
        import serve

        result = (
            serve.run_traced(args.seed, args.seconds)
            if args.trace
            else serve.run_measured(args.seed, args.seconds)
        )
    else:
        import batch

        result = (
            batch.run_traced(args.workload, args.seed)
            if args.trace
            else batch.run_measured(args.workload, args.seed, args.seconds)
        )

    kind = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in CONTRACT[kind]}
    values = result["metrics"]
    if set(values) != set(units):
        raise SystemExit(
            f"metric set mismatch: missing {sorted(set(units) - set(values))}, "
            f"extra {sorted(set(values) - set(units))}"
        )
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {result['notes']}")
    for name in units:
        print(f"# {name} = {values[name]:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": bool(result["correct"]),
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": {
                    name: {"value": float(values[name]), "unit": units[name]}
                    for name in units
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
