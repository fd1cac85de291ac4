"""End-to-end benchmark of ``XQuerySession``: reads, batches, writes.

Run from the repository root::

    python3 perfbench/run.py --workload xmark_read --seed 1 --seconds 30 --trace 0

``--trace 0`` measures untraced and reports the end-to-end metrics;
``--trace 1`` also repeats every read traced and reports the per-layer
metrics.  ``--smoke`` runs two rounds on a small document with every
check on.  A human-readable table goes to standard output first; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"

# Known before the program's source is on the path (see ``main``).
WORKLOAD_NAMES = ("xmark_read", "xmark_batch", "rw_mix")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="two rounds on a small document (for tests)")
    return parser.parse_args(argv)


def _format(value: float) -> str:
    return f"{value:.6g}"


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    from measure import stop_child_processes
    from workloads import WORKLOADS, Config

    config = Config(seed=args.seed, seconds=args.seconds,
                    trace=bool(args.trace))
    if args.smoke:
        config.mid_scale = 0.01
        config.setups = 1
        config.max_rounds = 2
    workload = WORKLOADS[args.workload](config)
    try:
        workload.setup()
        workload.measure()
    finally:
        workload.close()
        stop_child_processes()

    end_to_end = workload.end_to_end()
    operations = workload.operation_latencies()
    per_layer = workload.per_layer() if config.trace else {}
    print(f"# {workload.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}{' smoke' if args.smoke else ''}")
    for title, metrics in (("end-to-end", end_to_end),
                           ("operations", operations),
                           ("per-layer", per_layer)):
        if metrics:
            print(f"## {title}")
            for name, (value, unit) in metrics.items():
                print(f"{name:<40} {_format(value):>14} {unit}")
    health = workload.health()
    print("## health " + json.dumps(health, sort_keys=True))

    reported = per_layer if config.trace else end_to_end
    attempted = sum(workload.attempted.values())
    failed = sum(workload.failed.values())
    print(json.dumps({
        "correct": workload.correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
