"""hsplit benchmark: time to a solution of stated accuracy.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 45 --trace 0

With ``--trace 0`` the run is untraced and reports the end-to-end
metrics; with ``--trace 1`` it reports the per-layer metrics of a traced
pass.  Every line but the last is for people; the last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The package is imported from ``src/`` of the checkout and
from nowhere else; without it the benchmark exits with an error.
"""

from __future__ import annotations

import os

# one caller, one compute thread: keep BLAS from starting a pool of its own
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("generic_equilibrium", "sweep")


def _import_package() -> None:
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import hsplit
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import hsplit from {src}: {exc}")
    if not Path(hsplit.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: hsplit was imported from {hsplit.__file__}, not from {src}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_package()
    import workloads

    if args.trace:
        metrics, m, notes = workloads.traced_run(args.workload, args.seed)
    else:
        metrics, m, notes = workloads.timed_run(args.workload, args.seed, args.seconds)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {workloads.UNITS[name]}")
    print(f"  gate: {m.solves - m.failed}/{m.solves} solves passed")
    result = {
        "correct": m.failed == 0,
        "attempted": m.solves,
        "failed": m.failed,
        "metrics": {
            name: {"value": float(value), "unit": workloads.UNITS[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
