"""Serving benchmark command line.

    python3 servebench/run.py --workload engine-clean --seed 1 --seconds 10 --trace 0

Runs one workload (engine-clean, engine-guarded or fleet-churn) against
the repro package under ``src/`` of this checkout, checks every answer,
prints each metric by name and unit, and ends with one JSON line:
end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.  Exits 1 when an output check fails and 2 when the
checkout has no ``src/repro`` to measure.  Load comes from one thread.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: The engine is synchronous, so BLAS gets one thread; string hashing is
#: pinned so every run lays out the program's dicts, and pays for their
#: lookups, the same way.
_ENVIRONMENT = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"servebench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if any(os.environ.get(k) != v for k, v in _ENVIRONMENT.items()):
        # Both settings only take effect at interpreter start-up.
        os.environ.update(_ENVIRONMENT)
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from servebench.bench import run
    from servebench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"servebench: unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(report.lines))
    print(report.result_line(), flush=True)
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
