"""Benchmark of the adaptive estimation loop of quditmeas.

    python3 perfbench/run.py --workload five_term --seed 1 --seconds 45 --trace 0

Runs one seeded workload for about ``--seconds`` seconds from the root of a
checkout, against the checkout's own ``src/quditmeas``.  With ``--trace 0``
it reports the end-to-end metrics; with ``--trace 1`` it runs every
estimation a second time with spans around each layer's public functions and
reports the per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# One process runs one estimation at a time; the arrays are tiny, so the BLAS
# and OpenMP pools are capped at one thread (set before numpy is imported).
BLAS_THREADS = "1"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "quditmeas" / "__init__.py").is_file():
        print(f"error: no quditmeas sources at {SRC}", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(SRC), str(HERE)]
    os.chdir(HERE.parent)  # relative input paths keep the CLI's manifest hash stable

    import quditmeas
    import bench
    from workloads import WORKLOADS

    if Path(quditmeas.__file__).resolve().parent != SRC / "quditmeas":
        print(f"error: imported quditmeas from {quditmeas.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    return bench.main(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
