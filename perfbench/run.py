"""lutpim benchmark entry point.

    python3 perfbench/run.py --workload malware_corpus --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; lutpim is imported from its `src/`.
The BLAS thread count and numpy's use of huge pages are pinned before numpy
is imported. The last line of standard output is one JSON object: correct,
attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("malware_corpus", "mobilenet_v2_lut8", "cluster_engine")
# One client in one process; a single BLAS thread keeps that client from
# competing with itself for the cores.
BLAS_THREADS = 1


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="minute inputs, for the benchmark's own tests")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    src = ROOT / "src"
    if not (src / "lutpim" / "__init__.py").is_file():
        print(f"error: no lutpim sources under {src}; run from a source checkout", file=sys.stderr)
        return 2
    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    # numpy asks the kernel for huge pages behind large arrays by default.
    # Whether it gets them depends on the host's memory at the time, and that
    # split whole mobilenet_v2_lut8 runs into two groups 10% apart.
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    sys.path[:0] = [str(src), str(ROOT)]

    import lutpim

    if Path(lutpim.__file__).resolve().parent != src / "lutpim":
        print(f"error: imported lutpim from {lutpim.__file__}, not from {src}", file=sys.stderr)
        return 2
    from perfbench import harness

    return harness.main(args, threads)


if __name__ == "__main__":
    sys.exit(main())
