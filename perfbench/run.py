"""Run one schurfit benchmark workload in this process.

    python3 perfbench/run.py --workload dense_quartic --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's own `src/`.  Prints one line per metric, a line of sample counts,
and, last, the JSON result.  Exits 1 if a check failed, and 2 without a result
if the sources are missing or the arguments are wrong.
"""

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None):
    sys.path[:0] = [ROOT]
    from perfbench import harness
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "schurfit", "__init__.py")):
        print(f"error: no schurfit sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src]
    workdir = os.path.join(ROOT, ".perfbench")
    return harness.run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), src, workdir)


if __name__ == "__main__":
    sys.exit(main())
