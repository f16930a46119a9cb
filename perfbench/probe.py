"""Set-up time of one workload in a fresh interpreter.

Times importing mapq plus generating and parsing the workload's configs and
kernels, which a CLI user pays on every invocation, and prints the seconds.
Reading reference.json, which says which pool entries hit a known defect,
is part of generating them.  run.py starts this several times per run,
paces each time with the calibrations it makes around it (pace.py), and
reports the median.

    PYTHONPATH=src python3 perfbench/probe.py --workload NAME --seed N --workdir DIR
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402

import mapq.cli  # noqa: E402,F401  (imports every layer)

import workloads  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    try:
        reference = workloads.load_reference(
            os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json"))
        workloads.build(args.workload, args.seed, args.workdir, reference)
        print(repr(time.perf_counter() - T0))
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
