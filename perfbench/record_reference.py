"""Record the outputs of every pool job of the analytic-fading workload.

Run from the root of a mapq checkout at the commit whose outputs become the
reference:

    PYTHONPATH=src python3 perfbench/record_reference.py

Writes perfbench/reference.json: per job id, the hash of the job's inputs
and its output (or, for a job hitting a known defect, the error it raised).
"""

import json
import os
import shutil
import sys

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def record(name, pool, workdir):
    out = {}
    for job in sorted(workloads.build(name, 0, workdir, {}, entries=pool), key=lambda j: j.id):
        result = err = None
        try:
            result = job.run()
        except Exception as exc:
            err = exc
        signature = checks.failure_signature(job, result, err)
        if signature is not None:
            if job.known_defect and signature == checks.KNOWN_DEFECTS[job.known_defect]:
                out[job.id] = {"input": job.ref_input, "error": signature}
                continue
            raise RuntimeError(f"{job.id}: failed with {signature}") from err
        value = {os.path.basename(p): checks.read_output(p) for p in job.files}
        out[job.id] = {"input": job.ref_input, "output": value}
        print(job.id, file=sys.stderr)
    return out


def main():
    workdir = os.path.join(".perfbench_work", f"record-{os.getpid()}")
    try:
        reference = {
            "analytic-fading": record("analytic-fading", workloads.analytic_pool(), workdir),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = os.path.join(HERE, "reference.json")
    with open(path + ".tmp", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    os.replace(path + ".tmp", path)  # runs reading it never see half a file


if __name__ == "__main__":
    main()
