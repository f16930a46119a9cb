"""Run the CLI jobs of one benchmark workload against one or two mapq source trees.

    python3 tools/pool_diff.py                     # this checkout's src/
    python3 tools/pool_diff.py --base OTHER/src    # and compare with another tree
    python3 tools/pool_diff.py --workload simulate-fading --seed 1 --base OTHER/src

Each tree's jobs run in-process in one child interpreter that imports mapq
from that tree; the jobs, their checks and the output parser come from
perfbench/workloads.py and perfbench/checks.py.  analytic-fading runs every
pool job; simulate-fading runs every job that --seed generates: the 20
`simulate` CLI jobs and the 90 library jobs (45 `martingale_check` and 45
`sample_path` calls), each of whose return values is written to a file as
bytes (each array's dtype, shape and data, each float's 8 bytes).
The report lists, per tree, the jobs that fail their check (against
perfbench/reference.json for analytic jobs) and, per job kind (the last part
of the job id), the work the jobs did: scalar Perron solves (calls of
mapq.spectral._solve_one, one-state closed forms included; in a tree
without it, calls of mapq.spectral.eig, which that tree's scalar solves
made once each), stacked eigensolve slices (matrices passed to
numpy.linalg.eig, F and F^T each counted; a tree whose perron_grid solves
a one-state kernel's stack in closed form passes it none), Rayleigh
integrations (laws integrated by mapq.laws._capacity_integrals: the rows of
its (law, theta) exponent stack, or one per call in a tree that integrates
one law per call), quadrature calls (calls of mapq.laws._capacity_integrals)
and bivariate normal CDFs (calls of mapq.copulas.bvn_cdf, the Gaussian
copula's work).  With --base it also lists the job kinds where this tree
does more of that work than the base, the jobs whose exit code or failure
differs, how many output files are byte-identical, the configs whose files
differ (with how many files each), the worst relative difference of a
numeric cell per job kind and, per CSV column whose cells move, the worst
relative difference and the worst |difference| / max(1, |base|).  For
simulate-fading it lists instead, per job, which files are byte-identical
and, per level of tails.csv, the hits of each tree and |p_hat - p_hat_base|
in binomial standard errors of the pooled estimate, then how many library
return values are byte-identical, naming any that differ.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
WORK = ("scalar solves", "stacked eig slices", "Rayleigh integrations", "quadrature calls",
        "bvn_cdf calls")


def _count_work():
    """Wrap the counted calls; returns the list of running counts (WORK order)."""
    import numpy as np

    from mapq import copulas, laws, spectral

    counts = [0] * len(WORK)

    def counting(owner, name, k, size):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[k] += size(args[0])
            return real(*args, **kwargs)

        setattr(owner, name, wrapper)

    counting(spectral, "_solve_one" if hasattr(spectral, "_solve_one") else "eig", 0,
             lambda a: 1)
    counting(np.linalg, "eig", 1, lambda a: len(a) if np.ndim(a) == 3 else 1)
    counting(laws, "_capacity_integrals", 2, lambda n: len(n) if np.ndim(n) == 2 else 1)
    counting(laws, "_capacity_integrals", 3, lambda n: 1)
    counting(copulas, "bvn_cdf", 4, lambda a: 1)
    return counts


def run_tree(src, out, workload, seed):
    """Child: run the workload's jobs with mapq from `src`; write problems.json to `out`."""
    sys.path[:0] = [os.path.abspath(src), PERFBENCH]
    import checks
    import numpy as np
    import workloads

    reference = workloads.load_reference(os.path.join(PERFBENCH, "reference.json"))
    if workload == "analytic-fading":
        jobs = workloads.build(workload, 0, out, reference, entries=workloads.analytic_pool())
    else:
        jobs = workloads.build(workload, seed, out, reference)
        os.makedirs(os.path.join(out, "lib"), exist_ok=True)

    def as_bytes(value):
        if isinstance(value, tuple):
            return b"".join(as_bytes(v) for v in value)
        a = np.asarray(value)
        return f"{a.dtype.str}{a.shape}".encode() + a.tobytes()

    counts = _count_work()
    problems = {}
    for job in jobs:
        before = list(counts)
        result = err = None
        try:
            result = job.run()
        except Exception as exc:  # reported as a problem of the job
            err = exc
        signature = checks.failure_signature(job, result, err)
        if signature is None:
            found = job.check(result)
        elif job.known_defect and signature == checks.KNOWN_DEFECTS[job.known_defect]:
            found = []
        else:
            found = [f"failed with {signature}"]
        files = job.files
        if not files and result is not None:  # a library job: its return value
            files = [os.path.join(out, "lib", f"{job.id}.bin")]
            with open(files[0], "wb") as fh:
                fh.write(as_bytes(result))
        problems[job.id] = {"problems": found, "signature": signature,
                            "files": [os.path.relpath(p, out) for p in files],
                            "work": [c - b for c, b in zip(counts, before)]}
    with open(os.path.join(out, "problems.json"), "w", encoding="utf-8") as fh:
        json.dump(problems, fh)


def _spawn(src, out, workload, seed):
    subprocess.run([sys.executable, os.path.abspath(__file__), "--run", src, "--out", out,
                    "--workload", workload, "--seed", str(seed)], check=True)
    with open(os.path.join(out, "problems.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _work_by_kind(problems):
    """The WORK counts of a tree's jobs, summed per job kind (the id's last
    part without its number: sf-mart3 is a mart job)."""
    out = {}
    for job_id, info in problems.items():
        total = out.setdefault(job_id.rsplit("-", 1)[-1].rstrip("0123456789"), [0] * len(WORK))
        total[:] = [t + n for t, n in zip(total, info["work"])]
    return out


def _worst(a, b, where, worst):
    """Walk two parsed outputs; keep the largest relative cell difference."""
    if isinstance(a, float) and isinstance(b, float):
        if a != b and not (math.isnan(a) and math.isnan(b)):
            rel = abs(a - b) / max(abs(a), abs(b))
            if rel > worst[0]:
                worst[:] = [rel, where, a, b]
    elif isinstance(a, (list, dict)) and type(a) is type(b) and len(a) == len(b):
        keys = a.keys() if isinstance(a, dict) else range(len(a))
        for k in keys:
            if isinstance(a, dict) and k not in b:
                worst[:] = [math.inf, f"{where}.{k}", "key", "missing"]
                return
            _worst(a[k], b[k], f"{where}[{k}]", worst)
    elif a != b:
        worst[:] = [math.inf, where, a, b]


def _column_moves(base_rows, src_rows, moves):
    """Per column of two parsed CSVs with one header: keep the largest relative
    and the largest |difference| / max(1, |base|) of its numeric cells."""
    for base_row, src_row in zip(base_rows[1:], src_rows[1:]):
        for name, a, b in zip(base_rows[0], base_row, src_row):
            if isinstance(a, float) and isinstance(b, float) and a != b:
                worst = moves.setdefault(name, [0.0, 0.0])
                worst[0] = max(worst[0], abs(a - b) / max(abs(a), abs(b)))
                worst[1] = max(worst[1], abs(a - b) / max(1.0, abs(a)))


def _simulate_order(item):
    """Simulate jobs first, by number, then library jobs by name and number:
    sf-12-delay, then sf-mart3, then sf-path7."""
    head = item[0].split("-")[1]
    name = head.rstrip("0123456789")
    return name, int(head[len(name):])


def _tails_report(runs, work):
    """Per simulate job: the byte-identical files and, per tails.csv level, the
    hits of both trees and |delta p_hat| in pooled binomial standard errors;
    then the byte-identical library return values."""
    import checks

    z_all = []
    identical = compared = 0
    library = [0, 0]  # byte-identical, compared
    for job_id, info in sorted(runs["src"].items(), key=_simulate_order):
        same = []
        for rel in info["files"]:
            paths = [os.path.join(work, name, rel) for name in ("src", "base")]
            if not all(os.path.exists(p) for p in paths):
                continue
            with open(paths[0], "rb") as fa, open(paths[1], "rb") as fb:
                equal = fa.read() == fb.read()
            if rel.endswith(".bin"):
                library[0] += equal
                library[1] += 1
                if not equal:
                    print(f"  {job_id}: return value differs")
                continue
            compared += 1
            identical += equal
            same.append(f"{os.path.basename(rel)} {'identical' if equal else 'differs'}")
            if not rel.endswith("tails.csv"):
                continue
            rows, base_rows = (checks.read_output(p)[1:] for p in paths)
            for row, base_row in zip(rows, base_rows):
                level, hits, base_hits, n = row[0], row[3], base_row[3], row[4]
                pooled = (hits + base_hits) / (2 * n)
                se = math.sqrt(2.0 * pooled * (1.0 - pooled) / n)
                z_all.append(abs(hits - base_hits) / n / se if se > 0 else 0.0)
                same.append(f"level {level:g}: hits {hits:g} (base {base_hits:g}) of {n:g},"
                            f" |dp| = {z_all[-1]:.2f} se")
        if same:
            print(f"  {job_id}: " + "\n    ".join(same))
    print(f"{identical} of {compared} output files byte-identical")
    print(f"{library[0]} of {library[1]} library return values byte-identical")
    if z_all:
        z_all.sort()
        print(f"tails.csv levels: {len(z_all)}; |dp| in pooled se: median "
              f"{z_all[len(z_all) // 2]:.2f}, max {z_all[-1]:.2f}; "
              f"{sum(z > 2 for z in z_all)} above 2, {sum(z > 3 for z in z_all)} above 3")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    parser.add_argument("--base", help="a second mapq src/ tree to compare with")
    parser.add_argument("--workload", choices=("analytic-fading", "simulate-fading"),
                        default="analytic-fading")
    parser.add_argument("--seed", type=int, default=1,
                        help="run seed of the simulate-fading jobs (default 1)")
    parser.add_argument("--run", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.run:
        run_tree(args.run, args.out, args.workload, args.seed)
        return 0
    sys.path.insert(0, PERFBENCH)
    import checks

    with tempfile.TemporaryDirectory() as work:
        trees = {"src": args.src, **({"base": args.base} if args.base else {})}
        runs = {name: _spawn(src, os.path.join(work, name), args.workload, args.seed)
                for name, src in trees.items()}
        work_by_kind = {name: _work_by_kind(problems) for name, problems in runs.items()}
        failed = 0
        for name, problems in runs.items():
            bad = {k: v["problems"] for k, v in problems.items() if v["problems"]}
            failed += len(bad) if name == "src" else 0
            print(f"{name} ({trees[name]}): {len(problems)} jobs, {len(bad)} failing their check")
            for job_id, found in sorted(bad.items()):
                print(f"  {job_id}: {'; '.join(found)[:300]}")
            print(f"  per job kind: {' / '.join(WORK)}")
            for kind, done in sorted(work_by_kind[name].items()):
                print(f"    {kind}: {' / '.join(map(str, done))}")
        if args.base and args.workload == "simulate-fading":
            _tails_report(runs, work)
        elif args.base:
            more = [f"{kind} ({WORK[k]} {n} > {work_by_kind['base'][kind][k]})"
                    for kind, done in sorted(work_by_kind["src"].items())
                    for k, n in enumerate(done) if n > work_by_kind["base"].get(kind, done)[k]]
            print("more work than base: " + (", ".join(more) if more else "none"))
            moved_exit = [job_id for job_id, info in sorted(runs["src"].items())
                          if info["signature"] != runs["base"].get(job_id, {}).get("signature")]
            print("exit codes or failures that differ: " + (", ".join(moved_exit) or "none"))
            files = {}  # kind -> [byte-identical, compared]
            worst = {}
            columns = {}  # kind -> {column: [relative, scaled]}
            moved = {}  # config (the job id without its kind) -> files that differ
            for job_id, info in sorted(runs["src"].items()):
                kind = job_id.rsplit("-", 1)[-1]
                for rel in info["files"]:
                    paths = [os.path.join(work, name, rel) for name in ("src", "base")]
                    if not all(os.path.exists(p) for p in paths):
                        continue
                    count = files.setdefault(kind, [0, 0])
                    count[1] += 1
                    with open(paths[0], "rb") as fa, open(paths[1], "rb") as fb:
                        if fa.read() == fb.read():
                            count[0] += 1
                            continue
                    config = job_id.rsplit("-", 1)[0]
                    moved[config] = moved.get(config, 0) + 1
                    w = worst.setdefault(kind, [0.0, None, None, None])
                    base, src = checks.read_output(paths[1]), checks.read_output(paths[0])
                    _worst(base, src, f"{job_id}/{os.path.basename(rel)}", w)
                    if rel.endswith(".csv"):
                        _column_moves(base, src, columns.setdefault(kind, {}))
            print(f"{sum(c[0] for c in files.values())} of {sum(c[1] for c in files.values())}"
                  " output files byte-identical")
            print("files that differ, per config: "
                  + (", ".join(f"{c} ({n})" for c, n in sorted(moved.items())) or "none"))
            for kind in sorted(files):
                line = f"  {kind}: {files[kind][0]} of {files[kind][1]} byte-identical"
                if kind in worst:
                    rel, where, a, b = worst[kind]
                    line += (f", worst relative cell difference {rel:.3g}"
                             f" at {where} (base {a!r}, src {b!r})")
                print(line)
                for name, (relative, scaled) in sorted(columns.get(kind, {}).items()):
                    print(f"    column {name} moves: relative {relative:.3g},"
                          f" |difference| / max(1, |base|) {scaled:.3g}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
