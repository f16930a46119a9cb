"""Run the CLI jobs of one benchmark workload against one or two mapq source trees.

    python3 tools/pool_diff.py                     # this checkout's src/
    python3 tools/pool_diff.py --base OTHER/src    # and compare with another tree
    python3 tools/pool_diff.py --workload simulate-fading --seed 1 --base OTHER/src
    python3 tools/pool_diff.py --base OTHER/src --time 5   # and time both trees

Each tree's jobs run in-process in one child interpreter that imports mapq
from that tree; the jobs, their checks and the output parser come from
perfbench/workloads.py and perfbench/checks.py.  analytic-fading runs every
pool job; simulate-fading runs every job that --seed generates: the 20
`simulate` CLI jobs and the 90 library jobs (45 `martingale_check` and 45
`sample_path` calls), each of whose return values is written to a file as
bytes (each array's dtype, shape and data, each float's 8 bytes).
The report lists, per tree, the jobs that fail their check (against
perfbench/reference.json for analytic jobs) and, per job kind (the last part
of the job id), the work the jobs did: what each job added to the counts
that mapq's solvers and samplers keep in mapq.counters (scalar solves,
stacked matrices, Rayleigh integrations, quadrature calls and steps,
bivariate normal CDFs, state draws and increment draws; that module defines
each), with "-" for a count that a tree does not keep.  With --base it also lists the job
kinds where this tree does more of that work than the base, those where it
does less (a count that either tree does not keep is not compared) and the
jobs whose exit code or failure differs.  For analytic-fading it then lists how many output files
are byte-identical, the configs whose files differ (with how many files
each), the worst relative difference of a numeric cell per job kind and,
per CSV column whose cells move, the worst relative difference and the
worst |difference| / max(1, |base|); rows not as wide as their header are
counted apart, unattributed to any column.  For simulate-fading it lists
instead, per job, which files are byte-identical and, per level of
tails.csv, the hits of each tree and |p_hat - p_hat_base| in binomial
standard errors of the pooled estimate, then how many library return
values are byte-identical, naming any that differ.

With --time PASSES (analytic-fading with --base only) it then times the
two trees against each other.  Each tree gets one warm child interpreter
that reads job indices on stdin and answers with the seconds each job took.
Every spectral, delay, backlog, horizon and dcc job runs in both children
back to back, the order of the two alternating from one job to the next, in
one warm pass and then PASSES passes, each in a fixed shuffled order.  It
prints, per job kind and over all of them, the median and quartiles of
t_src / t_base over jobs x passes; the warm pass is not counted.  Timing
leaves the exit status alone.

The exit status is 1 when a job of this tree fails its check and, with
--base, when a job kind does more work than the base or a job's exit code
or failure differs; else 0.
"""

import argparse
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
# the keys of mapq.counters.COUNTS, in report order
WORK = ("scalar_solves", "stacked_matrices", "rayleigh_integrations", "quadrature_calls",
        "quadrature_steps", "bvn_cdf_calls", "state_draws", "increment_draws")
# the analytic job kinds that --time times
TIMED = ("spectral", "delay", "backlog", "horizon", "dcc")


def work_since():
    """A function that returns the work mapq has done since this call, in WORK
    order, with None for a count that this mapq does not keep."""
    from mapq import counters

    done = counters.tally()
    return lambda: [done().get(k) for k in WORK]


def _jobs(src, out, workload, seed):
    """Child: the workload's jobs, writing under `out`, with mapq from `src`."""
    sys.path[:0] = [os.path.abspath(src), PERFBENCH]
    import workloads

    reference = workloads.load_reference(os.path.join(PERFBENCH, "reference.json"))
    if workload == "analytic-fading":
        return workloads.build(workload, 0, out, reference, entries=workloads.analytic_pool())
    os.makedirs(os.path.join(out, "lib"), exist_ok=True)
    return workloads.build(workload, seed, out, reference)


def run_tree(src, out, workload, seed):
    """Child: run the workload's jobs with mapq from `src`; write problems.json to `out`."""
    jobs = _jobs(src, out, workload, seed)
    import checks
    import numpy as np

    def as_bytes(value):
        if isinstance(value, tuple):
            return b"".join(as_bytes(v) for v in value)
        a = np.asarray(value)
        return f"{a.dtype.str}{a.shape}".encode() + a.tobytes()

    problems = {}
    for job in jobs:
        done = work_since()
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
                            "work": done()}
    with open(os.path.join(out, "problems.json"), "w", encoding="utf-8") as fh:
        json.dump(problems, fh)


def serve_timings(src, out):
    """Child: print the ids of the analytic-fading jobs as one JSON line, then
    run each job index read on stdin and print the seconds it took, until
    stdin closes."""
    reply = sys.stdout  # the CLI jobs redirect sys.stdout while they run
    jobs = _jobs(src, out, "analytic-fading", 0)
    print(json.dumps([job.id for job in jobs]), file=reply, flush=True)
    for line in iter(sys.stdin.readline, ""):
        job = jobs[int(line)]
        start = time.perf_counter()
        try:
            job.run()
        except Exception:  # the child keeps serving; the job is timed all the same
            traceback.print_exc()
        print(repr(time.perf_counter() - start), file=reply, flush=True)


def timing_schedule(n_jobs, passes):
    """(pass, job index, whether src runs first) for every pair of runs: pass 0
    (the warm pass) in index order, then passes 1..`passes`, each in the
    order of random.Random(pass).shuffle; src runs first at every other pair."""
    pairs = []
    for p in range(passes + 1):
        order = list(range(n_jobs))
        if p:
            random.Random(p).shuffle(order)
        pairs += [(p, i) for i in order]
    return [(p, i, k % 2 == 0) for k, (p, i) in enumerate(pairs)]


def ratio_summary(timings):
    """{kind: (pairs, first quartile, median, third quartile)} of t_src / t_base
    over the (kind, t_src, t_base) timings, per kind in sorted order and then
    over them all as "all"."""
    import numpy as np

    ratios = {}
    for kind, t_src, t_base in timings:
        ratios.setdefault(kind, []).append(t_src / t_base)
    ratios = dict(sorted(ratios.items()))
    ratios["all"] = [r for kind_ratios in ratios.values() for r in kind_ratios]
    return {kind: (len(r), *map(float, np.percentile(r, [25, 50, 75])))
            for kind, r in ratios.items()}


def _time_trees(trees, work, passes):
    """Time the TIMED jobs of both trees against each other (see the module doc)."""
    children = {name: subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--serve", src,
         "--out", os.path.join(work, f"time-{name}")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True) for name, src in trees.items()}
    try:
        ids = [json.loads(child.stdout.readline()) for child in children.values()]
        if ids[0] != ids[1]:
            raise RuntimeError("the two trees build different job lists")
        timed = [(i, job_id.rsplit("-", 1)[-1]) for i, job_id in enumerate(ids[0])
                 if job_id.rsplit("-", 1)[-1] in TIMED]

        def run(name, index):
            child = children[name]
            child.stdin.write(f"{index}\n")
            child.stdin.flush()
            return float(child.stdout.readline())

        timings = []
        for p, k, src_first in timing_schedule(len(timed), passes):
            index, kind = timed[k]
            order = ("src", "base") if src_first else ("base", "src")
            t = {name: run(name, index) for name in order}
            if p:
                timings.append((kind, t["src"], t["base"]))
    finally:
        for child in children.values():
            child.stdin.close()
            child.wait()
    print(f"timing: {len(timed)} jobs x {passes} passes after 1 warm pass;"
          " t_src / t_base per job kind: median [quartiles] (pairs)")
    for kind, (n, q1, median, q3) in ratio_summary(timings).items():
        print(f"  {kind}: {median:.4f} [{q1:.4f}, {q3:.4f}] ({n})")


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
        total[:] = [None if n is None else t + n for t, n in zip(total, info["work"])]
    return out


def _changes(runs, work_by_kind):
    """(the job kinds that do more of some work in src than in base, each with
    the count that grew; those that do less, each with the count that fell;
    the jobs whose exit code or failure differs).  A count that either tree
    does not keep is not compared."""
    base = work_by_kind["base"]
    counts = [(kind, name, n, b) for kind, done in sorted(work_by_kind["src"].items())
              for name, n, b in zip(WORK, done, base.get(kind, done)) if None not in (n, b)]
    more = [f"{kind} ({name} {n} > {b})" for kind, name, n, b in counts if n > b]
    less = [f"{kind} ({name} {n} < {b})" for kind, name, n, b in counts if n < b]
    moved = [job_id for job_id, info in sorted(runs["src"].items())
             if info["signature"] != runs["base"].get(job_id, {}).get("signature")]
    return more, less, moved


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
    and the largest |difference| / max(1, |base|) of its numeric cells.  A row
    whose width differs from the header's cannot name its cells' columns:
    return how many such rows there are."""
    header = base_rows[0]
    unattributed = 0
    for base_row, src_row in zip(base_rows[1:], src_rows[1:]):
        if len(base_row) != len(header) or len(src_row) != len(header):
            unattributed += 1
            continue
        for name, a, b in zip(header, base_row, src_row):
            if isinstance(a, float) and isinstance(b, float) and a != b:
                worst = moves.setdefault(name, [0.0, 0.0])
                worst[0] = max(worst[0], abs(a - b) / max(abs(a), abs(b)))
                worst[1] = max(worst[1], abs(a - b) / max(1.0, abs(a)))
    return unattributed


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
    parser.add_argument("--time", type=int, metavar="PASSES",
                        help="time the spectral, delay, backlog, horizon and dcc jobs of both"
                             " trees over PASSES shuffled passes (analytic-fading with --base)")
    parser.add_argument("--run", help=argparse.SUPPRESS)
    parser.add_argument("--serve", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.run:
        run_tree(args.run, args.out, args.workload, args.seed)
        return 0
    if args.serve:
        serve_timings(args.serve, args.out)
        return 0
    if args.time is not None and not (args.base and args.workload == "analytic-fading"
                                      and args.time >= 1):
        parser.error("--time takes a positive pass count, with --base, on analytic-fading")
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
                print(f"    {kind}: {' / '.join('-' if n is None else str(n) for n in done)}")
        regressions = []
        if args.base:
            more, less, moved_exit = _changes(runs, work_by_kind)
            print("more work than base: " + (", ".join(more) or "none"))
            print("less work than base: " + (", ".join(less) or "none"))
            print("exit codes or failures that differ: " + (", ".join(moved_exit) or "none"))
            regressions = more + moved_exit
        if args.base and args.workload == "simulate-fading":
            _tails_report(runs, work)
        elif args.base:
            files = {}  # kind -> [byte-identical, compared]
            worst = {}
            columns = {}  # kind -> {column: [relative, scaled]}
            unattributed = {}  # kind -> rows of differing CSVs not as wide as the header
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
                        n = _column_moves(base, src, columns.setdefault(kind, {}))
                        unattributed[kind] = unattributed.get(kind, 0) + n
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
                if unattributed.get(kind):
                    print(f"    {unattributed[kind]} rows not as wide as their header:"
                          " their cells are attributed to no column")
        if args.time:
            _time_trees(trees, work, args.time)
    return 1 if failed or regressions else 0


if __name__ == "__main__":
    sys.exit(main())
