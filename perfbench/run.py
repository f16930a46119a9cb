"""mapq benchmark: one seeded workload, end-to-end or per-layer metrics.

Run from the root of a mapq checkout:

    python3 perfbench/run.py --workload analytic-fading --seed 1 --seconds 35 --trace 0

Workloads: analytic-fading and simulate-fading (see
BENCHMARK.json for why each exists).  Each run is a closed loop with one
client: the workload's jobs run one after another, in rounds.  A run makes
--seconds / NOMINAL_ROUND_S rounds, so the jobs it attempts, and those that
fail, depend on its arguments alone.  Every job's output is checked after
the job, outside its timed region.

Times are paced (pace.py): each job's latency is scaled by the time of a
fixed pure-Python loop run just before and after it.  A small shared
host's speed drifts by a third or more in phases longer than a run, so raw
times of the same code spread by 20-30% between runs.  mapq's code never
runs inside the loop, so a change to mapq moves paced times as it moves
raw ones.  A job then counts with its fastest paced latency over the run's
rounds, which drops what pacing misses (interrupts, collections).  The
human-readable lines also give the unpaced round time and the loop's time.

--trace 0 reports the end-to-end metrics: setup_s (median of several fresh
interpreters importing mapq and building the inputs, each paced by loops
run around it), wall_s (one round: the sum of the jobs' latencies),
job_p50_s and job_p90_s (over the jobs), peak_rss_mb (this process).
--trace 1 wraps mapq's public functions (tracing.py), alternates traced
and untraced rounds, and reports the per-layer metrics; span times there
are unpaced, and the spans are written to .perfbench_out/ at the end.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

import os

# the loop is single-threaded; one BLAS thread keeps it within nproc and steady
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import pace  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORK_DIR = ".perfbench_work"
OUT_DIR = ".perfbench_out"
SETUP_PROBES = 5
SETUP_CALS = 3  # calibrations between two probes
PROBE_TIMEOUT_S = 120
# about the seconds one round takes on a 2-vCPU host; a run makes
# --seconds / NOMINAL_ROUND_S rounds, at least MIN_ROUNDS
NOMINAL_ROUND_S = {"analytic-fading": 8.5, "simulate-fading": 7.5}
MIN_ROUNDS = 3
# on a host much slower than that, stop before a run passes OVERRUN x --seconds
OVERRUN = 3.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "peak_rss_mb": "MB",
}


def measure_setup(workload, seed):
    """Median paced set-up time over fresh interpreters (probe.py), each
    paced by calibrations just before and just after it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p))
    times, cals = [], [pace.calibrate() for _ in range(SETUP_CALS)]
    for i in range(SETUP_PROBES):
        workdir = os.path.join(ROOT, WORK_DIR, f"probe-{os.getpid()}-{i}")
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "probe.py"), "--workload", workload,
             "--seed", str(seed), "--workdir", workdir],
            env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        times.append(float(proc.stdout.split()[-1]))
        cals += [pace.calibrate() for _ in range(SETUP_CALS)]
    return statistics.median(
        t * pace.CAL_REFERENCE_S / statistics.median(cals[i * SETUP_CALS:(i + 2) * SETUP_CALS])
        for i, t in enumerate(times))


def classify(job, out, err):
    """(status, problems): ok, a known defect's name, error:<type> or check."""
    signature = checks.failure_signature(job, out, err)
    if job.known_defect and signature == checks.KNOWN_DEFECTS[job.known_defect]:
        return job.known_defect, []
    if err is not None:
        return f"error:{signature}", [f"{job.id}: {signature}: {err}"]
    problems = job.check(out)
    return ("check", problems) if problems else ("ok", [])


def run_round(jobs, tracer=None):
    latencies, cals, statuses, problems = [], [], [], []
    for i, job in enumerate(jobs):
        out = err = None
        cals.append(pace.calibrate())
        if tracer is not None:
            tracer.job = i
            tracer.on = True
        t0 = time.perf_counter()
        try:
            out = job.run()
        except Exception as exc:  # a failing job is counted and reported, not fatal
            err = exc
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.on = False
        latencies.append(t1 - t0)
        status, found = classify(job, out, err)
        statuses.append(status)
        problems += found
    cals.append(pace.calibrate())
    unpaced = {"raw_s": math.fsum(latencies), "cal_s": statistics.median(cals)}
    return pace.paced(latencies, cals), statuses, problems, unpaced


def closed_loop(jobs, n_rounds, seconds, traced):
    """`n_rounds` rounds, fewer only if the run would pass OVERRUN x `seconds`.

    Traced runs go memory round (traced, tracemalloc around tail_estimate),
    then alternate untraced and traced rounds.
    """
    tracer = tracing.Tracer() if traced else None
    rounds = []
    t_start = time.perf_counter()
    while len(rounds) < n_rounds:
        if not traced:
            kind = "plain"
        elif not rounds:
            kind = "memory"
        else:
            kind = "plain" if rounds[-1]["kind"] != "plain" else "traced"
        stats = None
        if kind != "plain":
            tracer.reset()
            tracer.measure_memory = kind == "memory"
            tracer.install()
            try:
                result = run_round(jobs, tracer)
            finally:
                tracer.uninstall()
            stats = tracing.RoundStats(tracer)
        else:
            result = run_round(jobs)
        latencies, statuses, problems, unpaced = result
        rounds.append({"kind": kind, "latencies": latencies, "statuses": statuses,
                       "problems": problems, "stats": stats, **unpaced})
        elapsed = time.perf_counter() - t_start
        if MIN_ROUNDS <= len(rounds) < n_rounds and \
                elapsed * (len(rounds) + 1) / len(rounds) > OVERRUN * seconds:
            print(f"warning: stopped after {len(rounds)} of {n_rounds} rounds "
                  f"({elapsed:.1f} s); this host is slower than NOMINAL_ROUND_S assumes",
                  file=sys.stderr)
            break
    return rounds


def quantile(values, q):
    return float(statistics.quantiles(values, n=100, method="inclusive")[int(q * 100) - 1])


def write_spans(workload, rounds):
    """All spans of the traced rounds, to .perfbench_out/<workload>.spans.npz."""
    traced = [r for r in rounds if r["stats"] is not None]
    os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
    arrays = {k: np.concatenate([r["stats"].sp[k] for r in traced])
              for k in traced[0]["stats"].sp}
    arrays["round"] = np.concatenate([np.full(len(r["stats"].dur), i)
                                      for i, r in enumerate(traced)])
    arrays["names"] = np.array(traced[0]["stats"].names)
    np.savez(os.path.join(ROOT, OUT_DIR, f"{workload}.spans.npz"), **arrays)


def report(workload, seed, setup_s, jobs, rounds, traced):
    plain = [r for r in rounds if r["kind"] == "plain"]
    # each job at its fastest paced latency over the untraced rounds
    best = [min(r["latencies"][i] for r in plain) for i in range(len(jobs))]
    statuses = [s for r in rounds for s in r["statuses"]]
    problems = [p for r in rounds for p in r["problems"]]
    attempted = len(statuses)
    failed = sum(s != "ok" for s in statuses)
    # a known defect counts as failed but does not make the outputs incorrect
    correct = not any(s == "check" or s.startswith("error:") for s in statuses)

    sim_jobs = [i for i, j in enumerate(jobs) if j.kind == "cli.simulate"]
    sim_time = sum(best[i] for i in sim_jobs)
    sim_slot_rate = sum(jobs[i].slots for i in sim_jobs) / sim_time if sim_time else 0.0
    lines = [f"{workload} seed={seed}: {len(rounds)} rounds of {len(jobs)} jobs, "
             f"{attempted} jobs run"]
    lines.append(f"failed_ratio = {failed / attempted:.6g} (fraction; {failed} of {attempted})")
    for name in sorted(set(statuses) - {"ok"}):
        lines.append(f"  failed as {name}: {statuses.count(name)}")
    for p in problems[:20]:
        lines.append(f"  problem: {p}")

    if not traced:
        metrics = {
            "setup_s": setup_s,
            "wall_s": math.fsum(best),
            "job_p50_s": quantile(best, 0.5),
            "job_p90_s": quantile(best, 0.9),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: (v, END_TO_END[k]) for k, v in metrics.items()}
        lines.append(f"job latencies: {len(best)} jobs, each its fastest of {len(plain)} "
                     f"rounds; {sum(x > metrics['job_p90_s'][0] for x in best)} above p90")
        raw_s = statistics.median(r["raw_s"] for r in plain)
        cal_ms = statistics.median(r["cal_s"] for r in plain) * 1e3
        lines.append(f"unpaced round: median {raw_s:.4g} s; pacing loop: median {cal_ms:.4g} ms, "
                     f"reference {pace.CAL_REFERENCE_S * 1e3:.4g} ms")
        if sim_jobs:
            lines.append(f"sim_slot_rate = {sim_slot_rate:.6g} replication-slots/s")
    else:
        # times come from traced rounds without tracemalloc, when there are any
        timed = [r for r in rounds if r["kind"] == "traced"] or rounds[:1]
        metrics = tracing.layer_metrics([r["stats"] for r in timed], rounds[0]["stats"])
        traced_wall = statistics.mean(sum(r["latencies"]) for r in timed)
        plain_wall = statistics.mean(sum(r["latencies"]) for r in plain)
        metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
        metrics["sim_slot_rate"] = (sim_slot_rate, "slots/s")
        for defect in checks.KNOWN_DEFECTS:  # per round, like the other counts
            metrics[f"known_defect.{defect}"] = (float(rounds[0]["statuses"].count(defect)),
                                                 "count")
        write_spans(workload, rounds)
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} = {value:.6g} {unit}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "mapq", "__init__.py")):
        print("error: run from the root of a mapq checkout (no src/mapq here)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    setup_s = measure_setup(args.workload, args.seed) if not args.trace else 0.0
    workdir = os.path.join(ROOT, WORK_DIR, f"{args.workload}-{os.getpid()}")
    try:
        reference = workloads.load_reference(os.path.join(HERE, "reference.json"))
        jobs = workloads.build(args.workload, args.seed, workdir, reference)
        n_rounds = max(MIN_ROUNDS, int(args.seconds / NOMINAL_ROUND_S[args.workload]))
        rounds = closed_loop(jobs, n_rounds, args.seconds, bool(args.trace))
        report(args.workload, args.seed, setup_s, jobs, rounds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
