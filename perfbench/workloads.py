"""Seeded job generators for the two benchmark workloads.

A workload is a list of jobs that one round of the closed loop runs in
order.  Analytic jobs are drawn from a fixed pool (generated from
POOL_SEED) whose outputs were recorded in reference.json, so that every
job a run seed can pick has a reference value; the run seed chooses
PICKS pool entries per stratum.  Simulation jobs are generated from the
run seed directly, because their checks are statistical and need no
reference.

Strata fix the shape of a round (state counts, arrival kinds, job kinds,
replications x horizon), so the cost of a round barely depends on the seed.
The order of the jobs is fixed too: with a seeded order the peak resident
memory of simulate-fading moved by 10% between seeds.  Every seed runs
the same number of jobs that hit a known defect (see pick), so the
failure count of a run does not depend on its seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import yaml
from scipy.special import exp1

import checks

WORKLOADS = ("analytic-fading", "simulate-fading")
POOL_SEED = 1805
POOL_DEPTH = 3  # pool entries per stratum
PICKS = 2  # pool entries per stratum in one run


@dataclass
class Job:
    """One CLI invocation or one library call, plus how to check its output."""

    id: str
    kind: str
    run: Callable[[], object]
    check: Callable[[object], list]
    slots: int = 0  # replication-slots simulated, for the slot rate
    known_defect: str | None = None  # name of the defect this job is expected to hit
    ref_input: str | None = None  # hash of the inputs its reference value belongs to
    files: list = field(default_factory=list)  # output files of a CLI job


def input_hash(spec) -> str:
    text = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _r(x, digits=4):
    """Round generated parameters so configs print short and parse exactly."""
    return float(round(float(x), digits))


def _probs(rng, k, floor):
    """A probability vector with every entry at least `floor`, summing to 1."""
    w = floor + (1.0 - k * floor) * rng.dirichlet(np.full(k, 2.0))
    w = [_r(x) for x in w[:-1]]
    return w + [1.0 - math.fsum(w)]


def rayleigh_mean(bandwidth, snr_db):
    snr = 10.0 ** (snr_db / 10.0)
    return bandwidth / math.log(2.0) * math.exp(1.0 / snr) * float(exp1(1.0 / snr))


def _stationary(p):
    p = np.asarray(p, dtype=float)
    n = p.shape[0]
    a = np.vstack([p.T - np.eye(n), np.ones(n)])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    return np.linalg.lstsq(a, b, rcond=None)[0]


# ---------------------------------------------------------------------------
# configs shared by analytic-fading and simulate-fading


def fading_config(rng, n, arrival_kind, family, bandwidth, load):
    """YAML document: Rayleigh service whose power chain comes from a copula.

    The SNR depends on the source power state; the chain is stationary at
    varpi, so the mean service rate is sum_i varpi_i E[C_i].
    """
    # SNR levels jitter around a fixed ladder: quadrature cost depends on the
    # SNR, so a fixed ladder keeps the cost of a stratum steady across seeds
    snr_db = [_r(x, 2) for x in np.linspace(25.0, 0.0, n) + rng.uniform(-2.0, 2.0, n)]
    varpi = _probs(rng, n, 0.1)
    if family == "frechet1":
        copula = {"family": "frechet1", "alpha": _r(rng.uniform(-0.6, 0.8), 3)}
    else:
        copula = {"family": "gauss2", "rho": _r(rng.uniform(-0.5, 0.8), 3)}
    mu = sum(w * rayleigh_mean(bandwidth, s) for w, s in zip(varpi, snr_db))
    rho = _r(rng.uniform(load[0], load[1]), 3)
    doc = {
        "service": {
            "channel": {
                "bandwidth": bandwidth,
                "snr": [[f"db:{s}"] * n for s in snr_db],
                "states": [f"p{i}" for i in range(n)],
            },
            "copula": copula,
            "varpi": varpi,
        },
    }
    if arrival_kind == "constant":
        doc["arrival"] = {"constant": _r(rho * mu, 6)}
    else:
        a, b = (_r(x, 3) for x in rng.uniform(0.05, 0.3, 2))
        p = [[1.0 - a, a], [b, 1.0 - b]]
        pi = _stationary(p)
        # per-state pmfs on {0, x, 2x}; the burst state carries more mass up top
        shapes = [_probs(rng, 3, 0.05) for _ in range(2)]
        shapes.sort(key=lambda q: q[1] + 2 * q[2])
        unit_mean = sum(pi[i] * (q[1] + 2 * q[2]) for i, q in enumerate(shapes))
        x = _r(rho * mu / unit_mean, 6)
        laws = [{"law": "pmf", "support": [0.0, x, 2 * x], "probs": q} for q in shapes]
        doc["arrival"] = {"kernel": {
            "states": ["calm", "burst"],
            "transition": p,
            "increments": [[laws[0], laws[0]], [laws[1], laws[1]]],
            "initial_dist": [float(v) for v in pi],
        }}
    return doc, mu


def write_config(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(doc, fh, sort_keys=True)


def _cli_job(job_id, kind, argv, files, check, **extra):
    """Run `mapq <argv>` in-process; `check` reads the output `files` afterwards."""
    from mapq import cli

    def run():
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                return cli.main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                return exc.code

    return Job(job_id, kind, run, check, files=files, **extra)


# ---------------------------------------------------------------------------
# analytic-fading


ANALYTIC_STRATA = [
    (n, arrival, family)
    for n in (2, 3, 4)
    for arrival in ("constant", "pmf")
    for family in ("frechet1", "gauss2")
]


def analytic_pool():
    """Pool entries: (stratum key, depth index, config doc, job argument lists,
    closed-form theta* or None)."""
    rng = np.random.default_rng([POOL_SEED, 1])
    pool = []
    for n, arrival, family in ANALYTIC_STRATA:
        for k in range(POOL_DEPTH):
            doc, mu = fading_config(rng, n, arrival, family, 20.0, (0.4, 0.8))
            varpi_c = _probs(rng, n, 0.1)
            doc["copulas"] = {"varpi": varpi_c, "copula": doc["service"]["copula"],
                              "horizon": int(rng.integers(2, 7))}
            thetas = [_r(-rng.uniform(0.005, 0.05))] + sorted(
                _r(x) for x in rng.uniform(0.005, 0.08, 3))
            delays = sorted(int(x) for x in rng.choice([1, 2, 3, 4, 6, 8, 12, 16], 3, replace=False))
            backlogs = [_r(mu * f, 3) for f in (0.5, 1.0, 2.0)]
            jobs = {
                "spectral": ["spectral", "--theta=" + ",".join(map(repr, thetas))],
                "delay": ["bounds", "--mode", "delay", "--levels", ",".join(map(str, delays))],
                "backlog": ["bounds", "--mode", "backlog", "--levels",
                            ",".join(map(repr, backlogs))],
                "horizon": ["bounds", "--mode", "horizon", "--levels",
                            str(int(rng.choice([2, 4, 8]))),
                            "--y", repr(float(rng.choice([1.5, 2.0, 3.0])))],
                "control": ["control"],
                "dcc": ["bounds", "--mode", "dcc", "--levels", str(int(rng.choice([5, 10, 20]))),
                        "--epsilon", repr(float(rng.choice([1e-3, 1e-4])))],
            }
            key = f"n{n}-{arrival}-{family}"
            pool.append((key, k, doc, jobs, None))
    return pool + _oracle_pool()


def _normal(mean, std):
    return {"law": "normal", "mean": mean, "std": std}


def _oracle_pool():
    """Queues with constant arrivals whose theta* has a closed form.

    Single-state Gaussian service: theta* = 2 (mu - lambda) / sigma^2.
    Periodic service alternating 0 -> 1 -> 0: per cycle the cgf is the sum of
    the two edge cgfs, so kappa^{-S}(t) = [log M01(-t) + log M10(-t)] / 2 and
    theta* = 2 (mu01 + mu10 - 2 lambda) / (sigma01^2 + sigma10^2).
    """
    rng = np.random.default_rng([POOL_SEED, 3])
    pool = []
    for k in range(POOL_DEPTH):
        mean, std = _r(rng.uniform(2.0, 4.0)), _r(rng.uniform(0.5, 1.5))
        lam = _r(rng.uniform(0.3, 0.8) * mean)
        doc = {"arrival": {"constant": lam}, "service": {"kernel": {
            "states": ["only"], "transition": [[1.0]], "increments": [[_normal(mean, std)]]}}}
        levels = ",".join(str(int(x)) for x in sorted(rng.choice(np.arange(1, 17), 3, replace=False)))
        pool.append(("gauss1", k, doc, {"delay": ["bounds", "--mode", "delay", "--levels", levels]},
                     2.0 * (mean - lam) / std ** 2))

        (m01, m10), (s01, s10) = ([_r(x) for x in rng.uniform(lo, hi, 2)]
                                  for lo, hi in ((1.0, 4.0), (0.5, 1.5)))
        lam = _r(rng.uniform(0.3, 0.8) * (m01 + m10) / 2.0)
        law01, law10 = _normal(m01, s01), _normal(m10, s10)
        doc = {"arrival": {"constant": lam}, "service": {"kernel": {
            "states": ["even", "odd"], "transition": [[0.0, 1.0], [1.0, 0.0]],
            "increments": [[law10, law01], [law10, law01]], "initial_dist": [0.5, 0.5]}}}
        levels = ",".join(str(int(x)) for x in sorted(rng.choice(np.arange(1, 17), 3, replace=False)))
        pool.append(("periodic", k, doc, {
            "delay": ["bounds", "--mode", "delay", "--levels", levels],
            "backlog": ["bounds", "--mode", "backlog", "--levels", levels]},
            2.0 * (m01 + m10 - 2.0 * lam) / (s01 ** 2 + s10 ** 2)))
    return pool


def _analytic_defect(key, name, doc):
    """The known defect a job may hit: every periodic-service job, and a
    control job building a gauss2 plan (the cdf overshoot)."""
    if key == "periodic":
        return "periodic_false_no_root"
    if name == "control" and doc["copulas"]["copula"]["family"] == "gauss2":
        return "copula_cdf_overshoot"
    return None


_ANALYTIC_FILES = {
    "spectral": ["spectral.csv"],
    "delay": ["bounds_delay.csv"],
    "backlog": ["bounds_backlog.csv"],
    "horizon": ["bounds_horizon.csv"],
    "dcc": ["bounds_dcc.csv"],
    "control": ["control_plan.csv", "control_kernel.yaml"],
}


def analytic_jobs(entries, workdir, reference):
    from mapq import config as cf

    os.makedirs(os.path.join(workdir, "configs"), exist_ok=True)
    jobs = []
    for key, k, doc, argvs, oracle in entries:
        cfg = os.path.join(workdir, "configs", f"{key}-{k}.yaml")
        write_config(cfg, doc)
        cf.load_config(cfg)  # every CLI job parses it again; set-up pays it once
        for name, argv in argvs.items():
            job_id = f"af-{key}-{k}-{name}"
            out = os.path.join(workdir, "out", job_id)
            os.makedirs(out, exist_ok=True)
            h = input_hash({"config": doc, "argv": argv})
            files = [os.path.join(out, f) for f in _ANALYTIC_FILES[name]]
            jobs.append(_cli_job(
                job_id, f"cli.{argv[0]}", argv + ["--config", cfg, "--out", out], files,
                checks.cli_reference_check(files, reference, job_id, h, oracle), ref_input=h,
                known_defect=_analytic_defect(key, name, doc),
            ))
    return jobs


# ---------------------------------------------------------------------------
# library jobs


def _lib_job(job_id, kind, module, fname, args, check, **extra):
    """Library call looked up at call time, so a traced run sees its wrapper."""
    mod = importlib.import_module(f"mapq.{module}")

    def run():
        return getattr(mod, fname)(*args)

    return Job(job_id, kind, run, check, **extra)


# ---------------------------------------------------------------------------
# simulate-fading

# (states, arrival, mode, replications, horizon, with copulas section): the
# replication-slots of thirteen jobs grow geometrically from 50k to 2.5M
SIM_HORIZONS = (100, 200, 400, 1000)
SIMULATE_STRATA = [
    (2 + s % 3, ("constant", "pmf")[s % 2], ("delay", "backlog")[s // 2 % 2],
     int(round(slots / SIM_HORIZONS[s % 4], -2)), SIM_HORIZONS[s % 4], s % 4 == 1)
    for s, slots in enumerate(np.geomspace(5e4, 2.5e6, 13))
]
# seven jobs of one shape whose cost barely depends on the seed, sized to
# hold ranks 9 to 15 from the top: job_p90_s (rank 12) is then the middle
# one of the seven, not whichever single job of a seeded mix lands there
SIMULATE_STRATA += [(2, "constant", "delay", 5500, 200, False)] * 7
# sizes of the library jobs, one job each: (horizon, replications) and horizon;
# with ninety of them job_p50_s falls among the library jobs, job_p90_s among
# the simulate jobs, and eleven jobs lie beyond it
MARTINGALE_SIZES = [(h, r) for h in (10, 20, 40) for r in (2000, 4000, 8000, 12000, 16000)] * 3
SAMPLE_PATH_SIZES = [2500, 5000, 10000, 15000, 20000] * 9


def simulate_jobs(seed, workdir):
    from mapq import config as cf
    from mapq.spectral import mean_rate

    rng = np.random.default_rng([seed, 3])
    os.makedirs(os.path.join(workdir, "configs"), exist_ok=True)
    jobs, services = [], []
    for s, (n, arrival, mode, reps, horizon, copulas) in enumerate(SIMULATE_STRATA):
        # a gauss2 control plan hits copula_cdf_overshoot on some seeds, and
        # analytic-fading runs that defect in a fixed number of jobs; copulas
        # sections here are frechet1, so no simulate job fails on any seed
        family = "frechet1" if copulas or s % 2 == 0 else "gauss2"
        doc, mu = fading_config(rng, n, arrival, family, 1.0, (0.5, 0.8))
        doc["simulation"] = {"horizon": horizon, "replications": reps,
                             "seed": int(rng.integers(2**31)),
                             "levels": sorted(int(x) for x in rng.choice(
                                 np.arange(1, 13), 4, replace=False))}
        if mode == "backlog":
            doc["simulation"]["levels"] = [_r(mu * x / 4.0, 3) for x in doc["simulation"]["levels"]]
        files = ["tails.csv"]
        if copulas:
            doc["copulas"] = {"varpi": doc["service"]["varpi"],
                              "copula": doc["service"]["copula"],
                              "slots": 3000, "runs": 2}
            files.append("correlation.csv")
        job_id = f"sf-{s}-{mode}"
        cfg = os.path.join(workdir, "configs", f"{job_id}.yaml")
        out = os.path.join(workdir, "out", job_id)
        os.makedirs(out, exist_ok=True)
        write_config(cfg, doc)
        services.append(cf.load_config(cfg).service)
        files = [os.path.join(out, f) for f in files]
        jobs.append(_cli_job(
            job_id, "cli.simulate", ["simulate", "--mode", mode, "--config", cfg, "--out", out],
            files, checks.simulate_check(files),
            slots=reps * horizon))
    for m, (horizon, reps) in enumerate(MARTINGALE_SIZES):
        kernel = services[m % len(services)]
        # the likelihood ratio's tail grows with theta^2 x horizon, and its
        # sample standard error then understates the spread of the mean (at
        # theta 0.084, horizon 40, 4000 replications: 5.6 se below 1); up to
        # 0.04 the mean met 1 within 3.5 se on 45 jobs x 40 seeds
        theta = _r(rng.uniform(0.01, 0.04), 3)
        jobs.append(_lib_job(
            f"sf-mart{m}", "lib.martingale_check", "sim", "martingale_check",
            (kernel, theta, horizon, reps, int(rng.integers(2**31))),
            checks.martingale_check, slots=reps * horizon))
    for m, horizon in enumerate(SAMPLE_PATH_SIZES):
        kernel = services[(m + 3) % len(services)]
        rate = mean_rate(kernel)
        jobs.append(_lib_job(
            f"sf-path{m}", "lib.sample_path", "sim", "sample_path",
            (kernel, horizon, int(rng.integers(2**31))),
            lambda out, rate=rate: checks.sample_path_check(out, rate),
            slots=horizon))
    return jobs


# ---------------------------------------------------------------------------


def pick(pool, seed, reference):
    """PICKS distinct pool entries per stratum, chosen by the run seed, plus
    one control job that hits copula_cdf_overshoot.

    Whether a gauss2 control plan hits that defect depends on the pool
    entry, so a picked entry drops its control job when the reference
    recorded the defect for it, and the run gets exactly one such job from
    the entries that hit it.  Every seed then runs the same number of
    known-defect jobs: one overshoot job and the periodic strata's jobs.
    """
    rng = np.random.default_rng([seed, 0])
    strata = {}
    for entry in pool:
        strata.setdefault(entry[0], []).append(entry)

    def hits_overshoot(entry):
        recorded = reference.get(f"af-{entry[0]}-{entry[1]}-control", {})
        return recorded.get("error") == checks.KNOWN_DEFECTS["copula_cdf_overshoot"]

    picked = []
    for group in strata.values():
        for nth, i in enumerate(rng.permutation(len(group))[:PICKS]):
            key, k, doc, argvs, oracle = group[int(i)]
            drop = {"control"} if hits_overshoot(group[int(i)]) else set()
            # a dcc job takes ~0.2 s on 2 power states and up to 0.5 s on 4;
            # later picks run it on 2 states only, which keeps a round near 8 s
            if nth > 0 and "dcc" in argvs and len(doc["service"]["varpi"]) > 2:
                drop.add("dcc")
            # later picks also skip two of the cheap kinds: with ~116 jobs,
            # job_p90_s (rank 12 from the top) falls inside the sixteen dcc
            # jobs rather than at the gap below the cheapest of them
            if nth > 0 and "dcc" in argvs:
                drop |= {"spectral", "backlog"}
            picked.append((key, k, doc, {n: a for n, a in argvs.items() if n not in drop}, oracle))
    overshoot = [e for e in pool if hits_overshoot(e)]
    key, k, doc, argvs, _ = overshoot[int(rng.integers(len(overshoot)))]
    return picked + [(key, k, doc, {"control": argvs["control"]}, None)]


def load_reference(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def build(name, seed, workdir, reference, entries=None):
    """Generate the inputs of one workload and parse them into its list of jobs.

    `reference` is the content of reference.json.  `entries` overrides the
    seeded pool choice (the reference recorder passes the whole pool).
    """
    if name == "analytic-fading":
        recorded = reference.get(name, {})
        entries = entries if entries is not None else pick(analytic_pool(), seed, recorded)
        jobs = analytic_jobs(entries, workdir, recorded)
    elif name == "simulate-fading":
        jobs = simulate_jobs(seed, workdir)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return jobs
