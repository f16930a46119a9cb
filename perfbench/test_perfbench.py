"""Tests of the benchmark itself: seeded generation, span arithmetic, checks.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import math
import os
from collections import Counter

import numpy as np
import pytest

import checks
import pace
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference(os.path.join(HERE, "reference.json"))


def _fingerprint(jobs, workdir):
    configs = {}
    config_dir = os.path.join(workdir, "configs")
    for name in sorted(os.listdir(config_dir)) if os.path.isdir(config_dir) else []:
        with open(os.path.join(config_dir, name), encoding="utf-8") as fh:
            configs[name] = fh.read()
    return [(j.id, j.kind, j.ref_input, j.slots, j.known_defect) for j in jobs], configs


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_same_jobs(name, reference, tmp_path):
    def fingerprint(seed, sub):
        workdir = str(tmp_path / sub)
        return _fingerprint(workloads.build(name, seed, workdir, reference), workdir)

    first, again, other = fingerprint(7, "a"), fingerprint(7, "b"), fingerprint(8, "c")
    assert first == again
    assert first != other


def test_every_seed_runs_the_same_failing_jobs(reference, tmp_path):
    # one control job hitting the cdf overshoot, and both jobs of each periodic pick
    recorded = reference["analytic-fading"]
    for seed in range(10):
        jobs = workloads.build("analytic-fading", seed, str(tmp_path / str(seed)), reference)
        failing = Counter(recorded[j.id]["error"] for j in jobs if "error" in recorded[j.id])
        assert failing == {"exit 5": 1, "exit 3": 2 * workloads.PICKS}
    jobs = workloads.build("simulate-fading", 0, str(tmp_path / "sim"), reference)
    assert not any(j.known_defect for j in jobs)


def test_every_pool_job_has_a_reference(reference, tmp_path):
    name = "analytic-fading"
    jobs = workloads.build(name, 0, str(tmp_path), reference, entries=workloads.analytic_pool())
    assert {j.id: j.ref_input for j in jobs} == \
        {k: v["input"] for k, v in reference[name].items()}


def test_self_time_subtracts_the_union_of_children():
    # root [0,10] has children [1,3], [2,5] (overlapping) and [6,7];
    # [1,3] has a child [1.5,2]
    start = [0.0, 1.0, 1.5, 2.0, 6.0]
    end = [10.0, 3.0, 2.0, 5.0, 7.0]
    parent = [-1, 0, 1, 0, 0]
    got = tracing.self_times(start, end, parent)
    np.testing.assert_allclose(got, [10.0 - 5.0, 2.0 - 0.5, 0.5, 3.0, 1.0])


def test_self_time_of_disjoint_children_is_duration_minus_their_sum():
    start = [0.0, 0.5, 2.0, 2.5]
    end = [4.0, 1.5, 3.0, 2.75]
    parent = [-1, 0, 0, 2]
    got = tracing.self_times(start, end, parent)
    np.testing.assert_allclose(got, [2.0, 1.0, 0.75, 0.25])


def test_tracer_wraps_every_reference_and_restores_them():
    from mapq import bounds, cli, sim, spectral
    from mapq.laws import Constant, DiscretePmf
    from mapq.spectral import single_state_kernel

    originals = (spectral.perron, bounds.perron, sim.perron, cli.perron, cli._COMMANDS["bounds"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert spectral.perron is not originals[0]
        assert bounds.perron is spectral.perron and sim.perron is spectral.perron
        assert cli.perron is spectral.perron
        assert cli._COMMANDS["bounds"] is cli.cmd_bounds is not originals[4]
        service = single_state_kernel(DiscretePmf((1.0, 3.0), (0.5, 0.5)))
        arrival = single_state_kernel(Constant(1.5))
        tracer.on = True
        bounds.delay_bounds(arrival, service, [1.0])
        tracer.on = False
    finally:
        tracer.uninstall()
    assert (spectral.perron, bounds.perron, sim.perron, cli.perron,
            cli._COMMANDS["bounds"]) == originals
    stats = tracing.RoundStats(tracer)
    roots = stats.calls("spectral.stability_root")
    assert roots == 1 and stats.calls("bounds.delay_bounds") == 1
    assert stats.under("spectral.perron", "spectral.stability_root") > 0
    assert stats.calls("laws.mgf") > 0
    assert stats.total_s("bounds.delay_bounds") >= stats.total_s("spectral.stability_root") > 0
    assert math.isclose(stats.self.sum(), stats.total_s("bounds.delay_bounds"), rel_tol=1e-9)


def test_pacing_cancels_a_slow_phase_and_ignores_a_spike():
    base = [0.01, 0.2, 0.05, 0.03]
    slow = 1.4  # the whole round runs at 1/1.4 of the reference pace
    cals = [slow * pace.CAL_REFERENCE_S] * (len(base) + 1)
    cals[2] *= 10.0  # an interrupt during one calibration
    got = pace.paced([slow * x for x in base], cals)
    np.testing.assert_allclose(got, base, rtol=1e-12)


def test_compare_holds_floats_to_1e9():
    assert checks.compare([1.0, "a", {"x": 2.0}], [1.0 + 1e-12, "a", {"x": 2.0}]) == []
    assert checks.compare([1.0], [1.0 + 1e-8])
    assert checks.compare(["a"], ["b"])
    assert checks.compare({"x": [1.0, 2.0]}, {"x": [1.0]})


def _first_job(name, reference, workdir, kind):
    jobs = workloads.build(name, 3, workdir, reference)
    return next(j for j in jobs if j.kind == kind and not j.known_defect)


def test_cli_check_rejects_a_perturbed_csv(reference, tmp_path):
    job = _first_job("analytic-fading", reference, str(tmp_path), "cli.spectral")
    rc = job.run()
    assert job.check(rc) == []
    path = job.files[0]
    with open(path, encoding="utf-8") as fh:
        header, row, *rest = fh.read().splitlines()
    cells = row.split(",")
    cells[3] = repr(float(cells[3]) * (1.0 + 1e-6))  # kappa
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([header, ",".join(cells), *rest]) + "\n")
    assert job.check(rc)
    assert job.check(3)  # a nonzero exit code fails too


def test_oracle_check_rejects_a_perturbed_root(reference, tmp_path):
    job = next(j for j in workloads.build("analytic-fading", 3, str(tmp_path), reference)
               if j.id.startswith("af-gauss1-"))
    rc = job.run()
    assert job.check(rc) == []
    path = job.files[0]
    header, *rows = checks.read_output(path)
    column = header.index("theta_star")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            row[column] *= 1.0 + 1e-7
            fh.write(",".join(c if isinstance(c, str) else repr(c) for c in row) + "\n")
    problems = job.check(rc)
    assert any("closed form" in p for p in problems)
    assert any("expected" in p for p in problems)


def test_tail_check_rejects_an_estimate_above_the_upper_bound():
    reps, hits = 1000, 200
    p = hits / reps
    row = {"level": 1.0, "p_hat": p, "std_err": math.sqrt(p * (1 - p) / reps), "hits": hits,
           "replications": reps, "conclusive": 1.0, "lower": 0.01, "upper": 0.3,
           "theta_star": 1.0}
    assert checks.tails_problems([row]) == []
    assert checks.tails_problems([dict(row, upper=0.1)])  # p_hat > upper + 4 se
    assert checks.tails_problems([dict(row, p_hat=0.25)])  # not hits / replications
    assert checks.tails_problems([dict(row, conclusive=0.0)])


def test_martingale_check_rejects_a_mean_far_from_one():
    assert checks.martingale_check((1.0 + 4.0 * 0.01, 0.01)) == []
    assert checks.martingale_check((1.0 + 6.0 * 0.01, 0.01))


def test_sample_path_check_rejects_a_wrong_mean():
    rng = np.random.default_rng(0)
    increments = rng.normal(2.0, 1.0, 20000)
    states = np.zeros(len(increments) + 1, dtype=int)
    assert checks.sample_path_check((states, increments), 2.0) == []
    assert checks.sample_path_check((states, increments + 0.1), 2.0)
    assert checks.sample_path_check((states[:-1], increments), 2.0)


def test_known_defect_is_matched_by_signature():
    job = workloads.Job("j", "cli.control", lambda: 5, lambda out: [], files=["x.csv"],
                        known_defect="copula_cdf_overshoot")
    assert checks.failure_signature(job, 5, None) == checks.KNOWN_DEFECTS[job.known_defect]
    assert checks.failure_signature(job, 0, None) is None
    assert checks.failure_signature(job, None, KeyError("k")) == "KeyError"
