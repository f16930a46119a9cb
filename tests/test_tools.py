"""The repository's tools against this tree: the work that pool_diff reports,
the public names of mapq that nothing in mapq uses, and imports that nothing
uses."""

import ast
import os
import pathlib
import sys

import numpy as np
import pytest

from mapq import copulas, counters, sim, spectral
from mapq.channel import ChannelSpec, capacity_kernel
from mapq.laws import Constant, DiscretePmf

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "tools"))
import pool_diff  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mapq"

# public names whose only consumers live outside src/mapq, each with its consumer
OUTSIDE_CONSUMERS = {
    "sim.sample_path": "perfbench's simulate-fading library jobs",
    "sim.martingale_check": "perfbench's simulate-fading library jobs",
    "counters.tally": "tools/pool_diff.py's work columns",
    "bounds.horizon_backlog_bound": "a backlog form of `bounds --mode horizon` (ROADMAP)",
    "copulas.star": "criterion_06's star-product identities",
    "copulas.frechet_compose": "criterion_06's star-product identities",
    "copulas.frechet_homogeneous": "criterion_06's star-product identities",
}


def test_pool_diff_counts_every_work_column_of_this_tree():
    # a scalar solve, a stack of two matrices, one transform of a capacity
    # kernel with two Rayleigh laws (certified at step 1/64, the quadrature's
    # fourth), and a Gaussian copula on one inner row of two cells
    assert pool_diff.WORK == tuple(counters.COUNTS)
    law = DiscretePmf((0.0, 2.0), (0.5, 0.5))
    kernel = spectral.MapKernel(("a", "b"), np.array([[0.6, 0.4], [0.3, 0.7]]),
                                ((law,) * 2,) * 2, np.array([0.5, 0.5]))
    snr = np.array([[10.0, 10.0], [1.0, 1.0]])
    service = capacity_kernel(np.full((2, 2), 0.5), ChannelSpec(20.0, snr, ("hi", "lo")))
    done = pool_diff.work_since()
    spectral.perron(kernel, 0.5)
    spectral.perron_grid(kernel, np.array([0.25, 0.75]))
    spectral.transform_matrix(service, 0.5)
    copulas.Gaussian2(0.5).eval_grid([0.0, 0.5, 1.0], [0.3, 0.7])
    # a path of 5 slots draws 1 + 5 uniforms and 5 increments; 3 replications
    # of 4 slots draw 3 + 12 and 12, and the one-state arrival 12 increments
    sim.sample_path(kernel, 5, 0)
    sim.tail_estimate(spectral.single_state_kernel(Constant(1.0)), kernel, [1.0], 3, 4, 0)
    assert dict(zip(pool_diff.WORK, done())) == {
        "scalar_solves": 1, "stacked_matrices": 2, "rayleigh_integrations": 2,
        "quadrature_calls": 1, "quadrature_steps": 4, "bvn_cdf_calls": 2, "state_draws": 21,
        "increment_draws": 29}


def test_pool_diff_attributes_no_cell_of_a_row_wider_than_its_header():
    # the 3-cell row's last cell has no column name, and its second cell
    # would be mistaken for kappa's if rows were named by position
    base = [["theta", "kappa"], [0.5, 1.0], [1.0, 2.0, 3.0]]
    src = [["theta", "kappa"], [0.5, 1.5], [1.0, 4.0, 5.0]]
    moves = {}
    assert pool_diff._column_moves(base, src, moves) == 1
    assert moves == {"kappa": [0.5 / 1.5, 0.5]}


def test_pool_diff_names_the_kinds_with_more_work_and_the_moved_failures():
    runs = {"src": {"c1-delay": {"signature": None}, "c1-dcc": {"signature": "exit 3"}},
            "base": {"c1-delay": {"signature": None}, "c1-dcc": {"signature": None}}}
    # a base that keeps no draw counts (None) is compared on the others only
    work = {"src": {"delay": [4, 0, 6, 2, 8, 0, 7, 7], "dcc": [3, 9, 0, 0, 0, 0, 0, 0]},
            "base": {"delay": [4, 0, 9, 3, 9, 0, None, None], "dcc": [3, 9, 0, 0, 0, 0, 0, 0]}}
    assert pool_diff._changes(runs, work) == (
        [], ["delay (rayleigh_integrations 6 < 9)", "delay (quadrature_calls 2 < 3)",
             "delay (quadrature_steps 8 < 9)"], ["c1-dcc"])
    runs["src"]["c1-dcc"]["signature"] = None
    work["src"]["delay"][2:5] = [9, 5, 9]
    work["src"]["dcc"][6] = 1
    work["src"]["dcc"][0] = 2
    assert pool_diff._changes(runs, work) == (
        ["dcc (state_draws 1 > 0)", "delay (quadrature_calls 5 > 3)"],
        ["dcc (scalar_solves 2 < 3)"], [])


def test_pool_diff_sums_a_count_a_tree_does_not_keep_to_none():
    problems = {"c1-mart1": {"work": [1, 0, 0, 0, 0, 0, None, None]},
                "c1-mart2": {"work": [2, 0, 0, 0, 0, 0, None, None]}}
    assert pool_diff._work_by_kind(problems) == {"mart": [3, 0, 0, 0, 0, 0, None, None]}


def test_pool_diff_time_summarizes_paired_ratios_per_kind():
    # synthetic timings: dcc runs at 0.8..1.2 of base, delay at exactly half
    timings = [("dcc", r, 1.0) for r in (1.2, 0.8, 1.0, 0.9, 1.1)]
    timings += [("delay", 0.001 * k, 0.002 * k) for k in (1, 2, 3)]
    summary = pool_diff.ratio_summary(timings)
    assert list(summary) == ["dcc", "delay", "all"]
    assert summary["dcc"] == (5, 0.9, 1.0, 1.1)
    assert summary["delay"] == (3, 0.5, 0.5, 0.5)
    assert summary["all"][0] == 8 and summary["all"][2] == pytest.approx(0.85, abs=1e-15)


def test_pool_diff_time_runs_every_job_once_a_pass_in_alternating_order():
    schedule = pool_diff.timing_schedule(5, 3)
    assert [(p, i) for p, i, _ in schedule[:5]] == [(0, i) for i in range(5)]
    for p in range(4):
        assert sorted(i for q, i, _ in schedule if q == p) == list(range(5))
    # shuffled, and the same shuffle on every call
    assert [i for p, i, _ in schedule if p == 1] != list(range(5))
    assert schedule == pool_diff.timing_schedule(5, 3)
    assert [first for *_, first in schedule] == [k % 2 == 0 for k in range(20)]


def test_pool_diff_counts_the_source_lines_of_each_tree(tmp_path):
    # mapq/*.py alone: a file elsewhere in the tree, or not a .py file, is not counted
    for name, files in (("a", {"x.py": "1\n2\n3\n", "y.py": "1\n2"}), ("b", {"x.py": "1\n"})):
        (tmp_path / name / "mapq").mkdir(parents=True)
        for file, text in files.items():
            (tmp_path / name / "mapq" / file).write_text(text, encoding="utf-8")
        (tmp_path / name / "mapq" / "notes.txt").write_text("1\n2\n", encoding="utf-8")
        (tmp_path / name / "other.py").write_text("1\n", encoding="utf-8")
    assert pool_diff.source_lines(tmp_path / "a") == 5
    assert pool_diff.source_lines(tmp_path / "b") == 1
    assert pool_diff.source_lines(SRC.parent) == sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.glob("*.py"))


def _references(module, tree):
    """{top-level node: the "module.name" strings it uses}, resolving names
    imported from sibling modules and attributes of an imported sibling."""
    modules, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    modules[local] = alias.name
                else:
                    names[local] = f"{node.module}.{alias.name}"
    refs = {}
    for top in tree.body:
        used = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                used.add(names.get(node.id, f"{module}.{node.id}"))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                used.add(f"{modules[node.value.id]}.{node.attr}")
        refs[top] = used
    return refs


def test_every_public_name_of_mapq_has_a_consumer():
    public, refs = {}, {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        refs.update(_references(path.stem, tree))
        for top in tree.body:
            if (isinstance(top, (ast.FunctionDef, ast.ClassDef))
                    and not top.name.startswith("_")):
                public[f"{path.stem}.{top.name}"] = top
    # a name's own definition (a recursive call, a class naming itself) is no use
    unused = {name for name, top in public.items()
              if not any(name in used for node, used in refs.items() if node is not top)}
    assert unused == set(OUTSIDE_CONSUMERS)


def _imported_names(tree):
    """(local name, line) per name a module imports, except from __future__."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_no_module_imports_a_name_it_never_uses():
    # no linter runs on this repository, so an import left behind shows here
    unused = []
    for path in sorted(p for d in (SRC, ROOT / "tools", ROOT / "tests") for p in d.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.relative_to(ROOT)}:{line} {name}"
                   for name, line in _imported_names(tree) if name not in used]
    assert unused == []


def test_spectral_leaves_the_choice_of_shared_quadratures_to_laws():
    # which laws evaluate together is LawStack's rule alone: spectral reads no
    # concrete law class
    tree = ast.parse((SRC / "spectral.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "laws"
                for alias in node.names}
    assert imported == {"IncrementLaw", "LawStack"}
