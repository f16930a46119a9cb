"""Span tracing from outside the program, by wrapping mapq's public functions.

Every public function of each layer module is replaced by a wrapper at
every place mapq holds a reference to it: the module that defines it, each
module that imported it by name, and module-level dispatch tables such as
cli._COMMANDS.  The mgf, tilted_mean and sample methods of the concrete
increment laws are wrapped on their classes.  A wrapper records one span
(name, start, end, parent, job) in typed arrays in memory; nothing is
written to disk until the run ends.

Negated and Shifted delegate to an inner law, so they are not wrapped:
their evaluation is the inner law's, and wrapping them would count one MGF
evaluation twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import tracemalloc
from array import array

import numpy as np

LAYERS = ("laws", "spectral", "bounds", "copulas", "channel", "sim", "config", "cli")
LAW_METHODS = ("mgf", "tilted_mean", "sample")
DELEGATING_LAWS = ("Negated", "Shifted")
# spans whose descendants are counted separately (perron per root, ...)
WATCHED = ("spectral.stability_root", "bounds.dcc_upper")
COUNTED = {"laws.quad": ("laws", "quad")}  # counted, not spanned

OUTERMOST_NAME = 1  # no ancestor span of the same name
OUTERMOST_LAYER = 2  # no ancestor span of the same layer
RAISED = 4
WATCH_SHIFT = 3


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# work done by one call, recorded with its span: draws, or replication-slots
WORK = {
    "laws.sample": lambda a, k: _arg(a, k, 2, "size"),
    "sim.tail_estimate": lambda a, k: _arg(a, k, 3, "replications") * _arg(a, k, 4, "horizon"),
    "sim.martingale_check": lambda a, k: _arg(a, k, 2, "horizon") * _arg(a, k, 3, "replications"),
    "sim.sample_path": lambda a, k: _arg(a, k, 1, "horizon"),
    "channel.controlled_capacity_process": lambda a, k: _arg(a, k, 2, "horizon"),
}
MEMORY_SPANS = ("sim.tail_estimate",)


class Tracer:
    """Records spans while `on`; install() patches mapq, uninstall() restores it."""

    def __init__(self):
        self.names = []
        self._codes = {}
        self._layer = []
        self._patches = []
        self.on = False
        self.job = -1
        self.measure_memory = False
        self.reset()

    def reset(self):
        self.name = array("i")
        self.parent = array("i")
        self.job_of = array("i")
        self.flags = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.counts = {name: 0 for name in COUNTED}
        self.peak_bytes = {name: 0 for name in MEMORY_SPANS}
        self._stack = []
        self._depth = [0] * len(self.names)
        self._layer_depth = [0] * len(LAYERS)
        self._watch = 0

    def _code(self, name):
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
            self._layer.append(LAYERS.index(name.split(".")[0]))
            self._depth.append(0)
        return self._codes[name]

    def wrap(self, name, fn):
        code = self._code(name)
        layer = self._layer[code]
        watch = 1 << (WATCH_SHIFT + WATCHED.index(name)) if name in WATCHED else 0
        work = WORK.get(name)
        memory = name in MEMORY_SPANS
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tr.on:
                return fn(*args, **kwargs)
            i = len(tr.start)
            flags = tr._watch
            if tr._depth[code] == 0:
                flags |= OUTERMOST_NAME
            if tr._layer_depth[layer] == 0:
                flags |= OUTERMOST_LAYER
            tr.name.append(code)
            tr.parent.append(tr._stack[-1] if tr._stack else -1)
            tr.job_of.append(tr.job)
            tr.flags.append(flags)
            tr.work.append(work(args, kwargs) if work else 0.0)
            tr.end.append(0.0)
            tr._stack.append(i)
            tr._depth[code] += 1
            tr._layer_depth[layer] += 1
            saved_watch = tr._watch
            tr._watch |= watch
            track = memory and tr.measure_memory
            if track:
                tracemalloc.start()
            tr.start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tr.flags[i] |= RAISED
                raise
            finally:
                tr.end[i] = time.perf_counter()
                if track:
                    tr.peak_bytes[name] = max(tr.peak_bytes[name],
                                              tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                tr._watch = saved_watch
                tr._layer_depth[layer] -= 1
                tr._depth[code] -= 1
                tr._stack.pop()

        return wrapper

    def _counter(self, name, fn):
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tr.on:
                tr.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, key, value):
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def install(self):
        modules = [importlib.import_module(f"mapq.{m}") for m in LAYERS]
        wrappers = {}  # id(original) -> wrapper
        for mod in modules:
            layer = mod.__name__.split(".")[-1]
            for fname, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not fname.startswith("_")):
                    wrappers[id(obj)] = self.wrap(f"{layer}.{fname}", obj)
        for mod in modules:
            for key, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(mod, key, wrappers[id(obj)])
                elif isinstance(obj, dict) and not key.startswith("__"):
                    for k, v in list(obj.items()):
                        if id(v) in wrappers:
                            self._patch(obj, k, wrappers[id(v)])
        # a counted callable (scipy's quad) is shared with other modules, so it
        # is patched only in the module whose calls it counts
        for name, (layer, attr) in COUNTED.items():
            mod = importlib.import_module(f"mapq.{layer}")
            self._patch(mod, attr, self._counter(name, getattr(mod, attr)))
        laws = importlib.import_module("mapq.laws")
        for cls in vars(laws).values():
            if (inspect.isclass(cls) and issubclass(cls, laws.IncrementLaw)
                    and cls is not laws.IncrementLaw and cls.__name__ not in DELEGATING_LAWS):
                for method in LAW_METHODS:
                    if method in cls.__dict__:
                        self._patch(cls, method, self.wrap(f"laws.{method}", cls.__dict__[method]))

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def spans(self):
        """The recorded spans as numpy arrays."""
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "job": np.frombuffer(self.job_of, dtype=np.int32).copy(),
            "flags": np.frombuffer(self.flags, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "work": np.frombuffer(self.work, dtype=np.float64).copy(),
        }


def self_times(start, end, parent):
    """Each span's duration minus the time covered by the union of its children."""
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent)
    dur = end - start
    cover = np.zeros(len(dur))
    child = np.nonzero(parent >= 0)[0]
    order = child[np.lexsort((start[child], parent[child]))]
    p, s, e = parent[order], start[order], end[order]
    same = p[1:] == p[:-1]
    if not np.any(same & (s[1:] < e[:-1])):
        np.add.at(cover, p, e - s)  # siblings are disjoint: the union is the sum
    else:
        reach = {}
        for q, a, b in zip(p.tolist(), s.tolist(), e.tolist()):
            r = reach.get(q, -np.inf)
            if b > r:
                cover[q] += b - max(a, r)
                reach[q] = b
    return dur - cover


def _median(values):
    return float(np.median(values)) if values else 0.0


class RoundStats:
    """Per-layer numbers of one traced round, from its spans."""

    def __init__(self, tracer):
        sp = tracer.spans()
        self.names = tracer.names
        self.code = {n: i for i, n in enumerate(self.names)}
        self.sp = sp
        self.dur = sp["end"] - sp["start"]
        self.self = self_times(sp["start"], sp["end"], sp["parent"])
        self.counts = dict(tracer.counts)
        self.peak_bytes = dict(tracer.peak_bytes)
        layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in self.names] or [0])
        self.layer = layer_of[sp["name"]] if len(sp["name"]) else sp["name"]

    def _is(self, *names):
        codes = [self.code[n] for n in names if n in self.code]
        return np.isin(self.sp["name"], codes)

    def calls(self, name):
        return int(self._is(name).sum())

    def errors(self, name):
        return int((self._is(name) & (self.sp["flags"] & RAISED > 0)).sum())

    def self_s(self, name):
        return float(self.self[self._is(name)].sum())

    def total_s(self, name):
        return float(self.dur[self._is(name) & (self.sp["flags"] & OUTERMOST_NAME > 0)].sum())

    def entry_total_s(self, *names):
        """Time in calls of `names` made from outside their layer."""
        mask = self._is(*names) & (self.sp["flags"] & OUTERMOST_LAYER > 0)
        return float(self.dur[mask].sum())

    def work(self, name):
        return float(self.sp["work"][self._is(name)].sum())

    def under(self, name, ancestor):
        bit = 1 << (WATCH_SHIFT + WATCHED.index(ancestor))
        return int((self._is(name) & (self.sp["flags"] & bit > 0)).sum())

    def layer_self_s(self, layer):
        return float(self.self[self.layer == LAYERS.index(layer)].sum())


def _rate(work, seconds):
    return work / seconds if seconds > 0 else 0.0


# name -> (unit, function of RoundStats); counts repeat exactly for a seed,
# times are taken as the median over traced rounds
LAYER_METRICS = {
    "laws.mgf.calls": ("count", lambda r: r.calls("laws.mgf")),
    "laws.mgf.self_s": ("s", lambda r: r.self_s("laws.mgf")),
    "laws.mgf.errors": ("count", lambda r: r.errors("laws.mgf")),
    "laws.tilted_mean.calls": ("count", lambda r: r.calls("laws.tilted_mean")),
    "laws.tilted_mean.self_s": ("s", lambda r: r.self_s("laws.tilted_mean")),
    "laws.quad.calls": ("count", lambda r: r.counts["laws.quad"]),
    "laws.sample.calls": ("count", lambda r: r.calls("laws.sample")),
    "laws.sample.draws": ("count", lambda r: r.work("laws.sample")),
    "laws.sample.self_s": ("s", lambda r: r.self_s("laws.sample")),
    "spectral.transform_matrix.calls": ("count", lambda r: r.calls("spectral.transform_matrix")),
    "spectral.transform_matrix.self_s": ("s", lambda r: r.self_s("spectral.transform_matrix")),
    "spectral.perron.calls": ("count", lambda r: r.calls("spectral.perron")),
    "spectral.perron.self_s": ("s", lambda r: r.self_s("spectral.perron")),
    "spectral.perron.errors": ("count", lambda r: r.errors("spectral.perron")),
    "spectral.stationary_distribution.calls":
        ("count", lambda r: r.calls("spectral.stationary_distribution")),
    "spectral.stationary_distribution.self_s":
        ("s", lambda r: r.self_s("spectral.stationary_distribution")),
    "spectral.cgf_derivative.calls": ("count", lambda r: r.calls("spectral.cgf_derivative")),
    "spectral.stability_root.calls": ("count", lambda r: r.calls("spectral.stability_root")),
    "spectral.stability_root.total_s": ("s", lambda r: r.total_s("spectral.stability_root")),
    "spectral.stability_root.errors": ("count", lambda r: r.errors("spectral.stability_root")),
    # base: spectral.stability_root.calls
    "spectral.perron_per_root": ("ratio", lambda r: _rate(
        r.under("spectral.perron", "spectral.stability_root"),
        r.calls("spectral.stability_root"))),
    "bounds.delay_bounds.total_s": ("s", lambda r: r.entry_total_s(
        "bounds.delay_bounds", "bounds.constant_arrival_bounds")),
    "bounds.backlog_bounds.total_s": ("s", lambda r: r.entry_total_s(
        "bounds.backlog_bounds", "bounds.constant_arrival_backlog_bounds")),
    "bounds.horizon.total_s": ("s", lambda r: r.entry_total_s(
        "bounds.horizon_delay_bound", "bounds.horizon_backlog_bound")),
    "bounds.dcc_upper.total_s": ("s", lambda r: r.total_s("bounds.dcc_upper")),
    "bounds.dcc_upper.perron_calls":
        ("count", lambda r: r.under("spectral.perron", "bounds.dcc_upper")),
    "bounds.self_s": ("s", lambda r: r.layer_self_s("bounds")),
    "copulas.transition_from_copula.calls":
        ("count", lambda r: r.calls("copulas.transition_from_copula")),
    "copulas.transition_from_copula.self_s":
        ("s", lambda r: r.self_s("copulas.transition_from_copula")),
    "copulas.dependence_control.total_s":
        ("s", lambda r: r.total_s("copulas.dependence_control")),
    "channel.capacity_kernel.total_s": ("s", lambda r: r.total_s("channel.capacity_kernel")),
    "channel.controlled_capacity_process.total_s":
        ("s", lambda r: r.total_s("channel.controlled_capacity_process")),
    "channel.controlled_capacity_process.slot_rate": ("slots/s", lambda r: _rate(
        r.work("channel.controlled_capacity_process"),
        r.total_s("channel.controlled_capacity_process"))),
    "sim.tail_estimate.total_s": ("s", lambda r: r.total_s("sim.tail_estimate")),
    "sim.tail_estimate.self_s": ("s", lambda r: r.self_s("sim.tail_estimate")),
    "sim.slot_rate": ("slots/s", lambda r: _rate(
        r.work("sim.tail_estimate"), r.total_s("sim.tail_estimate"))),
    "sim.martingale_check.total_s": ("s", lambda r: r.total_s("sim.martingale_check")),
    "sim.sample_path.total_s": ("s", lambda r: r.total_s("sim.sample_path")),
    "sim.sample_path.slot_rate": ("slots/s", lambda r: _rate(
        r.work("sim.sample_path"), r.total_s("sim.sample_path"))),
    "config.load_config.total_s": ("s", lambda r: r.total_s("config.load_config")),
    "cli.spectral.total_s": ("s", lambda r: r.total_s("cli.cmd_spectral")),
    "cli.bounds.total_s": ("s", lambda r: r.total_s("cli.cmd_bounds")),
    "cli.control.total_s": ("s", lambda r: r.total_s("cli.cmd_control")),
    "cli.simulate.total_s": ("s", lambda r: r.total_s("cli.cmd_simulate")),
    "cli.self_s": ("s", lambda r: r.layer_self_s("cli")),
}
PEAK_METRIC = ("sim.tail_estimate.peak_mb", "MB")


def layer_metrics(rounds, memory_round):
    """Counts from the first traced round, times as the median over rounds."""
    out = {}
    for name, (unit, fn) in LAYER_METRICS.items():
        if unit in ("count", "ratio"):
            value = fn(rounds[0])
        else:
            value = _median([fn(r) for r in rounds])
        out[name] = (float(value), unit)
    out[PEAK_METRIC[0]] = (memory_round.peak_bytes["sim.tail_estimate"] / 2**20, PEAK_METRIC[1])
    return out
