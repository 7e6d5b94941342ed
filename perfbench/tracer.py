"""Span tracing of the dsinkhorn layers from outside the package.

``install`` replaces every public function of the package's modules (and
the engine's per-round methods) with a wrapper that records a span
(name, start, end, parent) in memory, rebinding every module attribute
that points at the original, e.g. ``cli.simulate_decentralized`` as well
as ``engine.simulate_decentralized``. ``uninstall`` puts the originals
back. Forked pool workers start with an empty span list that links to the
span open in the parent at the fork; a worker flushes its spans to a file
whenever its outermost span closes, because pool workers leave through
``os._exit`` and never run exit handlers.

A few counters are read around the wrapped calls, from state the engine
already keeps: broadcasts and bit-identical re-broadcasts (``messages``
and ``ref`` before and after each round), link packets (out-degree of each
sender), cache updates (entries of ``ce_time`` that advanced), inner-cap
hits and outer iterations (``RunRecord.per_outer``), oracle iterations and
artifact bytes. The time spent reading them is recorded as a
``trace.counters`` span so it never lands in a layer's self time.
"""

import collections
import functools
import inspect
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

LAYERS = ("cli", "config", "experiments", "engine", "protocol", "netsim", "otcore")
METHODS = {"engine": {"NetworkEngine": ("bootstrap", "step_round", "all_inner_converged")}}


class Recorder:
    """In-memory spans of one process: rows of [name, start, end, parent]."""

    def __init__(self, flush_dir: str):
        self.flush_dir = Path(flush_dir)
        self.pid = os.getpid()
        self.spans = []
        self.stack = []
        self.counters = collections.Counter()
        self.link = None  # (parent pid, span index) open at the fork
        self.restore = []

    def after_fork(self) -> None:
        parent = (self.pid, self.stack[-1] if self.stack else -1)
        self.pid = os.getpid()
        self.spans, self.stack = [], []
        self.counters = collections.Counter()
        self.link = parent

    def dump(self, mode: str = "w") -> None:
        """Write this process's spans and counters (one JSON line) and clear them."""
        row = {"pid": self.pid, "link": self.link, "spans": self.spans,
               "counters": dict(self.counters)}
        with open(self.flush_dir / f"spans-{self.pid}.jsonl", mode, encoding="utf-8") as fh:
            fh.write(json.dumps(row) + "\n")
        self.spans = []
        self.counters = collections.Counter()


def _timed(rec: Recorder, name: str, fn, hook=None):
    """Wrap ``fn`` in a span; ``hook(args, kwargs)`` may return a callback
    run on the result after the span closes."""
    clock = time.perf_counter

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        stack = rec.stack
        finish = None
        if hook is not None:
            h0 = clock()
            finish = hook(args, kwargs)
            rec.spans.append(["trace.counters", h0, clock(), stack[-1] if stack else -1])
        span = [name, 0.0, 0.0, stack[-1] if stack else -1]
        stack.append(len(rec.spans))
        rec.spans.append(span)
        span[1] = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = clock()
            stack.pop()
        if finish is not None:
            h0 = clock()
            finish(result)
            rec.spans.append(["trace.counters", h0, clock(), stack[-1] if stack else -1])
        if not stack and rec.link is not None:
            rec.dump("a")
        return result

    return traced


def _step_round_hook(rec):
    def hook(args, kwargs):
        eng = args[0]
        messages, ref, ce_time = eng.messages.copy(), eng.ref.copy(), eng.ce_time.copy()

        def finish(_):
            fired = eng.messages > messages
            same = (eng.ref.view(np.uint64) == ref.view(np.uint64)).all(axis=1)
            out_degree = np.bincount(eng.snd, minlength=eng.n)
            rec.counters["broadcasts"] += int(fired.sum())
            rec.counters["redundant_broadcasts"] += int((fired & same).sum())
            rec.counters["link_packets"] += int(out_degree[fired].sum())
            rec.counters["cache_updates"] += int((eng.ce_time != ce_time).sum())
        return finish
    return hook


def _simulate_hook(rec, fn):
    sig = inspect.signature(fn)

    def hook(args, kwargs):
        comms = sig.bind(*args, **kwargs).arguments["comms"]

        def finish(record):
            rec.counters["outer_iters"] += record.outer_iters
            rec.counters["inner_cap_hits"] += sum(
                p["inner_steps_used"] >= comms.inner_step_cap for p in record.per_outer)
        return finish
    return hook


def _barycenter_hook(rec):
    def hook(args, kwargs):
        def finish(result):
            rec.counters["oracle_iterations"] += result.iterations
        return finish
    return hook


def _write_hook(rec):
    def hook(args, kwargs):
        def finish(_):
            rec.counters["write_bytes"] += os.path.getsize(args[0])
        return finish
    return hook


def _hook_for(rec, layer, name, fn):
    if name == "step_round":
        return _step_round_hook(rec)
    if layer == "engine" and name == "simulate_decentralized":
        return _simulate_hook(rec, fn)
    if layer == "otcore" and name == "centralized_barycenter":
        return _barycenter_hook(rec)
    if layer == "experiments" and name in ("write_json", "write_csv"):
        return _write_hook(rec)
    return None


def _public_functions(module):
    for name, obj in list(vars(module).items()):
        if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


def install(flush_dir: str) -> Recorder:
    """Wrap the package's public functions; returns the recorder."""
    rec = Recorder(flush_dir)
    modules = [m for n, m in sys.modules.items() if n == "dsinkhorn" or n.startswith("dsinkhorn.")]
    for layer in LAYERS:
        module = sys.modules[f"dsinkhorn.{layer}"]
        for name, fn in _public_functions(module):
            wrapper = _timed(rec, f"{layer}.{name}", fn, _hook_for(rec, layer, name, fn))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        rec.restore.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(module, cls_name)
            for name in methods:
                fn = vars(cls)[name]
                rec.restore.append((cls, name, fn))
                setattr(cls, name, _timed(rec, f"{layer}.{name}", fn, _hook_for(rec, layer, name, fn)))
    os.register_at_fork(after_in_child=rec.after_fork)
    return rec


def uninstall(rec: Recorder) -> None:
    for owner, attr, original in reversed(rec.restore):
        setattr(owner, attr, original)
    rec.restore = []


def load(trace_dir: str) -> list:
    """Every flushed span batch of one traced process tree."""
    rows = []
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            rows.extend(json.loads(line) for line in fh if line.strip())
    return rows


def aggregate(rows: list) -> dict:
    """Per span name: calls, total seconds, self seconds, durations; per
    layer, the seconds in spans not nested in a span of the same layer;
    and the summed counters."""
    calls = collections.Counter()
    total = collections.defaultdict(float)
    self_s = collections.defaultdict(float)
    durations = collections.defaultdict(list)
    roots_by_layer = collections.defaultdict(float)
    counters = collections.Counter()
    for row in rows:
        spans = row["spans"]
        child = [0.0] * len(spans)
        for name, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (name, t0, t1, parent) in enumerate(spans):
            dur = t1 - t0
            calls[name] += 1
            total[name] += dur
            self_s[name] += dur - child[i]
            durations[name].append(dur)
            layer = name.split(".", 1)[0]
            if parent < 0 or spans[parent][0].split(".", 1)[0] != layer:
                roots_by_layer[layer] += dur
        counters.update(row["counters"])
    return {"calls": calls, "total": total, "self": self_s, "durations": durations,
            "layer_outer_s": roots_by_layer, "counters": counters}
