"""Span and counter recording around the public functions of each layer.

Nothing in the program is edited: ``Recorder.patched()`` replaces module
attributes with timing wrappers for the length of one traced pass and puts
the originals back afterwards.  Re-exported names are patched too
(``reconstruct.logode_step``, the ``rde._STEPPERS`` table that ``solve``
dispatches through), and the ``SYSTEM_BUILDERS`` entries are replaced by
builders whose field and Jacobian evaluators count their calls.

Every thread keeps its own span stack, span list and counters, so pool
threads need no lock; a span opened with an empty stack takes the current
command span as its parent.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import itertools
import json
import os
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from rdeinv import rde, reconstruct, roughpath
from rdeinv.systems import SYSTEM_BUILDERS
from rdeinv.vectorfields import VectorFieldSet


class _ThreadLog:
    __slots__ = ("thread", "stack", "spans", "counts")

    def __init__(self, thread):
        self.thread = thread
        self.stack = []
        self.spans = []  # (id, parent, name, start, end)
        self.counts = defaultdict(int)


def _on_increment(counts, args, kwargs, out):
    counts["roughpath.increment.steps"] += args[2] - args[1]


def _path_bytes(arg_index):
    def hook(counts, args, kwargs, out):
        counts["roughpath.path_csv.bytes"] += os.path.getsize(args[arg_index])

    return hook


def _on_logode(default_n_sub):
    def hook(counts, args, kwargs, out):
        n_sub = args[3] if len(args) > 3 else kwargs.get("n_sub", default_n_sub)
        counts["rde.rk4_stages"] += 4 * int(n_sub)

    return hook


def _on_recovery(counts, args, kwargs, out):
    counts["reconstruct.recovered"] += 1
    counts["reconstruct.gn_iterations"] += out.iterations
    counts["reconstruct.trust_region_exceeded"] += "trust_region_exceeded" in out.warnings


# (module, attribute, span name, result hook, counter for raised calls)
_SPANS = [
    (roughpath, "sample_brownian_lift", "roughpath.sample_brownian_lift", None, None),
    (roughpath, "write_path_csv", "roughpath.write_path_csv", _path_bytes(1), None),
    (roughpath, "read_path_csv", "roughpath.read_path_csv", _path_bytes(0), None),
    (rde, "observe_flow", "rde.observe_flow", None, None),
    (rde, "solve", "rde.solve", None, None),
    (rde, "write_trajectory_csv", "rde.trajectory_csv", None, None),
    (rde, "read_trajectory_csv", "rde.trajectory_csv", None, None),
    (reconstruct, "local_reconstruct_flow", "reconstruct.local_reconstruct_flow",
     _on_recovery, "reconstruct.failed"),
    (reconstruct, "local_reconstruct_taylor", "reconstruct.local_reconstruct_taylor",
     _on_recovery, "reconstruct.failed"),
    (reconstruct, "flow_map", "reconstruct.flow_map", None, None),
    (reconstruct, "reconstruction_matrix", "reconstruct.reconstruction_matrix", None, None),
    (reconstruct, "search_points", "reconstruct.search_points", None, None),
    (reconstruct, "write_observations_csv", "reconstruct.observations_csv", None, None),
    (reconstruct, "read_observations_csv", "reconstruct.observations_csv", None, None),
    (reconstruct, "stitch", "reconstruct.stitch", None, None),
]


class Recorder:
    """Collects spans and counters of traced passes."""

    def __init__(self):
        self._local = threading.local()
        self._logs = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._root = None

    def _log(self):
        try:
            return self._local.log
        except AttributeError:
            log = _ThreadLog(threading.get_ident())
            self._local.log = log
            with self._lock:
                self._logs.append(log)
            return log

    def span(self, name, fn, on_result=None, on_error=None):
        """``fn`` wrapped so that each call records a span named ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            log = self._log()
            sid = next(self._ids)
            parent = log.stack[-1] if log.stack else self._root
            log.stack.append(sid)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                if on_error is not None:
                    log.counts[on_error] += 1
                raise
            finally:
                end = perf_counter()
                log.stack.pop()
                log.spans.append((sid, parent, name, start, end))
            if on_result is not None:
                on_result(log.counts, args, kwargs, out)
            return out

        return wrapper

    @contextmanager
    def command(self, name):
        """Span of one CLI command, the root of every span the command opens."""
        log = self._log()
        sid = next(self._ids)
        log.stack.append(sid)
        self._root = sid
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            log.stack.pop()
            log.spans.append((sid, None, name, start, end))
            self._root = None

    def _counting(self, fn, key):
        def wrapper(*args):
            self._log().counts[key] += 1
            return fn(*args)

        return wrapper

    def _counting_builder(self, builder):
        def build(*args, **kwargs):
            system = builder(*args, **kwargs)
            v = system.fields
            fields = VectorFieldSet(
                [self._counting(f, "vectorfields.field_evals") for f in v._evals],
                v.d,
                jacs=None if v._jacs is None
                else [self._counting(j, "vectorfields.jacobian_evals") for j in v._jacs],
                fd_step=v.fd_step,
                jac_mode=v.jac_mode,
            )
            return dataclasses.replace(system, fields=fields)

        return build

    @contextmanager
    def patched(self):
        """Install every wrapper for the length of the block, then restore the originals."""
        saved = []

        def put(target, key, value):
            if isinstance(target, dict):
                saved.append((target.__setitem__, key, target[key]))
                target[key] = value
            else:
                saved.append((functools.partial(setattr, target), key, getattr(target, key)))
                setattr(target, key, value)

        try:
            logode = self.span(
                "rde.logode_step",
                rde.logode_step,
                _on_logode(inspect.signature(rde.logode_step).parameters["n_sub"].default),
            )
            euler2 = self.span("rde.euler2_step", rde.euler2_step)
            put(rde, "logode_step", logode)
            put(reconstruct, "logode_step", logode)
            put(rde, "euler2_step", euler2)
            put(rde._STEPPERS, "logode", logode)
            put(rde._STEPPERS, "euler2", euler2)
            put(roughpath.GridRoughPath, "increment",
                self.span("roughpath.increment", roughpath.GridRoughPath.increment, _on_increment))
            for module, attr, name, hook, on_error in _SPANS:
                put(module, attr, self.span(name, getattr(module, attr), hook, on_error))
            for key, builder in list(SYSTEM_BUILDERS.items()):
                put(SYSTEM_BUILDERS, key, self._counting_builder(builder))
            yield
        finally:
            for setter, key, value in reversed(saved):
                setter(key, value)

    def take(self):
        """Spans and summed counters recorded since the last call, then reset."""
        spans, counts = [], defaultdict(int)
        with self._lock:
            for log in self._logs:
                spans += [s + (log.thread,) for s in log.spans]
                for k, v in log.counts.items():
                    counts[k] += v
                log.spans = []
                log.counts = defaultdict(int)
        return spans, dict(counts)


def _union_length(intervals):
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def span_stats(spans):
    """Per span name: calls, summed duration and summed self time.

    Self time is a span's duration minus the part of it that its child spans
    cover; children running in parallel pool threads are merged first.
    """
    children = defaultdict(list)
    for sid, parent, name, start, end, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    stats = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
    for sid, parent, name, start, end, _ in spans:
        covered = _union_length(
            (max(lo, start), min(hi, end)) for lo, hi in children.get(sid, ()) if hi > start and lo < end
        )
        st = stats[name]
        st["calls"] += 1
        st["self_s"] += (end - start) - covered
        st["total_s"] += end - start
    return dict(stats)


def union_seconds(spans, names):
    """Wall time during which at least one span with one of ``names`` was open."""
    return _union_length((start, end) for _, _, name, start, end, _ in spans if name in names)


def dump(file, header, passes):
    """Write one header line, then one JSON line per span of every traced pass."""
    with open(file, "w", newline="\n") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for k, (t0, spans) in enumerate(passes):
            for sid, parent, name, start, end, thread in spans:
                fh.write(json.dumps({
                    "pass": k, "id": sid, "parent": parent, "name": name, "thread": thread,
                    "start": round(start - t0, 9), "end": round(end - t0, 9),
                }) + "\n")
