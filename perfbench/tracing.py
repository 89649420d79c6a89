"""Benchmark-side spans around the program's layer entry points.

The traced run replaces each layer's public entry point, at the place
where its callers look it up (a module attribute or a class attribute),
with a wrapper that records one span per call: its name, start, end,
the span that caused it on the same thread, and the operation id the
benchmark set for that thread. Nothing inside ``src/`` changes; the
untraced run installs no wrapper at all.

Spans stay in memory and are written out once, when the run ends. A
span's self time is its duration minus the time its children cover.
Work that runs on pool threads (chunked slabs, the service scheduler,
the fleet's send threads) opens root spans on those threads; the
per-layer sums below count them all the same.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager, nullcontext

from repro.observability import Counter, get_registry

#: Kernels reported one by one; every other dispatched kernel is summed
#: under ``other``. The first two are the decode kernels.
NAMED_KERNELS = (
    "huffman_decode_symbols",
    "zfp_decode_plane_group",
    "huffman_encode_bits",
    "huffman_lookup_indices",
    "zfp_encode_plane_group",
)
_NOT_KERNELS = {
    "KERNELS_ENV", "DEFAULT_BACKEND", "backend_names", "active_backend",
    "set_backend", "use_backend",
}


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "thread",
                 "child_s", "value")

    def __init__(self, span_id, name, start, parent, op):
        self.id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.thread = threading.get_ident()
        self.child_s = 0.0
        self.value = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class NullRecorder:
    """What the untraced run uses: every span and op is a no-op."""

    enabled = False

    def op(self, op_id, name="op"):
        return nullcontext()

    def span(self, name):
        return nullcontext()


class Recorder:
    """Collects spans from every thread; patches and restores entry points."""

    enabled = True

    def __init__(self) -> None:
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches = []
        self._t0 = time.perf_counter()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name, op=None):
        stack = self._stack()
        if op is None:
            op = getattr(self._local, "op", None)
        sp = Span(next(self._ids), name, time.perf_counter(),
                  stack[-1] if stack else None, op)
        stack.append(sp)
        return sp

    def _close(self, sp) -> None:
        sp.end = time.perf_counter()
        self._stack().pop()
        if sp.parent is not None:
            sp.parent.child_s += sp.duration
        self.spans.append(sp)

    @contextmanager
    def span(self, name):
        sp = self._open(name)
        try:
            yield sp
        finally:
            self._close(sp)

    @contextmanager
    def op(self, op_id, name="op"):
        """Mark one benchmark operation: a root span plus this thread's op id."""
        previous = getattr(self._local, "op", None)
        self._local.op = op_id
        try:
            with self.span(name):
                yield
        finally:
            self._local.op = previous

    def wrap(self, owner, attr, name, note=None, op_of=None):
        """Record a span around every call of ``owner.attr``.

        *note(result)* stores a number on the span (bytes sent, a cache
        hit); *op_of(args)* names the operation a call serves when the
        calling thread has none of its own (server threads).
        """
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        local = self._local

        def wrapper(*args, **kwargs):
            op = op_of(args) if op_of is not None else None
            previous = getattr(local, "op", None)
            if op is not None:
                local.op = op
            sp = self._open(name)
            try:
                result = original(*args, **kwargs)
                if note is not None:
                    sp.value = float(note(result))
                return result
            finally:
                self._close(sp)
                local.op = previous

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def totals(self):
        """``name -> [calls, duration_s, self_s, value]`` over all spans."""
        out = {}
        for sp in self.spans:
            row = out.setdefault(sp.name, [0, 0.0, 0.0, 0.0])
            row[0] += 1
            row[1] += sp.duration
            row[2] += sp.self_s
            row[3] += sp.value
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for sp in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps({
                    "id": sp.id,
                    "name": sp.name,
                    "start_s": round(sp.start - self._t0, 9),
                    "end_s": round(sp.end - self._t0, 9),
                    "parent": None if sp.parent is None else sp.parent.id,
                    "op": sp.op,
                    "thread": sp.thread,
                }) + "\n")


def install(rec: Recorder) -> None:
    """Wrap every layer's public entry points where callers look them up."""
    from repro.cache import ResultCache
    from repro.compressors import kernels
    from repro.compressors.base import Compressor
    from repro.core.service import TuningService
    from repro.distributed import coordinator
    from repro.governor.policies import Governor
    from repro.hardware.node import SimulatedNode
    from repro.iosim.cluster import SimulatedCluster
    from repro.powercap import controller
    from repro.service import handlers, http
    from repro.service.http import TuningServer
    from repro.workflow import campaign

    for name in kernels.__all__:
        if name not in _NOT_KERNELS:
            rec.wrap(kernels, name, f"compressors.kernels.{name}")
    rec.wrap(Compressor, "compress", "compressors.compress")
    rec.wrap(Compressor, "decompress", "compressors.decompress")
    rec.wrap(campaign, "fingerprint", "cache.fingerprint")
    rec.wrap(ResultCache, "lookup", "cache.lookup", note=lambda r: r[0])
    rec.wrap(ResultCache, "store", "cache.store")
    rec.wrap(coordinator, "send_frame", "distributed.send_frame",
             note=lambda nbytes: nbytes)
    rec.wrap(coordinator, "pack_blob", "distributed.pack_blob")
    rec.wrap(coordinator, "unpack_blob", "distributed.unpack_blob")
    rec.wrap(SimulatedNode, "run", "hardware.node_run")
    rec.wrap(Governor, "decide", "governor.decide")
    rec.wrap(Governor, "observe", "governor.observe")
    rec.wrap(SimulatedCluster, "dump_all", "iosim.dump_all")
    for method in ("join", "leave", "begin_phase", "report"):
        rec.wrap(controller.ClusterCapController, method, f"powercap.{method}")
    rec.wrap(controller, "allocate_budget", "powercap.allocate")
    rec.wrap(controller, "node_power_model", "powercap.model_build")
    rec.wrap(controller, "cap_ghz_for_watts", "powercap.cap_invert")
    rec.wrap(TuningServer, "route", "service.route",
             op_of=lambda args: args[1].headers.get("X-Op-Id"))
    rec.wrap(TuningServer, "govern", "service.govern")
    # The scheduler holds a bound ``cache_key`` from before the wrap, so
    # time the fingerprint that method computes, where it looks it up.
    rec.wrap(http, "fingerprint", "service.cache_key")
    rec.wrap(handlers.RequestHandlers, "__call__", "service.handler")
    rec.wrap(TuningService, "decide", "core.tuning_decide")
    for name in ("compare_strategies", "breakeven_bandwidth_bps",
                 "breakeven_clients"):
        rec.wrap(handlers, name, "core.breakeven")


def counter_totals():
    """Program counter totals by ``(name, kernel label)``, summed over labels.

    The program keeps these counters whether or not anything traces;
    the traced run reads their change across its measured cycle.
    """
    out = {}
    for metric in get_registry().metrics():
        if isinstance(metric, Counter):
            kernel = dict(metric.labels).get("kernel")
            key = (metric.name, kernel)
            out[key] = out.get(key, 0.0) + metric.value
    return out


def counter_delta(before, after, name, kernel=None):
    """Change of one counter (or, with ``kernel="*"``, all its labels)."""
    keys = [k for k in after if k[0] == name
            and (kernel == "*" or k[1] == kernel)]
    delta = sum(after[k] - before.get(k, 0.0) for k in keys)
    return int(delta) if float(delta).is_integer() else delta


def per_layer(rec, before, after, extra):
    """Every per-layer metric as ``name -> (value, unit)``.

    *before*/*after* are :func:`counter_totals` snapshots around the
    traced cycle; *extra* carries what a workload measured outside the
    wrappers (chunk stats, worker-clocked task seconds, client times).
    """
    t = rec.totals()
    none = (0, 0.0, 0.0, 0.0)

    def calls(name):
        return t.get(name, none)[0]

    def dur(*names):
        return sum(t.get(n, none)[1] for n in names)

    def self_s(name):
        return t.get(name, none)[2]

    def value(name):
        return t.get(name, none)[3]

    m = {}
    kernel_names = [n[len("compressors.kernels."):] for n in t
                    if n.startswith("compressors.kernels.")]
    other = [k for k in kernel_names if k not in NAMED_KERNELS]
    for k in NAMED_KERNELS + ("other",):
        group = other if k == "other" else [k]
        prefix = f"compressors.kernels.{k}"
        m[f"{prefix}.calls"] = (
            sum(calls(f"compressors.kernels.{g}") for g in group), "count")
        m[f"{prefix}.items"] = (sum(
            counter_delta(before, after, "repro_kernel_items_total", g)
            for g in group), "count")
        m[f"{prefix}.self_s"] = (
            sum(self_s(f"compressors.kernels.{g}") for g in group), "s")
    m["compressors.compress.self_s"] = (self_s("compressors.compress"), "s")
    m["compressors.decompress.self_s"] = (self_s("compressors.decompress"), "s")
    decode = sum(self_s(f"compressors.kernels.{k}") for k in NAMED_KERNELS[:2])
    decompress = dur("compressors.decompress")
    m["compressors.decode_kernel_share"] = (
        decode / decompress if decompress else 0.0, "ratio")
    m["compressors.bytes_in_mb"] = (counter_delta(
        before, after, "repro_compress_bytes_in_total", "*") / 1e6, "MB")
    m["compressors.bytes_out_mb"] = (counter_delta(
        before, after, "repro_compress_bytes_out_total", "*") / 1e6, "MB")

    slabs = extra.get("slab_stats", [])
    busy = sum(s.task_seconds for s in slabs)
    wall = sum(s.wall_s for s in slabs)
    m["parallel.slabs"] = (sum(s.n_tasks for s in slabs), "count")
    m["parallel.slab_busy_s"] = (busy, "s")
    m["parallel.map_wall_s"] = (wall, "s")
    m["parallel.concurrency"] = (busy / wall if wall else 0.0, "ratio")

    lookups = calls("cache.lookup")
    hits = value("cache.lookup")
    m["cache.lookups"] = (lookups, "count")
    m["cache.hits"] = (int(hits), "count")
    m["cache.hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
    m["cache.fingerprint_s"] = (dur("cache.fingerprint"), "s")
    m["cache.lookup_s"] = (dur("cache.lookup"), "s")
    m["cache.store_s"] = (dur("cache.store"), "s")
    m["cache.stored_mb"] = (counter_delta(
        before, after, "repro_cache_bytes_total", "*") / 1e6, "MB")

    m["distributed.spawn_s"] = (extra.get("spawn_s", 0.0), "s")
    m["distributed.frames_sent"] = (calls("distributed.send_frame"), "count")
    m["distributed.wire_sent_mb"] = (value("distributed.send_frame") / 1e6, "MB")
    m["distributed.send_s"] = (dur("distributed.send_frame"), "s")
    m["distributed.pack_s"] = (dur("distributed.pack_blob"), "s")
    m["distributed.map_wall_s"] = (dur("distributed.map"), "s")
    m["distributed.task_busy_s"] = (extra.get("task_busy_s", 0.0), "s")
    m["distributed.reassignments"] = (extra.get("reassignments", 0), "count")

    m["workflow.points"] = (extra.get("points", 0), "count")
    m["workflow.points_computed"] = (extra.get("points_computed", 0), "count")
    m["workflow.sweep_self_s"] = (self_s("workflow.sweep"), "s")

    m["iosim.dump_all.calls"] = (calls("iosim.dump_all"), "count")
    m["iosim.dump_all.self_s"] = (self_s("iosim.dump_all"), "s")
    m["hardware.node_runs"] = (calls("hardware.node_run"), "count")
    m["hardware.node_run_s"] = (dur("hardware.node_run"), "s")
    m["governor.decides"] = (calls("governor.decide"), "count")
    m["governor.decide_s"] = (dur("governor.decide"), "s")
    m["governor.observes"] = (calls("governor.observe"), "count")
    m["governor.observe_s"] = (dur("governor.observe"), "s")

    m["powercap.epochs"] = (calls("powercap.allocate"), "count")
    for key, name in (("join_s", "join"), ("leave_s", "leave"),
                      ("begin_phase_s", "begin_phase"),
                      ("allocate_s", "allocate"),
                      ("model_build_s", "model_build"),
                      ("cap_invert_s", "cap_invert"), ("report_s", "report")):
        m[f"powercap.{key}"] = (dur(f"powercap.{name}"), "s")
    ops = sum(row[1] for name, row in t.items() if name.startswith("op."))
    powercap = dur("powercap.join", "powercap.leave", "powercap.begin_phase",
                   "powercap.report")
    m["powercap.op_share"] = (powercap / ops if ops else 0.0, "ratio")
    m["powercap.infeasible_caps"] = (counter_delta(
        before, after, "repro_powercap_infeasible_caps_total", "*"), "count")

    routes = extra.get("route_latencies", {})
    for r in ("tune", "decide", "govern"):
        lat = sorted(routes.get(r, []))
        m[f"service.{r}.requests"] = (len(lat), "count")
        m[f"service.{r}.p50_ms"] = (
            lat[len(lat) // 2] * 1e3 if lat else 0.0, "ms")
    m["service.http_s"] = (
        extra.get("client_s", 0.0) - dur("service.route") if routes else 0.0,
        "s")
    m["service.route_self_s"] = (
        dur("service.route") - dur("service.handler", "service.govern"), "s")
    m["service.cache_key_s"] = (dur("service.cache_key"), "s")
    for key, counter in (("batches", "repro_service_batches_total"),
                         ("coalesced", "repro_service_coalesced_total"),
                         ("rejected", "repro_service_rejected_total")):
        m[f"service.{key}"] = (counter_delta(before, after, counter), "count")

    m["core.tuning_decide_s"] = (dur("core.tuning_decide"), "s")
    m["core.breakeven_s"] = (dur("core.breakeven"), "s")
    m["tracing.overhead"] = (extra.get("overhead", 0.0), "ratio")
    return m
