"""Outside-in per-layer trace: spans around calls into each layer.

:func:`install` wraps the public entry points of every layer of the
program, from the benchmark's side; the program's source is untouched.
Each wrapper records a count and a span.  A layer's *self* time is its
spans' duration minus the time of the spans nested inside them, so the
layers' self times plus ``trace.other_s`` add up to the traced run's
timed section.

Rules the wrappers keep so that the traced run measures the same
program as the untraced one:

* An entry point is replaced wherever it is looked up: in every loaded
  ``repro`` module that holds it by name (``repro.apps.lu`` imports
  ``detached_call`` by name, for one), or on its class.
* Generator entry points (``Comm`` collectives, ``redistribute``,
  ``iterate``...) are timed per resumption.  A suspended generator's
  wall interval holds other processes' work, so only the time between
  a resume and the next yield is the layer's.
* Nothing turns on the program's own tracing (``Network(trace=True)``,
  ``Machine(trace_network=True)``): both force the fast paths off.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from importlib import import_module

#: Self-time span names; each is one layer, or one part of a layer that
#: gets its own metric.
SPANS = ("simulate.queue", "simulate.dispatch", "core.probe", "core",
         "api", "mpi.fastcoll", "mpi.comm", "mpi.fastp2p", "cluster",
         "apps", "blacs", "redist", "darray", "sweep")

#: ``Comm`` methods counted as collectives; the point-to-point ones are
#: timed as ``mpi.comm`` too but not counted.
COLLECTIVES = ("barrier", "bcast", "reduce", "allreduce", "gather",
               "allgather", "scatter", "alltoall", "create_sub", "dup")
P2P_GENERATORS = ("send", "recv", "recv_status", "sendrecv")
P2P_CALLS = ("isend", "irecv")


class Tracer:
    """Span stack, per-span self time and named counters."""

    def __init__(self):
        self.self_s = dict.fromkeys(SPANS + ("timed",), 0.0)
        self.counts: dict[str, int] = {}
        #: One entry per open span: seconds its children took so far.
        self._stack: list[float] = []
        self.network_stats: list = []
        self.ledgers: list = []
        self.redist_bytes = [0, 0]   # wire, payload

    def count(self, name: str) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1

    def _leave(self, span: str, t0: float) -> None:
        dur = time.perf_counter() - t0
        stack = self._stack
        self.self_s[span] += dur - stack.pop()
        if stack:
            stack[-1] += dur

    @contextmanager
    def top(self, span: str):
        """The outermost span: its self time is what no layer covers."""
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._leave(span, t0)

    def call(self, span: str, fn, counter=None, on_return=None):
        """Wrap a plain function: one span per call."""
        stack, leave, clock = self._stack, self._leave, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter:
                self.count(counter)
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(span, t0)
            if on_return is not None:
                on_return(result)
            return result
        return wrapper

    def gen(self, span: str, fn, counter=None, on_return=None):
        """Wrap a generator function: one span per resumption."""
        stack, leave, clock = self._stack, self._leave, time.perf_counter

        @functools.wraps(fn)  # keeps generator names, e.g. Process names
        def wrapper(*args, **kwargs):
            if counter:
                self.count(counter)
            inner = fn(*args, **kwargs)
            value, exc = None, None
            while True:
                stack.append(0.0)
                t0 = clock()
                try:
                    if exc is None:
                        yielded = inner.send(value)
                    else:
                        yielded = inner.throw(exc)
                except StopIteration as stop:
                    result = stop.value
                    break
                finally:
                    leave(span, t0)
                try:
                    value, exc = (yield yielded), None
                except GeneratorExit:
                    inner.close()
                    raise
                except BaseException as err:  # delivered into ``inner``
                    value, exc = None, err
            if on_return is not None:
                on_return(result)
            return result
        return wrapper

    # -- derived metrics ---------------------------------------------------
    def metrics(self, outcome, wall: float) -> dict:
        """The per-layer metrics of one traced timed section."""
        from repro.redist import tables

        s, c = self.self_s, self.counts.get
        probes = c("core.probes", 0)
        replayed = c("mpi.fastp2p.sends", 0)
        transfers = c("cluster.network.transfers", 0)
        hits = misses = 0
        for fn in (tables.cached_2d_schedule, tables.cached_rank_plans):
            info = fn.cache_info()
            hits, misses = hits + info.hits, misses + info.misses
        wire, payload = self.redist_bytes
        return {
            "simulate.events": c("simulate.events", 0),
            "simulate.queue_s": s["simulate.queue"],
            "simulate.dispatch_self_s": s["simulate.dispatch"],
            "core.probes": probes,
            "core.probe_s": s["core.probe"],
            "core.probe_yield": _ratio(c("core.started", 0), probes),
            "core.remap_decisions": c("core.remap_decisions", 0),
            "core.self_s": s["core"] + s["core.probe"],
            "core.wakes_taken": sum(x.wakes_taken for x in self.ledgers),
            "core.wakes_skipped": sum(x.wakes_skipped
                                      for x in self.ledgers),
            "core.queue_wait_sim_s": sum(outcome.queue_waits.values(), 0.0),
            "mpi.fastcoll.calls": c("mpi.fastcoll.calls", 0),
            "mpi.fastcoll_s": s["mpi.fastcoll"],
            "mpi.comm.collectives": c("mpi.comm.collectives", 0),
            "mpi.comm.self_s": s["mpi.comm"],
            "mpi.fastp2p.sends": replayed,
            "mpi.fastp2p_s": s["mpi.fastp2p"],
            "mpi.fastpath_share": _ratio(replayed, replayed + transfers),
            "cluster.network.transfers": transfers,
            "cluster.network.bytes": sum(st.bytes
                                         for st in self.network_stats),
            "cluster.self_s": s["cluster"],
            "api.self_s": s["api"],
            "apps.iterations": c("apps.iterations", 0),
            "apps.self_s": s["apps"],
            "blacs.self_s": s["blacs"],
            "redist.calls": c("redist.calls", 0),
            "redist.self_s": s["redist"],
            "redist.plan_cache_hit": _ratio(hits, hits + misses),
            "redist.wire_per_payload": _ratio(wire, payload),
            "darray.self_s": s["darray"],
            "sweep.self_s": s["sweep"],
            "trace.other_s": s["timed"],
            "trace.wall_s": wall,
        }


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# -- installation -----------------------------------------------------------
def _replace_function(module, name: str, wrap) -> None:
    """Replace ``module.name`` in every loaded ``repro`` module that
    holds the same function object, under any name or as a value of a
    module-level dispatch dict (``repro.api.resize._REDIST_METHODS``)."""
    original = getattr(module, name)
    wrapped = wrap(original)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("repro"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapped)
            elif type(value) is dict:
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = wrapped


def _replace_method(cls, name: str, wrap) -> None:
    raw = cls.__dict__[name]
    if isinstance(raw, staticmethod):
        setattr(cls, name, staticmethod(wrap(raw.__func__)))
    else:
        setattr(cls, name, wrap(raw))


def _collect_init(cls, sink: list, attr=None) -> None:
    """Keep every instance (or one attribute of it) built from now on."""
    init = cls.__init__

    def __init__(self, *args, **kwargs):
        init(self, *args, **kwargs)
        sink.append(self if attr is None else getattr(self, attr))
    cls.__init__ = __init__


def install() -> Tracer:
    """Wrap every layer's entry points; returns the tracer they feed."""
    # ``repro.sweep`` is also a facade function on the package, so the
    # modules are fetched by name, not as package attributes.
    resize = import_module("repro.api.resize")
    import_module("repro.apps.lu")
    fastcoll = import_module("repro.mpi.fastcoll")
    redist = import_module("repro.redist")
    resolver = import_module("repro.sweep.resolver")
    from repro.apps import (FFT2DApplication, JacobiApplication,
                            LUApplication, MasterWorkerApplication,
                            MatMulApplication, SyntheticApplication)
    from repro.apps.base import Application
    from repro.blacs.context import BlacsContext
    from repro.cluster.network import Network
    from repro.core.framework import ReshapeFramework
    from repro.core.pool import ReservationLedger
    from repro.core.queue import JobQueue
    from repro.core.remap import RemapScheduler
    from repro.darray import distributed
    from repro.mpi.comm import Comm
    from repro.mpi.fastp2p import NetReplay
    from repro.simulate.calendar import CalendarEventQueue, HeapEventQueue
    from repro.simulate.engine import Environment

    t = Tracer()

    # simulate: the event queues and the dispatch loop.
    for cls in (HeapEventQueue, CalendarEventQueue):
        _replace_method(cls, "push", lambda f: t.call(
            "simulate.queue", f, "simulate.events"))
        _replace_method(cls, "pop_due",
                        lambda f: t.call("simulate.queue", f))
    _replace_method(Environment, "run",
                    lambda f: t.call("simulate.dispatch", f))

    # core: queue probes, remap decisions, the framework's handlers.
    def started(job):
        if job is not None:
            t.count("core.started")
    _replace_method(JobQueue, "next_startable", lambda f: t.call(
        "core.probe", f, "core.probes", on_return=started))
    _replace_method(RemapScheduler, "decide", lambda f: t.call(
        "core", f, "core.remap_decisions"))
    for name in ("submit", "_on_arrival", "_scheduler_pass",
                 "_complete_direct", "job_complete", "job_error",
                 "notify_resized"):
        _replace_method(ReshapeFramework, name,
                        lambda f: t.call("core", f))
    _collect_init(ReservationLedger, t.ledgers)

    # api: the resizing library's rank main loop.
    _replace_function(resize, "resizable_main",
                      lambda f: t.gen("api", f))

    # mpi: detached collective replay, Comm verbs, point-to-point replay.
    _replace_function(fastcoll, "detached_call", lambda f: t.call(
        "mpi.fastcoll", f, "mpi.fastcoll.calls"))
    for name in COLLECTIVES:
        _replace_method(Comm, name, lambda f: t.gen(
            "mpi.comm", f, "mpi.comm.collectives"))
    for name in P2P_GENERATORS:
        _replace_method(Comm, name, lambda f: t.gen("mpi.comm", f))
    for name in P2P_CALLS:
        _replace_method(Comm, name, lambda f: t.call("mpi.comm", f))
    _replace_method(NetReplay, "send_flow", lambda f: t.call(
        "mpi.fastp2p", f, "mpi.fastp2p.sends"))
    _replace_method(NetReplay, "send_event",
                    lambda f: t.call("mpi.fastp2p", f))

    # cluster: live event-path transfers and their byte totals.
    _replace_method(Network, "transfer", lambda f: t.gen(
        "cluster", f, "cluster.network.transfers"))
    _collect_init(Network, t.network_stats, attr="stats")

    # apps: one outer iteration per class, and measured-iteration replay.
    for cls in (LUApplication, MatMulApplication, JacobiApplication,
                FFT2DApplication, MasterWorkerApplication,
                SyntheticApplication):
        _replace_method(cls, "iterate",
                        lambda f: t.gen("apps", f, "apps.iterations"))
    _replace_method(Application, "replay_iterations",
                    lambda f: t.gen("apps", f))

    # blacs: grid-scoped broadcasts and context creation.
    for name in ("row_bcast", "col_bcast", "create"):
        _replace_method(BlacsContext, name, lambda f: t.gen("blacs", f))

    # redist and darray: both remap routes, and the matrix data path.
    def add_redist_bytes(res):
        if res is not None:
            t.redist_bytes[0] += res.total_bytes_moved
            t.redist_bytes[1] += res.payload_nbytes
    for name in ("redistribute", "checkpoint_redistribute"):
        _replace_function(redist, name, lambda f: t.gen(
            "redist", f, "redist.calls", on_return=add_redist_bytes))
    for name in ("__init__", "pack_rect", "unpack_rect", "local_nbytes"):
        _replace_method(distributed.DistributedMatrix, name,
                        lambda f: t.call("darray", f))
    _replace_function(distributed, "copy_rect",
                      lambda f: t.call("darray", f))

    # sweep: the resolver.
    _replace_function(resolver, "run_scenario",
                      lambda f: t.call("sweep", f))
    return t
