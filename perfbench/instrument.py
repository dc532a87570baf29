"""In-memory tracing of calls into the library's layers.

The benchmark instruments the library from the outside: :func:`install`
swaps public functions and methods of ``repro`` for wrappers that record
into a :class:`Tracer`, and the returned :class:`Patches` puts every
original back.  Nothing under ``src/`` is edited.

Three kinds of wrapper, chosen by how often the call happens:

* **span** — coarse calls (one delay analysis, one certify flow).  Each
  call becomes a span ``[id, parent, name, start, end, timed]`` kept in
  memory; a span's self time is its duration minus its children's.
* **timed** — frequent calls (engine operations, event replays).  Only
  the call count and the busy time of the outermost call per key are
  kept, and that time is charged to the enclosing span as child time.
* **counted** — hot inner calls (``BddManager.ite``), counted only.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List

_clock = time.perf_counter


class Tracer:
    """Spans, counts and busy times of one traced pass, all in memory."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.busy: Dict[str, float] = defaultdict(float)
        # Spans nest within one thread; only the single-threaded driver
        # opens spans.  Timed calls may come from several server threads,
        # so their nesting depth is per thread and their totals locked.
        self._stack: List[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- spans ---------------------------------------------------------
    def open(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        # [id, parent, name, start, end,
        #  {timed key: seconds of its outermost calls directly inside}]
        span = [len(self.spans), parent, name, _clock(), None, {}]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[4] = _clock()
        self._stack.pop()

    def span(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)

        return wrapper

    # -- timed and counted calls --------------------------------------
    def timed(self, key: str, fn: Callable, on_result=None) -> Callable:
        busy, counts, stack = self.busy, self.counts, self._stack
        local, lock = self._local, self._lock

        def wrapper(*args, **kwargs):
            depth = getattr(local, "depth", None)
            if depth is None:
                depth = local.depth = Counter()
            outermost = not depth[key]
            first = not depth["*"]
            depth[key] += 1
            depth["*"] += 1
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                depth[key] -= 1
                depth["*"] -= 1
                with lock:
                    counts[key + ".calls"] += 1
                    if outermost:
                        busy[key] += elapsed
                    if first and stack:
                        timed = stack[-1][5]
                        timed[key] = timed.get(key, 0.0) + elapsed
            if on_result is not None:
                with lock:
                    on_result(self, args, kwargs, result)
            return result

        return wrapper

    def counted(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- roll-ups (a span's id is its index in ``spans``) ----------------
    def child_seconds(self, parent: str, name: str) -> float:
        """Total duration of spans ``name`` directly under ``parent``."""
        return sum(
            span[4] - span[3] for span in self.spans
            if span[2] == name and span[1] is not None
            and self.spans[span[1]][2] == parent
        )

    def span_seconds(self, name: str) -> float:
        """Total duration of the outermost spans called ``name``."""
        total = 0.0
        for span in self.spans:
            if span[2] != name:
                continue
            parent = span[1]
            while parent is not None and self.spans[parent][2] != name:
                parent = self.spans[parent][1]
            if parent is None:
                total += span[4] - span[3]
        return total

    def timed_in(self, name: str, key: str) -> float:
        """Busy time of timed ``key`` calls made directly inside spans
        called ``name`` (not inside one of their child spans)."""
        return sum(
            span[5].get(key, 0.0) for span in self.spans if span[2] == name
        )

    def self_seconds(self) -> List[float]:
        """Per span: duration minus its child spans and the timed calls
        made directly inside it."""
        result = [
            span[4] - span[3] - sum(span[5].values()) for span in self.spans
        ]
        for span in self.spans:
            if span[1] is not None:
                result[span[1]] -= span[4] - span[3]
        return result

    def export(self) -> Dict[str, object]:
        self_s = self.self_seconds()
        by_name: Dict[str, float] = defaultdict(float)
        for span, seconds in zip(self.spans, self_s):
            by_name[span[2]] += seconds
        return {
            "spans": [
                {
                    "id": span[0],
                    "parent": span[1],
                    "name": span[2],
                    "start": span[3],
                    "end": span[4],
                    "self_s": seconds,
                    "timed_s": span[5],
                }
                for span, seconds in zip(self.spans, self_s)
            ],
            "counts": dict(sorted(self.counts.items())),
            "busy_s": dict(sorted(self.busy.items())),
            "self_s": dict(sorted(by_name.items())),
        }


class Patches:
    """Swapped attributes, restored by :meth:`undo`."""

    def __init__(self) -> None:
        self._saved: List[tuple] = []

    def set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def function(self, fn: Callable, make: Callable) -> None:
        """Replace ``fn`` in every loaded module that binds it by name,
        so callers that imported it directly see the wrapper too."""
        wrapper = make(fn)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if namespace is None:
                continue
            if namespace.get(fn.__name__) is fn:
                self.set(module, fn.__name__, wrapper)

    def method(self, cls, name: str, make: Callable) -> None:
        self.set(cls, name, make(cls.__dict__[name]))

    def undo(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


_ENGINE_METHODS = (
    "var", "not_", "and_", "or_", "xor_", "and_many", "or_many",
    "evaluate", "sat_one", "is_tautology", "equiv", "support", "size",
)


def _sat_solve(tracer: Tracer, fn: Callable) -> Callable:
    counts = tracer.counts

    def wrapper(solver, *args, **kwargs):
        before = (
            solver.num_propagations, solver.num_conflicts,
            solver.num_decisions,
        )
        try:
            return fn(solver, *args, **kwargs)
        finally:
            counts["boolfn.sat.solves"] += 1
            counts["boolfn.sat.propagations"] += (
                solver.num_propagations - before[0]
            )
            counts["boolfn.sat.conflicts"] += solver.num_conflicts - before[1]
            counts["boolfn.sat.decisions"] += solver.num_decisions - before[2]

    return wrapper


def _count_transitions(tracer, args, kwargs, result) -> None:
    waveforms = result.waveforms
    tracer.counts["sim.event.transitions"] += sum(
        len(waveforms[name].events) for name in waveforms
    )


def _count_lanes(tracer, args, kwargs, result) -> None:
    width = kwargs.get("width", args[2] if len(args) > 2 else 64)
    tracer.counts["sim.wordsim.lanes"] += width


def _count_cache_get(tracer, args, kwargs, result) -> None:
    if args[1] is not None:
        key = "hits" if result is not None else "misses"
        tracer.counts["runtime.cache." + key] += 1


def _count_cache_put(tracer, args, kwargs, result) -> None:
    if args[1] is not None and args[2] is not None:
        tracer.counts["runtime.cache.stores"] += 1


LAYERS = ("boolfn", "core", "sim", "runtime")


def _modules(*names):
    return [importlib.import_module("repro." + name) for name in names]


def _install_boolfn(tracer: Tracer, patches: Patches) -> None:
    bdd, interface, sat = _modules("boolfn.bdd", "boolfn.interface",
                                   "boolfn.sat")
    patches.method(bdd.BddManager, "ite",
                   lambda fn: tracer.counted("boolfn.bdd.ite_calls", fn))
    patches.method(sat.SatSolver, "solve", lambda fn: _sat_solve(tracer, fn))
    for cls in (interface.BddEngine, interface.SatEngine):
        for name in _ENGINE_METHODS:
            patches.method(cls, name, lambda fn: tracer.timed("boolfn", fn))


def _install_core(tracer: Tracer, patches: Patches) -> None:
    bounded, certify, floating, statistical, transition, vectors = _modules(
        "core.bounded", "core.certify", "core.floating", "core.statistical",
        "core.transition", "core.vectors",
    )
    for fn, name in (
        (floating.compute_floating_delay, "core.floating"),
        (transition.compute_transition_delay, "core.transition"),
        (bounded.compute_bounded_transition_delay, "core.bounded"),
        (certify.certify, "core.certify"),
        (transition.extend_floating_witness,
         "core.transition.extend_floating_witness"),
        (transition.collect_certification_pairs,
         "core.transition.collect_certification_pairs"),
        (vectors.batch_pair_states, "core.vectors.batch_pair_states"),
        (statistical.monte_carlo_delay, "core.statistical.monte_carlo_delay"),
    ):
        patches.function(fn, lambda f, name=name: tracer.span(name, f))
    patches.function(
        statistical.sample_delay_once,
        lambda f: tracer.counted("core.statistical.mc_samples", f),
    )


def _install_sim(tracer: Tracer, patches: Patches) -> None:
    event_sim, wordsim = _modules("sim.event_sim", "sim.wordsim")
    patches.method(
        event_sim.EventSimulator, "simulate_transition",
        lambda fn: tracer.timed("sim.event", fn, _count_transitions),
    )
    patches.method(
        wordsim.WordKernel, "simulate",
        lambda fn: tracer.timed("sim.wordsim", fn, _count_lanes),
    )


def _install_runtime(tracer: Tracer, patches: Patches) -> None:
    cache, fingerprint = _modules("runtime.cache", "runtime.fingerprint")
    patches.method(
        cache.DelayCache, "get",
        lambda fn: tracer.timed("runtime.cache", fn, _count_cache_get),
    )
    patches.method(
        cache.DelayCache, "put",
        lambda fn: tracer.timed("runtime.cache", fn, _count_cache_put),
    )
    for fn in (
        fingerprint.circuit_fingerprint,
        fingerprint.node_cone_fingerprints,
        fingerprint.cone_fingerprint,
    ):
        patches.function(
            fn, lambda f: tracer.timed("runtime.fingerprint", f)
        )


_INSTALLERS = {
    "boolfn": _install_boolfn,
    "core": _install_core,
    "sim": _install_sim,
    "runtime": _install_runtime,
}


def install(tracer: Tracer, layers=LAYERS) -> Patches:
    """Instrument the named layers; the result undoes it.

    Spans are single-threaded: a multi-threaded process (the timing
    server) installs only the layers whose wrappers are timed or counted.
    """
    patches = Patches()
    for layer in layers:
        _INSTALLERS[layer](tracer, patches)
    return patches
