"""A warm, long-lived worker pool for the query service.

A batch ``shard_*`` call builds a private
:class:`~repro.runtime.parallel.ShardPool` and closes it on return — the
right trade for one-shot CLI commands, but a long-lived query service
would pay worker start-up (process fork + module import) on every
request.  :class:`WarmPool` owns one :class:`~repro.runtime.parallel.ShardPool`
for its whole life and runs each request's round through the same
sharded runner as the batch calls, so timeouts, failure accounting and
the kill/rebuild of a broken pool are the runner's.

Degradation favours latency predictability over retry rounds: a round
runs with ``retries=0``, so a failed or timed-out chunk is *not*
resubmitted — the pool is killed (a hung worker never drains its queue
on its own), the failed items run serially in-process, and the next
request lazily rebuilds the pool.  Results are therefore never lost,
only slower.  Degraded rounds and pool rebuilds are reported by
:meth:`WarmPool.stats`, which the service's ``stats`` op surfaces.

The pool is shared by every session of the multi-client timing server
(:mod:`repro.serve`), so :meth:`WarmPool.run` is serialised under a lock:
one *round* runs at a time (parallelism lives inside the round, across
its chunks), which keeps the kill/rebuild bookkeeping race-free and makes
``jobs=N`` results independent of how many sessions share the pool.
:meth:`WarmPool.drain` waits for the in-flight round — the reload path
uses it so replacing a session's circuit can never race rounds still
evaluating cones of the old one.
"""

from __future__ import annotations

import functools
import threading
from typing import Optional, Sequence

from ..runtime.parallel import (
    ShardPool,
    _run_in_process,
    _run_sharded,
    resolve_jobs,
    run_cones,
)


class WarmPool:
    """A persistent process pool with serial degradation.

    ``jobs`` is the worker count (``0`` = all cores); ``timeout`` bounds
    each request's parallel round in wall-clock seconds (``None`` = the
    process-wide ``--timeout`` policy, which defaults to waiting forever
    — safe only without fault injection).
    """

    def __init__(self, jobs: int = 2, timeout: Optional[float] = None):
        self.jobs = resolve_jobs(jobs)
        self.timeout = timeout
        self._pool = ShardPool(self.jobs)
        #: Serialises rounds: the pool kill/rebuild dance and the
        #: ``rounds`` accounting assume one round at a time.
        self._lock = threading.RLock()
        self.rounds = 0
        self.drains = 0

    @property
    def live(self) -> bool:
        return self._pool.live

    def stats(self) -> dict:
        return {
            "jobs": self.jobs,
            "live": self.live,
            "rounds": self.rounds,
            # The first build is a start, not a restart.
            "restarts": max(0, self._pool.builds - 1),
            "degraded_rounds": self._pool.failed_rounds,
            "drains": self.drains,
        }

    def drain(self) -> None:
        """Block until no round is in flight (a no-op on an idle pool).

        The session-reload path calls this before detaching an engine so
        warm workers can never still be chewing on cones of a circuit
        the session no longer serves.  The worker processes themselves
        stay warm — draining is about round completion, not teardown.
        """
        with self._lock:
            self.drains += 1

    def run(self, worker, items: Sequence, make_payload, label="warm"):
        """Run ``worker`` over round-robin chunks of ``items``.

        ``worker``/``make_payload`` follow the sharded-runner protocol
        (worker returns a ``(result, counters, gauges)`` triple).  Returns
        the list of per-chunk results; callers merge order-insensitively.
        Rounds are serialised: concurrent callers queue on the pool lock.
        """
        items = list(items)
        if not items:
            return []
        with self._lock:
            self.rounds += 1
            if self.jobs == 1 or len(items) == 1:
                # Not worth a process round trip.
                return _run_in_process(worker, items, make_payload)
            return _run_sharded(
                worker, items, make_payload, self.jobs,
                timeout=self.timeout, retries=0, label=label,
                pool=self._pool,
            )

    def run_cones(self, cones: Sequence, kind: str, engine_name: str):
        """Evaluate cone circuits on the warm pool (the engine's fan-out)."""
        run = functools.partial(self.run, label="cones")
        return run_cones(run, cones, kind, engine_name)

    def shutdown(self) -> None:
        with self._lock:
            self._pool.close()

    def __enter__(self) -> "WarmPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
