"""`ShardPool`, the one process pool of the sharded runner
(`runtime/parallel.py`).

A round must report every task exactly once — as a completed chunk or as
a failure reason — and leave the pool usable: a dead or hung worker gets
the executor killed and the next round rebuilds it.  The pool serves two
owners, a single `shard_*` call (private, closed on return) and the warm
pool of `trued serve` (caller-owned, kept across runs).
"""

from repro.core import collect_certification_pairs
from repro.runtime import tracer_scope
from repro.runtime.faults import parse_fault_spec
from repro.runtime.parallel import (
    TIMEOUT,
    WORKER_DIED,
    ShardPool,
    _run_sharded,
)

from tests.helpers import c17


def _square_worker(payload):
    values = payload
    return [v * v for v in values], {"sq.items": len(values)}, {}


def _run(pool, tasks, timeout=None, fault=None):
    return pool.run_round(
        _square_worker, lambda chunk: chunk, tasks, timeout, fault
    )


def test_local_round_covers_every_task_exactly_once():
    pool = ShardPool(jobs=2)
    try:
        tasks = [(0, [1, 2]), (1, [3]), (2, [4, 5, 6])]
        completed, failed = _run(pool, tasks)
        assert failed == []
        assert sorted(c.index for c in completed) == [0, 1, 2]
        by_index = {c.index: c for c in completed}
        assert by_index[2].result == [16, 25, 36]
        assert by_index[2].counters == {"sq.items": 3}
        assert by_index[2].worker > 0
    finally:
        pool.close()


def test_local_pool_is_reused_across_rounds():
    pool = ShardPool(jobs=1)
    try:
        _run(pool, [(0, [1])])
        executor = pool._executor
        _run(pool, [(1, [2])])
        assert pool._executor is executor
        assert pool.builds == 1
    finally:
        pool.close()


def test_local_crash_reports_worker_died_and_rebuilds():
    """A crashed worker yields `worker-died`, never a partial result."""
    pool = ShardPool(jobs=1)
    try:
        completed, failed = _run(
            pool, [(0, [1])], fault=parse_fault_spec("crash:0")
        )
        assert completed == []
        assert [(i, reason) for i, __, reason in failed] == [
            (0, WORKER_DIED)
        ]
        assert not pool.live  # killed, rebuilt lazily
        completed, failed = _run(pool, [(1, [7])])
        assert failed == []
        assert completed[0].result == [49]
        assert (pool.builds, pool.failed_rounds) == (2, 1)
    finally:
        pool.close()


def test_local_timeout_reports_timeout(monkeypatch):
    monkeypatch.setenv("REPRO_FAULT_HANG_SECONDS", "5")
    pool = ShardPool(jobs=1)
    try:
        completed, failed = _run(
            pool, [(0, [1])], timeout=0.5, fault=parse_fault_spec("hang:0")
        )
        assert completed == []
        assert [(i, reason) for i, __, reason in failed] == [(0, TIMEOUT)]
        assert not pool.live
    finally:
        pool.close()


def _explosive_worker(payload):
    if payload == ["boom"]:
        raise RuntimeError("boom payload")
    return payload, {}, {}


def test_local_worker_exception_fails_only_that_chunk():
    pool = ShardPool(jobs=2)
    try:
        completed, failed = pool.run_round(
            _explosive_worker,
            lambda chunk: chunk,
            [(0, ["ok"]), (1, ["boom"])],
            None,
            None,
        )
        assert [c.index for c in completed] == [0]
        assert len(failed) == 1
        index, __, reason = failed[0]
        assert index == 1
        assert "boom payload" in reason
        assert reason not in (TIMEOUT, WORKER_DIED)
        assert pool.live  # an exception is not a broken pool
    finally:
        pool.close()


def test_caller_owned_pool_outlives_the_run():
    pool = ShardPool(jobs=2)
    try:
        results = _run_sharded(
            _square_worker, [1, 2, 3], lambda chunk: chunk, 2, pool=pool
        )
        assert sorted(v for chunk in results for v in chunk) == [1, 4, 9]
        assert pool.live
        _run_sharded(
            _square_worker, [4, 5], lambda chunk: chunk, 2, pool=pool
        )
        assert pool.builds == 1
    finally:
        pool.close()


def _events(tracer, name):
    found = []

    def walk(span):
        found.extend(e for e in span.events if e["event"] == name)
        for child in span.children:
            walk(child)

    walk(tracer.root)
    return found


def test_fault_task_indices_restart_with_every_sharded_run(monkeypatch):
    """`crash:0` targets task 0 of *each* sharded run: two consecutive
    `shard_*` calls in one process both lose a worker, and both still
    return exactly the serial result."""
    serial = collect_certification_pairs(c17(), jobs=1)
    monkeypatch.setenv("REPRO_FAULT_INJECT", "crash:0")
    for __ in range(2):
        with tracer_scope() as tracer:
            sharded = collect_certification_pairs(c17(), jobs=2)
        assert len(_events(tracer, "worker-died")) >= 1
        assert list(sharded) == list(serial)
        for out in serial:
            assert sharded[out][0] == serial[out][0]
            assert sharded[out][1].v_prev == serial[out][1].v_prev
            assert sharded[out][1].v_next == serial[out][1].v_next
