"""Fault-tolerant process-pool sharding for the embarrassingly parallel
delay queries.

Three fan-outs in the cores are independent per item:

* per-output certification pairs (``collect_certification_pairs``),
* per-path / per-direction delay-fault tests
  (``PathFaultGenerator.generate_for_longest_paths``),
* per-sample Monte Carlo replays (``monte_carlo_delay``).

Each worker process rebuilds its analysis from a pickled :class:`Circuit`
— engines are constructed with a canonical variable order (the analyses
pre-declare the input variables in cone-traversal first-touch order, see
:func:`repro.core.vectors.canonical_input_order`, computed on the full
circuit rather than the worker's chunk), so a worker finds the *same*
witnesses as a serial run.  ``jobs=1`` always takes the
caller's serial path; sharded results are merged deterministically
(outputs in declaration order, faults and samples by original index), so
``jobs=1`` and ``jobs=N`` runs are result-identical.

Execution is *fault-tolerant*: chunks are submitted as one round of
tasks with a per-round wall-clock timeout, a failed or timed-out chunk
is retried as single-item tasks (isolating a poison item — a BDD blowup
kills only its own retry, not its chunk-mates), and once the bounded
retries are exhausted the remaining items run serially in-process.  A
``jobs=N`` run therefore never produces less than the serial run:
worker death degrades throughput, not results.  Every degradation step
is counted in :data:`~repro.runtime.metrics.METRICS` and recorded as an
event on the current :data:`~repro.runtime.tracing.TRACER` span; the
deterministic fault hooks in :mod:`repro.runtime.faults` exercise each
path in CI.

Every round runs on a :class:`ShardPool`, the one process pool of the
package, used two ways: private to one batch call (the ``shard_*``
functions build it and close it when the call returns), or long-lived
and owned by :class:`~repro.incremental.pool.WarmPool`, which keeps its
workers warm across the requests of ``trued serve``.

Workers return ``(result, counters, gauges)``; the parent folds counters
additively and gauges max-wise into the global metrics, and attributes
them to a per-chunk trace span tagged with the worker's pid.
"""

from __future__ import annotations

import os
import random
import time
from concurrent.futures import CancelledError, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .faults import inject_worker_fault, worker_fault
from .metrics import METRICS, engine_peak_nodes
from .tracing import TRACER


def resolve_jobs(jobs: Optional[int], task_count: Optional[int] = None) -> int:
    """Normalise a ``--jobs`` value: ``0``/``None``/negative mean "all
    cores"; never more workers than tasks."""
    if jobs is None or jobs <= 0:
        jobs = os.cpu_count() or 1
    jobs = max(1, int(jobs))
    if task_count is not None:
        jobs = min(jobs, max(1, task_count))
    return jobs


def _chunk_round_robin(items: Sequence, jobs: int) -> List[list]:
    """Round-robin split — balances the typical "neighbouring outputs cost
    alike" workload better than contiguous slabs."""
    chunks = [list(items[i::jobs]) for i in range(jobs)]
    return [chunk for chunk in chunks if chunk]


# ----------------------------------------------------------------------
# Execution policy (CLI --timeout / --retries set the process defaults)
# ----------------------------------------------------------------------
_UNSET = object()
_POLICY: Dict[str, object] = {"timeout": None, "retries": 1}


def set_execution_policy(timeout=_UNSET, retries=_UNSET) -> Dict[str, object]:
    """Set process-wide defaults for sharded execution.

    ``timeout`` is the per-round wall-clock limit in seconds (``None`` or
    ``<= 0`` disables it); ``retries`` is the number of resubmission
    rounds before degrading to in-process serial execution.
    """
    if timeout is not _UNSET:
        _POLICY["timeout"] = timeout
    if retries is not _UNSET:
        _POLICY["retries"] = 1 if retries is None else max(0, int(retries))
    return dict(_POLICY)


def execution_policy() -> Dict[str, object]:
    return dict(_POLICY)


def _resolve_policy(
    timeout: Optional[float], retries: Optional[int]
) -> Tuple[Optional[float], int]:
    if timeout is None:
        timeout = _POLICY["timeout"]
    if timeout is not None and timeout <= 0:
        timeout = None
    if retries is None:
        retries = _POLICY["retries"]
    return timeout, max(0, int(retries))


# ----------------------------------------------------------------------
# The process pool
# ----------------------------------------------------------------------
#: Failure reasons for a task that produced no result this round.  The
#: runner maps them to ``parallel.chunk_timeouts`` /
#: ``parallel.chunk_failures``; any other reason is a chunk error, carried
#: verbatim (the worker exception's ``repr``) into the trace event.
TIMEOUT = "timeout"
WORKER_DIED = "worker-died"


@dataclass
class ChunkResult:
    """One completed chunk, with enough provenance to attribute it."""

    index: int
    chunk: list
    result: object
    counters: Dict[str, int] = field(default_factory=dict)
    gauges: Dict[str, int] = field(default_factory=dict)
    worker: int = 0
    elapsed: float = 0.0


#: A task that failed this round: ``(index, chunk, reason)``.
FailedTask = Tuple[int, list, str]


def _call_worker(args):
    """Pool entry point (runs in the worker process): apply any injected
    fault for this task, then clock the real worker."""
    worker, task_index, fault, payload = args
    inject_worker_fault(fault, task_index)
    start = time.perf_counter()
    result = worker(payload)
    return os.getpid(), time.perf_counter() - start, result


class ShardPool:
    """A ``ProcessPoolExecutor`` of ``jobs`` workers that runs rounds of
    chunk tasks and survives their failures.

    The executor is built lazily by the first round.  A round that sees a
    dead or hung worker kills it — a hung worker never drains the call
    queue on its own, so a fresh pool is the only safe recovery — and the
    next round builds a new one.  ``builds`` counts executor
    constructions and ``failed_rounds`` the rounds in which some task
    failed; :class:`~repro.incremental.pool.WarmPool` reports both.
    """

    def __init__(self, jobs: int):
        self.jobs = max(1, int(jobs))
        self.builds = 0
        self.failed_rounds = 0
        self._executor: Optional[ProcessPoolExecutor] = None

    @property
    def live(self) -> bool:
        return self._executor is not None

    def run_round(
        self,
        worker,
        make_payload,
        tasks: Sequence[Tuple[int, list]],
        timeout: Optional[float],
        fault,
    ) -> Tuple[List[ChunkResult], List[FailedTask]]:
        """Run one round of ``(index, chunk)`` tasks.

        Returns ``(completed, failed)`` covering every task exactly once.
        Metrics and spans of the completed chunks are left to the caller.
        """
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.jobs)
            self.builds += 1
        futures: Dict[object, Tuple[int, list]] = {}
        completed: List[ChunkResult] = []
        failed: List[FailedTask] = []
        pool_dead = False
        try:
            for index, chunk in tasks:
                future = self._executor.submit(
                    _call_worker, (worker, index, fault, make_payload(chunk))
                )
                futures[future] = (index, chunk)
        except BrokenProcessPool:
            pool_dead = True
            submitted = {index for index, __ in futures.values()}
            failed.extend(
                (index, chunk, WORKER_DIED)
                for index, chunk in tasks
                if index not in submitted
            )
        __, not_done = wait(futures, timeout=timeout)
        for future, (index, chunk) in futures.items():
            if future in not_done:
                pool_dead = True
                failed.append((index, chunk, TIMEOUT))
                continue
            try:
                pid, elapsed, (result, counters, gauges) = future.result()
            except (BrokenProcessPool, CancelledError):
                pool_dead = True
                failed.append((index, chunk, WORKER_DIED))
            except Exception as error:
                failed.append((index, chunk, repr(error)))
            else:
                completed.append(
                    ChunkResult(
                        index=index, chunk=chunk, result=result,
                        counters=counters, gauges=gauges,
                        worker=pid, elapsed=elapsed,
                    )
                )
        if pool_dead:
            METRICS.incr("parallel.pool_restarts")
            self.kill()
        if failed:
            self.failed_rounds += 1
        return completed, failed

    def kill(self) -> None:
        """Hard-stop the executor, which may hold hung or dead workers:
        terminate its processes, then abandon it without waiting."""
        executor, self._executor = self._executor, None
        if executor is None:
            return
        for process in list((executor._processes or {}).values()):
            try:
                process.terminate()
            except Exception:
                pass
        try:
            executor.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass

    def close(self) -> None:
        """Shut the executor down cleanly (a later round rebuilds it)."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)


# ----------------------------------------------------------------------
# The fault-tolerant sharded runner
# ----------------------------------------------------------------------
def _run_in_process(worker, items: Sequence, make_payload) -> list:
    """Run ``worker`` over ``items`` as one in-process chunk, folding its
    counters and gauges exactly like a pool chunk's."""
    result, counters, gauges = worker(make_payload(list(items)))
    METRICS.merge_counters(counters)
    METRICS.merge_gauges(gauges)
    return [result]


def _record_failure(index: int, chunk: list, reason: str, label: str) -> None:
    """Count and trace one failed task (chunk-timeout / worker-died /
    chunk-error)."""
    if reason == TIMEOUT:
        METRICS.incr("parallel.chunk_timeouts")
        TRACER.event(
            "chunk-timeout", label=label, chunk=index, items=len(chunk)
        )
    elif reason == WORKER_DIED:
        METRICS.incr("parallel.chunk_failures")
        TRACER.event(
            "worker-died", label=label, chunk=index, items=len(chunk)
        )
    else:
        METRICS.incr("parallel.chunk_failures")
        TRACER.event(
            "chunk-error", label=label, chunk=index, items=len(chunk),
            error=reason,
        )


def _run_sharded(
    worker,
    items: Sequence,
    make_payload,
    jobs: int,
    *,
    timeout: Optional[float] = None,
    retries: Optional[int] = None,
    label: str = "shard",
    pool: Optional[ShardPool] = None,
) -> list:
    """Run ``worker`` over round-robin chunks of ``items`` with timeouts,
    poison-isolation retries, and serial degradation.

    ``make_payload(chunk)`` rebuilds a worker payload for any sub-list of
    ``items`` (needed to re-chunk on retry); ``worker`` must return a
    ``(result, counters, gauges)`` triple.  Returns the per-chunk results
    at whatever granularity execution ended up using — callers must merge
    order-insensitively (all six shard queries already do).

    ``pool`` is a caller-owned :class:`ShardPool` that outlives the call
    (the warm pool of ``trued serve``); without one, the run builds a
    private pool of ``jobs`` workers and closes it on return.
    """
    timeout, retries = _resolve_policy(timeout, retries)
    chunks = _chunk_round_robin(list(items), jobs)
    if not chunks:
        return []
    fault = worker_fault()
    tasks = list(enumerate(chunks))
    next_index = len(tasks)
    results: list = []
    owned = pool is None
    if owned:
        pool = ShardPool(jobs)
    try:
        for attempt in range(retries + 1):
            completed, failed = pool.run_round(
                worker, make_payload, tasks, timeout, fault
            )
            for done in completed:
                METRICS.merge_counters(done.counters)
                METRICS.merge_gauges(done.gauges)
                TRACER.add_span(
                    f"{label}.chunk", done.elapsed,
                    counters=done.counters, gauges=done.gauges,
                    chunk=done.index, items=len(done.chunk),
                    worker=done.worker,
                )
                results.append(done.result)
            for index, chunk, reason in failed:
                _record_failure(index, chunk, reason, label)
            if not failed:
                return results
            if attempt == retries:
                break
            # Poison isolation: resubmit each failing chunk item by item,
            # so one pathological item can only take down its own retry.
            failed.sort(key=lambda task: task[0])
            tasks = []
            for __, chunk, __reason in failed:
                for item in chunk:
                    tasks.append((next_index, [item]))
                    next_index += 1
            METRICS.incr("parallel.retries", len(tasks))
            TRACER.event(
                "retry", label=label, attempt=attempt + 1, tasks=len(tasks)
            )
        # Degradation of last resort: whatever still fails after the retry
        # budget runs serially in this process, so jobs=N can never return
        # less than the serial run (a genuine error raises here exactly as
        # it would have serially).
        failed.sort(key=lambda task: task[0])
        remainder = [item for __, chunk, __reason in failed for item in chunk]
        METRICS.incr("parallel.serial_fallback_items", len(remainder))
        TRACER.event("degrade-serial", label=label, items=len(remainder))
        with TRACER.span(f"{label}.serial-fallback", items=len(remainder)):
            result, counters, gauges = worker(make_payload(remainder))
        METRICS.merge_counters(counters)
        METRICS.merge_gauges(gauges)
        results.append(result)
        return results
    finally:
        if owned:
            pool.close()


def _engine_counters(prefix: str, engine) -> Dict[str, int]:
    return {f"{prefix}.sat_probes": getattr(engine, "num_sat_checks", 0)}


def _engine_gauges(engine) -> Dict[str, int]:
    """Worker-side high-water marks, folded max-wise by the parent."""
    peak = engine_peak_nodes(engine)
    return {} if peak is None else {"boolfn.peak_nodes": peak}


# ----------------------------------------------------------------------
# Per-output certification pairs
# ----------------------------------------------------------------------
def _pairs_worker(payload):
    circuit, engine_name, input_times, outputs = payload
    from ..core.floating import with_bdd_fallback
    from ..core.transition import TransitionAnalysis, pairs_for_outputs

    def run(eng):
        fresh = TransitionAnalysis(circuit, eng, engine_name, input_times)
        return fresh, pairs_for_outputs(fresh, fresh.engine.const1, outputs)

    # Mirror the serial path's auto BDD->SAT overflow fallback.
    analysis, pairs = with_bdd_fallback(run, None, engine_name)
    counters = _engine_counters("pairs", analysis.engine)
    counters["pairs.functions_built"] = analysis.num_functions()
    return pairs, counters, _engine_gauges(analysis.engine)


def shard_certification_pairs(
    circuit,
    engine_name: str = "auto",
    input_times: Optional[Dict[str, int]] = None,
    jobs: int = 2,
    timeout: Optional[float] = None,
    retries: Optional[int] = None,
):
    """Per-output certification pairs, one worker per output chunk.

    Only the unconstrained query is sharded (constraint builders are
    closures and do not cross process boundaries); the caller falls back
    to its serial loop otherwise.
    """
    outputs = list(circuit.outputs)
    jobs = resolve_jobs(jobs, len(outputs))

    def make_payload(chunk):
        return (circuit, engine_name, input_times, list(chunk))

    with METRICS.phase("parallel.certification_pairs"):
        results = _run_sharded(
            _pairs_worker, outputs, make_payload, jobs,
            timeout=timeout, retries=retries, label="pairs",
        )
    merged: Dict[str, Tuple[int, object]] = {}
    for pairs in results:
        merged.update(pairs)
    # Re-impose output declaration order on the merged dict.
    return {out: merged[out] for out in outputs if out in merged}


# ----------------------------------------------------------------------
# Path-delay-fault coverage over the K longest paths
# ----------------------------------------------------------------------
def _fault_worker(payload):
    circuit, engine_name, tasks = payload
    from ..core.delay_fault import PathFault, PathFaultGenerator, TestStrength

    generator = PathFaultGenerator(circuit, engine_name=engine_name)
    results = []
    for index, path, rising, strength_value, strong in tasks:
        fault = PathFault(list(path), rising)
        test = generator.generate(
            fault, TestStrength(strength_value), strong
        )
        results.append((index, fault, test))
    return (
        results,
        _engine_counters("faults", generator.engine),
        _engine_gauges(generator.engine),
    )


def shard_fault_tests(
    circuit,
    tasks: Sequence[Tuple[int, Sequence[str], bool, str, bool]],
    engine_name: str = "auto",
    jobs: int = 2,
    timeout: Optional[float] = None,
    retries: Optional[int] = None,
):
    """Run fault-test generation tasks across workers.

    ``tasks`` entries are ``(index, path, rising, strength-value, strong)``;
    the return value is ``[(fault, test-or-None)]`` sorted by ``index`` so
    the merge is deterministic regardless of worker timing.
    """
    jobs = resolve_jobs(jobs, len(tasks))

    def make_payload(chunk):
        return (circuit, engine_name, list(chunk))

    with METRICS.phase("parallel.fault_tests"):
        results = _run_sharded(
            _fault_worker, list(tasks), make_payload, jobs,
            timeout=timeout, retries=retries, label="faults",
        )
    merged = []
    for entries in results:
        merged.extend(entries)
    merged.sort(key=lambda item: item[0])
    return [(fault, test) for __, fault, test in merged]


# ----------------------------------------------------------------------
# Per-output cone delay queries (the incremental engine's fan-out)
# ----------------------------------------------------------------------
def _cone_worker(payload):
    kind, engine_name, cones = payload
    from ..incremental.cones import evaluate_cone

    results = []
    checks = 0
    for cone in cones:
        result = evaluate_cone(cone, kind, engine_name)
        checks += result.checks
        results.append(result)
    return results, {"incremental.cone_checks": checks}, {}


def run_cones(run, cones: Sequence, kind: str, engine_name: str):
    """The one cone route: evaluate ``cones`` through ``run(worker, items,
    make_payload)`` — a sharded run, a warm-pool round or
    :func:`_run_in_process` — and merge the per-chunk results into
    ``{output: ConeResult}`` in the given cone order.

    Each cone is a self-contained analysis, so per-cone results are
    independent of the runner, of chunking and of worker count.
    """

    def make_payload(chunk):
        return (kind, engine_name, list(chunk))

    merged = {
        result.output: result
        for chunk in run(_cone_worker, list(cones), make_payload)
        for result in chunk
    }
    return {
        cone.outputs[0]: merged[cone.outputs[0]]
        for cone in cones
        if cone.outputs[0] in merged
    }


def shard_cone_queries(
    cones: Sequence,
    kind: str,
    engine_name: str = "auto",
    jobs: int = 2,
    timeout: Optional[float] = None,
    retries: Optional[int] = None,
):
    """Evaluate single-output cone circuits across workers.

    ``cones`` are the extracted fanin-cone subcircuits of the dirty
    outputs (:func:`repro.incremental.cones.extract_cone`).  Returns
    ``{output: ConeResult}`` in the given cone order.
    """
    jobs = resolve_jobs(jobs, len(cones))

    def run(worker, items, make_payload):
        return _run_sharded(
            worker, items, make_payload, jobs,
            timeout=timeout, retries=retries, label="cones",
        )

    with METRICS.phase("parallel.cone_queries"):
        return run_cones(run, cones, kind, engine_name)


# ----------------------------------------------------------------------
# Monte Carlo delay sampling
# ----------------------------------------------------------------------
def sample_seed(seed: int, index: int) -> str:
    """Seed of the ``index``-th Monte Carlo sub-stream.

    String seeds hash through SHA-512 inside :class:`random.Random`, so
    sub-streams are deterministic across processes and platforms (int
    tuple hashing would work too, but string seeding is explicit about
    not depending on ``PYTHONHASHSEED`` semantics).
    """
    return f"mc:{seed}:{index}"


def _monte_carlo_worker(payload):
    circuit, pairs, indices, seed, model_spec = payload
    from ..core.statistical import (
        resolve_delay_model,
        sample_delay_once,
        settle_pair_initials,
    )

    from .metrics import metrics_scope

    delay_model = resolve_delay_model(model_spec)
    samples = []
    # A scoped instance isolates this chunk's counters (pool processes are
    # reused), so the wordsim accounting folds back exactly once.
    with metrics_scope() as chunk_metrics:
        # One bit-parallel settle of all pairs' v_-1 states per worker
        # chunk; settled values are delay-independent, so every sample
        # reuses them.
        initials = settle_pair_initials(circuit, pairs)
        for index in indices:
            rng = random.Random(sample_seed(seed, index))
            samples.append(
                (
                    index,
                    sample_delay_once(
                        circuit, pairs, delay_model, rng, initials=initials
                    ),
                )
            )
    return samples, chunk_metrics.snapshot()["counters"], {}


def shard_monte_carlo(
    circuit,
    pairs: Sequence,
    num_samples: int,
    seed: int,
    model_spec: Tuple,
    jobs: int = 2,
    timeout: Optional[float] = None,
    retries: Optional[int] = None,
) -> List[int]:
    """Monte Carlo samples across workers with per-sample seeded
    sub-streams and an index-ordered merge: the returned sample list is a
    pure function of ``(circuit, pairs, num_samples, seed, model_spec)``,
    independent of ``jobs`` and of scheduling (the serial path in
    :func:`repro.core.statistical.monte_carlo_delay` draws from the same
    sub-streams)."""
    jobs = resolve_jobs(jobs, num_samples)
    pair_list = list(pairs)

    def make_payload(chunk):
        return (circuit, pair_list, list(chunk), seed, model_spec)

    with METRICS.phase("parallel.monte_carlo"):
        results = _run_sharded(
            _monte_carlo_worker, range(num_samples), make_payload, jobs,
            timeout=timeout, retries=retries, label="monte-carlo",
        )
    METRICS.incr("monte_carlo.samples", num_samples)
    merged = [delay for chunk in results for delay in chunk]
    merged.sort(key=lambda item: item[0])
    return [delay for __, delay in merged]


# ----------------------------------------------------------------------
# Characterization jobs (spec-driven circuit x corner x analysis fan-out)
# ----------------------------------------------------------------------
def _characterize_worker(payload):
    tasks = payload
    from ..characterize.runner import execute_payload

    from .metrics import metrics_scope

    results = []
    # Scoped counters: pool processes are reused across chunks, so the
    # chunk's wordsim/engine accounting must fold back exactly once.
    with metrics_scope() as chunk_metrics:
        for index, job in tasks:
            results.append((index, execute_payload(job)))
    return results, chunk_metrics.snapshot()["counters"], {}


def shard_characterize_jobs(
    payloads: Sequence[Dict],
    jobs: int = 2,
    timeout: Optional[float] = None,
    retries: Optional[int] = None,
) -> List[Dict]:
    """Run characterization job payloads across workers.

    ``payloads`` are the picklable dicts of
    :func:`repro.characterize.runner.job_payload`; each one names its
    circuit (rebuilt from the registry inside the worker), so payloads
    stay small and chunk-independent.  Results come back in payload
    order (index-merged), making the datasheet identical to a serial
    run; caching is the *caller's* job (the parent checks the cache
    before dispatch), so workers always compute.
    """
    jobs = resolve_jobs(jobs, len(payloads))
    tasks = list(enumerate(payloads))

    def make_payload(chunk):
        return list(chunk)

    with METRICS.phase("parallel.characterize_jobs"):
        results = _run_sharded(
            _characterize_worker, tasks, make_payload, jobs,
            timeout=timeout, retries=retries, label="characterize",
        )
    merged = [entry for chunk in results for entry in chunk]
    merged.sort(key=lambda item: item[0])
    return [result for __, result in merged]


def _fuzz_worker(payload):
    tasks, config = payload
    from ..fuzz.runner import execute_scenario_payload

    from .metrics import metrics_scope

    results = []
    with metrics_scope() as chunk_metrics:
        for index, scenario_data in tasks:
            results.append(
                (index, execute_scenario_payload(scenario_data, config))
            )
    return results, chunk_metrics.snapshot()["counters"], {}


def shard_fuzz_scenarios(
    scenarios: Sequence[Dict],
    config: Dict,
    jobs: int = 2,
    timeout: Optional[float] = None,
    retries: Optional[int] = None,
) -> List[List[Dict]]:
    """Run fuzz scenarios (as ``Scenario.to_dict`` payloads) across
    workers.

    ``config`` carries the oracle selection (``oracles``, ``oracle_jobs``,
    ``plant``).  Scenarios are self-contained (embedded BENCH text), so
    payloads never reference registry state.  Results come back
    index-merged — each entry is the scenario's ordered verdict-dict
    list — making the sweep's verdict stream byte-identical to a serial
    run, which is exactly what the ``jobs`` differential oracle and the
    CI determinism check rely on.
    """
    jobs = resolve_jobs(jobs, len(scenarios))
    tasks = list(enumerate(scenarios))

    def make_payload(chunk):
        return (list(chunk), dict(config))

    with METRICS.phase("parallel.fuzz_scenarios"):
        results = _run_sharded(
            _fuzz_worker, tasks, make_payload, jobs,
            timeout=timeout, retries=retries, label="fuzz",
        )
    merged = [entry for chunk in results for entry in chunk]
    merged.sort(key=lambda item: item[0])
    return [verdicts for __, verdicts in merged]
