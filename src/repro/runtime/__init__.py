"""Production runtime services: fingerprinting, caching, sharding, metrics.

The delay computations in :mod:`repro.core` are pure functions of the
circuit content plus a handful of parameters.  This package exploits that:

* :mod:`repro.runtime.fingerprint` — canonical content hash of a
  :class:`~repro.network.circuit.Circuit`, so analyses are keyable;
* :mod:`repro.runtime.cache` — two-tier (memory LRU + optional disk)
  result cache keyed by ``(fingerprint, kind, engine, constraint, params)``;
* :mod:`repro.runtime.parallel` — a fault-tolerant sharder for the
  per-output / per-path / per-sample fan-out of the delay cores
  (per-chunk timeouts, poison-isolation retries, serial degradation) and
  :class:`ShardPool`, the one process pool it runs on;
* :mod:`repro.runtime.metrics` — counters and phase timers threaded
  through the cores and reported by the CLI and the benchmark harness;
* :mod:`repro.runtime.tracing` — hierarchical execution spans (nested
  phases, worker attribution, retry/degradation events), exported as
  JSON by the CLI ``--trace``;
* :mod:`repro.runtime.faults` — deterministic fault injection
  (``REPRO_FAULT_INJECT``) so every degradation path is exercised in CI.
"""

from .cache import (
    CACHE_SCHEMA,
    DelayCache,
    configure_cache,
    constraint_cache_id,
    get_cache,
    resolve_cache,
)
from .faults import FaultSpec, parse_fault_spec
from .fingerprint import (
    circuit_fingerprint,
    circuit_merkle_root,
    circuit_signature,
    cone_fingerprint,
    node_cone_fingerprints,
    params_token,
)
from .metrics import GLOBAL_METRICS, METRICS, Metrics, current_metrics, metrics_scope
from .parallel import (
    ChunkResult,
    ShardPool,
    execution_policy,
    resolve_jobs,
    set_execution_policy,
    shard_certification_pairs,
    shard_cone_queries,
    shard_fault_tests,
    shard_monte_carlo,
)
from .tracing import GLOBAL_TRACER, TRACER, Span, Tracer, current_tracer, tracer_scope

__all__ = [
    "CACHE_SCHEMA",
    "DelayCache",
    "configure_cache",
    "constraint_cache_id",
    "get_cache",
    "resolve_cache",
    "FaultSpec",
    "parse_fault_spec",
    "circuit_fingerprint",
    "circuit_merkle_root",
    "circuit_signature",
    "cone_fingerprint",
    "node_cone_fingerprints",
    "params_token",
    "GLOBAL_METRICS",
    "METRICS",
    "Metrics",
    "current_metrics",
    "metrics_scope",
    "GLOBAL_TRACER",
    "TRACER",
    "Span",
    "Tracer",
    "current_tracer",
    "tracer_scope",
    "ChunkResult",
    "ShardPool",
    "execution_policy",
    "resolve_jobs",
    "set_execution_policy",
    "shard_certification_pairs",
    "shard_cone_queries",
    "shard_fault_tests",
    "shard_monte_carlo",
]
