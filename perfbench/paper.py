"""The ``tables`` and ``certify`` workloads: the paper's own analyses.

Both run serially in the driver process through the public API of
:mod:`repro.core`, with the runtime result cache off.  A *pass* is one
sweep over the workload's circuits; every answer in it is checked
against ``expected.json``.
"""

from __future__ import annotations

import gc
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

#: Table II/III circuits, in the paper's order (c6288 is left out; see
#: NOTES.md).
TABLE_CIRCUITS = [
    "c432", "c499", "c880", "c1355", "c1908", "c2670", "c3540", "c5315",
    "c7552",
]
#: FSM controllers, analysed under their Sec. VI constraints.
FSM_CONTROLLERS = ["planet", "sand", "styr", "scf", "sticky"]
CERTIFY_CIRCUITS = ["c5315", "c7552"]
#: The answer fields each Table II/III analysis is checked on.
TABLE_OPS = {
    "floating": ("ld", "fd", "floating_checks"),
    "transition": ("val", "td", "transition_checks"),
    "bounded": ("bounded_val", "bounded_td", "bounded_checks"),
}
CERTIFY_SAMPLES = 40


@dataclass
class PassResult:
    """One pass: wall and CPU seconds, per-op latencies, answer checks."""

    wall_s: float
    cpu_s: float
    #: The whole pass, answer checks included.
    elapsed_s: float = 0.0
    #: Seconds the pass spent in each of the workload's two op classes.
    primary_s: float = 0.0
    secondary_s: float = 0.0
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    answers: Dict[str, dict] = field(default_factory=dict)


def load_expected(path: Optional[Path] = None) -> dict:
    path = path or EXPECTED_PATH
    expected = json.loads(path.read_text())
    problems = expected_problems(expected)
    if problems:
        raise ValueError(f"{path}: " + "; ".join(problems))
    return expected


def expected_problems(expected: dict) -> List[str]:
    """Violations of the paper's invariants in the expected answers."""
    problems = []
    rows = expected["tables"]
    for name in TABLE_CIRCUITS + FSM_CONTROLLERS:
        row = rows.get(name)
        if row is None:
            problems.append(f"no expected row for {name}")
            continue
        if not row["td"] <= row["fd"] <= row["ld"]:
            problems.append(f"{name}: t.d. <= f.d. <= l.d. fails")
        if name in TABLE_CIRCUITS and row["td"] != row["fd"]:
            problems.append(f"{name}: t.d. != f.d. on a combinational row")
    sticky = rows.get("sticky")
    if sticky is not None and sticky["td"] != sticky["fd"] - 1:
        problems.append("sticky: t.d. != f.d. - 1")
    for name in CERTIFY_CIRCUITS:
        if name not in expected["certify"]:
            problems.append(f"no expected certify answer for {name}")
    return problems


def shuffled(names: List[str], seed: int) -> List[str]:
    """The seed's run order; answers and counts do not depend on it."""
    order = list(names)
    random.Random(seed).shuffle(order)
    return order


# ----------------------------------------------------------------------
# tables
# ----------------------------------------------------------------------
@dataclass
class TableCase:
    name: str
    circuit: object
    floating_constraint: object = None
    pair_constraint: object = None


def setup_tables(seed: int) -> List[TableCase]:
    from repro.circuits import build_circuit, build_fsm_logic
    from repro.fsm import (
        reachable_states_constraint,
        transition_pair_constraint,
    )

    cases = []
    for name in shuffled(TABLE_CIRCUITS + FSM_CONTROLLERS, seed):
        if name in FSM_CONTROLLERS:
            logic = build_fsm_logic(name)
            cases.append(TableCase(
                name, logic.circuit,
                reachable_states_constraint(logic),
                transition_pair_constraint(logic),
            ))
        else:
            cases.append(TableCase(name, build_circuit(name)))
    return cases


def _val(certificate) -> Optional[int]:
    return None if certificate.value is None else int(certificate.value)


def run_tables(cases: List[TableCase], expected: dict) -> PassResult:
    """Floating, fixed-delay and bounded transition delay per circuit.

    ``primary_s`` is the time in the Table II analyses (floating then
    fixed-delay transition delay), ``secondary_s`` the time in the
    Table III bounded analyses, and ``wall_s`` their sum.
    """
    from repro.core import (
        compute_bounded_transition_delay,
        compute_floating_delay,
        compute_transition_delay,
    )

    result = PassResult(0.0, 0.0)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for case in cases:
        # Each analysis starts from a collected heap, so a circuit's time
        # does not depend on the garbage its predecessor left behind.
        gc.collect()
        start = time.perf_counter()
        floating = compute_floating_delay(
            case.circuit, constraint=case.floating_constraint
        )
        transition = compute_transition_delay(
            case.circuit, upper=floating.delay,
            constraint=case.pair_constraint,
        )
        result.primary_s += time.perf_counter() - start
        gc.collect()
        start = time.perf_counter()
        bounded = compute_bounded_transition_delay(
            case.circuit, upper=floating.delay,
            constraint=case.pair_constraint,
        )
        result.secondary_s += time.perf_counter() - start
        answer = {
            "val": _val(transition),
            "ld": case.circuit.topological_delay(),
            "fd": floating.delay,
            "td": transition.delay,
            "bounded_val": _val(bounded),
            "bounded_td": bounded.delay,
            "floating_checks": floating.checks,
            "transition_checks": transition.checks,
            "bounded_checks": bounded.checks,
        }
        result.answers[case.name] = answer
        want = expected["tables"][case.name]
        for op, keys in TABLE_OPS.items():
            result.attempted += 1
            wrong = {k: answer[k] for k in keys if answer[k] != want[k]}
            if wrong:
                result.failures.append(f"{case.name} {op}: got {wrong}")
    result.wall_s = result.primary_s + result.secondary_s
    result.elapsed_s = time.perf_counter() - wall0
    result.cpu_s = time.process_time() - cpu0
    return result


# ----------------------------------------------------------------------
# certify
# ----------------------------------------------------------------------
@dataclass
class CertifyCase:
    name: str
    accurate: object
    scaled: object


def setup_certify(seed: int) -> List[CertifyCase]:
    from repro.circuits import build_circuit
    from repro.network.transform import scale_delays

    cases = []
    for name in shuffled(CERTIFY_CIRCUITS, seed):
        circuit = build_circuit(name)
        cases.append(CertifyCase(name, circuit, scale_delays(circuit, 2)))
    return cases


def run_certify(cases: List[CertifyCase], expected: dict,
                seed: int) -> PassResult:
    """The Sec. VII flow per circuit, then an independent replay check.

    ``wall_s`` and ``primary_s`` are the time in the ``certify`` calls
    (time to all verdicts).  ``secondary_s`` is the time of the
    benchmark's own replays of every certification pair on the accurate
    circuit with the event simulator, which recompute gamma outside the
    flow.
    """
    from repro.core import certify
    from repro.sim.event_sim import EventSimulator

    result = PassResult(0.0, 0.0)
    pass0 = time.perf_counter()
    for case in cases:
        gc.collect()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        report = certify(
            case.scaled, accurate_circuit=case.accurate,
            statistical_samples=CERTIFY_SAMPLES, seed=seed, jobs=1,
        )
        result.wall_s += time.perf_counter() - wall0
        result.cpu_s += time.process_time() - cpu0
        result.attempted += 1

        simulator = EventSimulator(case.accurate)
        gc.collect()
        start = time.perf_counter()
        gamma = max(
            simulator.measure_pair_delay(pair.v_prev, pair.v_next)
            for __, pair in report.pairs.values()
        )
        result.secondary_s += time.perf_counter() - start
        result.attempted += len(report.pairs)

        td = report.transition.delay
        samples = report.statistics.samples if report.statistics else []
        answer = {
            "verdict": report.verdict.value,
            "td": td,
            "pairs": len(report.pairs),
            "model_replay_delay": report.model_replay_delay,
            "gamma": report.gamma,
            "replayed_gamma": gamma,
            "samples": len(samples),
        }
        result.answers[case.name] = answer
        want = expected["certify"][case.name]
        if (
            answer["verdict"] != want["verdict"]
            or td != want["td"]
            or answer["pairs"] != want["pairs"]
            or report.model_replay_delay != td
            or report.gamma is None
            or not report.gamma < td
            or answer["samples"] != CERTIFY_SAMPLES
        ):
            result.failures.append(f"{case.name} certify: {answer}")
        if gamma != report.gamma:
            result.failures.append(
                f"{case.name} replay: gamma {gamma} != {report.gamma}"
            )
    result.primary_s = result.wall_s
    result.elapsed_s = time.perf_counter() - pass0
    return result
