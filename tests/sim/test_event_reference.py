"""Property tests: every node's events from the event simulator equal an
independent time-stepped model (``tests.helpers.reference_waveforms``).

Circuits come from the fuzz generator and from the registry, with gate
delays redrawn from {0..3} (zero-delay gates included), and inputs that
switch at staggered times."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import build_circuit
from repro.network import GateType
from repro.sim import EventSimulator

from tests.helpers import random_circuit, reference_waveforms

REGISTRY_CIRCUITS = ("c17", "fig1", "fig2", "fig5", "rca8", "csa8", "c432")


def redraw_delays(circuit, rng, zero_share):
    """A copy with every gate delay drawn from {0..3}, ``zero_share`` of
    them forced to 0."""
    circuit = circuit.copy()
    for node in list(circuit.nodes()):
        if node.gate_type == GateType.INPUT:
            continue
        delay = 0 if rng.random() < zero_share else rng.randint(0, 3)
        circuit.set_delay(node.name, delay)
    return circuit


def check_against_reference(circuit, rng, stagger):
    v_prev = {name: bool(rng.getrandbits(1)) for name in circuit.inputs}
    v_next = {name: bool(rng.getrandbits(1)) for name in circuit.inputs}
    times = (
        {name: rng.randint(0, 3) for name in circuit.inputs}
        if stagger
        else None
    )
    result = EventSimulator(circuit).simulate_transition(
        v_prev, v_next, input_times=times
    )
    expected = reference_waveforms(circuit, v_prev, v_next, times)
    assert list(result.waveforms) == list(circuit.topological_order())
    for name, events in expected.items():
        assert result.waveforms[name].events == events, (circuit.name, name)


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_inputs=st.integers(1, 6),
    num_gates=st.integers(1, 24),
    zero_share=st.sampled_from((0.0, 0.3, 0.7)),
    stagger=st.booleans(),
)
def test_fuzz_circuits_match_reference(
    seed, num_inputs, num_gates, zero_share, stagger
):
    rng = random.Random(seed)
    circuit = random_circuit(
        seed, num_inputs=num_inputs, num_gates=num_gates, max_delay=3
    )
    check_against_reference(
        redraw_delays(circuit, rng, zero_share), rng, stagger
    )


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(REGISTRY_CIRCUITS),
    seed=st.integers(0, 10_000),
    zero_share=st.sampled_from((0.0, 0.3)),
    stagger=st.booleans(),
)
def test_registry_circuits_match_reference(name, seed, zero_share, stagger):
    rng = random.Random(seed)
    circuit = redraw_delays(build_circuit(name), rng, zero_share)
    check_against_reference(circuit, rng, stagger)


def test_fuzz_pool_covers_parity_gates():
    """The fuzz circuits above do exercise XOR/XNOR evaluation."""
    types = {
        node.gate_type
        for seed in range(40)
        for node in random_circuit(seed, num_inputs=4, num_gates=12).nodes()
    }
    assert {GateType.XOR, GateType.XNOR} <= types
