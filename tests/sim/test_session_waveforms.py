"""A session's WaveformSet answers every node while only nodes that
switch own a Waveform, and the compiled program follows circuit edits."""

from repro.network import CircuitBuilder
from repro.sim import EventSimulator

from tests.helpers import c17


def chain():
    b = CircuitBuilder("chain")
    a, = b.inputs("a")
    g = b.buf(a, name="g", delay=4)
    h = b.not_(g, name="h", delay=1)
    b.output(h)
    return b.build()


class TestUntouchedNodes:
    def test_only_switching_nodes_own_a_waveform(self):
        circuit = c17()
        prev = dict.fromkeys(circuit.inputs, False)
        nxt = dict(prev, G1=True)
        waves = EventSimulator(circuit).simulate_transition(
            prev, nxt
        ).waveforms
        switched = set(waves.waveforms)
        assert switched and switched < set(circuit.topological_order())
        assert all(waves.waveforms[name].events for name in switched)

    def test_every_node_answers_in_topological_order(self):
        circuit = c17()
        prev = dict.fromkeys(circuit.inputs, False)
        result = EventSimulator(circuit).simulate_transition(prev, prev)
        waves = result.waveforms
        order = circuit.topological_order()
        assert list(waves) == order and waves.names() == order
        assert all(name in waves for name in order)
        assert "no_such_node" not in waves
        settled = circuit.evaluate(prev)
        for name in order:
            assert waves[name].is_stable()
            assert waves[name].initial == settled[name]
        assert result.delay == 0
        assert waves.render(circuit.outputs).count("\n") == 1

    def test_waveform_read_before_it_switches_records_later_events(self):
        session = EventSimulator(chain()).session({"a": False})
        early = session.waveforms["h"]
        assert early.is_stable() and early.initial is True
        session.inject(0, {"a": True})
        session.advance()
        assert session.waveforms["h"] is early
        assert early.events == [(5, False)]


class TestRecompile:
    def test_delay_edit_after_construction_is_seen(self):
        circuit = chain()
        simulator = EventSimulator(circuit)
        assert simulator.measure_pair_delay({"a": False}, {"a": True}) == 5
        circuit.set_delay("g", 7)
        assert simulator.measure_pair_delay({"a": False}, {"a": True}) == 8
