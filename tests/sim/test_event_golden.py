"""Golden pins for the event simulator, recorded before the compiled
slot-indexed engine replaced the name-keyed one and kept unchanged since.

Every number below was produced by the name-keyed engine: c880's
certification pairs replayed under nominal and doubled delays, a seeded
Monte Carlo sample list over those pairs, the complete event list of
every node for staggered-input replays on c17 and Fig. 1 (one c17 variant
with zero-delay gates), and a clocked FSM run whose every cycle injects
into an already-drained timestamp (the late-injection merge path).
"""

import random

import pytest

from repro.circuits import build_circuit, fig1_circuit
from repro.core.statistical import monte_carlo_delay
from repro.core.vectors import VectorPair
from repro.fsm import SequentialSimulator, loads_kiss, synthesize
from repro.network.transform import scale_delays
from repro.sim import EventSimulator

from tests.helpers import c17

# (output, certified delay, v_-1, v_0): each vector is a hex word whose
# bits, most significant first, are the values of c880.inputs in order.
C880_PAIRS = [
    ('ra11_c', 25, 0xc00000000000000, 0xaaaaaa800000000),
    ('ra11_s', 24, 0xc00000000000000, 0xaaaaa8800000000),
    ('ra10_s', 22, 0xc00000000000000, 0xaaaaa0800000000),
    ('ra9_s', 20, 0xc00000000000000, 0xaaaa80800000000),
    ('ra8_s', 18, 0xc00000000000000, 0xaaaa00800000000),
    ('ra7_s', 16, 0xc00000000000000, 0xaaa800800000000),
    ('ra6_s', 14, 0xc00000000000000, 0xaaa000800000000),
    ('ra5_s', 12, 0xc00000000000000, 0xaa8000800000000),
    ('ra4_s', 10, 0xc00000000000000, 0xaa0000800000000),
    ('ra3_s', 8, 0xc00000000000000, 0xa80000800000000),
    ('ra2_s', 6, 0xc00000000000000, 0xa00000800000000),
    ('ra1_s', 4, 0xc00000000000000, 0x800000800000000),
    ('ra0_s', 2, 0xc00000000000000, 0x800000000000000),
    ('glue169', 1, 0x000000000000100, 0x000000000000000),
    ('glue168', 1, 0x000000000000400, 0x000000000000000),
    ('glue167', 1, 0x000000000002000, 0x000000000000000),
    ('glue166', 1, 0x00000000001c000, 0x000000000018000),
    ('glue165', 1, 0x000000000040000, 0x000000000000000),
    ('glue164', 1, 0x000000000180000, 0x000000000100000),
    ('glue163', 1, 0x000000000e00000, 0x000000000c00000),
    ('glue162', 1, 0x000000007000000, 0x000000006000000),
    ('glue161', 1, 0x000000038000000, 0x000000030000000),
    ('glue160', 1, 0x0000001c0000000, 0x000000180000000),
    ('glue159', 1, 0x000000600000000, 0x000000400000000),
    ('glue158', 1, 0x000003800000000, 0x000003000000000),
    ('glue157', 1, 0x000008000000000, 0x000000000000000),
]

# Replay delay of each pair above under nominal and doubled delays.
C880_NOMINAL_DELAYS = [
    25, 24, 22, 20, 18, 16, 14, 12, 10, 8, 6, 4, 3, 1, 1, 1, 1, 1, 1, 1, 1,
    1, 1, 1, 1, 2,
]

C880_SCALED_DELAYS = [
    50, 48, 44, 40, 36, 32, 28, 24, 20, 16, 12, 8, 6, 2, 2, 2, 2, 2, 2, 2,
    2, 2, 2, 2, 2, 4,
]

# monte_carlo_delay(c880, pairs, num_samples=20, seed=11).samples
C880_MC_SAMPLES = [
    31, 31, 21, 25, 20, 24, 22, 25, 21, 23, 19, 23, 28, 27, 28, 24, 24, 32,
    23, 25,
]

# (v_-1, v_0, input_times, every node's events in WaveformSet order).
C17_CASES = [
    (
        {
            'G1': True, 'G2': False, 'G3': True, 'G6': False, 'G7': True,
        },
        {
            'G1': True, 'G2': True, 'G3': True, 'G6': True, 'G7': True,
        },
        {
            'G1': 0, 'G2': 3, 'G3': 1, 'G6': 0, 'G7': 1,
        },
        {
            'G7': [], 'G6': [(0, True)], 'G3': [], 'G11': [(1, False)],
            'G19': [(2, True)], 'G2': [(3, True)], 'G16': [],
            'G23': [(3, False)], 'G1': [], 'G10': [], 'G22': [],
        },
    ),
    (
        {
            'G1': False, 'G2': False, 'G3': False, 'G6': True, 'G7': False,
        },
        {
            'G1': False, 'G2': True, 'G3': False, 'G6': True, 'G7': False,
        },
        {
            'G1': 0, 'G2': 1, 'G3': 3, 'G6': 2, 'G7': 1,
        },
        {
            'G7': [], 'G6': [], 'G3': [], 'G11': [], 'G19': [],
            'G2': [(1, True)], 'G16': [(2, False)], 'G23': [(3, True)],
            'G1': [], 'G10': [], 'G22': [(3, True)],
        },
    ),
    (
        {
            'G1': True, 'G2': True, 'G3': True, 'G6': False, 'G7': False,
        },
        {
            'G1': True, 'G2': True, 'G3': False, 'G6': False, 'G7': True,
        },
        {
            'G1': 3, 'G2': 1, 'G3': 1, 'G6': 0, 'G7': 0,
        },
        {
            'G7': [(0, True)], 'G6': [], 'G3': [(1, False)], 'G11': [],
            'G19': [(1, False)], 'G2': [], 'G16': [], 'G23': [], 'G1': [],
            'G10': [(2, True)], 'G22': [],
        },
    ),
]

# Fig. 1; the first case is the <1100, 0000> pair of Sec. IV-B.
FIG1_CASES = [
    (
        {
            'a': True, 'b': True, 'c': False, 'd': False,
        },
        {
            'a': False, 'b': False, 'c': False, 'd': False,
        },
        {
            'a': 0, 'b': 3, 'c': 1, 'd': 0,
        },
        {
            'd': [], 'nd1': [], 'c': [], 'nc1': [], 'b': [(3, False)],
            'nb3': [(6, True)], 'g1': [(7, True)], 'nb2': [(5, True)],
            'bbuf2': [(5, False)], 'a': [(0, False)], 'abuf3': [(3, False)],
            'g3': [], 'na1': [(1, True)], 'g2': [(2, True), (6, False)],
            'f': [(3, True), (7, False), (8, True)],
        },
    ),
    (
        {
            'a': True, 'b': False, 'c': False, 'd': False,
        },
        {
            'a': False, 'b': True, 'c': False, 'd': False,
        },
        {
            'a': 0, 'b': 1, 'c': 0, 'd': 1,
        },
        {
            'd': [], 'nd1': [], 'c': [], 'nc1': [], 'b': [(1, True)],
            'nb3': [(4, False)], 'g1': [(5, False)], 'nb2': [(3, False)],
            'bbuf2': [(3, True)], 'a': [(0, False)], 'abuf3': [(3, False)],
            'g3': [(4, False)], 'na1': [(1, True)], 'g2': [(4, True)],
            'f': [],
        },
    ),
    (
        {
            'a': False, 'b': False, 'c': False, 'd': True,
        },
        {
            'a': True, 'b': True, 'c': False, 'd': False,
        },
        {
            'a': 0, 'b': 1, 'c': 3, 'd': 1,
        },
        {
            'd': [(1, False)], 'nd1': [(2, True)], 'c': [], 'nc1': [],
            'b': [(1, True)], 'nb3': [(4, False)],
            'g1': [(3, True), (5, False)], 'nb2': [(3, False)],
            'bbuf2': [(3, True)], 'a': [(0, True)], 'abuf3': [(3, True)],
            'g3': [], 'na1': [(1, False)], 'g2': [],
            'f': [(4, True), (6, False)],
        },
    ),
]

# c17 with G11, G16 and G22 at delay 0 and G19 at delay 2.
C17_ZERO_DELAY_CASES = [
    (
        {
            'G1': False, 'G2': True, 'G3': False, 'G6': False, 'G7': False,
        },
        {
            'G1': False, 'G2': True, 'G3': True, 'G6': False, 'G7': False,
        },
        {
            'G1': 3, 'G2': 0, 'G3': 2, 'G6': 0, 'G7': 3,
        },
        {
            'G7': [], 'G6': [], 'G3': [(2, True)], 'G11': [], 'G19': [],
            'G2': [], 'G16': [], 'G23': [], 'G1': [], 'G10': [], 'G22': [],
        },
    ),
    (
        {
            'G1': False, 'G2': True, 'G3': True, 'G6': False, 'G7': True,
        },
        {
            'G1': True, 'G2': False, 'G3': False, 'G6': False, 'G7': False,
        },
        {
            'G1': 0, 'G2': 0, 'G3': 1, 'G6': 0, 'G7': 3,
        },
        {
            'G7': [(3, False)], 'G6': [], 'G3': [(1, False)], 'G11': [],
            'G19': [(5, True)], 'G2': [(0, False)], 'G16': [(0, True)],
            'G23': [(6, False)], 'G1': [(0, True)],
            'G10': [(1, False), (2, True)],
            'G22': [(0, False), (1, True), (2, False)],
        },
    ),
]

# period -> (decoded state per cycle, sampled outputs per cycle); None is
# a register pattern that decodes to no state (timing corruption).
SEQUENTIAL_TRACES = {
    2: (
        [
            'b', None, 'b', 'a', 'a', 'b', None, 'c', 'a', 'a', 'b', None,
            'c', 'a', 'a', 'a', 'b', None, 'b', 'a', 'a', 'b', 'b', 'b',
        ],
        [
            [True], [False], [True], [False], [True], [True], [True],
            [True], [False], [False], [True], [True], [False], [False],
            [False], [True], [True], [False], [True], [False], [True],
            [False], [False], [False],
        ],
    ),
    3: (
        [
            'b', 'a', 'b', 'a', 'b', 'c', 'b', 'a', 'b', 'c', 'b', 'a', 'a',
            'b', 'a', 'b', 'c', 'a', 'a', 'a', 'b', 'a', 'a', 'a',
        ],
        [
            [True], [False], [True], [False], [True], [True], [False],
            [True], [True], [True], [False], [True], [False], [True],
            [False], [True], [True], [False], [True], [False], [True],
            [False], [False], [False],
        ],
    ),
}


def _c880_pairs():
    circuit = build_circuit("c880")
    width = len(circuit.inputs)

    def vector(word):
        return {
            name: bool((word >> (width - 1 - i)) & 1)
            for i, name in enumerate(circuit.inputs)
        }

    pairs = [VectorPair(vector(p), vector(n)) for __, __, p, n in C880_PAIRS]
    return circuit, pairs


def _c17_zero_delay():
    circuit = c17()
    for name in ("G11", "G16", "G22"):
        circuit.set_delay(name, 0)
    circuit.set_delay("G19", 2)
    return circuit


KISS = """
.i 1
.o 1
.r a
1 a b 1
0 a a 0
1 b c 1
0 b b 0
1 c a 0
0 c c 1
"""


class TestC880Replay:
    def test_nominal_pair_delays(self):
        circuit, pairs = _c880_pairs()
        simulator = EventSimulator(circuit)
        delays = [simulator.measure_pair_delay(p.v_prev, p.v_next)
                  for p in pairs]
        assert delays == C880_NOMINAL_DELAYS

    def test_doubled_pair_delays(self):
        circuit, pairs = _c880_pairs()
        simulator = EventSimulator(scale_delays(circuit, 2))
        delays = [simulator.measure_pair_delay(p.v_prev, p.v_next)
                  for p in pairs]
        assert delays == C880_SCALED_DELAYS

    def test_monte_carlo_samples(self):
        circuit, pairs = _c880_pairs()
        result = monte_carlo_delay(circuit, pairs, num_samples=20, seed=11)
        assert result.samples == C880_MC_SAMPLES


@pytest.mark.parametrize(
    "build, cases",
    [
        (c17, C17_CASES),
        (fig1_circuit, FIG1_CASES),
        (_c17_zero_delay, C17_ZERO_DELAY_CASES),
    ],
    ids=["c17", "fig1", "c17-zero-delay"],
)
def test_staggered_replay_events(build, cases):
    circuit = build()
    simulator = EventSimulator(circuit)
    for prev, nxt, times, events in cases:
        result = simulator.simulate_transition(prev, nxt, input_times=times)
        assert list(result.waveforms) == list(events)
        got = {name: result.waveforms[name].events for name in events}
        assert got == events


@pytest.mark.parametrize("period", sorted(SEQUENTIAL_TRACES))
def test_sequential_trace(period):
    """Every cycle after the first injects at the timestamp the previous
    ``advance`` drained, so each one goes through the merge path."""
    logic = synthesize(loads_kiss(KISS, "k"), fanin_limit=2)
    rng = random.Random(5)
    stimulus = [[bool(rng.getrandbits(1))] for __ in range(24)]
    trace = SequentialSimulator(logic, period).run(stimulus)
    states, outputs = SEQUENTIAL_TRACES[period]
    assert trace.states == states
    assert trace.outputs == outputs
