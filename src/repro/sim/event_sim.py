"""Event-driven gate-level timing simulation under fixed delays.

This is the repository's "timing simulator of choice" (Sec. VII): the
certification vectors produced by the symbolic transition-delay computation
are replayed here, possibly under a refined delay annotation.

Semantics
---------
* **Propagation-delay interpretation** (Sec. IV): a gate switches instantly;
  the new value reaches its output ``d`` units later (transport delay).
* **Instantaneous glitches are suppressed** (Sec. IV-A): all events sharing
  a timestamp are applied together before any gate is re-evaluated, so a
  zero-width input pulse cannot flip an output.  Pulses of width >= 1 time
  unit propagate.
* **Single-stepping mode** (Sec. III): `simulate_transition` settles the
  circuit under ``v_-1`` and applies ``v_0`` at time 0.
* **Clocked mode**: `simulate_clocked` applies a vector every ``period``
  units *without* waiting for internal nodes to settle — the regime of
  Theorem 3.1.

Engine
------
An :class:`EventSimulator` compiles its circuit once into slot-indexed
arrays: op code, fanin slots, fanout slots and delay per slot.  The slots
and op codes are those of the word-level kernel (:func:`repro.sim.wordsim.
kernel_for`), so a circuit has one compiled slot program shared by both
simulators; slot order is topological, which is also the order in which a
timestamp's affected gates are re-evaluated.  A :class:`TimingSession`
keeps live and projected values in lists indexed by slot, evaluates gates
by op code, and creates a :class:`~repro.sim.waveform.Waveform` only for a
node that switches (or that a caller reads): its
:class:`~repro.sim.waveform.WaveformSet` still answers every node, an
untouched one as a stable waveform at its initial value.  Replays schedule
only the inputs whose value changes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..network.circuit import Circuit
from .logic_sim import settle
from .waveform import Waveform, WaveformSet
from .wordsim import kernel_for

# Gate families of the word kernel's op codes: op >> 1 is the family
# (0 CONST, 1 BUF, 2 AND, 3 OR, 4 XOR) and op & 1 complements it.
_INPUT_KIND, _BUF_KIND, _AND_KIND, _OR_KIND = -1, 1, 2, 3


@dataclass
class TransitionResult:
    """Outcome of simulating one vector pair in single-stepping mode."""

    waveforms: WaveformSet
    outputs: List[str]

    @property
    def delay(self) -> int:
        """Time of the last transition at any primary output (0 if none) —
        the measured transition delay of this vector pair."""
        return self.waveforms.last_event_time(self.outputs)

    def output_values(self) -> Dict[str, bool]:
        return {name: self.waveforms[name].final for name in self.outputs}

    def settled_by(self, time: int) -> bool:
        """True if no node transitions after ``time``."""
        return self.waveforms.last_event_time() <= time


@dataclass
class ClockedResult:
    """Outcome of clocked multi-vector simulation."""

    waveforms: WaveformSet
    outputs: List[str]
    period: int
    sampled: List[Dict[str, bool]] = field(default_factory=list)


class _EventProgram:
    """A circuit compiled for event simulation: per-slot arrays over the
    word kernel's topological slots."""

    def __init__(self, circuit: Circuit):
        kernel = kernel_for(circuit)
        self.revision = circuit.revision
        self.order: List[str] = kernel.order
        self.slots: Dict[str, int] = kernel.slots
        size = len(self.order)
        self.kinds: List[int] = [_INPUT_KIND] * size
        self.inverts: List[bool] = [False] * size
        self.fanins: List[Tuple[int, ...]] = [()] * size
        fanouts: List[List[int]] = [[] for __ in range(size)]
        for op, slot, fanins in kernel.program:
            self.kinds[slot] = op >> 1
            self.inverts[slot] = bool(op & 1)
            self.fanins[slot] = fanins
            for fanin in fanins:
                fanouts[fanin].append(slot)
        self.fanouts: List[Tuple[int, ...]] = [tuple(f) for f in fanouts]
        self.delays: List[int] = [
            circuit.node(name).delay for name in self.order
        ]
        self.inputs: List[Tuple[str, int]] = [
            (name, self.slots[name]) for name in circuit.inputs
        ]


class _SessionWaveforms(WaveformSet):
    """A session's waveforms: every node answers, but only nodes that
    switched (or were read) own a :class:`Waveform` in ``waveforms``.

    An untouched node never changed, so its live value is its initial
    value and it reads as a stable waveform at that value.
    """

    def __init__(self, names: List[str], slots: Dict[str, int],
                 values: List[bool]):
        super().__init__({})
        self._names = names
        self._slots = slots
        self._values = values

    def __getitem__(self, name: str) -> Waveform:
        wave = self.waveforms.get(name)
        if wave is None:
            wave = Waveform(self._values[self._slots[name]])
            self.waveforms[name] = wave
        return wave

    def __contains__(self, name: str) -> bool:
        return name in self._slots

    def __iter__(self):
        return iter(self._names)

    def names(self) -> List[str]:
        return list(self._names)

    def last_event_time(self, names: Optional[Sequence[str]] = None) -> int:
        waves = self.waveforms
        if names is None:
            candidates = list(waves.values())
        else:
            candidates = [waves[n] for n in names if n in waves]
        latest = 0
        for wave in candidates:
            if wave.events and wave.events[-1][0] > latest:
                latest = wave.events[-1][0]
        return latest


def _record(waves: Dict[str, Waveform], name: str, t: int,
            value: bool) -> None:
    """Append a change of ``name`` to ``value`` at ``t``; the node's value
    before it was ``not value``."""
    wave = waves.get(name)
    if wave is None:
        waves[name] = Waveform(not value, [(t, value)])
    elif wave.events and wave.events[-1][0] == t:
        wave.append(t, value)  # same-instant merge of a late batch
    else:
        wave.events.append((t, value))


class TimingSession:
    """A stateful event-driven simulation: inject input changes at chosen
    times, advance the clock, inspect live values — the engine under
    :class:`EventSimulator` and the sequential (state-feedback) simulation
    in :mod:`repro.fsm.sequential`."""

    def __init__(self, simulator: "EventSimulator", initial: Dict[str, bool]):
        program = simulator._compiled()
        self._program = program
        self.now = 0
        names = list(initial)
        if names == program.order:
            names = program.order
            values = list(initial.values())
        else:
            values = [initial[name] for name in program.order]
        self._values = values
        self._projected = list(values)
        self.waveforms = _SessionWaveforms(names, program.slots, values)
        self._events: Dict[int, Dict[int, bool]] = {}
        self._heap: List[int] = []
        # Highest timestamp whose batch is already committed; injections
        # at or below this must merge, never queue a second batch.
        self._drained = -1

    # ------------------------------------------------------------------
    def _schedule(self, time: int, slot: int, value: bool) -> None:
        bucket = self._events.get(time)
        if bucket is None:
            bucket = {}
            self._events[time] = bucket
            heapq.heappush(self._heap, time)
        bucket[slot] = value

    def inject(self, time: int, changes: Dict[str, bool]) -> None:
        """Schedule primary-input changes at ``time`` (>= now).

        An injection at a timestamp the session has already committed
        (``time == now`` right after an ``advance`` drained that time
        point — the regime of the sequential state-feedback loop) is
        *merged* into that time point immediately rather than queued:
        applying it as a second batch at the same time would let a
        zero-width input pulse straddle the two batches and defeat the
        Sec. IV-A instantaneous-glitch suppression.  Merging re-applies
        the batch semantics: a late change that reverts a value set at
        ``time`` coalesces to no event at all, and downstream projections
        are recomputed accordingly.
        """
        if time < self.now:
            raise ValueError("cannot inject into the past")
        slots = self._program.slots
        if time <= self._drained:
            self._apply_batch(
                time,
                {slots[node]: bool(value) for node, value in changes.items()},
            )
            return
        for node, value in changes.items():
            self._schedule(time, slots[node], bool(value))

    def value_at_sample(self, name: str) -> bool:
        """Current (edge-inclusive) value of a signal."""
        return self._values[self._program.slots[name]]

    def _apply_batch(self, t: int, changes: Dict[int, bool]) -> None:
        """Commit one timestamp's batch: apply all changes at ``t`` before
        re-evaluating any gate (the zero-width glitch filter), cascade
        zero-delay gates within the timestamp, and schedule the rest."""
        program = self._program
        kinds, inverts = program.kinds, program.inverts
        fanins, fanouts = program.fanins, program.fanouts
        delays, names = program.delays, program.order
        current, projected = self._values, self._projected
        waves = self.waveforms.waveforms
        heappush, heappop = heapq.heappush, heapq.heappop
        if t > self.now:
            self.now = t
        if t > self._drained:
            self._drained = t
        # Gates to re-evaluate, popped in slot (= topological) order; a
        # gate's fanins all precede it, so each is evaluated at most once.
        pending: List[int] = []
        queued = set()
        for slot, value in changes.items():
            if kinds[slot] == _INPUT_KIND:
                projected[slot] = value
            if current[slot] == value:
                continue
            current[slot] = value
            _record(waves, names[slot], t, value)
            for fo in fanouts[slot]:
                if fo not in queued:
                    queued.add(fo)
                    heappush(pending, fo)
        while pending:
            gate = heappop(pending)
            kind = kinds[gate]
            if kind == _AND_KIND:
                value = True
                for f in fanins[gate]:
                    if not current[f]:
                        value = False
                        break
            elif kind == _OR_KIND:
                value = False
                for f in fanins[gate]:
                    if current[f]:
                        value = True
                        break
            elif kind == _BUF_KIND:
                value = current[fanins[gate][0]]
            else:  # XOR family (constants have no fanins to wake them)
                value = False
                for f in fanins[gate]:
                    if current[f]:
                        value = not value
            if inverts[gate]:
                value = not value
            delay = delays[gate]
            if delay == 0:
                if value != current[gate]:
                    current[gate] = value
                    projected[gate] = value
                    _record(waves, names[gate], t, value)
                    for fo in fanouts[gate]:
                        if fo not in queued:
                            queued.add(fo)
                            heappush(pending, fo)
            elif value != projected[gate]:
                projected[gate] = value
                self._schedule(t + delay, gate, value)

    def advance(self, until: Optional[int] = None) -> int:
        """Process events up to and including time ``until`` (or to
        quiescence).  Returns the simulation time reached."""
        heap, events = self._heap, self._events
        while heap:
            t = heap[0]
            if until is not None and t > until:
                break
            heapq.heappop(heap)
            self._apply_batch(t, events.pop(t))
        if until is not None:
            self.now = max(self.now, until)
            self._drained = max(self._drained, until)
        return self.now

    @property
    def quiescent(self) -> bool:
        return not self._heap


class EventSimulator:
    """Event-driven transport-delay simulator for a fixed circuit."""

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self._program = _EventProgram(circuit)

    def _compiled(self) -> _EventProgram:
        """The compiled program, rebuilt after any journalled edit."""
        if self._program.revision != self.circuit.revision:
            self._program = _EventProgram(self.circuit)
        return self._program

    # ------------------------------------------------------------------
    def session(self, initial_inputs: Dict[str, bool]) -> TimingSession:
        """Open a stateful session, settled under ``initial_inputs``."""
        return TimingSession(self, settle(self.circuit, initial_inputs))

    # ------------------------------------------------------------------
    def simulate_transition(
        self,
        v_prev: Dict[str, bool],
        v_next: Dict[str, bool],
        input_times: Optional[Dict[str, int]] = None,
        initial: Optional[Dict[str, bool]] = None,
    ) -> TransitionResult:
        """Single-stepping simulation of the vector pair ``(v_prev, v_next)``.

        ``input_times`` optionally staggers when each input takes its new
        value (default 0 for all) — the per-input clocking of Sec. V-C and
        the late-arriving ``i4`` of Fig. 3.

        ``initial`` optionally supplies the settled per-node state under
        ``v_prev`` (it must equal ``settle(self.circuit, v_prev)``) —
        batch consumers precompute it for many pairs in one pass of the
        word-level kernel (:mod:`repro.sim.wordsim`) instead of one scalar
        settle per replay.  Settled values are delay-independent, so one
        precomputed state also serves replays under re-annotated delays.
        """
        if initial is None:
            initial = settle(self.circuit, v_prev)
        times = input_times or {}
        if times and min(times.get(n, 0) for n in self.circuit.inputs) < 0:
            raise ValueError("cannot inject into the past")
        session = TimingSession(self, initial)
        values = session._values
        for name, slot in session._program.inputs:
            value = v_next[name]
            if value != values[slot]:
                session._schedule(times.get(name, 0), slot, bool(value))
        session.advance()
        return TransitionResult(session.waveforms, self.circuit.outputs)

    def measure_pair_delay(
        self,
        v_prev: Dict[str, bool],
        v_next: Dict[str, bool],
        initial: Optional[Dict[str, bool]] = None,
    ) -> int:
        """Shorthand: the transition delay observed for one vector pair."""
        return self.simulate_transition(v_prev, v_next, initial=initial).delay

    def simulate_clocked(
        self,
        vectors: Sequence[Dict[str, bool]],
        period: int,
    ) -> ClockedResult:
        """Apply ``vectors[0]`` and settle, then apply each subsequent vector
        every ``period`` units without waiting for internal quiescence:
        ``vectors[k]`` (k >= 1) is applied at time ``(k-1)*period``.

        ``sampled[i]`` holds the primary-output values a latch clocked at the
        period would capture for ``vectors[i+1]`` — the values observed one
        period after that vector was applied.  Capture is *edge-inclusive*
        (an event landing exactly on the clock edge is latched), matching
        Theorem 3.1's claim that the transition delay itself is a valid
        period.  Events of the next vector cannot contaminate the sample as
        long as every output is driven through at least one positive-delay
        gate (true for all library circuits except explicitly zero-delay
        output buffers).
        """
        if not vectors:
            raise ValueError("need at least one vector")
        if period <= 0:
            raise ValueError("period must be positive")
        session = TimingSession(self, settle(self.circuit, vectors[0]))
        inputs = self.circuit.inputs
        for k, vector in enumerate(vectors[1:], start=1):
            session.inject(
                (k - 1) * period, {name: vector[name] for name in inputs}
            )
        session.advance()
        waveforms = session.waveforms
        sampled: List[Dict[str, bool]] = []
        for k in range(1, len(vectors)):
            sample_time = k * period
            sampled.append(
                {
                    out: waveforms[out].value_at(sample_time)
                    for out in self.circuit.outputs
                }
            )
        return ClockedResult(waveforms, self.circuit.outputs, period, sampled)
