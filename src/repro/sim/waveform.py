"""Waveform records produced by the timing simulators.

A :class:`Waveform` is an initial value plus a strictly increasing list of
``(time, value)`` events; signals are piecewise constant and
right-continuous (the value *at* an event time is the new value — the
paper's propagation-delay interpretation where gates switch instantly).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass
class Waveform:
    """A single signal's history."""

    initial: bool
    events: List[Tuple[int, bool]] = field(default_factory=list)

    def append(self, time: int, value: bool) -> None:
        if self.events and time < self.events[-1][0]:
            raise ValueError("events must be appended in time order")
        if self.events and time == self.events[-1][0]:
            # Same-instant overwrite (batched evaluation refined the value).
            self.events[-1] = (time, value)
            if len(self.events) >= 2 and self.events[-2][1] == value:
                self.events.pop()
            elif len(self.events) == 1 and self.initial == value:
                self.events.pop()
            return
        last = self.events[-1][1] if self.events else self.initial
        if value != last:
            self.events.append((time, value))

    def value_at(self, time: int) -> bool:
        """Value at time ``time`` (right-continuous)."""
        value = self.initial
        for t, v in self.events:
            if t > time:
                break
            value = v
        return value

    def value_before(self, time: int) -> bool:
        """Value immediately before ``time``."""
        value = self.initial
        for t, v in self.events:
            if t >= time:
                break
            value = v
        return value

    @property
    def final(self) -> bool:
        return self.events[-1][1] if self.events else self.initial

    @property
    def last_event_time(self) -> Optional[int]:
        return self.events[-1][0] if self.events else None

    def transition_times(self) -> List[int]:
        return [t for t, __ in self.events]

    def num_transitions(self) -> int:
        return len(self.events)

    def is_stable(self) -> bool:
        return not self.events

    def glitches(self) -> int:
        """Number of events beyond the minimum needed to reach the final
        value (0 or 1 events depending on initial vs final)."""
        needed = 0 if self.initial == self.final else 1
        return len(self.events) - needed

    def render(self, horizon: int, high: str = "▔", low: str = "▁") -> str:
        """A one-line ASCII strip chart over times ``0..horizon``."""
        chars = []
        for t in range(horizon + 1):
            chars.append(high if self.value_at(t) else low)
        return "".join(chars)


class WaveformSet:
    """Waveforms for a set of signals plus convenience queries."""

    def __init__(self, waveforms: Dict[str, Waveform]):
        self.waveforms = waveforms

    def __getitem__(self, name: str) -> Waveform:
        return self.waveforms[name]

    def __contains__(self, name: str) -> bool:
        return name in self.waveforms

    def __iter__(self):
        return iter(self.waveforms)

    def names(self) -> List[str]:
        return list(self.waveforms)

    def last_event_time(self, names: Optional[Sequence[str]] = None) -> int:
        """Latest event time over ``names`` (default: all); 0 if none."""
        latest = 0
        for name in names if names is not None else self.names():
            t = self[name].last_event_time
            if t is not None and t > latest:
                latest = t
        return latest

    def render(self, names: Optional[Sequence[str]] = None,
               horizon: Optional[int] = None) -> str:
        """Multi-line ASCII rendering (one strip per signal)."""
        names = list(names) if names is not None else sorted(self.names())
        if horizon is None:
            horizon = max(1, self.last_event_time(names) + 1)
        width = max((len(n) for n in names), default=0)
        lines = []
        for name in names:
            lines.append(f"{name:<{width}} {self[name].render(horizon)}")
        return "\n".join(lines)
