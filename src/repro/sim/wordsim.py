"""The vectorized Boolean kernel: bit-parallel word-level simulation.

This is the repository's single word-level evaluator (the historical
``simulate_words`` of :mod:`repro.sim.logic_sim` now delegates here).  A
*word* is an integer whose bit lanes are independent input vectors: one
pass over the gates evaluates every lane at once, so N vectors cost one
traversal of the circuit plus O(N) bitwise work instead of N scalar
``settle`` traversals.

Two interchangeable backends compute byte-identical results:

* **pure-int** — each signal is one arbitrary-width Python int; CPython's
  big-int bitwise ops are C loops over 30-bit limbs, which beats numpy's
  per-op dispatch overhead for the narrow batches the delay cores issue;
* **numpy** — each signal is an array of uint64 lanes (64 vectors per
  lane, N lanes per array), which wins once batches grow to thousands of
  vectors.  When numpy is not installed the kernel silently runs pure-int.

``auto`` (the default) picks numpy only for batches of at least
:data:`NUMPY_MIN_WIDTH` bits; ``REPRO_WORDSIM_BACKEND=numpy|int|auto``
forces a choice process-wide and ``REPRO_WORDSIM_CHECK=1`` cross-checks
every batch settle against the scalar evaluator (lane-vs-scalar
byte-identity, used by the validation paths and CI).

Consumers: witness/vector-pair validation (:mod:`repro.core.vectors`,
:mod:`repro.core.certify`), Monte Carlo replay
(:mod:`repro.core.statistical` — the ``v_-1`` settled states are
delay-independent, so one batch pass serves every sample), and
fault-coverage validation (:mod:`repro.core.delay_fault`).
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence
from weakref import WeakKeyDictionary, ref

from ..network.circuit import Circuit
from ..network.gates import GateType, validate_arity
from ..runtime.metrics import METRICS

try:  # numpy is optional: the pure-int backend is always available.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised where numpy is absent
    _np = None

#: Lane width of one uint64 word — the historical ``simulate_words`` unit.
WORD_BITS = 64
_WORD_MASK = (1 << WORD_BITS) - 1

#: Minimum batch width (in bit lanes) before ``auto`` prefers numpy: below
#: this, one big-int op on the whole word is cheaper than one numpy call.
NUMPY_MIN_WIDTH = 4096

_BACKENDS = ("auto", "int", "numpy")

# Compiled op codes (gate dispatch resolved once per circuit, not per call).
_CONST0, _CONST1, _BUF, _NOT, _AND, _NAND, _OR, _NOR, _XOR, _XNOR = range(10)
_OPS = {
    GateType.CONST0: _CONST0,
    GateType.CONST1: _CONST1,
    GateType.BUF: _BUF,
    GateType.NOT: _NOT,
    GateType.AND: _AND,
    GateType.NAND: _NAND,
    GateType.OR: _OR,
    GateType.NOR: _NOR,
    GateType.XOR: _XOR,
    GateType.XNOR: _XNOR,
}


def _env_backend() -> str:
    return os.environ.get("REPRO_WORDSIM_BACKEND", "") or "auto"


def _env_check() -> bool:
    return os.environ.get("REPRO_WORDSIM_CHECK", "") not in ("", "0")


def pack_vectors(
    vectors: Sequence[Dict[str, bool]], inputs: Sequence[str]
) -> Dict[str, int]:
    """Pack scalar vectors into input words: bit lane ``i`` of each word
    carries ``vectors[i]``'s value for that input."""
    words: Dict[str, int] = {}
    num_bytes = (len(vectors) + 7) >> 3
    for name in inputs:
        buf = bytearray(num_bytes)
        for lane, vector in enumerate(vectors):
            try:
                value = vector[name]
            except KeyError:
                raise ValueError(
                    f"vector {lane} is missing a value for primary input "
                    f"{name!r}"
                ) from None
            if value:
                buf[lane >> 3] |= 1 << (lane & 7)
        words[name] = int.from_bytes(bytes(buf), "little")
    return words


def unpack_word(word: int, count: int) -> List[bool]:
    """The first ``count`` bit lanes of a word as scalar values."""
    data = int(word).to_bytes((count + 7) >> 3 or 1, "little")
    return [bool((data[i >> 3] >> (i & 7)) & 1) for i in range(count)]


class WordKernel:
    """A circuit compiled for bit-parallel evaluation.

    Compilation happens once: the topological order is flattened into an
    op list over integer slots (no per-call dict lookups or gate-type
    dispatch), and every gate's arity is validated up front with the same
    errors :class:`~repro.network.circuit.Node` raises at construction —
    a corrupted zero-fanin gate is rejected, never folded into a constant.
    """

    def __init__(self, circuit: Circuit, backend: str = "auto"):
        if backend not in _BACKENDS:
            raise ValueError(
                f"unknown wordsim backend {backend!r}; "
                f"expected one of {_BACKENDS}"
            )
        circuit.validate()
        # A weak reference: the per-circuit cache below holds kernels, and
        # a kernel holding its circuit would keep every circuit it ever
        # compiled alive.
        self._circuit = ref(circuit)
        self.backend = backend
        self._order = circuit.topological_order()
        slots = {name: index for index, name in enumerate(self._order)}
        program = []
        for name in self._order:
            node = circuit.node(name)
            validate_arity(node.gate_type, name, len(node.fanins))
            if node.gate_type == GateType.INPUT:
                continue
            op = _OPS.get(node.gate_type)
            if op is None:
                raise ValueError(
                    f"cannot simulate gate type {node.gate_type}"
                )
            program.append(
                (op, slots[name], tuple(slots[f] for f in node.fanins))
            )
        self._program = program
        self._slots = slots
        self._input_slots = [(name, slots[name]) for name in circuit.inputs]
        self._input_set = frozenset(circuit.inputs)

    @property
    def circuit(self) -> Circuit:
        """The compiled circuit (raises once it has been freed)."""
        circuit = self._circuit()
        if circuit is None:
            raise ReferenceError("the kernel's circuit no longer exists")
        return circuit

    @property
    def order(self) -> List[str]:
        """Node names by slot: slot ``i`` holds ``order[i]`` (topological)."""
        return self._order

    @property
    def slots(self) -> Dict[str, int]:
        """Slot of every node name."""
        return self._slots

    @property
    def program(self) -> List[tuple]:
        """``(op, slot, fanin slots)`` per gate, in slot order — the one
        compiled slot program, also run by :mod:`repro.sim.event_sim`."""
        return self._program

    # ------------------------------------------------------------------
    def resolved_backend(self, width: int) -> str:
        """The backend one call of the given lane width will run on."""
        backend = self.backend
        if backend == "auto":
            backend = _env_backend()
        if backend == "auto":
            backend = (
                "numpy"
                if _np is not None and width >= NUMPY_MIN_WIDTH
                else "int"
            )
        if backend == "numpy" and _np is None:
            backend = "int"
        return backend

    def _load_inputs(
        self, input_words: Dict[str, int], mask: int
    ) -> List[int]:
        values: List[Optional[int]] = [0] * len(self._order)
        for name, slot in self._input_slots:
            try:
                values[slot] = int(input_words[name]) & mask
            except KeyError:
                raise ValueError(
                    f"missing value for primary input {name!r} of "
                    f"circuit {self.circuit.name!r}"
                ) from None
        if len(input_words) > len(self._input_slots):
            extra = sorted(set(input_words) - self._input_set)
            if extra:
                raise ValueError(
                    f"unknown inputs {extra} for circuit "
                    f"{self.circuit.name!r}: not primary inputs"
                )
        return values

    # ------------------------------------------------------------------
    def simulate(
        self, input_words: Dict[str, int], width: int = WORD_BITS
    ) -> Dict[str, int]:
        """Word value of every node: bit lane ``i`` of each word is the
        settled value under the vector in lane ``i`` of the inputs.

        ``width`` is the number of live lanes; input and result words are
        masked to it (the historical 64-bit ``simulate_words`` contract).
        Missing or unknown input names raise a ValueError naming them.
        """
        if width < 1:
            raise ValueError("width must be at least 1")
        mask = (1 << width) - 1
        values = self._load_inputs(input_words, mask)
        if self.resolved_backend(width) == "numpy":
            self._run_numpy(values, width, mask)
        else:
            self._run_int(values, mask)
        METRICS.incr("wordsim.batches")
        METRICS.incr("wordsim.lanes", width)
        METRICS.incr("wordsim.gate_ops", len(self._program))
        return {name: values[self._slots[name]] for name in self._order}

    def _run_int(self, values: List[int], mask: int) -> None:
        for op, out, fanins in self._program:
            if op == _AND or op == _NAND:
                word = values[fanins[0]]
                for f in fanins[1:]:
                    word &= values[f]
                if op == _NAND:
                    word ^= mask
            elif op == _OR or op == _NOR:
                word = values[fanins[0]]
                for f in fanins[1:]:
                    word |= values[f]
                if op == _NOR:
                    word ^= mask
            elif op == _XOR or op == _XNOR:
                word = values[fanins[0]]
                for f in fanins[1:]:
                    word ^= values[f]
                if op == _XNOR:
                    word ^= mask
            elif op == _NOT:
                word = values[fanins[0]] ^ mask
            elif op == _BUF:
                word = values[fanins[0]]
            elif op == _CONST0:
                word = 0
            else:  # _CONST1
                word = mask
            values[out] = word

    def _run_numpy(self, values: List[int], width: int, mask: int) -> None:
        """Evaluate on uint64 lane arrays, then fold back to ints.

        Lane arrays hold ``ceil(width / 64)`` uint64 words per signal; the
        top lane's dead bits are cleared by the final mask.
        """
        lanes = (width + WORD_BITS - 1) // WORD_BITS
        num_bytes = lanes * 8
        ones = _np.full(lanes, _WORD_MASK, dtype=_np.uint64)
        arrays: List[object] = [None] * len(values)
        for __, slot in self._input_slots:
            arrays[slot] = _np.frombuffer(
                int(values[slot]).to_bytes(num_bytes, "little"), dtype="<u8"
            )
        for op, out, fanins in self._program:
            if op == _AND or op == _NAND:
                word = arrays[fanins[0]]
                for f in fanins[1:]:
                    word = word & arrays[f]
                if op == _NAND:
                    word = word ^ ones
            elif op == _OR or op == _NOR:
                word = arrays[fanins[0]]
                for f in fanins[1:]:
                    word = word | arrays[f]
                if op == _NOR:
                    word = word ^ ones
            elif op == _XOR or op == _XNOR:
                word = arrays[fanins[0]]
                for f in fanins[1:]:
                    word = word ^ arrays[f]
                if op == _XNOR:
                    word = word ^ ones
            elif op == _NOT:
                word = arrays[fanins[0]] ^ ones
            elif op == _BUF:
                word = arrays[fanins[0]]
            elif op == _CONST0:
                word = _np.zeros(lanes, dtype=_np.uint64)
            else:  # _CONST1
                word = ones
            arrays[out] = word
        for op, out, __ in self._program:
            values[out] = (
                int.from_bytes(
                    arrays[out].astype("<u8", copy=False).tobytes(), "little"
                )
                & mask
            )

    # ------------------------------------------------------------------
    def settle_batch(
        self,
        vectors: Sequence[Dict[str, bool]],
        names: Optional[Sequence[str]] = None,
        check: Optional[bool] = None,
    ) -> List[Dict[str, bool]]:
        """Settled values for each scalar vector, in one bit-parallel pass.

        Equivalent (bit for bit) to ``[settle(circuit, v) for v in
        vectors]`` — restricted to ``names`` when given.  ``check=True``
        (or ``REPRO_WORDSIM_CHECK=1`` when ``check`` is None) replays
        every vector on the scalar evaluator and raises on any lane
        divergence; the validation consumers run with the check on.
        """
        vectors = list(vectors)
        if not vectors:
            return []
        width = len(vectors)
        words = self.simulate(
            pack_vectors(vectors, [n for n, __ in self._input_slots]),
            width=width,
        )
        if names is None:
            names = self._order
        per_name = {name: unpack_word(words[name], width) for name in names}
        result = [
            {name: per_name[name][lane] for name in names}
            for lane in range(width)
        ]
        if _env_check() if check is None else check:
            for lane, (vector, got) in enumerate(zip(vectors, result)):
                expected = self.circuit.evaluate(vector)
                for name in names:
                    if got[name] != expected[name]:
                        raise RuntimeError(
                            f"word-level settle diverged from scalar "
                            f"settle at node {name!r}, lane {lane} of "
                            f"circuit {self.circuit.name!r}"
                        )
        return result

    def settle_outputs_batch(
        self,
        vectors: Sequence[Dict[str, bool]],
        check: Optional[bool] = None,
    ) -> List[Dict[str, bool]]:
        """Settled primary-output values per vector, one pass."""
        return self.settle_batch(
            vectors, names=self.circuit.outputs, check=check
        )


# ----------------------------------------------------------------------
# Per-circuit kernel cache (compilation is O(gates); batch callers such
# as the Monte Carlo loop reuse the compiled program across calls).
# ----------------------------------------------------------------------
_KERNELS: "WeakKeyDictionary[Circuit, tuple]" = WeakKeyDictionary()


def kernel_for(circuit: Circuit, backend: str = "auto") -> WordKernel:
    """The compiled kernel for a circuit, rebuilt after any journalled
    edit (keyed on the circuit's revision counter)."""
    entry = _KERNELS.get(circuit)
    if entry is not None:
        revision, cached_backend, kernel = entry
        if revision == circuit.revision and cached_backend == backend:
            return kernel
    kernel = WordKernel(circuit, backend=backend)
    _KERNELS[circuit] = (circuit.revision, backend, kernel)
    return kernel


def simulate_words(
    circuit: Circuit, input_words: Dict[str, int], width: int = WORD_BITS
) -> Dict[str, int]:
    """Bit-parallel simulation: each input carries a ``width``-bit word
    (64 by default); every bit lane is an independent vector.

    The unified kernel entry point — this is the public name historically
    exported by :mod:`repro.sim.logic_sim`, now validated (gate arity,
    missing/unknown inputs) and backend-accelerated.
    """
    return kernel_for(circuit).simulate(input_words, width=width)


def batch_settle(
    circuit: Circuit,
    vectors: Sequence[Dict[str, bool]],
    names: Optional[Sequence[str]] = None,
    check: Optional[bool] = None,
) -> List[Dict[str, bool]]:
    """``[settle(circuit, v) for v in vectors]`` in one kernel pass."""
    return kernel_for(circuit).settle_batch(vectors, names=names, check=check)


def batch_settle_outputs(
    circuit: Circuit,
    vectors: Sequence[Dict[str, bool]],
    check: Optional[bool] = None,
) -> List[Dict[str, bool]]:
    """``[settle_outputs(circuit, v) for v in vectors]`` in one pass."""
    return kernel_for(circuit).settle_outputs_batch(vectors, check=check)
