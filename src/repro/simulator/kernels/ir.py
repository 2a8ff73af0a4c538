"""Kernel IR: a netlist lowered to flat, levelized arrays.

:func:`lower_program` turns a netlist into a :class:`KernelProgram` —
pure ``ndarray`` state the executor runs without touching Python
objects per gate:

* ``opcodes`` / ``invert`` — one reduction kind per gate (AND/OR/XOR/
  BUF plus an invert flag), in a *level-grouped* topological order:
  gates are sorted by logic level, then by opcode, so every gate's
  operands are produced strictly earlier in the array and independent
  gates of one level sit contiguously;
* ``op_idx`` / ``op_ptr`` — CSR operand lists: gate ``g`` reads signal
  columns ``op_idx[op_ptr[g]:op_ptr[g + 1]]``;
* ``out_cols`` — the signal column each gate writes;
* ``gate_pos`` — per signal column, the position of its driving gate in
  the schedule (``-1`` for primary inputs).

Fault injection is *not* part of the program — it varies per block as
the fault simulator compacts its batch.  :class:`InjectionTables`
carries one call's stem forces and pin overrides as flat arrays,
grouped by gate for the executor's scatter.  Grouping preserves
insertion order among duplicates, so a doubly-forced site resolves
last-wins, like the word-level
:class:`~repro.simulator.parallel_sim.CompiledCircuit`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.circuit.gates import GateType
from repro.circuit.netlist import Netlist

__all__ = [
    "KernelProgram",
    "InjectionTables",
    "lower_program",
    "OP_AND",
    "OP_OR",
    "OP_XOR",
    "OP_BUF",
]

OP_AND = 0
OP_OR = 1
OP_XOR = 2
OP_BUF = 3

# (opcode, invert) per gate family.
_GATE_OPCODE = {
    GateType.BUF: (OP_BUF, False),
    GateType.NOT: (OP_BUF, True),
    GateType.AND: (OP_AND, False),
    GateType.NAND: (OP_AND, True),
    GateType.OR: (OP_OR, False),
    GateType.NOR: (OP_OR, True),
    GateType.XOR: (OP_XOR, False),
    GateType.XNOR: (OP_XOR, True),
}

_U64 = np.uint64


@dataclass(frozen=True)
class KernelProgram:
    """One netlist's gate schedule as flat arrays (see module docstring)."""

    num_signals: int
    input_names: tuple[str, ...]
    input_cols: np.ndarray  # int64 (num_inputs,)
    output_cols: np.ndarray  # int64 (num_outputs,)
    opcodes: np.ndarray  # int8  (num_gates,) level-grouped topo order
    invert: np.ndarray  # uint8 (num_gates,)
    op_idx: np.ndarray  # int64 (nnz,)
    op_ptr: np.ndarray  # int64 (num_gates + 1,)
    out_cols: np.ndarray  # int64 (num_gates,)
    gate_pos: np.ndarray  # int64 (num_signals,) driving gate's position, -1 = PI
    max_fanin: int

    @property
    def num_gates(self) -> int:
        return int(self.opcodes.shape[0])


def lower_program(netlist: Netlist, index: Mapping[str, int]) -> KernelProgram:
    """Lower ``netlist``'s gates to a :class:`KernelProgram`.

    ``index`` maps every signal name to its value-matrix column.  Gates
    are sorted by ``(level, opcode, invert)`` — a topological order —
    and flattened into the program's CSR arrays.
    """
    levels = netlist.levels()
    gates = []
    for gate in netlist:  # topological order
        if gate.gate_type is GateType.INPUT:
            continue
        opcode, inv = _GATE_OPCODE[gate.gate_type]
        gates.append(
            (levels[gate.name], opcode, inv, gate.inputs, index[gate.name])
        )
    gates.sort(key=lambda g: g[:3])

    num_gates = len(gates)
    opcodes = np.array([g[1] for g in gates], dtype=np.int8)
    invert = np.array([g[2] for g in gates], dtype=np.uint8)
    out_cols = np.array([g[4] for g in gates], dtype=np.int64)
    fanins = [len(g[3]) for g in gates]
    op_ptr = np.zeros(num_gates + 1, dtype=np.int64)
    op_ptr[1:] = np.cumsum(fanins)
    op_idx = np.array(
        [index[signal] for g in gates for signal in g[3]], dtype=np.int64
    )

    num_signals = len(index)
    gate_pos = np.full(num_signals, -1, dtype=np.int64)
    gate_pos[out_cols] = np.arange(num_gates, dtype=np.int64)

    return KernelProgram(
        num_signals=num_signals,
        input_names=tuple(netlist.inputs),
        input_cols=np.array(
            [index[name] for name in netlist.inputs], dtype=np.int64
        ),
        output_cols=np.array(
            [index[name] for name in netlist.outputs], dtype=np.int64
        ),
        opcodes=opcodes,
        invert=invert,
        op_idx=op_idx,
        op_ptr=op_ptr,
        out_cols=out_cols,
        gate_pos=gate_pos,
        max_fanin=max(fanins, default=0),
    )


class InjectionTables:
    """One ``run_batch`` call's fault injections as flat arrays.

    Built by :class:`~repro.simulator.batch_sim.BatchCompiledCircuit`
    from its per-fault record cache; rows are appended in machine order,
    so the raw arrays are sorted by row with insertion order preserved
    within a row.

    ``pi_*`` — primary-input stems, applied when the value matrix loads.
    ``stem_*`` — gate-output stems: after gate ``stem_gate[k]`` (a
    position in the level-grouped schedule) evaluates, row
    ``stem_row[k]`` of its output column is forced to ``stem_word[k]``.
    ``pin_*`` — operand overrides: operand ``pin_pin[k]`` of gate
    ``pin_gate[k]`` is forced to ``pin_word[k]`` on row ``pin_row[k]``
    before the gate reduces.
    """

    __slots__ = (
        "pi_row", "pi_col", "pi_word",
        "stem_row", "stem_gate", "stem_word",
        "pin_row", "pin_gate", "pin_pin", "pin_word",
    )

    def __init__(
        self,
        pi: tuple[list, list, list],
        stems: tuple[list, list, list],
        pins: tuple[list, list, list, list],
    ):
        pi_row, pi_col, pi_word = pi
        self.pi_row = np.array(pi_row, dtype=np.int64)
        self.pi_col = np.array(pi_col, dtype=np.int64)
        self.pi_word = np.array(pi_word, dtype=_U64)
        stem_row, stem_gate, stem_word = stems
        self.stem_row = np.array(stem_row, dtype=np.int64)
        self.stem_gate = np.array(stem_gate, dtype=np.int64)
        self.stem_word = np.array(stem_word, dtype=_U64)
        pin_row, pin_gate, pin_pin, pin_word = pins
        self.pin_row = np.array(pin_row, dtype=np.int64)
        self.pin_gate = np.array(pin_gate, dtype=np.int64)
        self.pin_pin = np.array(pin_pin, dtype=np.int64)
        self.pin_word = np.array(pin_word, dtype=_U64)

    def by_gate(self):
        """Per-gate scatter layout for the vectorized executor.

        Returns ``(stem_by_gate, pin_by_gate)`` dicts keyed by gate
        position: ``stem_by_gate[g] = (rows, words)`` forces gate
        ``g``'s output column after it evaluates; ``pin_by_gate[g] =
        (rows, pins, words)`` patches its gathered operands first.
        Entry order within a gate is machine order, so a vectorized
        fancy assignment resolves duplicates last-wins.
        """
        stem_by_gate: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for chunk in _chunks_by_gate(self.stem_gate):
            stem_by_gate[int(self.stem_gate[chunk[0]])] = (
                self.stem_row[chunk],
                self.stem_word[chunk],
            )
        pin_by_gate: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        for chunk in _chunks_by_gate(self.pin_gate):
            pin_by_gate[int(self.pin_gate[chunk[0]])] = (
                self.pin_row[chunk],
                self.pin_pin[chunk],
                self.pin_word[chunk],
            )
        return stem_by_gate, pin_by_gate


def _chunks_by_gate(gate: np.ndarray) -> list[np.ndarray]:
    """Entry indices grouped by gate, machine order kept within a group."""
    if not gate.size:
        return []
    order = np.argsort(gate, kind="stable")
    bounds = np.flatnonzero(np.diff(gate[order])) + 1
    return np.split(order, bounds)
