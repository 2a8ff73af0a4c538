"""Fault-parallel batched simulation on NumPy ``uint64`` arrays.

The classical parallel-pattern trick packs 64 patterns into one machine
word; this module adds the orthogonal axis and evaluates a whole *batch of
machines* simultaneously.  The netlist is lowered once into a flat,
levelized :class:`~repro.simulator.kernels.ir.KernelProgram`; a batch run
then holds signal values in a matrix with one column per machine, where

* **machine 0 is the good machine**, and
* **each other machine carries one injected fault set** — a single
  stuck-at fault for the fault simulator, or a defective chip's whole
  multi-fault set for the wafer tester.

Each gate is evaluated exactly once per 64-pattern block for *all*
machines via vectorized bitwise ops
(:func:`~repro.simulator.kernels.numpy_exec.execute_numpy`), so the
per-fault cost collapses from a full Python resimulation to one lane of
a NumPy reduction.  Fault injection follows the same semantics as
:class:`~repro.simulator.parallel_sim.CompiledCircuit`:

* **stem faults** force the signal's word *after* its driver evaluates
  (primary-input stems are forced at load time);
* **pin faults** force one input pin of one sink gate only — an
  override on the gathered operands before reduction, which is what
  makes fanout-branch faults distinct sites.

Each distinct fault is validated and resolved to an injection record
once per circuit; a block only appends those records' integers into
flat :class:`~repro.simulator.kernels.ir.InjectionTables`.

Detection is a gather of the primary outputs: XOR every faulty machine
against the good one and OR-reduce across outputs, yielding one 64-bit
detect word per machine.
"""

from __future__ import annotations

import threading
from typing import Mapping, Sequence

import numpy as np

from repro.circuit.gates import WORD_MASK
from repro.circuit.netlist import Netlist
from repro.simulator.kernels.ir import InjectionTables, lower_program
from repro.simulator.kernels.numpy_exec import execute_numpy
from repro.simulator.sites import validate_fault_site

__all__ = ["BatchCompiledCircuit", "BatchEngine", "kernel_blocks"]

_U64 = np.uint64
_ZERO = _U64(0)
_ONES = _U64(WORD_MASK)

# Fault-record kinds (first element of a cached record tuple).
_REC_PI = 0  # (col, unused, word): primary-input stem, forced at load
_REC_STEM = 1  # (gate_pos, unused, word): forced after the gate evaluates
_REC_PIN = 2  # (gate_pos, pin, word): operand override before reduction

# 64-pattern blocks executed in this process.  Process-global, like the
# chaos injection counter: Session.stats() reports it as
# ``kernel_blocks_numpy``.  Gateway lanes run blocks on several threads,
# so the increment takes a lock.
_blocks_executed = 0
_blocks_lock = threading.Lock()


def kernel_blocks() -> int:
    """Blocks every :class:`BatchCompiledCircuit` in this process has
    evaluated (``run_batch`` and ``detect_words`` calls alike)."""
    return _blocks_executed


class BatchCompiledCircuit:
    """A netlist compiled for fault-parallel, pattern-parallel evaluation.

    One instance is reusable across blocks and machine batches; only the
    value matrix and the injection tables are rebuilt per call.
    """

    def __init__(self, netlist: Netlist):
        netlist.validate()
        self.netlist = netlist
        order = netlist.topological_order()
        self._index: dict[str, int] = {name: i for i, name in enumerate(order)}
        self.program = lower_program(netlist, self._index)
        # fault -> (kind, a, b, word); see _REC_* above.
        self._records: dict = {}

    @property
    def num_signals(self) -> int:
        return self.program.num_signals

    def signal_index(self, name: str) -> int:
        """Index of a signal in a value matrix column."""
        return self._index[name]

    # --------------------------------------------------------- fault records

    def _fault_record(self, fault) -> tuple[int, int, int, np.uint64]:
        rec = self._records.get(fault)
        if rec is None:
            validate_fault_site(self.netlist, fault)
            word = _ONES if fault.value else _ZERO
            if fault.is_branch:
                pos = int(self.program.gate_pos[self._index[fault.gate]])
                rec = (_REC_PIN, pos, fault.pin, word)
            else:
                col = self._index[fault.signal]
                pos = int(self.program.gate_pos[col])
                if pos < 0:
                    rec = (_REC_PI, col, 0, word)
                else:
                    rec = (_REC_STEM, pos, 0, word)
            self._records[fault] = rec
        return rec

    def _build_tables(self, machines: Sequence[Sequence]) -> InjectionTables:
        """Turn per-machine fault sets into one call's injection tables.

        Machines are any sequences of hashable objects with the
        :class:`~repro.faults.model.StuckAtFault` site attributes
        (``signal``, ``value``, ``is_branch``, ``gate``, ``pin``).
        """
        pi = ([], [], [])
        stems = ([], [], [])
        pins = ([], [], [], [])
        record = self._fault_record
        for row, machine in enumerate(machines, start=1):
            for fault in machine:
                kind, a, b, word = record(fault)
                if kind == _REC_STEM:
                    stems[0].append(row)
                    stems[1].append(a)
                    stems[2].append(word)
                elif kind == _REC_PIN:
                    pins[0].append(row)
                    pins[1].append(a)
                    pins[2].append(b)
                    pins[3].append(word)
                else:
                    pi[0].append(row)
                    pi[1].append(a)
                    pi[2].append(word)
        return InjectionTables(pi, stems, pins)

    # ------------------------------------------------------------ evaluation

    def _evaluate(
        self,
        input_words: Mapping[str, int],
        machines: Sequence[Sequence],
    ) -> np.ndarray:
        """The transposed ``(num_signals, len(machines) + 1)`` value
        matrix of one block."""
        global _blocks_executed
        tables = self._build_tables(machines)
        program = self.program
        # Every row is either an input (filled here) or a gate output
        # (written by its gate in schedule order), so empty is safe.
        values_t = np.empty((program.num_signals, len(machines) + 1), dtype=_U64)
        for name, col in zip(program.input_names, program.input_cols):
            try:
                word = input_words[name]
            except KeyError:
                raise ValueError(f"missing input word for {name!r}") from None
            values_t[col] = _U64(word & WORD_MASK)
        if tables.pi_row.size:
            values_t[tables.pi_col, tables.pi_row] = tables.pi_word
        execute_numpy(program, values_t, tables)
        with _blocks_lock:
            _blocks_executed += 1
        return values_t

    def run_batch(
        self,
        input_words: Mapping[str, int],
        machines: Sequence[Sequence],
    ) -> np.ndarray:
        """Evaluate row 0 (good) plus one row per machine in ``machines``.

        ``input_words`` is one packed 64-pattern word per primary input, as
        produced by :func:`~repro.simulator.values.pack_patterns`.  Each
        machine is a sequence of stuck-at faults injected *simultaneously*
        into that machine's row.  Returns the full ``(len(machines) + 1,
        num_signals)`` value matrix.
        """
        return self._evaluate(input_words, machines).T

    def detect_words(
        self,
        input_words: Mapping[str, int],
        machines: Sequence[Sequence],
    ) -> np.ndarray:
        """One 64-bit detect word per machine: bit ``k`` set iff pattern
        ``k`` of the block distinguishes that machine from the good one at
        some primary output."""
        outputs = self._evaluate(input_words, machines)[self.program.output_cols]
        return np.bitwise_or.reduce(outputs[:, 1:] ^ outputs[:, :1], axis=0)

    def output_words(self, values: np.ndarray, row: int = 0) -> dict[str, int]:
        """Extract ``{output_name: word}`` for one row of a value matrix."""
        return {
            name: int(values[row, idx])
            for name, idx in zip(self.netlist.outputs, self.program.output_cols)
        }

    # --------------------------------------------------------------- pickling

    def __getstate__(self):
        # Ship the netlist and the IR, not the record cache: records
        # rebuild lazily (and revalidate) in the receiving process.
        state = self.__dict__.copy()
        state["_records"] = {}
        return state


class BatchEngine:
    """Fault-parallel block engine: all faults in one vectorized pass.

    Satisfies the :class:`~repro.simulator.Engine` protocol; each fault
    becomes one single-fault machine row of a
    :class:`BatchCompiledCircuit` batch.
    """

    name = "batch"

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self.batch = BatchCompiledCircuit(netlist)

    def detect_block(
        self,
        input_words: Mapping[str, int],
        num_patterns: int,
        faults: Sequence,
    ) -> list[int]:
        if not faults:
            return []
        words = self.batch.detect_words(
            input_words, [(fault,) for fault in faults]
        )
        return [int(w) for w in words]
