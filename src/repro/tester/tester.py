"""The wafer tester: apply a program, record the first failing pattern.

Each chip's *actual* multi-fault machine is simulated (all of its stuck-at
faults injected simultaneously), so fault masking between coexisting
faults is physical, not assumed away — the tester sees exactly what a
Sentry saw: output disagreement at some pattern, or a clean pass.

Lot testing is chip-parallel by default (``engine="batch"``): every
still-passing defective chip is one row of a
:class:`~repro.simulator.batch_sim.BatchCompiledCircuit` batch, so one
vectorized pass per 64-pattern block tests the whole lot at once, and
chips drop out of the batch as soon as they fail.  ``engine="compiled"``
keeps the serial chip-at-a-time loop as the word-level reference.

Above the engine sits the process axis: ``workers > 1`` cuts the chip
list into contiguous shards and tests each shard in a worker process
(carrying the pre-compiled circuit, so workers never re-levelize).
Chips are independent machines, so the merged records are bit-identical
to the serial run at every worker count (see :mod:`repro.runtime`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.faults.model import (
    StuckAtFault,
    cached_fault_universe,
    fault_site_lookup,
    materialize_site_faults,
)
from repro.manufacturing.wafer import FabricatedChip
from repro.runtime import (
    ParallelExecutor,
    ShardPlan,
    new_context_token,
    resolve_workers,
)
from repro.simulator import ENGINES
from repro.simulator.batch_sim import BatchCompiledCircuit
from repro.simulator.parallel_sim import CompiledCircuit
from repro.simulator.values import WORD_BITS, first_detecting_bits, pack_patterns
from repro.tester.program import TestProgram

__all__ = ["ChipTestRecord", "WaferTester"]


@dataclass(frozen=True)
class ChipTestRecord:
    """Outcome of testing one chip.

    ``first_fail`` is the 0-based index of the first failing pattern, or
    ``None`` when the chip passed the whole program.
    """

    chip_id: int
    is_good: bool
    first_fail: int | None

    @property
    def passed(self) -> bool:
        return self.first_fail is None

    @property
    def is_test_escape(self) -> bool:
        """A defective chip that passed — the paper's ``Ybg`` event."""
        return self.passed and not self.is_good


def _batched_first_fail(
    batch: BatchCompiledCircuit,
    blocks: Sequence[tuple[dict[str, int], int]],
    chip_ids: Sequence[int],
    fault_lists: Sequence[Sequence[StuckAtFault]],
) -> list[ChipTestRecord]:
    """Chip-parallel first-fail scan: one batch row per still-passing chip.

    The core lot-test loop, shared by the in-process path and the shard
    workers (each worker runs it over its own chip shard).  Chips are
    given as aligned ``(chip_ids, fault_lists)`` so the caller can feed
    either materialized :class:`FabricatedChip` objects or faults
    rehydrated from an SoA wire payload.
    """
    records: dict[int, ChipTestRecord] = {}
    remaining: list[int] = []
    for i, faults in enumerate(fault_lists):
        if faults:
            remaining.append(i)
        else:
            records[i] = ChipTestRecord(
                chip_ids[i], is_good=True, first_fail=None
            )

    offset = 0
    for words, block_len in blocks:
        if not remaining:
            break
        fail_words = batch.detect_words(
            words, [fault_lists[i] for i in remaining]
        )
        still_remaining: list[int] = []
        for i, first_bit in zip(
            remaining, first_detecting_bits(fail_words, block_len)
        ):
            if first_bit is not None:
                records[i] = ChipTestRecord(
                    chip_ids[i],
                    is_good=False,
                    first_fail=offset + first_bit,
                )
            else:
                still_remaining.append(i)
        remaining = still_remaining
        offset += block_len
    for i in remaining:
        records[i] = ChipTestRecord(
            chip_ids[i], is_good=False, first_fail=None
        )
    return [records[i] for i in range(len(chip_ids))]


def _word_level_first_fail(
    compiled: CompiledCircuit,
    blocks: Sequence[tuple[dict[str, int], int]],
    good: Sequence[dict[str, int]],
    chip_id: int,
    faults: Sequence[StuckAtFault],
) -> ChipTestRecord:
    """Serial word-level first-fail scan of one chip's multi-fault machine."""
    stems = []
    pins = []
    for fault in faults:
        if fault.is_branch:
            pins.append((fault.gate, fault.pin, fault.value))
        else:
            stems.append((fault.signal, fault.value))
    if not stems and not pins:
        return ChipTestRecord(chip_id, is_good=True, first_fail=None)

    offset = 0
    for (words, block_len), good_words in zip(blocks, good):
        observed = compiled.simulate(words, stuck_signals=stems, stuck_pins=pins)
        fail_word = 0
        for name, good_word in good_words.items():
            fail_word |= good_word ^ observed[name]
        (first_bit,) = first_detecting_bits([fail_word], block_len)
        if first_bit is not None:
            return ChipTestRecord(
                chip_id, is_good=False, first_fail=offset + first_bit
            )
        offset += block_len
    return ChipTestRecord(chip_id, is_good=False, first_fail=None)


@dataclass(frozen=True)
class _LotShardContext:
    """Per-pool worker context: compiled circuit(s) plus packed blocks.

    Exactly one of ``batch`` / ``compiled`` is set, selecting the engine
    the shard worker replays; both ship pre-compiled arrays so workers
    never re-levelize the netlist.
    """

    blocks: tuple[tuple[dict[str, int], int], ...]
    batch: BatchCompiledCircuit | None = None
    compiled: CompiledCircuit | None = None
    good: tuple[dict[str, int], ...] = ()


@dataclass(frozen=True)
class _SoAChipShard:
    """One chip shard as three flat arrays — the SoA wire payload.

    ``coded_sites`` packs one fault per element as
    ``(universe_index << 1) | polarity`` (``int32``, ~4 bytes per fault
    vs ~hundreds for a pickled :class:`StuckAtFault`); ``fault_offsets``
    is the per-chip CSR into it.  A site index is meaningful only
    relative to the shard context's netlist, whose fault universe the
    worker rehydrates from (deterministic enumeration, so the decoded
    faults are bit-identical to the encoded ones).
    """

    chip_ids: np.ndarray
    fault_offsets: np.ndarray
    coded_sites: np.ndarray


def _pack_soa_shard(netlist, lookup, chips) -> _SoAChipShard | None:
    """Encode one chip shard as a :class:`_SoAChipShard`.

    Array-backed chips laid out against ``netlist`` contribute their
    ``(site, polarity)`` arrays directly; eager chips go fault-by-fault
    through ``lookup`` (:func:`fault_site_lookup`).  Returns ``None``
    when any fault does not belong to ``netlist``'s universe — the
    caller then ships the legacy object payload for the whole lot.
    """
    coded: list[np.ndarray] = []
    counts = np.empty(len(chips) + 1, dtype=np.int64)
    counts[0] = 0
    for k, chip in enumerate(chips):
        arrays = chip.fault_site_arrays(netlist)
        if arrays is not None:
            sites, polarities = arrays
            chip_codes = (
                (sites.astype(np.int32) << np.int32(1))
                | polarities.astype(np.int32)
            ).astype(np.int32)
        else:
            try:
                chip_codes = np.fromiter(
                    (
                        (lookup[fault] << 1) | fault.value
                        for fault in chip.faults
                    ),
                    dtype=np.int32,
                    count=len(chip.faults),
                )
            except KeyError:
                return None
        coded.append(chip_codes)
        counts[k + 1] = chip_codes.size
    return _SoAChipShard(
        chip_ids=np.array([chip.chip_id for chip in chips], dtype=np.int64),
        fault_offsets=np.cumsum(counts),
        coded_sites=(
            np.concatenate(coded) if coded else np.empty(0, dtype=np.int32)
        ),
    )


def _shard_chip_faults(
    context: _LotShardContext, shard
) -> tuple[list[int], list]:
    """Normalize a shard task to aligned ``(chip_ids, fault_lists)``.

    Accepts either the legacy list of :class:`FabricatedChip` objects or
    an :class:`_SoAChipShard`, whose faults are rehydrated through the
    context circuit's cached fault universe.
    """
    if isinstance(shard, _SoAChipShard):
        circuit = context.batch if context.batch is not None else context.compiled
        universe = cached_fault_universe(circuit.netlist)
        offsets = shard.fault_offsets
        site_indices = (shard.coded_sites >> 1).tolist()
        polarities = (shard.coded_sites & 1).tolist()
        fault_lists = [
            materialize_site_faults(
                universe,
                site_indices[offsets[k] : offsets[k + 1]],
                polarities[offsets[k] : offsets[k + 1]],
            )
            for k in range(shard.chip_ids.size)
        ]
        return shard.chip_ids.tolist(), fault_lists
    return [chip.chip_id for chip in shard], [chip.faults for chip in shard]


def _test_lot_shard(context: _LotShardContext, shard) -> list[ChipTestRecord]:
    """Worker: first-fail test one chip shard with the shipped circuit."""
    chip_ids, fault_lists = _shard_chip_faults(context, shard)
    if context.batch is not None:
        return _batched_first_fail(
            context.batch, context.blocks, chip_ids, fault_lists
        )
    return [
        _word_level_first_fail(
            context.compiled, context.blocks, context.good, chip_id, faults
        )
        for chip_id, faults in zip(chip_ids, fault_lists)
    ]


class WaferTester:
    """Applies a :class:`TestProgram` to fabricated chips, first-fail mode."""

    def __init__(
        self,
        program: TestProgram,
        engine: str = "batch",
        workers: int | str = 1,
        executor: ParallelExecutor | None = None,
        batch_circuit: BatchCompiledCircuit | None = None,
        compiled_circuit: CompiledCircuit | None = None,
        payload_format: str = "soa",
    ):
        """``engine="batch"`` tests the lot chip-parallel;
        ``"compiled"``/``"event"`` fall back to the serial chip-at-a-time
        word-level loop.
        ``workers`` shards the chip list over a process pool (``1`` =
        serial, ``"auto"`` = one per CPU) under either engine.
        ``executor`` injects a long-lived pool (a
        :class:`repro.api.Session` owns one): the tester's shard context
        is then shipped to the workers once, keyed by a context token,
        and reused by every subsequent ``test_lot``.  ``batch_circuit`` /
        ``compiled_circuit`` hand the tester circuits something else
        already compiled for this netlist (a session engine cache),
        skipping re-levelization.  ``payload_format`` selects what shard
        tasks carry over the pool pipe: ``"soa"`` (default) ships chips
        as packed ``(site index, polarity)`` arrays rehydrated in the
        worker — bit-identical results, a fraction of the bytes;
        ``"objects"`` ships pickled chip objects (the differential-test
        baseline)."""
        if engine not in ENGINES:
            raise ValueError(
                f"tester engine must be one of "
                f"{', '.join(repr(name) for name in sorted(ENGINES))}, "
                f"got {engine!r}"
            )
        if payload_format not in ("soa", "objects"):
            raise ValueError(
                f"payload_format must be 'soa' or 'objects', "
                f"got {payload_format!r}"
            )
        for circuit in (batch_circuit, compiled_circuit):
            if circuit is not None and circuit.netlist is not program.netlist:
                raise ValueError(
                    f"injected circuit was compiled for netlist "
                    f"{circuit.netlist.name!r}, not {program.netlist.name!r}"
                )
        self.program = program
        self.engine = engine
        self.workers = workers
        self.executor = executor
        self.payload_format = payload_format
        inputs = program.netlist.inputs
        # Pre-pack pattern blocks once.  Both compiled circuits and the
        # good-machine responses are lazy: the batched lot path carries the
        # good machine as row 0 of each batch and never touches the serial
        # word-level circuit, and vice versa.
        self._blocks: list[tuple[dict[str, int], int]] = []
        patterns = program.patterns
        for start in range(0, len(patterns), WORD_BITS):
            block = patterns[start : start + WORD_BITS]
            words = pack_patterns(inputs, block)
            self._blocks.append((words, len(block)))
        self._compiled_circuit: CompiledCircuit | None = compiled_circuit
        self._batch: BatchCompiledCircuit | None = batch_circuit
        self._good: list[dict[str, int]] | None = None
        self._shard_context: _LotShardContext | None = None
        self._context_token = new_context_token()

    @property
    def _compiled(self) -> CompiledCircuit:
        if self._compiled_circuit is None:
            self._compiled_circuit = CompiledCircuit(self.program.netlist)
        return self._compiled_circuit

    def _good_responses(self) -> list[dict[str, int]]:
        if self._good is None:
            self._good = [
                self._compiled.simulate(words) for words, _ in self._blocks
            ]
        return self._good

    def test_chip(self, chip: FabricatedChip) -> ChipTestRecord:
        """Test one chip, stopping at its first failing pattern."""
        return _word_level_first_fail(
            self._compiled,
            self._blocks,
            self._good_responses(),
            chip.chip_id,
            chip.faults,
        )

    def test_lot(
        self,
        chips: Sequence[FabricatedChip],
        workers: int | str | None = None,
    ) -> list[ChipTestRecord]:
        """Test every chip of a lot; records in chip order.

        ``workers`` overrides the constructor setting for this lot; above
        1 the chip list is sharded over a process pool and the merged
        records are bit-identical to the serial run.  With an injected
        ``executor`` (and no explicit ``workers``) the call reuses its
        pool and its worker count; the tester's shard context travels to
        the workers only on the first lot, later lots ship just their
        chip shards.  An explicit ``workers`` always wins, on a one-shot
        pool of that size.
        """
        chips = list(chips)
        # An explicit per-call ``workers`` takes precedence over an
        # injected executor (whose pool is sized once): the override
        # runs on a one-shot pool of exactly that size.
        use_injected = workers is None and self.executor is not None
        if use_injected:
            num_workers = self.executor.num_workers
        else:
            num_workers = resolve_workers(
                self.workers if workers is None else workers
            )
        plan = ShardPlan.balanced(len(chips), num_workers)
        if plan.num_shards > 1:
            context = self._lot_shard_context()
            tasks = self._shard_tasks(plan.split(chips))
            if use_injected:
                return plan.merge(
                    self.executor.map_shards(
                        _test_lot_shard,
                        context,
                        tasks,
                        token=self._context_token,
                    )
                )
            with ParallelExecutor(num_workers) as executor:
                return plan.merge(
                    executor.map_shards(_test_lot_shard, context, tasks)
                )
        if self.engine != "batch":
            return [self.test_chip(chip) for chip in chips]
        return _batched_first_fail(
            self._batch_circuit,
            self._blocks,
            [chip.chip_id for chip in chips],
            [chip.faults for chip in chips],
        )

    def _shard_tasks(self, chip_shards: list[list[FabricatedChip]]) -> list:
        """Encode chip shards for the pool pipe per ``payload_format``.

        ``"soa"`` packs every shard as a :class:`_SoAChipShard`; if any
        chip's faults cannot be mapped into this program's fault
        universe, the whole lot falls back to object shards so results
        never depend on which chips were encodable.
        """
        if self.payload_format != "soa":
            return chip_shards
        netlist = self.program.netlist
        lookup = fault_site_lookup(netlist)
        packed = []
        for shard in chip_shards:
            soa = _pack_soa_shard(netlist, lookup, shard)
            if soa is None:
                return chip_shards
            packed.append(soa)
        return packed

    def _lot_shard_context(self) -> _LotShardContext:
        """The tester's shard context, built once and token-stable.

        Cached so repeated ``test_lot`` calls through a persistent pool
        present the same token with the same content — the executor then
        skips re-shipping the compiled circuit and packed blocks.
        """
        if self._shard_context is None:
            if self.engine == "batch":
                self._shard_context = _LotShardContext(
                    blocks=tuple(self._blocks), batch=self._batch_circuit
                )
            else:
                self._shard_context = _LotShardContext(
                    blocks=tuple(self._blocks),
                    compiled=self._compiled,
                    good=tuple(self._good_responses()),
                )
        return self._shard_context

    @property
    def _batch_circuit(self) -> BatchCompiledCircuit:
        if self._batch is None:
            self._batch = BatchCompiledCircuit(self.program.netlist)
        return self._batch
