"""Tests for the kernel IR (`repro.simulator.kernels`) behind ``batch``.

The ``batch`` engine lowers a netlist once into a levelized
:class:`~repro.simulator.kernels.ir.KernelProgram` and runs it with the
NumPy executor.  Covered here: the lowering itself, the engine registry
(exactly ``batch | compiled | event``; retired names fail loudly at
every entry point), the process-global block counter, IR-only pickling,
and a random-netlist differential sweep at 1 and 2 workers.  Full value
matrices are pinned against the word-level ``CompiledCircuit`` in
``tests/test_batch_sim.py::TestBatchCompiledCircuit``.
"""

import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Session
from repro.atpg.random_gen import random_patterns
from repro.circuit.gates import GateType
from repro.circuit.generators import c17, random_circuit
from repro.circuit.netlist import Netlist
from repro.experiments import config
from repro.experiments.runner import main as runner_main
from repro.faults.fault_sim import FaultSimulator
from repro.faults.model import StuckAtFault, full_fault_universe
from repro.simulator import (
    BatchCompiledCircuit,
    ENGINES,
    make_engine,
)
from repro.simulator.batch_sim import kernel_blocks
from repro.simulator.kernels import KernelProgram
from repro.simulator.values import pack_patterns


def fanout_net():
    net = Netlist("fan")
    for s in ("a", "b", "c"):
        net.add_input(s)
    net.add_gate("z1", GateType.AND, ["a", "b"])
    net.add_gate("z2", GateType.AND, ["a", "c"])
    net.set_outputs(["z1", "z2"])
    return net


def _words(net, n=64, seed=1):
    return pack_patterns(net.inputs, random_patterns(net, n, seed=seed))


class TestLowering:
    def test_schedule_is_topological(self):
        """Every operand column is produced strictly before its gate."""
        program = BatchCompiledCircuit(c17()).program
        produced_at = {int(c): g for g, c in enumerate(program.out_cols)}
        for g in range(program.num_gates):
            for col in program.op_idx[program.op_ptr[g] : program.op_ptr[g + 1]]:
                pos = produced_at.get(int(col))
                assert pos is None or pos < g  # None = primary input

    def test_levels_are_grouped_and_monotone(self):
        net = random_circuit(5, 25, 3, seed=3)
        circuit = BatchCompiledCircuit(net)
        program = circuit.program
        levels = net.levels()
        gate_levels = [
            levels[name]
            for name in net.topological_order()
            if net.gate(name).gate_type is not GateType.INPUT
        ]
        col_names = {idx: name for name, idx in circuit._index.items()}
        sched_levels = [levels[col_names[int(c)]] for c in program.out_cols]
        assert sched_levels == sorted(gate_levels)

    def test_gate_pos_maps_outputs_and_pis(self):
        net = fanout_net()
        circuit = BatchCompiledCircuit(net)
        program = circuit.program
        for name in ("a", "b", "c"):
            assert program.gate_pos[circuit.signal_index(name)] == -1
        for name in ("z1", "z2"):
            pos = int(program.gate_pos[circuit.signal_index(name)])
            assert int(program.out_cols[pos]) == circuit.signal_index(name)

    def test_lower_program_empty_circuit(self):
        net = Netlist("wires")
        net.add_input("a")
        net.add_gate("z", GateType.BUF, ["a"])
        net.set_outputs(["z"])
        program = BatchCompiledCircuit(net).program
        assert program.num_gates == 1
        assert program.max_fanin == 1


class TestEngineRegistry:
    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValueError, match="choose from") as exc:
            make_engine(c17(), "batch-fpga")
        for name in sorted(ENGINES):
            assert name in str(exc.value)

    def test_engine_exposes_kernel_circuit(self):
        engine = make_engine(c17(), "batch")
        assert isinstance(engine.batch, BatchCompiledCircuit)
        assert isinstance(engine.batch.program, KernelProgram)

    @pytest.mark.parametrize("name", ["batch-jit", "batch-gpu", "auto"])
    def test_removed_names_fail_loudly(self, name):
        """Retired engine names are errors at every entry point, never a
        silent fallback."""
        assert set(ENGINES) == {"batch", "compiled", "event"}
        choices = r"\['batch', 'compiled', 'event'\]"
        with pytest.raises(ValueError, match=choices):
            make_engine(c17(), name)
        with pytest.raises(ValueError, match=choices):
            Session(engine=name)
        with pytest.raises(ValueError, match=choices):
            FaultSimulator(c17(), engine=name)
        with pytest.raises(SystemExit) as exc:
            runner_main(["--engine", name, "fig1"])
        assert exc.value.code == 2


class TestKernelBlockCounter:
    """``kernel_blocks_numpy`` counts every block the batch engine runs."""

    def test_backend_blocks_counted(self):
        net = c17()
        before = kernel_blocks()
        make_engine(net, "batch").detect_block(
            _words(net), 64, full_fault_universe(net)
        )
        assert kernel_blocks() == before + 1

    def test_concurrent_blocks_all_counted(self):
        """More threads than cores, a short switch interval: a lost
        update of the shared counter would show as a short count."""
        net = c17()
        circuit = BatchCompiledCircuit(net)
        words = _words(net)
        machines = [(f,) for f in full_fault_universe(net)]
        threads, rounds = 8, 50
        before = kernel_blocks()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(
                    target=lambda: [
                        circuit.detect_words(words, machines)
                        for _ in range(rounds)
                    ]
                )
                for _ in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert kernel_blocks() == before + threads * rounds

    def test_session_stats_expose_kernel_counters(self):
        """The default session counts blocks for program builds and lot
        tests alike; the retired per-backend keys are gone."""
        chip = config.make_chip()
        with Session(workers=1) as session:
            stats = session.stats()
            assert "kernel_blocks_jit" not in stats
            assert "kernel_blocks_gpu" not in stats
            start = stats["kernel_blocks_numpy"]
            program = session.build_program(
                chip, random_patterns(chip, 64, seed=3)
            )
            built = session.stats()["kernel_blocks_numpy"]
            assert built >= start + 1
            lot = session.fabricate(chip, config.make_recipe(), 50, seed=4)
            session.test(lot, program)
            assert session.stats()["kernel_blocks_numpy"] >= built + 1


class TestPickling:
    """The batch engine ships only the netlist and IR to pool workers."""

    def test_round_trip_is_bit_identical(self):
        net = random_circuit(5, 20, 3, seed=31)
        faults = full_fault_universe(net)
        words = _words(net, seed=8)
        engine = make_engine(net, "batch")
        base = engine.detect_block(words, 64, faults)
        clone = pickle.loads(pickle.dumps(engine))
        assert clone.detect_block(words, 64, faults) == base

    def test_record_cache_not_shipped(self):
        net = c17()
        circuit = BatchCompiledCircuit(net)
        circuit.detect_words(_words(net), [(f,) for f in full_fault_universe(net)])
        assert circuit._records  # warm
        clone = pickle.loads(pickle.dumps(circuit))
        assert clone._records == {}
        assert np.array_equal(clone.program.op_idx, circuit.program.op_idx)
        # Records rebuild in the receiving process, validation included.
        with pytest.raises(ValueError, match="no signal"):
            clone.detect_words(_words(net), [(StuckAtFault("nope", 1),)])


class TestDifferentialAllBackends:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=6, deadline=None)
    def test_random_netlists_bit_identical(self, seed):
        """Every engine produces bit-identical detect words on random
        netlists with branch faults, at workers=1 and workers=2 (the pool
        round-trip exercises the IR-only pickling path)."""
        net = random_circuit(5, 18, 3, seed=seed)
        universe = full_fault_universe(net)
        assert any(f.is_branch for f in universe)
        patterns = random_patterns(net, 96, seed=seed + 1)
        reference = FaultSimulator(net, engine="compiled").run(
            patterns, faults=universe
        )
        for name in sorted(ENGINES):
            for workers in (1, 2):
                result = FaultSimulator(
                    net, engine=name, workers=workers
                ).run(patterns, faults=universe)
                assert (
                    result.first_detect == reference.first_detect
                ), (name, workers)
                assert np.array_equal(
                    result.coverage_curve(), reference.coverage_curve()
                ), (name, workers)
