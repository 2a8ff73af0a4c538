"""The batch engine's kernel: a flat IR and its NumPy executor.

:mod:`~repro.simulator.kernels.ir` lowers a netlist once into a
levelized :class:`KernelProgram` and carries each call's fault
injections as :class:`InjectionTables`;
:mod:`~repro.simulator.kernels.numpy_exec` runs the program over a
transposed ``uint64`` value matrix.
:class:`~repro.simulator.batch_sim.BatchCompiledCircuit` drives both.
"""

from repro.simulator.kernels.ir import InjectionTables, KernelProgram, lower_program
from repro.simulator.kernels.numpy_exec import execute_numpy

__all__ = [
    "KernelProgram",
    "InjectionTables",
    "lower_program",
    "execute_numpy",
]
