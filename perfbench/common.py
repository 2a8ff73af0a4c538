"""Helpers shared by the workloads: seeds, percentiles, memory, the op loop."""

from __future__ import annotations

import gc
import math
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.simulator.values import WORD_BITS

__all__ = [
    "COUNT_OPS",
    "GATEWAY_METRICS",
    "Outcome",
    "derive_seed",
    "gate_evals",
    "live_fault_blocks",
    "nearest_rank",
    "peak_rss_mb",
    "report_exception",
    "run_op_loop",
    "time_setups",
]

# Count-type metrics of the in-process workloads are taken over the first
# COUNT_OPS ops of a run, a prefix every run completes, so they repeat
# exactly for a seed however many ops the run fits in.
COUNT_OPS = 4

# Per-layer metrics of the serving tier, which only gateway_mixed has on
# its path; the other workloads report them as 0.
GATEWAY_METRICS = (
    *(f"gateway.route_p50_ms.{route}" for route in ("lots", "test", "programs")),
    *(f"gateway.response_bytes.{route}" for route in ("lots", "test", "programs")),
    "gateway.codec_ms",
    "gateway.compute_ms",
    "gateway.overhead_share",
    "gateway.queue_depth_max",
    "gateway.retries",
    "gateway.overload_rejections",
)


def derive_seed(seed: int, *keys: int) -> int:
    """A 32-bit seed for one input stream, derived from the run's seed."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def nearest_rank(values, q: float) -> float:
    """The ``q``-quantile by nearest rank; failed ops count as ``inf``."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def live_fault_blocks(program) -> list[int]:
    """Faults still undetected entering each 64-pattern block.

    Read off the coverage curve, so they count the full fault universe.
    The simulator drops detected faults between blocks and simulates one
    fault per equivalence class, so its rows are fewer but move with these.
    """
    curve, universe = program.coverage_curve, program.universe_size
    return [universe] + [
        universe - round(float(curve[end - 1]) * universe)
        for end in range(WORD_BITS, len(curve), WORD_BITS)
    ]


def gate_evals(program) -> int:
    """Gate evaluations a build does: gates x (live rows + 1) per block."""
    return program.netlist.num_gates * sum(
        live + 1 for live in live_fault_blocks(program)
    )


def report_exception(what: str) -> None:
    print(f"perfbench: {what} failed:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


@dataclass
class Outcome:
    """What one run measured, before it becomes the result line."""

    attempted: int = 0
    failed: int = 0
    mismatches: list[str] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    latencies_s: list[float] = field(default_factory=list)
    work: float = 0.0
    elapsed_s: float = 0.0
    peak_rss_mb: float = 0.0
    per_layer: dict[str, float] = field(default_factory=dict)
    counts: dict[str, Any] = field(default_factory=dict)

    def mismatch(self, message: str) -> None:
        """An output that disagrees with its reference fails its op."""
        self.mismatches.append(message)
        self.failed += 1

    def end_to_end(self) -> dict[str, float]:
        return {
            "setup_s": statistics.median(self.setup_s),
            "work_per_s": self.work / self.elapsed_s,
            "op_p50_ms": nearest_rank(self.latencies_s, 0.5) * 1e3,
            "op_p90_ms": nearest_rank(self.latencies_s, 0.9) * 1e3,
            "peak_rss_mb": self.peak_rss_mb,
        }


def time_setups(
    repeats: int,
    build: Callable[[int], Any],
    close: Callable[[Any], None],
    outcome: Outcome,
):
    """Run ``build`` ``repeats`` times, timing each; return the last result.

    Each earlier state is closed and collected before the next build, so
    every set-up starts from the same cold program caches.
    """
    state = None
    for r in range(repeats):
        if state is not None:
            close(state)
            state = None
        gc.collect()
        start = time.perf_counter()
        state = build(r)
        outcome.setup_s.append(time.perf_counter() - start)
    return state


def run_op_loop(
    seconds: float,
    prepare: Callable[[int], Any],
    op: Callable[[Any], Any],
    after: Callable[[int, Any, Any], None],
    work: Callable[[Any], float],
    tracer,
    outcome: Outcome,
) -> None:
    """Closed loop of single ops for ``seconds`` of wall time.

    ``prepare`` makes op ``i``'s inputs and ``after`` checks and records
    its outputs; both run outside the timed region, as does the
    ``gc.collect`` before each op.  Throughput is total work over the
    summed op time.
    """
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        inputs = prepare(i)
        gc.collect()
        outcome.attempted += 1
        with tracer.span("bench.op", op=f"op.{i}"):
            start = time.perf_counter()
            try:
                result = op(inputs)
            except Exception:
                result = None
                report_exception(f"op {i}")
            elapsed = time.perf_counter() - start
        outcome.elapsed_s += elapsed
        if result is None:
            outcome.failed += 1
            outcome.latencies_s.append(math.inf)
        else:
            outcome.latencies_s.append(elapsed)
            outcome.work += work(result)
            after(i, inputs, result)
        i += 1
