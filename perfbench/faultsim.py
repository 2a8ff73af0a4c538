"""``faultsim_x8``: test development at scale, one fault simulation per op.

The chip is ``make_chip(8)`` (1,720 gates, 7,376 collapsed faults) on the
default engine.  Set-up compiles it and runs one warm-up op; each op is a
``Session.build_program`` on 64 fresh random patterns.  Work unit:
collapsed faults x patterns.
"""

from __future__ import annotations

import hashlib
import statistics

import numpy as np
from common import (
    COUNT_OPS,
    GATEWAY_METRICS,
    Outcome,
    derive_seed,
    gate_evals,
    live_fault_blocks,
    peak_rss_mb,
    run_op_loop,
    time_setups,
)

from repro.api import Session
from repro.atpg.random_gen import random_patterns
from repro.experiments import config
from repro.faults.collapse import equivalence_classes
from repro.faults.model import full_fault_universe

KEY = 2
SCALE = 8
NUM_PATTERNS = 64
SETUP_REPEATS = 3

OFF_PATH = (
    "manufacturing.fabricate_s",
    "manufacturing.us_per_chip",
    "defects.faults_per_chip",
    "tester.test_s",
    "tester.us_per_injected_fault",
    "tester.faulty_chip_share",
    "core.calibrate_s",
    *GATEWAY_METRICS,
)


def curve_digest(programs) -> str:
    """SHA-256 over the universe sizes and coverage curves of ``programs``."""
    digest = hashlib.sha256()
    for program in programs:
        digest.update(str(program.universe_size).encode())
        digest.update(np.ascontiguousarray(program.coverage_curve, "<f8").tobytes())
    return digest.hexdigest()


def run(seed: int, seconds: float, tracer) -> Outcome:
    outcome = Outcome()

    def build(r: int):
        with tracer.span("bench.setup", op=f"setup.{r}"):
            chip = config.make_chip(SCALE)
            session = Session(workers=1)
            patterns = random_patterns(chip, NUM_PATTERNS, seed=derive_seed(seed, KEY, 0))
            with tracer.span("faults.build_program"):
                session.build_program(chip, patterns)
        return chip, session

    chip, session = time_setups(
        SETUP_REPEATS, build, lambda state: state[1].close(), outcome
    )
    setup_stats = session.stats()
    collapsed = len(equivalence_classes(chip))
    universe = len(full_fault_universe(chip))
    first_programs = []

    def prepare(i: int):
        return random_patterns(chip, NUM_PATTERNS, seed=derive_seed(seed, KEY, 1, i))

    def op(patterns):
        with tracer.span("faults.build_program"):
            return session.build_program(chip, patterns)

    def after(i: int, patterns, program) -> None:
        curve = program.coverage_curve
        if not (
            len(curve) == NUM_PATTERNS
            and program.universe_size == universe
            and np.all(np.diff(curve) >= 0)
            and 0.0 <= curve[0]
            and curve[-1] <= 1.0
        ):
            outcome.mismatch(f"op {i}: coverage curve is not a monotone share")
        if i < COUNT_OPS:
            first_programs.append(program)

    run_op_loop(
        seconds,
        prepare,
        op,
        after,
        lambda program: collapsed * len(program),
        tracer,
        outcome,
    )
    outcome.peak_rss_mb = peak_rss_mb()
    if len(first_programs) < COUNT_OPS:
        outcome.mismatch(f"run ended before {COUNT_OPS} ops completed")
    outcome.counts = {
        "curve_digest": curve_digest(first_programs),
        "live_fault_blocks": sum(sum(live_fault_blocks(p)) for p in first_programs),
        "engine_compiles": setup_stats["engine_compiles"],
    }
    if tracer.enabled:
        builds = tracer.named("faults.build_program", "op.")
        evals = sum(gate_evals(p) for p in first_programs) / len(first_programs)
        build_s = statistics.median(s.seconds for s in builds)
        outcome.per_layer = {
            "faults.build_program_s": build_s,
            "simulator.live_fault_blocks": outcome.counts["live_fault_blocks"],
            "simulator.ns_per_gate_eval": build_s / evals * 1e9,
            "api.engine_compiles": setup_stats["engine_compiles"],
            "api.kernel_blocks": sum(
                v for k, v in setup_stats.items() if k.startswith("kernel_blocks_")
            ),
        }
    session.close()
    return outcome
