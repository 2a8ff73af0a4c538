"""``lot_pipeline_x1``: the paper's experiment, one 2,000-chip lot per op.

Set-up builds the canonical 96-pattern program (``config.PATTERN_SEED``)
for the canonical chip and runs one warm-up op.  Each op fabricates a
lot at a fresh seed, first-fail tests it, calibrates ``n0`` by least
squares and evaluates the reject fraction at the program's final
coverage.  Work unit: chips.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

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
from spans import NULL_TRACER

from repro.api import Session
from repro.atpg.random_gen import random_patterns
from repro.core.estimation import estimate_n0_least_squares
from repro.core.reject_rate import reject_fraction
from repro.experiments import config

KEY = 1
LOT_CHIPS = 2000
DIES_PER_WAFER = 16
SETUP_REPEATS = 5

OFF_PATH = GATEWAY_METRICS


@dataclass
class _State:
    chip: object
    session: Session
    patterns: list
    program: object


def _pipeline(session, chip, recipe, program, lot_seed, tracer):
    with tracer.span("manufacturing.fabricate"):
        lot = session.fabricate(
            chip, recipe, LOT_CHIPS, dies_per_wafer=DIES_PER_WAFER, seed=lot_seed
        )
    with tracer.span("tester.test"):
        result = session.test(lot, program)
    with tracer.span("core.calibrate"):
        yield_ = lot.empirical_yield()
        n0 = estimate_n0_least_squares(result.coverage_points(), yield_)
        reject = reject_fraction(program.final_coverage, yield_, n0)
    return lot, result, n0, reject


def run(seed: int, seconds: float, tracer) -> Outcome:
    outcome = Outcome()
    recipe = config.make_recipe()

    def build(r: int) -> _State:
        with tracer.span("bench.setup", op=f"setup.{r}"):
            chip = config.make_chip()
            session = Session(workers=1)
            patterns = random_patterns(
                chip, config.NUM_PATTERNS, seed=config.PATTERN_SEED
            )
            with tracer.span("faults.build_program"):
                program = session.build_program(chip, patterns)
            _pipeline(session, chip, recipe, program, derive_seed(seed, KEY, 1), tracer)
        return _State(chip, session, patterns, program)

    state = time_setups(SETUP_REPEATS, build, lambda s: s.session.close(), outcome)
    setup_stats = state.session.stats()

    sample_index = derive_seed(seed, KEY, 2) % COUNT_OPS
    sample = {}
    totals = {"chips": 0, "injected": 0}
    first = {"chips": 0, "injected": 0, "faulty": 0}

    def prepare(i: int) -> int:
        return derive_seed(seed, KEY, 3, i)

    def op(lot_seed: int):
        return _pipeline(
            state.session, state.chip, recipe, state.program, lot_seed, tracer
        )

    def after(i: int, lot_seed: int, output) -> None:
        lot, result, n0, reject = output
        if not (math.isfinite(n0) and 0.0 <= reject <= 1.0):
            outcome.mismatch(f"op {i}: n0={n0} reject={reject} out of range")
        if i == sample_index:
            sample.update(seed=lot_seed, lot=lot, result=result, n0=n0, reject=reject)
        faults = lot.fault_counts()
        totals["chips"] += len(lot)
        totals["injected"] += int(faults.sum())
        if i < COUNT_OPS:
            first["chips"] += len(lot)
            first["injected"] += int(faults.sum())
            first["faulty"] += int((faults > 0).sum())

    run_op_loop(
        seconds, prepare, op, after, lambda output: len(output[0]), tracer, outcome
    )
    outcome.peak_rss_mb = peak_rss_mb()
    if not sample:
        outcome.mismatch(f"run ended before op {sample_index}; nothing to check")
    else:
        _check(state, recipe, sample, outcome)

    blocks = live_fault_blocks(state.program)
    outcome.counts = {
        "chips": first["chips"],
        "injected_faults": first["injected"],
        "live_fault_blocks": sum(blocks),
        "engine_compiles": setup_stats["engine_compiles"],
    }
    if tracer.enabled:
        fab = [s.seconds for s in tracer.named("manufacturing.fabricate", "op.")]
        test = [s.seconds for s in tracer.named("tester.test", "op.")]
        calibrate = [s.seconds for s in tracer.named("core.calibrate", "op.")]
        build_s = statistics.median(
            s.seconds for s in tracer.named("faults.build_program", "setup.")
        )
        outcome.per_layer = {
            "manufacturing.fabricate_s": statistics.median(fab),
            "manufacturing.us_per_chip": sum(fab) / totals["chips"] * 1e6,
            "defects.faults_per_chip": first["injected"] / first["chips"],
            "tester.test_s": statistics.median(test),
            "tester.us_per_injected_fault": sum(test) / totals["injected"] * 1e6,
            "tester.faulty_chip_share": first["faulty"] / first["chips"],
            "core.calibrate_s": statistics.median(calibrate),
            "faults.build_program_s": build_s,
            "simulator.live_fault_blocks": sum(blocks),
            "simulator.ns_per_gate_eval": build_s / gate_evals(state.program) * 1e9,
            "api.engine_compiles": setup_stats["engine_compiles"],
            "api.kernel_blocks": sum(
                v for k, v in setup_stats.items() if k.startswith("kernel_blocks_")
            ),
        }
    state.session.close()
    return outcome


def _check(state: _State, recipe, sample: dict, outcome: Outcome) -> None:
    """Re-run the sampled op on the ``compiled`` engine and compare."""
    with Session(engine="compiled", workers=1) as ref:
        program = ref.build_program(state.chip, state.patterns)
        if not (
            program.universe_size == state.program.universe_size
            and (program.coverage_curve == state.program.coverage_curve).all()
        ):
            outcome.mismatch("program coverage curve differs from the compiled engine")
        lot, result, n0, reject = _pipeline(
            ref, state.chip, recipe, program, sample["seed"], NULL_TRACER
        )
    if lot.chips != sample["lot"].chips:
        outcome.mismatch("sampled lot differs from a second fabrication")
    if result.records != sample["result"].records:
        outcome.mismatch("sampled test records differ from the compiled engine")
    if (n0, reject) != (sample["n0"], sample["reject"]):
        outcome.mismatch(
            f"sampled calibration differs: n0 {sample['n0']} vs {n0}, "
            f"reject {sample['reject']} vs {reject}"
        )
