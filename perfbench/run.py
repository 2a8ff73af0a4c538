"""Benchmark of the fab -> test -> calibrate path and its served form.

Usage, from the root of a checkout::

    python3 perfbench/run.py                      # every workload, untraced and traced
    python3 perfbench/run.py --workload lot_pipeline_x1 --seed 3 --seconds 20 --trace 0

With ``--workload`` naming one workload the run prints its metrics, one per
line with its unit, and as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  ``--workload all`` (the default) runs every workload in a
fresh process, untraced and then traced, and prints both side by side
with the tracing overhead.  ``perfbench/README.md`` explains the choices.

The program is imported from the checkout's own ``src``; without it the
run exits with status 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import importlib
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
DEFAULT_SEED = 0

WORKLOADS = {
    "lot_pipeline_x1": "lot_pipeline",
    "faultsim_x8": "faultsim",
    "gateway_mixed": "gateway_mixed",
}


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def _check_counts(workload: str, seed: int, counts: dict, outcome) -> None:
    """Count-type results must repeat exactly for a seed.

    They are compared with ``reference.json`` for the default seed and
    with the counts an earlier run of the same seed left in the checkout.
    A difference means the input generator changed, not the program.
    """
    expected = []
    if seed == DEFAULT_SEED:
        with open(HERE / "reference.json") as f:
            expected.append(("reference.json", json.load(f)[workload]))
    store = OUT_DIR / "counts" / f"{workload}-{seed}.json"
    if store.exists():
        with open(store) as f:
            expected.append(("an earlier run", json.load(f)))
    else:
        store.parent.mkdir(parents=True, exist_ok=True)
        with open(store, "w") as f:
            json.dump(counts, f, sort_keys=True)
    for source, reference in expected:
        for key in sorted(set(reference) | set(counts)):
            if reference.get(key) != counts.get(key):
                outcome.mismatch(
                    f"count {key} is {counts.get(key)!r}, {source} has {reference.get(key)!r}"
                )


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path.insert(0, str(HERE))
    from spans import NULL_TRACER, Tracer, layer_self_times

    module = importlib.import_module(WORKLOADS[workload])
    spec = _spec()
    tracer = Tracer() if trace else NULL_TRACER
    outcome = module.run(seed, seconds, tracer)
    _check_counts(workload, seed, outcome.counts, outcome)

    end_to_end = outcome.end_to_end()
    if trace:
        values = dict(outcome.per_layer)
        values["trace.work_per_s"] = end_to_end["work_per_s"]
        values.update({name: 0.0 for name in module.OFF_PATH})
        declared = spec["per_layer"]
    else:
        values = end_to_end
        declared = spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"{workload} did not measure {missing}")
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in declared
    }

    print(
        f"{workload} seed={seed} seconds={seconds:g} trace={int(trace)}: "
        f"{outcome.attempted} ops, {outcome.failed} failed, "
        f"{len(outcome.latencies_s)} latency samples"
    )
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:14.6g} {metric['unit']}")
    for message in outcome.mismatches:
        print(f"  MISMATCH: {message}")
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{workload}-{seed}.json"
        tracer.write(spans_path)
        self_times = layer_self_times(tracer.spans)
        total = sum(self_times.values())
        print(f"  self time by layer ({len(tracer.spans)} spans in {spans_path.name}):")
        for layer, secs in sorted(self_times.items(), key=lambda kv: -kv[1]):
            print(f"    {layer:14s} {secs:10.4f} s {secs / total:7.1%}")
    result = {
        "correct": not outcome.mismatches,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload in a fresh process, untraced then traced."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    overheads = []
    for workload in WORKLOADS:
        results = []
        for trace in (0, 1):
            argv = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace),
            ]
            child = subprocess.run(argv, capture_output=True, text=True, timeout=600)
            sys.stdout.write(child.stdout)
            sys.stderr.write(child.stderr)
            if child.returncode != 0:
                print(
                    f"{workload} (trace {trace}) exited with {child.returncode}",
                    file=sys.stderr,
                )
                return child.returncode
            results.append(json.loads(child.stdout.strip().splitlines()[-1]))
        untraced, traced = results
        plain = untraced["metrics"]["work_per_s"]["value"]
        with_trace = traced["metrics"]["trace.work_per_s"]["value"]
        overheads.append((workload, plain, with_trace))
        for result in results:
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
        for name, metric in {**untraced["metrics"], **traced["metrics"]}.items():
            summary["metrics"][f"{workload}.{name}"] = metric
    print("tracing overhead (work_per_s untraced -> traced):")
    for workload, plain, with_trace in overheads:
        change = with_trace / plain - 1
        print(f"  {workload:16s} {plain:12.6g} -> {with_trace:12.6g} ({change:+.1%})")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {src / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    seconds = args.seconds if args.seconds is not None else _spec()["run_seconds"]
    if args.workload == "all":
        return run_all(args.seed, seconds)
    return run_one(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
