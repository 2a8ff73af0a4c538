"""``gateway_mixed``: served traffic through a ``repro-gateway`` child.

The gateway runs as ``python -m repro.gateway --workers 1
--max-sessions 2``.  This process drives it in a closed loop from one
``AsyncClient`` connection per CPU, at most two, because every caller of
this tier waits for its reply.  Each connection alternates the netlists
``canonical_x1`` and ``simple_alu(4)``: it fabricates a 200-chip lot,
tests it against its current program for that netlist, and every tenth
op builds a new program on 32 fresh patterns, which later tests use.
Work unit: completed calls.

Set-up (timed) connects, builds each connection's first program per
netlist and runs one warm-up fabricate+test per netlist; the gateway's
spawn-to-announce time is not part of it.  A call that is refused,
overloaded, timed out or retried to failure counts as failed, with an
infinite latency.
"""

from __future__ import annotations

import asyncio
import gc
import math
import os
import statistics
import time
from dataclasses import dataclass, field

from common import (
    Outcome,
    derive_seed,
    gate_evals,
    live_fault_blocks,
    nearest_rank,
    peak_rss_mb,
    report_exception,
)
from spans import NULL_TRACER

from repro.api import Session
from repro.atpg.random_gen import random_patterns
from repro.circuit.generators import simple_alu
from repro.experiments import config
from repro.gateway import AsyncClient, codec
from repro.testing import spawn_server

KEY = 3
CONNECTIONS = min(2, len(os.sched_getaffinity(0)))
LOT_CHIPS = 200
DIES_PER_WAFER = 16
BUILD_PATTERNS = 32
BUILD_EVERY = 10
SETUP_REPEATS = 3
# Ops per connection whose counts, codec and compute times are recorded:
# enough to hold two program builds, and a prefix every run completes.
PREFIX_OPS = 2 * BUILD_EVERY
ROUTES = ("lots", "test", "programs")

OFF_PATH = ("core.calibrate_s",)


def _route(path: str) -> str | None:
    if path == "/v1/lots":
        return "lots"
    if path == "/v1/programs":
        return "programs"
    if path.startswith("/v1/lots/") and path.endswith("/test"):
        return "test"
    return None


class _MeteredClient(AsyncClient):
    """An ``AsyncClient`` that keeps the body size of each route's last reply.

    The handle ids in a reply are subtracted: their digits depend on how
    the two connections interleave, not on the inputs.  The raw body is
    only visible below ``request``, hence the ``_send_once`` override.
    """

    def __init__(self, url: str):
        super().__init__(url, timeout=60.0)
        self.body_bytes: dict[str, int] = {}
        self._last_body = 0

    async def _send_once(self, method, path, body, rid):
        response = await super()._send_once(method, path, body, rid)
        self._last_body = len(response.body)
        return response

    async def request(self, method: str, path: str, payload: dict | None = None) -> dict:
        result = await super().request(method, path, payload)
        route = _route(path)
        if route is not None:
            handles = sum(
                len(v) for k, v in result.items() if k.endswith("_id") and isinstance(v, str)
            )
            self.body_bytes[route] = self._last_body - handles
        return result


@dataclass
class _Call:
    route: str
    netlist: object
    seed: int = 0
    patterns: list | None = None
    lot: object = None
    program: tuple | None = None  # (program, patterns)


@dataclass
class _Connection:
    """One connection's deterministic op stream and the state it carries."""

    index: int
    client: _MeteredClient
    seed: int
    netlists: tuple
    recipe: object
    programs: dict = field(default_factory=dict)  # netlist name -> (program, patterns)
    lots: dict = field(default_factory=dict)  # netlist name -> last served lot
    prefix: list = field(default_factory=list)  # (call, output, latency, bytes)

    def call_for(self, k: int) -> _Call:
        if k % BUILD_EVERY == BUILD_EVERY - 1:
            netlist = self.netlists[(k // BUILD_EVERY) % 2]
            seed = derive_seed(self.seed, KEY, 2, self.index, k)
            patterns = random_patterns(netlist, BUILD_PATTERNS, seed=seed)
            return _Call("programs", netlist, patterns=patterns)
        j = k - k // BUILD_EVERY
        netlist = self.netlists[(j // 2) % 2]
        if j % 2 == 0:
            return _Call("lots", netlist, seed=derive_seed(self.seed, KEY, 2, self.index, k))
        return _Call(
            "test",
            netlist,
            lot=self.lots.get(netlist.name),
            program=self.programs[netlist.name],
        )

    async def execute(self, call: _Call):
        if call.route == "lots":
            lot = await self.client.fabricate(
                call.netlist,
                self.recipe,
                LOT_CHIPS,
                dies_per_wafer=DIES_PER_WAFER,
                seed=call.seed,
            )
            self.lots[call.netlist.name] = lot
            return lot
        if call.route == "programs":
            program = await self.client.build_program(call.netlist, call.patterns)
            self.programs[call.netlist.name] = (program, call.patterns)
            return program
        # Each lot is tested once: after a failed fabricate the next test
        # has no lot and fails too, rather than retesting an older one.
        self.lots.pop(call.netlist.name, None)
        if call.lot is None:
            raise RuntimeError("no lot to test: its fabricate call failed")
        return await self.client.test(call.lot, call.program[0])

    async def set_up(self) -> None:
        await self.client.connect()
        for n, netlist in enumerate(self.netlists):
            patterns = random_patterns(
                netlist, BUILD_PATTERNS, seed=derive_seed(self.seed, KEY, 0, self.index, n)
            )
            program = await self.client.build_program(netlist, patterns)
            self.programs[netlist.name] = (program, patterns)
        for n, netlist in enumerate(self.netlists):
            lot = await self.client.fabricate(
                netlist,
                self.recipe,
                LOT_CHIPS,
                dies_per_wafer=DIES_PER_WAFER,
                seed=derive_seed(self.seed, KEY, 1, self.index, n),
            )
            await self.client.test(lot, self.programs[netlist.name][0])


def _queue_depth(metrics_text: str) -> int:
    depths = [
        int(float(line.rsplit(" ", 1)[1]))
        for line in metrics_text.splitlines()
        if line.startswith("repro_queue_depth{")
    ]
    return max(depths, default=0)


async def _set_up(url: str, seed: int, netlists, recipe) -> list[_Connection]:
    connections = [
        _Connection(c, _MeteredClient(url), seed, netlists, recipe) for c in range(CONNECTIONS)
    ]
    await asyncio.gather(*(conn.set_up() for conn in connections))
    return connections


async def _close(connections) -> None:
    for conn in connections:
        await conn.client.close()


async def _drive(
    conn: _Connection, deadline: float, tracer, outcome: Outcome, depth: list
) -> None:
    k = 0
    while time.perf_counter() < deadline:
        call = conn.call_for(k)
        outcome.attempted += 1

        async def timed():
            with tracer.span(f"gateway.{call.route}", op=f"op.{conn.index}.{k}"):
                start = time.perf_counter()
                try:
                    output = await conn.execute(call)
                except Exception:
                    report_exception(f"connection {conn.index} op {k} ({call.route})")
                    output = None
                return output, time.perf_counter() - start

        if tracer.enabled:
            task = asyncio.ensure_future(timed())
            await asyncio.sleep(0)
            depth.append(_queue_depth(await conn.client.metrics_text()))
            output, latency = await task
        else:
            output, latency = await timed()
        if output is None:
            outcome.failed += 1
            outcome.latencies_s.append(math.inf)
        else:
            outcome.work += 1
            outcome.latencies_s.append(latency)
            if k < PREFIX_OPS:
                size = conn.client.body_bytes.get(call.route, 0)
                conn.prefix.append((call, output, latency, size))
        k += 1


async def _timed_phase(connections, seconds: float, tracer, outcome: Outcome) -> list[int]:
    depth: list[int] = []
    start = time.perf_counter()
    await asyncio.gather(
        *(_drive(conn, start + seconds, tracer, outcome, depth) for conn in connections)
    )
    outcome.elapsed_s = time.perf_counter() - start
    return depth


def run(seed: int, seconds: float, tracer) -> Outcome:
    outcome = Outcome()
    netlists = (config.make_chip(), simple_alu(4))
    recipe = config.make_recipe()
    gateway = connections = None
    loop = asyncio.new_event_loop()
    try:
        for r in range(SETUP_REPEATS):
            if gateway is not None:
                loop.run_until_complete(_close(connections))
                gateway.stop()
            gateway = spawn_server(
                "--port", "0", "--workers", "1", "--max-sessions", "2",
                module="repro.gateway",
                announce="repro-gateway listening on",
            )
            gc.collect()
            with tracer.span("bench.setup", op=f"setup.{r}"):
                start = time.perf_counter()
                connections = loop.run_until_complete(
                    _set_up(gateway.address, seed, netlists, recipe)
                )
                outcome.setup_s.append(time.perf_counter() - start)
        client = connections[0].client
        setup_stats = loop.run_until_complete(client.stats())["scheduler"]["session"]
        gc.collect()
        depth = loop.run_until_complete(_timed_phase(connections, seconds, tracer, outcome))
        outcome.peak_rss_mb = peak_rss_mb(gateway.pid)
        counters = {
            key: sum(conn.client.counters[key] for conn in connections)
            for key in ("retries", "reconnects", "overload_rejections")
        }
        print(
            f"gateway_mixed: {outcome.failed}/{outcome.attempted} calls failed; "
            f"client retries {counters['retries']}, reconnects "
            f"{counters['reconnects']}, overload rejections {counters['overload_rejections']}"
        )
        loop.run_until_complete(_close(connections))
    finally:
        if gateway is not None:
            gateway.stop()
        loop.close()

    prefix = [entry for conn in connections for entry in conn.prefix]
    if len(prefix) < PREFIX_OPS * CONNECTIONS:
        outcome.mismatch(f"run ended before {PREFIX_OPS} calls per connection completed")
        return outcome
    _check(connections[0], seed, recipe, outcome)
    lots = [out for call, out, _, _ in prefix if call.route == "lots"]
    programs = [out for call, out, _, _ in prefix if call.route == "programs"]
    outcome.counts = {
        "chips": sum(len(lot) for lot in lots),
        "injected_faults": sum(int(lot.fault_counts().sum()) for lot in lots),
        "live_fault_blocks": sum(sum(live_fault_blocks(p)) for p in programs),
        "response_bytes": {
            route: sum(b for call, _, _, b in prefix if call.route == route) for route in ROUTES
        },
        "engine_compiles": setup_stats["engine_compiles"],
    }
    if tracer.enabled:
        outcome.per_layer = _per_layer(prefix, lots, programs, tracer, recipe)
        outcome.per_layer.update(
            {
                "simulator.live_fault_blocks": outcome.counts["live_fault_blocks"],
                "api.engine_compiles": setup_stats["engine_compiles"],
                "api.kernel_blocks": sum(
                    v for k, v in setup_stats.items() if k.startswith("kernel_blocks_")
                ),
                "gateway.queue_depth_max": max(depth, default=0),
                "gateway.retries": counters["retries"],
                "gateway.overload_rejections": counters["overload_rejections"],
            }
        )
    return outcome


def _per_layer(prefix, lots, programs, tracer, recipe) -> dict[str, float]:
    """Codec and in-process compute replays of the prefix calls, and the
    per-route latency and size figures."""
    served = {
        route: [s.seconds for s in tracer.named(f"gateway.{route}", "op.")] for route in ROUTES
    }
    codec_s = {route: [] for route in ROUTES}
    compute_s = {route: [] for route in ROUTES}
    with Session(workers=1) as session:
        # The first pass warms the engines, testers and fab contexts, as
        # the gateway's lanes are warm; the second is timed.
        for measured in (False, True):
            trace = tracer if measured else NULL_TRACER
            for n, (call, out, _, _) in enumerate(prefix):
                with trace.span("gateway.replay", op=f"replay.{n}"):
                    codec_t, compute_t = _replay(session, call, out, recipe, trace)
                if measured:
                    codec_s[call.route].append(codec_t)
                    compute_s[call.route].append(compute_t)

    mix = {
        route: sum(call.route == route for call, *_ in prefix) / len(prefix)
        for route in ROUTES
    }
    route_p50 = {route: nearest_rank(served[route], 0.5) for route in ROUTES}

    def per_call(samples) -> float:
        return sum(mix[r] * statistics.median(samples[r]) for r in ROUTES)

    compute = per_call(compute_s)
    served_p50 = sum(mix[r] * route_p50[r] for r in ROUTES)
    chips = sum(len(lot) for lot in lots)
    injected = sum(int(lot.fault_counts().sum()) for lot in lots)
    faulty = sum(int((lot.fault_counts() > 0).sum()) for lot in lots)
    tested_faults = sum(
        int(call.lot.fault_counts().sum()) for call, *_ in prefix if call.route == "test"
    )
    metrics = {
        "manufacturing.fabricate_s": statistics.median(compute_s["lots"]),
        "manufacturing.us_per_chip": sum(compute_s["lots"]) / chips * 1e6,
        "defects.faults_per_chip": injected / chips,
        "tester.test_s": statistics.median(compute_s["test"]),
        "tester.us_per_injected_fault": sum(compute_s["test"]) / tested_faults * 1e6,
        "tester.faulty_chip_share": faulty / chips,
        "faults.build_program_s": statistics.median(compute_s["programs"]),
        "simulator.ns_per_gate_eval": sum(compute_s["programs"])
        / sum(gate_evals(p) for p in programs)
        * 1e9,
        "gateway.codec_ms": per_call(codec_s) * 1e3,
        "gateway.compute_ms": compute * 1e3,
        "gateway.overhead_share": 1.0 - compute / served_p50,
    }
    sizes = {route: [b for call, _, _, b in prefix if call.route == route] for route in ROUTES}
    for route in ROUTES:
        metrics[f"gateway.route_p50_ms.{route}"] = route_p50[route] * 1e3
        metrics[f"gateway.response_bytes.{route}"] = sum(sizes[route]) / len(sizes[route])
    return metrics


def _replay(session, call: _Call, out, recipe, tracer) -> tuple[float, float]:
    """Seconds to encode and decode a served call's reply, and to compute
    the call on an in-process session."""
    netlist = call.netlist
    with tracer.span("gateway.codec"):
        start = time.perf_counter()
        if call.route == "lots":
            codec.lot_from_json(netlist, codec.lot_to_json(netlist, out))
        elif call.route == "test":
            codec.result_from_json(call.program[0], codec.result_to_json(out))
        else:
            codec.program_from_json(netlist, codec.program_to_json(out))
        codec_t = time.perf_counter() - start
    if call.route == "lots":
        with tracer.span("manufacturing.fabricate"):
            start = time.perf_counter()
            session.fabricate(
                netlist, recipe, LOT_CHIPS, dies_per_wafer=DIES_PER_WAFER, seed=call.seed
            )
    elif call.route == "test":
        with tracer.span("tester.test"):
            start = time.perf_counter()
            session.test(call.lot, call.program[0])
    else:
        with tracer.span("faults.build_program"):
            start = time.perf_counter()
            session.build_program(netlist, call.patterns)
    return codec_t, time.perf_counter() - start


def _check(conn: _Connection, seed: int, recipe, outcome: Outcome) -> None:
    """Re-run one sampled test call, with its lot and program, in-process on
    the ``compiled`` engine and compare with what the gateway served."""
    tests = [(call, out) for call, out, _, _ in conn.prefix if call.route == "test"]
    call, served = tests[derive_seed(seed, KEY, 3) % len(tests)]
    lot_call = next(
        c for c, out, _, _ in conn.prefix if c.route == "lots" and out is call.lot
    )
    served_program, patterns = call.program
    with Session(engine="compiled", workers=1) as ref:
        program = ref.build_program(call.netlist, patterns)
        lot = ref.fabricate(
            call.netlist, recipe, LOT_CHIPS, dies_per_wafer=DIES_PER_WAFER, seed=lot_call.seed
        )
        result = ref.test(lot, program)
    if not (
        program.universe_size == served_program.universe_size
        and (program.coverage_curve == served_program.coverage_curve).all()
    ):
        outcome.mismatch("served program differs from the compiled engine")
    if lot.chips != call.lot.chips:
        outcome.mismatch("served lot differs from an in-process fabrication")
    if result.records != served.records:
        outcome.mismatch("served test records differ from the compiled engine")
