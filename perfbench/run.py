#!/usr/bin/env python3
"""The kv-store benchmark: hot-key cached reads on the simulator and over
loopback TCP, and the paper's fast-read register on the simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sim-hot-cached --seed 1 --seconds 30 --trace 0

One invocation runs rounds of one workload for ``--seconds`` seconds.  Each
round generates a fresh closed-loop workload from the seed, runs it through
the public runner (``run_sim_kv_workload`` or ``run_asyncio_kv_workload``),
checks per-key atomicity and that every op completed, and times the round
from outside: wall and CPU clocks are read when the runner is entered, when
the first op is invoked and when the last op completes.  The reported
values are medians over the rounds.

``--trace 1`` instead alternates untraced and traced rounds on the same
inputs.  A traced round wraps every layer's entry points (see
:mod:`layer_trace`) and yields the per-layer metrics; spans of the last traced
round are written to ``.perfbench-out/`` at the end.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
The exit code is 0 when every correctness check held, 1 when one failed and
2 when the program under test cannot be found.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import layer_trace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"

#: (name, unit) of every end-to-end metric, printed by ``--trace 0``.
#: Latencies are in virtual time units on the sim workloads and in wall
#: milliseconds on the TCP workload, hence the shared unit ``vt_or_ms``.
END_TO_END: List[Tuple[str, str]] = [
    ("ops_per_s", "1/s"),
    ("cpu_us_per_op", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("read_p50", "vt_or_ms"),
    ("read_p99", "vt_or_ms"),
    ("write_p50", "vt_or_ms"),
    ("write_p95", "vt_or_ms"),
]

#: (name, unit) of every per-layer metric, printed by ``--trace 1``.
PER_LAYER: List[Tuple[str, str]] = [
    ("observe.events_per_op", "events/op"),
    ("observe.self_us_per_op", "us/op"),
    ("sim.events_per_op", "events/op"),
    ("sim.self_us_per_op", "us/op"),
    ("codec.calls_per_op", "calls/op"),
    ("codec.bytes_per_op", "B/op"),
    ("codec.self_us_per_op", "us/op"),
    ("net.self_us_per_op", "us/op"),
    ("messages.calls_per_op", "calls/op"),
    ("messages.self_us_per_op", "us/op"),
    ("engine.proxy.calls_per_op", "calls/op"),
    ("engine.proxy.self_us_per_op", "us/op"),
    ("engine.proxy.subs_per_frame", "subs/frame"),
    ("engine.cache.calls_per_op", "calls/op"),
    ("engine.cache.self_us_per_op", "us/op"),
    ("engine.cache.hit_rate", "frac"),
    ("engine.cache.invalidations_per_op", "1/op"),
    ("engine.cache.write_deferrals_per_op", "1/op"),
    ("engine.server.calls_per_op", "calls/op"),
    ("engine.server.self_us_per_op", "us/op"),
    ("engine.server.subs_per_op", "subs/op"),
    ("protocols.calls_per_op", "calls/op"),
    ("protocols.self_us_per_op", "us/op"),
    ("engine.client.calls_per_op", "calls/op"),
    ("engine.client.self_us_per_op", "us/op"),
    ("engine.client.rounds_per_op", "rounds/op"),
    ("checker.check_s", "s"),
    ("trace.cpu_us_per_op", "us/op"),
    ("trace.overhead_frac", "frac"),
]

#: Percentiles reported per op kind; each needs 10 samples beyond it.
PERCENTILES = (("read", 50), ("read", 99), ("write", 50), ("write", 95))
MIN_SAMPLES_BEYOND = 10


@dataclass(frozen=True)
class Workload:
    """One traffic mix and topology.  All are closed loop, depth 4."""

    backend: str  # "sim" | "asyncio"
    clients: int
    ops_per_client: int
    keys: int
    read_fraction: float
    key_skew: float
    protocol: str
    servers_per_group: int
    proxies: int  # 0 = clients connect to the replicas directly
    read_cache: int
    #: Layers the workload never enters; the traced run checks they stay at
    #: zero calls and every other layer is entered.
    bypassed: Tuple[str, ...]
    shards: int = 4
    groups: int = 2
    max_faults: int = 1
    pipeline_depth: int = 4

    @property
    def latency_unit(self) -> str:
        return "vt" if self.backend == "sim" else "ms"

    def runner_kwargs(self) -> Dict[str, Any]:
        kwargs: Dict[str, Any] = dict(
            num_shards=self.shards,
            num_groups=self.groups,
            protocol_key=self.protocol,
            servers_per_shard=self.servers_per_group,
            max_faults=self.max_faults,
        )
        if self.proxies:
            kwargs.update(use_proxy=True, num_proxies=self.proxies,
                          read_cache=self.read_cache)
        return kwargs

    def preflight(self) -> List[str]:
        """Configuration conditions that must hold before the run starts."""
        if self.protocol != "fast-read-mwmr":
            return []
        readers, servers, faults = self.clients, self.servers_per_group, self.max_faults
        if readers < servers / faults - 2:
            return []
        return [f"fast reads need R < S/t - 2, got R={readers}, S={servers}, t={faults}"]


_HOT = dict(clients=16, ops_per_client=250, keys=64, read_fraction=0.9, key_skew=1.2,
            protocol="abd-mwmr", servers_per_group=3, proxies=2, read_cache=128)

WORKLOADS: Dict[str, Workload] = {
    "sim-hot-cached": Workload(backend="sim", bypassed=("codec",), **_HOT),
    "tcp-hot-cached": Workload(backend="asyncio", bypassed=("sim",), **_HOT),
    "sim-fastread-mixed": Workload(
        backend="sim", clients=4, ops_per_client=750, keys=256, read_fraction=0.5,
        key_skew=0.8, protocol="fast-read-mwmr", servers_per_group=7, proxies=0,
        read_cache=0, bypassed=("codec", "engine.proxy", "engine.cache"),
    ),
}


# -- one round -------------------------------------------------------------------


@dataclass
class Round:
    """The measurements of one runner call."""

    attempted: int
    completed: int
    setup_s: float
    ops_per_s: float
    cpu_us_per_op: float
    check_s: float
    #: CPU seconds from the first op invoked until the runner returned.
    window_cpu_s: float
    latencies: Dict[str, List[float]]
    counters: Dict[str, float]
    problems: List[str] = field(default_factory=list)
    layers: Optional[Dict[str, Any]] = None


class PhaseClock:
    """Stamps the first op invoked and the last op completed of a round.

    It wraps ``KVHistoryRecorder``'s two recording methods, which both
    backends call once per op at invocation and at completion.
    """

    def __init__(self, on_first=None) -> None:
        self.on_first = on_first
        self.first: Optional[Tuple[float, float]] = None
        self.last: Optional[Tuple[float, float]] = None

    def __enter__(self) -> "PhaseClock":
        from repro.kvstore.perkey import KVHistoryRecorder

        self._recorder = KVHistoryRecorder
        invoke = self._invoke = KVHistoryRecorder.record_invocation
        respond = self._respond = KVHistoryRecorder.record_response
        clock = self

        def record_invocation(recorder, *args, **kwargs):
            if clock.first is None:
                clock.first = (time.perf_counter(), time.process_time())
                if clock.on_first is not None:
                    clock.on_first()
            return invoke(recorder, *args, **kwargs)

        def record_response(recorder, *args, **kwargs):
            operation = respond(recorder, *args, **kwargs)
            clock.last = (time.perf_counter(), time.process_time())
            return operation

        KVHistoryRecorder.record_invocation = record_invocation
        KVHistoryRecorder.record_response = record_response
        return self

    def __exit__(self, *exc_info) -> None:
        self._recorder.record_invocation = self._invoke
        self._recorder.record_response = self._respond


def run_round(spec: Workload, seed: int, scale: float = 1.0, tracer=None) -> Round:
    """Generate one workload from ``seed``, run it, time it and check it."""
    from repro.kvstore import generate_workload, run_asyncio_kv_workload, run_sim_kv_workload

    workload = generate_workload(
        num_clients=spec.clients,
        ops_per_client=max(2, round(spec.ops_per_client * scale)),
        num_keys=spec.keys,
        read_fraction=spec.read_fraction,
        key_skew=spec.key_skew,
        pipeline_depth=spec.pipeline_depth,
        seed=seed,
    )
    runner = run_sim_kv_workload if spec.backend == "sim" else run_asyncio_kv_workload
    gc.collect()
    wrapped = layer_trace.installed(tracer) if tracer is not None else nullcontext()
    with PhaseClock(on_first=tracer.reset if tracer is not None else None) as clock, wrapped:
        entered = time.perf_counter()
        result = runner(workload, **spec.runner_kwargs())
        returned_cpu = time.process_time()
    layers = None
    if tracer is not None:
        layers = {name: (t.calls, t.self_ns, t.bytes, t.events)
                  for name, t in tracer.totals.items()}

    started = time.perf_counter()
    verdict = result.check()
    check_s = time.perf_counter() - started

    attempted = workload.total_operations()
    client = (result.metrics or {}).get("client", {}).get("counters", {})
    problems = []
    if not verdict.all_atomic:
        problems.append(f"per-key atomicity violated: {verdict.summary()}")
    if (client.get("ops_invoked"), client.get("ops_completed"), client.get("ops_failed")) \
            != (attempted, attempted, 0) or result.completed_ops != attempted:
        problems.append(
            f"ops attempted {attempted}, invoked {client.get('ops_invoked')}, "
            f"completed {client.get('ops_completed')}, failed {client.get('ops_failed')}")
    if clock.first is None or clock.last is None:
        raise RuntimeError("the runner recorded no op invocation or completion")

    completed = result.completed_ops
    run_wall = clock.last[0] - clock.first[0]
    per_unit = 1.0 if spec.backend == "sim" else 1000.0
    # Virtual-time latencies are sums of decimal delays and carry float
    # noise in the last digits; rounding lets equal latencies tie (see
    # ``percentile``).  Nine decimals of a millisecond lose nothing.
    return Round(
        attempted=attempted,
        completed=completed,
        setup_s=clock.first[0] - entered,
        ops_per_s=completed / run_wall,
        cpu_us_per_op=(clock.last[1] - clock.first[1]) / completed * 1e6,
        check_s=check_s,
        window_cpu_s=returned_cpu - clock.first[1],
        latencies={
            "read": [round(v * per_unit, 9) for v in result.read_latencies],
            "write": [round(v * per_unit, 9) for v in result.write_latencies],
        },
        counters=_program_counters(result),
        problems=problems,
        layers=layers,
    )


def _program_counters(result) -> Dict[str, float]:
    """Counts the program keeps itself, per completed op where relevant."""
    ops = result.completed_ops
    tiers = result.metrics or {}
    proxy_batches = tiers.get("proxy", {}).get("histograms", {}).get("batch_size", {})
    cache = result.cache or {}
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    return {
        "engine.proxy.subs_per_frame": (
            proxy_batches["sum"] / proxy_batches["count"] if proxy_batches.get("count") else 0.0),
        "engine.cache.hit_rate": cache.get("hits", 0) / lookups if lookups else 0.0,
        "engine.cache.invalidations_per_op": cache.get("invalidations", 0) / ops,
        "engine.cache.write_deferrals_per_op": cache.get("write_deferrals", 0) / ops,
        "engine.server.subs_per_op": (
            tiers.get("replica", {}).get("counters", {}).get("subs_served", 0) / ops),
        "engine.client.rounds_per_op": (
            tiers.get("client", {}).get("counters", {}).get("rounds_opened", 0) / ops),
    }


def percentile(ordered: List[float], p: float) -> float:
    """The p-th percentile of an ascending list, by mid-distribution
    interpolation.

    Each distinct value's samples are taken as spread evenly between the
    midpoints to its neighbouring values.  On wall-clock samples, which
    rarely tie, this is close to linear interpolation.  Virtual-time
    latencies tie in large groups; there the percentile still moves when
    the share of samples at each value moves, where a rank-based one would
    sit on the same value.
    """
    target = p / 100 * len(ordered)
    below = 0
    index = 0
    while True:
        value = ordered[index]
        end = bisect.bisect_right(ordered, value, index)
        count = end - index
        if below + count >= target or end == len(ordered):
            lower = (ordered[index - 1] + value) / 2 if index else value
            upper = (value + ordered[end]) / 2 if end < len(ordered) else value
            return lower + (upper - lower) * (target - below) / count
        below, index = end, end


def samples_beyond(count: int, p: float) -> int:
    return math.floor(count * (100 - p) / 100 + 1e-9)


# -- a whole invocation ---------------------------------------------------------


@dataclass
class Report:
    """What one invocation prints."""

    metrics: Dict[str, Tuple[float, str]]
    attempted: int
    failed: int
    problems: List[str]
    notes: List[str]

    @property
    def correct(self) -> bool:
        return not self.problems

    def result_line(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in self.metrics.items()},
        })


def measure(name: str, seed: int, seconds: float, trace: bool,
            scale: float = 1.0, spans_dir: Optional[Path] = None) -> Report:
    """Run rounds of workload ``name`` for ``seconds`` and summarise them."""
    spec = WORKLOADS[name]
    problems = spec.preflight()
    if problems:
        return Report({}, 1, 1, problems, [])

    # A small untimed round first, so imports and lazy set-up finish outside
    # the measured rounds.  Its correctness counts like any other round's.
    rounds: List[Round] = []
    warm = run_round(spec, seed * 1000 + 999, scale=scale / 10)
    traced: List[Round] = []
    tracer = layer_trace.Tracer() if trace else None
    # Rounds run back to back while one more of the mean length still ends
    # within ``seconds``, so a run never measures much past them.
    started = time.perf_counter()
    index = 0
    while True:
        round_seed = seed * 1000 + index
        rounds.append(run_round(spec, round_seed, scale))
        if tracer is not None:
            traced.append(run_round(spec, round_seed, scale, tracer))
        index += 1
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / index > seconds:
            break

    everything = [warm] + rounds + traced
    problems = [p for r in everything for p in r.problems]
    notes = [f"rounds {len(rounds)} untraced + {len(traced)} traced, "
             f"{rounds[0].attempted} ops each"]
    if trace:
        metrics = _per_layer(spec, rounds, traced, problems, notes)
        if spans_dir is not None:
            spans_dir.mkdir(parents=True, exist_ok=True)
            path = spans_dir / f"spans-{name}-seed{seed}.tsv.gz"
            notes.append(f"{tracer.write_spans(str(path))} spans of the last traced round "
                         f"written to {path}")
    else:
        metrics = _end_to_end(spec, rounds, problems, notes)
    return Report(
        metrics=metrics,
        attempted=sum(r.attempted for r in everything),
        failed=sum(r.attempted - r.completed for r in everything),
        problems=problems,
        notes=notes,
    )


def _end_to_end(spec: Workload, rounds: List[Round], problems: List[str],
                notes: List[str]) -> Dict[str, Tuple[float, str]]:
    def median(attr: str) -> float:
        return statistics.median(getattr(r, attr) for r in rounds)

    values = {
        "ops_per_s": median("ops_per_s"),
        "cpu_us_per_op": median("cpu_us_per_op"),
        "setup_s": median("setup_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for kind, p in PERCENTILES:
        name = f"{kind}_p{p}"
        samples = sorted(v for r in rounds for v in r.latencies[kind])
        if samples_beyond(len(samples), p) < MIN_SAMPLES_BEYOND:
            problems.append(f"{name}: {len(samples)} samples leave fewer than "
                            f"{MIN_SAMPLES_BEYOND} beyond it")
        values[name] = percentile(samples, p)
        notes.append(f"{name} is in {spec.latency_unit}, over the {len(samples)} "
                     f"{kind}s of all rounds")
    return {name: (values[name], unit) for name, unit in END_TO_END}


def _per_layer(spec: Workload, rounds: List[Round], traced: List[Round],
               problems: List[str], notes: List[str]) -> Dict[str, Tuple[float, str]]:
    ops = sum(r.completed for r in traced)
    totals = {layer: [0, 0, 0, 0] for layer in layer_trace.LAYERS}
    for r in traced:
        for layer, counts in r.layers.items():
            totals[layer] = [a + b for a, b in zip(totals[layer], counts)]
    values: Dict[str, float] = {}
    self_us = 0.0
    for layer, (calls, self_ns, nbytes, events) in totals.items():
        values[f"{layer}.calls_per_op"] = calls / ops
        values[f"{layer}.self_us_per_op"] = self_ns / 1e3 / ops
        self_us += self_ns / 1e3
        if layer in ("observe", "sim"):
            values[f"{layer}.events_per_op"] = events / ops
    values["codec.bytes_per_op"] = totals["codec"][2] / ops
    window_us = sum(r.window_cpu_s for r in traced) * 1e6
    values["trace.cpu_us_per_op"] = window_us / ops
    values["net.self_us_per_op"] = max(0.0, window_us - self_us) / ops
    for counter in rounds[0].counters:
        values[counter] = statistics.median(r.counters[counter] for r in rounds)
    values["checker.check_s"] = statistics.median(r.check_s for r in rounds + traced)
    values["trace.overhead_frac"] = 1 - (statistics.median(r.ops_per_s for r in traced)
                                         / statistics.median(r.ops_per_s for r in rounds))

    for layer in layer_trace.LAYERS:
        calls = totals[layer][0]
        if layer in spec.bypassed and calls:
            problems.append(f"layer coverage: {layer} was entered {calls} times "
                            f"on a workload that bypasses it")
        elif layer not in spec.bypassed and not calls:
            problems.append(f"layer coverage: {layer} was never entered")
    if not any(p.startswith("layer coverage") for p in problems):
        notes.append(f"layer coverage held: never entered {', '.join(spec.bypassed)}; "
                     f"entered every other layer")
    for layer in list(layer_trace.LAYERS) + ["net"]:
        share = values[f"{layer}.self_us_per_op"] / values["trace.cpu_us_per_op"]
        notes.append(f"share {layer}: {share:.1%} of traced run-phase CPU")
    return {name: (values[name], unit) for name, unit in PER_LAYER}


# -- command line ----------------------------------------------------------------


def _environment() -> str:
    return (f"python {platform.python_version()}, "
            f"PYTHONHASHSEED={os.environ.get('PYTHONHASHSEED', 'unset (random)')}, "
            f"nproc {os.cpu_count()}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {src / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))

    report = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     spans_dir=OUT_DIR)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}; {_environment()}")
    for note in report.notes:
        print(note)
    for name, (value, unit) in report.metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for problem in report.problems:
        print(f"FAILED: {problem}")
    print(report.result_line())
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
