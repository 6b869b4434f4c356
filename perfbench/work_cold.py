"""Workload ``svc-cold``: closed-loop cold ``compare`` requests, in process.

One client drives the service scheduler of ``build_service`` directly:
submit one request, ``drain()`` until it is terminal, submit the next.
There is no HTTP and no client poll schedule in the measured latency.
Every request has the same shape, a base-vs-APF ``compare`` over one
SPEC-like workload and one GAP kernel at tiny windows, and carries a
fresh simulator seed, so each of its four leaves misses the cache and
runs in a worker: fork, program build, trace emulation, simulation,
serialise, commit and the journal fsync are all on the measured path.

The seed picks the simulator seeds; the request shape never changes.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Optional

from stats import FAILED, median

from repro.analysis import harness
from repro.core import simulator
from repro.core.ooo_core import OoOCore
from repro.service import build_service, dag, requests, scheduler
from repro.workloads import profiles

PAIR = ("leela", "bfs")
WARMUP, MEASURE = 400, 400
#: slope of log time of a request on log host-speed kernel time across
#: the slow and fast phases of a shared 2-CPU host (fits gave 0.86-1.1)
SENSITIVITY = 1.0
SETUP_REPEATS = 5
#: every leaf of every CHECK_EVERY-th request is re-simulated in process
#: and compared byte for byte with its committed cache entry
CHECK_EVERY = 32
#: leading requests whose leaf counts are reported as exact counts
COUNTED = 4


def make_doc(seed: int) -> dict:
    return {"kind": "compare", "workloads": list(PAIR), "base": {},
            "test": {"apf": {}}, "warmup": WARMUP, "measure": MEASURE,
            "seed": seed}


class Seeds:
    """Distinct simulator seeds drawn from the run's generator, so no two
    requests of a run share a leaf."""

    def __init__(self, rng) -> None:
        self.rng = rng
        self.used = set()

    def __call__(self) -> int:
        while True:
            seed = self.rng.randrange(1, 1 << 30)
            if seed not in self.used:
                self.used.add(seed)
                return seed


def _start(bench, seeds):
    """Service start: a fresh cache root and journal, the scheduler, and
    one untimed request through it. Returns (seconds, scheduler)."""
    root = bench.tmpdir("cold-")
    os.environ["REPRO_CACHE_DIR"] = str(root)
    t0 = time.perf_counter()
    sched = build_service(jobs=bench.slots, retries=1,
                          journal_path=root / "journal.jsonl").scheduler
    response = sched.submit_request(make_doc(seeds()))
    sched.drain()
    seconds = time.perf_counter() - t0
    if sched.request_status(response["request_id"])["status"] != "done":
        bench.mismatch("set-up request did not complete")
    return seconds, sched


def _stop(sched) -> None:
    sched.executor.shutdown()
    if sched.journal is not None:
        sched.journal.close()


def _leaves(sched, request_id):
    detail = sched.request_status(request_id)
    return [node for node in detail["nodes_detail"]
            if node["kind"] == "simulate"]


def run(bench) -> None:
    seeds = Seeds(bench.rng)
    bench.facts.update(windows=f"{WARMUP}+{MEASURE}",
                       request=f"compare {'+'.join(PAIR)} base-vs-apf")
    setups = []
    sched = None
    try:
        for _ in range(SETUP_REPEATS):
            if sched is not None:
                _stop(sched)
            first = bench.speed.tick(every_cpu=True)
            seconds, sched = _start(bench, seeds)
            setups.append((seconds, first, bench.speed.tick(every_cpu=True)))
        bench.add_timing("setup_s", "s", setups, median)
        measured = _measure(bench, sched, seeds)
    finally:
        if sched is not None:
            _stop(sched)
    if bench.trace:
        _layers(bench, sched, measured)


@dataclass
class Loop:
    """What the closed loop saw, for the per-layer metrics."""

    stats0: dict                    # store counters before the loop
    jobs0: int                      # manifest entries before the loop
    retries0: int
    hist0: dict                     # histogram (count, sum_s) before
    latencies: list = field(default_factory=list)       # (s, tick)
    traced_latencies: list = field(default_factory=list)
    accepted: list = field(default_factory=list)        # (id, seed)
    counted: Optional[dict] = None
    replayed: int = 0


def _retries(sched) -> int:
    return sum(1 for e in sched.manifest.events if e["kind"] == "retry")


def _measure(bench, sched, seeds) -> Loop:
    """The closed loop, its end-to-end metrics and the correctness gate."""
    loop = Loop(stats0=sched.store.stats(), jobs0=len(sched.manifest.jobs),
                retries0=_retries(sched),
                hist0={name: (h.count, h.sum_s)
                       for name, h in sched.tracer.histograms.items()})
    latencies, traced_latencies = loop.latencies, loop.traced_latencies
    accepted = loop.accepted
    bench.recorder.enabled = False
    deadline = time.perf_counter() + bench.seconds
    index = 0
    while time.perf_counter() < deadline:
        traced = bench.trace and index % 2 == 1
        bench.recorder.enabled = traced
        bench.recorder.request_id = f"request{index}"
        seed = seeds()
        doc = make_doc(seed)
        bench.attempted += 1
        tick = bench.speed.tick(every_cpu=True)
        t0 = time.perf_counter()
        try:
            if traced:
                with bench.recorder.patched(scheduler, "expand_request",
                                            "expand_request"):
                    with bench.recorder.span("submit_request"):
                        response = sched.submit_request(doc)
                    with bench.recorder.span("drain"):
                        sched.drain()
            else:
                response = sched.submit_request(doc)
                sched.drain()
        except requests.RequestError as exc:
            bench.refused += 1
            bench.mismatch(f"request refused: {exc}")
            latencies.append((FAILED, tick))
            index += 1
            continue
        elapsed = time.perf_counter() - t0
        request_id = response["request_id"]
        if sched.request_status(request_id)["status"] != "done":
            bench.failed += 1
            bench.mismatch(f"{request_id} (seed {seed}) did not complete")
            elapsed = FAILED
        (traced_latencies if traced else latencies).append((elapsed, tick))
        accepted.append((request_id, seed))
        if index + 1 == COUNTED:
            loop.counted = _counts(sched, accepted, loop.stats0)
        index += 1
    bench.recorder.enabled = bench.trace

    leaves = 2 * len(PAIR)
    bench.add_throughput("kips", "kinst/s", latencies,
                         leaves * (WARMUP + MEASURE) / 1000.0)
    bench.add_timing("op_p50_ms", "ms", latencies, median, scale=1000.0)
    bench.add_latencies("cold_e2e", latencies)
    bench.add_throughput("leaves_per_s", "1/s", latencies, leaves)

    for event in sched.manifest.events:
        if event["kind"] == "retry":
            bench.note(f"retry {event['key']} attempt {event['attempt']}: "
                       f"{event['status']}: {event['error']}")
    loop.replayed = _check_payloads(bench, sched, accepted)
    stats0, stats1 = loop.stats0, sched.store.stats()
    if (stats1["hits"], stats1["dedups"]) \
            != (stats0["hits"], stats0["dedups"]):
        bench.mismatch(f"cold requests were served from the store: "
                       f"{stats1} after {stats0}")
    return loop


def _layers(bench, sched, loop: Loop) -> None:
    add = bench.add_layer
    hists = sched.tracer.histograms
    hist0 = loop.hist0
    replay = loop.replayed
    done = len(loop.accepted)

    def mean_ms(name):
        count0, sum0 = hist0[name]
        count = hists[name].count - count0
        return (1000.0 * (hists[name].sum_s - sum0) / count
                if count else 0.0), count

    for name in ("queue_wait", "claim_wait", "execute", "commit"):
        value, count = mean_ms(name)
        add(f"service.{name}_ms", value, count)
    add("service.admit_ms", bench.recorder.mean_ms("submit_request"),
        len(bench.recorder.named("submit_request")))
    add("dag.expand_ms", bench.recorder.mean_ms("expand_request"),
        len(bench.recorder.named("expand_request")))
    execute_ms, executed = mean_ms("execute")
    busy_s = hists["execute"].sum_s - hist0["execute"][1]
    loop_s = sum(seconds for seconds, _tick
                 in loop.latencies + loop.traced_latencies)
    add("runner.slot_busy_frac", busy_s / (bench.slots * loop_s), executed)
    phases = ("build_workload", "workload_trace", "OoOCore.run",
              "serialize_result")
    per_leaf = sum(bench.recorder.mean_ms(name) for name in phases)
    add("runner.overhead_ms", execute_ms - per_leaf, replay)
    add("workloads.build_ms", bench.recorder.mean_ms("build_workload"), replay)
    add("workloads.emulate_ms", bench.recorder.mean_ms("workload_trace"),
        replay)
    add("harness.serialize_ms", bench.recorder.mean_ms("serialize_result"),
        replay)
    for layer, share in bench.sampler.shares().items():
        add(f"{layer}.share", share, bench.sampler.total)
    jobs = sched.manifest.jobs[loop.jobs0:]
    add("executor.attempts", sum(j["attempts"] for j in jobs) / done, done)
    add("executor.retries", (_retries(sched) - loop.retries0) / done, done)
    if loop.counted is not None:
        for name, value in loop.counted.items():
            add(name, value, COUNTED)
    bench.add_overhead([[t] for t in loop.latencies],
                       [[t] for t in loop.traced_latencies])


def _counts(sched, accepted, stats0) -> dict:
    """Exact counts over the first :data:`COUNTED` requests."""
    stats = sched.store.stats()
    instructions = cycles = 0
    for request_id, _seed in accepted:
        for node in _leaves(sched, request_id):
            payload = sched.store.get(node["key"])
            instructions += payload["instructions"]
            cycles += payload["cycles"]
    return {"core.instructions": instructions, "core.cycles": cycles,
            "store.hits": stats["hits"] - stats0["hits"],
            "store.misses": stats["misses"] - stats0["misses"],
            "store.dedups": stats["dedups"] - stats0["dedups"]}


def _check_payloads(bench, sched, accepted) -> int:
    """Re-simulate every leaf of every :data:`CHECK_EVERY`-th request in
    process, exactly as a worker would (cold program and trace caches),
    and compare it byte for byte with the committed cache entry. Returns
    the number of leaves replayed. With tracing on, the replay's phases
    are spans and its ``OoOCore.run`` is stack-sampled."""
    replayed = 0
    for number, (request_id, seed) in enumerate(accepted):
        if number % CHECK_EVERY:
            continue
        graph = dag.expand_request(requests.parse_request(make_doc(seed)))
        for node in _leaves(sched, request_id):
            job = graph.nodes[node["key"]].job
            profiles.clear_trace_cache()
            bench.recorder.request_id = f"replay/{request_id}/{node['label']}"
            result = _replay(bench, job)
            with bench.recorder.span("serialize_result"):
                expected = harness.payload_bytes(
                    harness.serialize_result(result))
            actual = harness.entry_path(node["key"]).read_bytes()
            replayed += 1
            if actual != expected:
                bench.mismatch(f"{node['label']} seed {seed}: cache entry "
                               f"differs from an in-process Simulator.run")
    profiles.clear_trace_cache()
    return replayed


def _replay(bench, job):
    """``Simulator.run`` of one leaf with its phases as spans."""
    recorder = bench.recorder
    with recorder.patched(simulator, "build_workload", "build_workload"), \
            recorder.patched(simulator, "workload_trace", "workload_trace"), \
            recorder.patched(OoOCore, "run", "OoOCore.run",
                             context=bench.sampler.arm):
        return simulator.Simulator(job.config, seed=job.seed).run(
            job.workload, job.warmup, job.measure)
