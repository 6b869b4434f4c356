"""Workload ``svc-hot``: closed-loop all-hit sweeps against ``repro serve``.

Set-up starts a loopback ``repro serve`` daemon on a fresh cache root and
fills the cache with a few fixed-shape sweeps (every workload x {baseline,
default APF}: 32 leaves each). The measured loop then resubmits those
sweeps. An all-hit request is already terminal in the ``/submit``
response, so one operation is one ``POST /submit`` plus one
``GET /status/<id>`` on a fresh connection each, with no polling: the
runner, the core and the disk do no work, and the cost is request
expansion, HTTP and status serialisation.

The seed picks the sweeps' simulator seeds and workload order and the
order of resubmission; every request has the same shape.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import time

from stats import FAILED, median

from repro.analysis import harness
from repro.service import dag, requests
from repro.workloads.profiles import ALL_NAMES

WARMUP, MEASURE = 400, 400
#: slope of log time of a request on log host-speed kernel time, measured
#: across the slow and fast phases of a shared 2-CPU host
SENSITIVITY = 1.0
SWEEPS = 2
SETUP_REPEATS = 3
START_TIMEOUT_S = 60.0
FILL_TIMEOUT_S = 120.0
#: leading requests whose store counters are reported as exact counts
COUNTED = 4


def make_doc(seed: int, rng) -> dict:
    names = list(ALL_NAMES)
    rng.shuffle(names)
    return {"kind": "sweep", "workloads": names,
            "configs": [{"name": "base", "config": {}},
                        {"name": "apf", "config": {"apf": {}}}],
            "warmup": WARMUP, "measure": MEASURE, "seed": seed}


class Daemon:
    """One ``repro serve`` subprocess on an ephemeral loopback port.

    Its log goes to a file, not a pipe, so a chatty daemon can never
    block on a full pipe that nobody reads.
    """

    def __init__(self, root, slots: int) -> None:
        self.root = root
        self.log = root / "serve.log"
        env = dict(os.environ, REPRO_CACHE_DIR=str(root))
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--jobs", str(slots), "--fresh",
                 "--journal", str(root / "journal.jsonl")],
                stdout=subprocess.DEVNULL, stderr=log, env=env)
        self.port = self._wait_port()

    def _wait_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT_S
        marker = "listening on http://127.0.0.1:"
        while time.monotonic() < deadline:
            text = self.log.read_text()
            if marker in text:
                return int(text.split(marker, 1)[1].split()[0])
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        raise RuntimeError(f"repro serve did not start:\n"
                           f"{self.log.read_text()}")

    def call(self, method: str, path: str, doc=None) -> dict:
        """One request on its own connection (the daemon closes each)."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=60)
        try:
            body = None if doc is None else json.dumps(doc)
            headers = {} if doc is None else {
                "Content-Type": "application/json"}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            payload = json.loads(response.read())
            if response.status >= 400:
                raise requests.RequestError(
                    f"{method} {path}: HTTP {response.status}: "
                    f"{payload.get('error')}")
            return payload
        finally:
            conn.close()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def _fill(daemon, docs, speed) -> list:
    """Submit each sweep and poll until it is done; return the results.

    The host-speed kernel runs between polls, so the set-up is
    normalised by the host's speed while it ran."""
    results = []
    for doc in docs:
        request_id = daemon.call("POST", "/submit", doc)["request_id"]
        deadline = time.monotonic() + FILL_TIMEOUT_S
        while True:
            detail = daemon.call("GET", f"/status/{request_id}")
            if detail["status"] != "running":
                break
            if time.monotonic() > deadline:
                raise RuntimeError(f"set-up sweep {request_id} still "
                                   f"running after {FILL_TIMEOUT_S:g}s")
            speed.tick(every_cpu=True)
            time.sleep(0.015)
        if detail["status"] != "done":
            raise RuntimeError(f"set-up sweep {request_id} "
                               f"{detail['status']}")
        results.append(detail["results"])
    return results


def run(bench) -> None:
    rng = bench.rng
    docs = [make_doc(rng.randrange(1, 1 << 30), rng) for _ in range(SWEEPS)]
    bench.facts.update(windows=f"{WARMUP}+{MEASURE}",
                       request=f"sweep {len(ALL_NAMES)} workloads x "
                               f"base+apf, {SWEEPS} sweeps")
    setups = []
    daemon = None
    try:
        for _ in range(SETUP_REPEATS):
            if daemon is not None:
                daemon.stop()
            first = bench.speed.tick(every_cpu=True)
            t0 = time.perf_counter()
            daemon = Daemon(bench.tmpdir("hot-"), bench.slots)
            expected = _fill(daemon, docs, bench.speed)
            setups.append((time.perf_counter() - t0, first,
                           bench.speed.tick(every_cpu=True)))
        bench.add_timing("setup_s", "s", setups, median)
        _pin_together(daemon.proc.pid)
        _measure(bench, daemon, docs, expected)
    finally:
        if daemon is not None:
            daemon.stop()


def _pin_together(pid: int) -> None:
    """Put this process and every thread of the daemon on one CPU.

    A request is strictly sequential (the client waits while the daemon
    works), so sharing a CPU costs nothing, and the host-speed kernel the
    client samples then runs where the daemon's work runs. Skipped where
    the platform has no affinity control."""
    if not hasattr(os, "sched_setaffinity"):
        return
    cpu = {min(os.sched_getaffinity(0))}
    try:
        threads = [int(tid) for tid in os.listdir(f"/proc/{pid}/task")]
    except OSError:
        return
    for tid in [0] + threads:
        try:
            os.sched_setaffinity(tid, cpu)
        except OSError:
            pass


def _measure(bench, daemon, docs, expected) -> None:
    rng = bench.rng
    recorder = bench.recorder
    store0 = daemon.call("GET", "/healthz")["store"]
    counted = None
    latencies, traced_latencies = [], []
    graphs = [dag.expand_request(requests.parse_request(doc))
              for doc in docs]
    deadline = time.perf_counter() + bench.seconds
    index = 0
    while time.perf_counter() < deadline:
        traced = bench.trace and index % 2 == 1
        recorder.enabled = traced
        recorder.request_id = f"request{index}"
        which = rng.randrange(len(docs))
        bench.attempted += 1
        tick = bench.speed.tick()
        t0 = time.perf_counter()
        try:
            with recorder.span("POST /submit"):
                response = daemon.call("POST", "/submit", docs[which])
            with recorder.span("GET /status"):
                detail = daemon.call("GET",
                                     f"/status/{response['request_id']}")
        except requests.RequestError as exc:
            bench.refused += 1
            bench.mismatch(f"request {index} refused: {exc}")
            latencies.append((FAILED, tick))
            index += 1
            continue
        except OSError as exc:
            bench.failed += 1
            bench.mismatch(f"request {index} failed: {exc}")
            latencies.append((FAILED, tick))
            index += 1
            continue
        elapsed = time.perf_counter() - t0
        if response["status"] != "done" or detail["status"] != "done" \
                or detail["results"] != expected[which]:
            bench.failed += 1
            bench.mismatch(f"{response['request_id']}: status "
                           f"{detail['status']}, results differ from set-up: "
                           f"{detail['results'] != expected[which]}")
            elapsed = FAILED
        (traced_latencies if traced else latencies).append((elapsed, tick))
        if traced:
            _probe(bench, daemon, docs[which], graphs[which])
        index += 1
        if index == COUNTED:
            counted = daemon.call("GET", "/healthz")["store"]
    recorder.enabled = bench.trace
    store1 = daemon.call("GET", "/healthz")["store"]
    if store1["misses"] != store0["misses"]:
        bench.mismatch(f"{store1['misses'] - store0['misses']} store misses "
                       f"while resubmitting filled sweeps")

    leaves = len(graphs[0].leaves())
    bench.add_throughput("kips", "kinst/s", latencies,
                         leaves * (WARMUP + MEASURE) / 1000.0)
    bench.add_timing("op_p50_ms", "ms", latencies, median, scale=1000.0)
    bench.add_latencies("hit_e2e", latencies)
    if not bench.trace:
        return

    add = bench.add_layer
    for name, span in (("daemon.submit_ms", "POST /submit"),
                       ("daemon.status_ms", "GET /status"),
                       ("daemon.healthz_ms", "GET /healthz"),
                       ("dag.expand_ms", "expand_request")):
        add(name, recorder.mean_ms(span), len(recorder.named(span)))
    keys = recorder.named("result_key")
    add("harness.result_key_us",
        1000.0 * recorder.mean_ms("result_key") / max(1, leaves),
        len(keys) * leaves)
    if counted is not None:
        for name in ("hits", "misses", "dedups"):
            add(f"store.{name}", counted[name] - store0[name], COUNTED)
    bench.add_overhead([[t] for t in latencies],
                       [[t] for t in traced_latencies])


def _probe(bench, daemon, doc, graph) -> None:
    """Per-layer probes after a traced request, outside its timing: the
    HTTP floor, and in-process request expansion and leaf keying."""
    recorder = bench.recorder
    with recorder.span("GET /healthz"):
        daemon.call("GET", "/healthz")
    with recorder.span("expand_request"):
        dag.expand_request(requests.parse_request(doc))
    jobs = [node.job for node in graph.leaves()]
    with recorder.span("result_key"):
        for job in jobs:
            harness.result_key(job.workload, job.config, job.warmup,
                               job.measure, job.seed, job.sampling)
