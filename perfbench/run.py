"""Benchmark command: one workload, one seed, one measured run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sim --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is the separate traced run: operations alternate between
untraced and traced, the per-layer metrics come from the traced ones,
and ``trace.overhead_pct`` is the gap between the two halves.

Timings are normalised to a reference host speed (see ``hostspeed.py``);
each normalised metric's raw value is printed beside it as ``<name>.raw``.
The human-readable report (every metric with its unit and sample count,
the host facts, the correctness verdict) goes to standard output; the
last line is one JSON object with the metrics ``BENCHMARK.json`` declares
for the chosen mode. The exit code is 0 only when every operation
succeeded and every output matched its reference; it is 2 when the
checkout holds no ``repro`` sources to measure.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from hostspeed import HostSpeed  # noqa: E402
from stats import (Report, StatsError, fail_ratio,  # noqa: E402
                   interquartile_mean, median)
from tracing import SpanRecorder, StackSampler  # noqa: E402

#: workload name -> the module in this directory that drives it
WORKLOAD_MODULES = {"sim": "work_sim", "svc-cold": "work_cold",
                    "svc-hot": "work_hot"}

#: worker slots for the service workloads: never more than the host has
SLOTS = max(1, min(2, os.cpu_count() or 1))


class Run:
    """State shared by one benchmark run: seed, clock, reports, tracing,
    correctness verdicts and the scratch directory."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, sensitivity: float,
                 layer_units: Dict[str, str]) -> None:
        self.seconds = seconds
        self.trace = trace
        self.slots = SLOTS
        self.rng = random.Random(f"{workload}/{seed}")
        self.report = Report()
        self.layers = Report()
        #: per-layer metric name -> unit, as BENCHMARK.json declares them
        self.layer_units = layer_units
        self.facts: dict = {"nproc": os.cpu_count(),
                            "python": platform.python_version(),
                            "slots": SLOTS}
        self.speed = HostSpeed(sensitivity)
        self.recorder = SpanRecorder()
        self.sampler = StackSampler()
        self.attempted = 0
        self.failed = 0
        self.refused = 0
        self.mismatches: List[str] = []
        self.notes: List[str] = []
        scratch = ROOT / ".perfbench"
        scratch.mkdir(exist_ok=True)
        self.scratch = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))

    def tmpdir(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.scratch))

    def mismatch(self, what: str) -> None:
        self.mismatches.append(what)

    def note(self, what: str) -> None:
        """An event worth printing that does not fail the run."""
        self.notes.append(what)

    def add_timing(self, name: str, unit: str, timings, stat,
                   scale: float = 1.0) -> None:
        """Report ``stat`` of timings normalised to the reference host
        speed as ``name``, and of the raw seconds as ``name.raw``. A
        timing is ``(seconds, tick)`` or, for an operation sampled
        throughout, ``(seconds, first tick, last tick)``."""
        norm = self.speed.normalise
        self.report.add(name, unit, scale * stat([norm(*t) for t in timings]),
                        len(timings))
        self.report.add(f"{name}.raw", unit,
                        scale * stat([t[0] for t in timings]), len(timings))

    def add_throughput(self, name: str, unit: str, timings,
                       work_per_op: float) -> None:
        """``work_per_op`` over the interquartile mean operation time: a
        throughput that one stalled operation cannot swing."""
        self.add_timing(name, unit, timings,
                        lambda times: work_per_op / interquartile_mean(times))

    def add_latencies(self, prefix: str, timings) -> None:
        """``<prefix>_p50_ms`` and, when at least 10 samples lie beyond
        it, ``<prefix>_p90_ms``, over normalised ``(seconds, tick)``."""
        norm = self.speed.normalise
        values = [1000.0 * norm(s, i) for s, i in timings]
        self.report.add(f"{prefix}_p50_ms", "ms", median(values),
                        len(values))
        self.report.add_tail(f"{prefix}_p90_ms", "ms", values, 90)

    def _median_op(self, operations, normalised: bool = True) -> float:
        """Median seconds of operations made of ``(seconds, tick)`` parts."""
        norm = self.speed.normalise if normalised else (lambda s, _i: s)
        return median([sum(norm(s, i) for s, i in op) for op in operations])

    def add_rounds(self, name: str, operations) -> None:
        """``name`` in ms: the median operation, where an operation is a
        list of ``(seconds, tick)`` timed parts."""
        self.report.add(name, "ms", 1000.0 * self._median_op(operations),
                        len(operations))
        self.report.add(f"{name}.raw", "ms",
                        1000.0 * self._median_op(operations, False),
                        len(operations))

    def add_overhead(self, untraced, traced) -> None:
        """``trace.overhead_pct``: the median traced operation over the
        median untraced one, both normalised, minus one."""
        if untraced and traced:
            self.add_layer("trace.overhead_pct",
                           100.0 * (self._median_op(traced)
                                    / self._median_op(untraced) - 1.0),
                           len(traced))

    def add_layer(self, name: str, value: float, samples: int) -> None:
        self.layers.add(name, self.layer_units[name], value, samples)

    def finish_layers(self) -> None:
        """Report every per-layer metric the workload left unmeasured as
        0 over 0 samples: the layer did no work here."""
        for name in self.layer_units:
            if name not in self.layers.metrics:
                self.add_layer(name, 0.0, 0)

    def add_common(self) -> None:
        """``peak_rss_mb`` and ``fail_ratio``, the metrics every workload
        reports the same way."""
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        self.report.add("peak_rss_mb", "MB", (own + children) / 1024.0, 1)
        self.report.add("fail_ratio", "fraction",
                        fail_ratio(max(1, self.attempted), self.failed,
                                   self.refused),
                        self.attempted)

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


def _load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOAD_MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {src}; run from the "
              f"root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(
            os.pathsep) if p])
    spec = _load_spec()

    module = importlib.import_module(WORKLOAD_MODULES[args.workload])
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace),
              module.SENSITIVITY,
              {m["name"]: m["unit"] for m in spec["per_layer"]})
    started = time.perf_counter()
    try:
        if run.trace:
            run.sampler.start()
        try:
            module.run(run)
        finally:
            run.sampler.stop()
        if run.trace:
            run.recorder.dump(
                ROOT / ".perfbench" / f"spans-{args.workload}-"
                                      f"seed{args.seed}.json",
                meta={"workload": args.workload, "seed": args.seed,
                      **run.facts})
    finally:
        run.close()
    run.add_common()
    run.finish_layers()
    run.facts["host_slowdown"] = round(run.speed.factor(), 3)

    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"wall={time.perf_counter() - started:.1f}s")
    print("# host " + " ".join(f"{k}={v}" for k, v in run.facts.items()))
    print("# end-to-end (tracing off" if not run.trace
          else "# end-to-end (alternate operations traced")
    for line in run.report.lines():
        print("  " + line)
    if run.trace:
        print("# per-layer")
        for line in run.layers.lines():
            print("  " + line)
    for what in run.notes:
        print(f"# note: {what}")
    for what in run.mismatches:
        print(f"# MISMATCH {what}")
    failed = run.failed + run.refused
    correct = not run.mismatches and failed == 0
    print(f"# correct={correct} attempted={run.attempted} "
          f"failed={run.failed} refused={run.refused}")

    source = run.layers if run.trace else run.report
    try:
        metrics = source.select(spec["per_layer"] if run.trace
                                else spec["end_to_end"])
    except StatsError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
