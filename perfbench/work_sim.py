"""Workload ``sim``: in-process dense and sampled simulation.

A fixed cell set (SPEC-like and GAP workloads x {baseline, default APF}
dense, plus one sampled cell) is simulated in rounds. Each round runs
every cell once in a seed-shuffled order, so a slow phase of the host
hits every cell alike. There is no service and no result cache: all host
time is in the core's own layers.

The seed picks each cell's simulator seed and the order within each
round; the cells themselves never change.
"""

from __future__ import annotations

import gc
import time
from contextlib import nullcontext

from stats import median

from repro.analysis import harness
from repro.common.config import small_core_config
from repro.core.ooo_core import OoOCore
from repro.core.simulator import Simulator
from repro.sampling import FunctionalWarmer, SamplingPlan, SamplingSimulator
from repro.workloads import profiles

DENSE_WORKLOADS = ("leela", "mcf", "bfs", "sssp")
SAMPLED_WORKLOADS = ("leela",)
WARMUP, MEASURE = 2_000, 2_000
#: slope of log time of a round on log host-speed kernel time, measured
#: across the slow and fast phases of a shared 2-CPU host
SENSITIVITY = 0.8
#: trace length of a sampled cell: the default plan scaled to it keeps
#: the plan's 32 intervals and its warm-up/measure/fast-forward shares
SAMPLED_TRACE = 12_000
SETUP_REPEATS = 8
CONFIGS = {"base": small_core_config(),
           "apf": small_core_config().with_apf()}


class Cell:
    def __init__(self, workload: str, label: str, sampled: bool,
                 seed: int) -> None:
        self.workload = workload
        self.label = label
        self.config = CONFIGS[label]
        self.sampled = sampled
        self.seed = seed
        self.program = None
        self.trace = None
        self.expected = None        # (cycles, instructions) reference

    @property
    def name(self) -> str:
        kind = "sampled" if self.sampled else "dense"
        return f"{self.workload}/{self.label}/{kind}"


def _setup(cells, bench):
    """Build every program and emulate every trace from cold caches."""
    # drop the previous repetition's objects first, so the peak resident
    # set never holds two copies whatever the collector's timing
    for cell in cells:
        cell.program = cell.trace = None
    profiles.clear_trace_cache()
    gc.collect()
    build_s = emulate_s = 0.0
    emulated = 0
    t0 = time.perf_counter()
    for cell in cells:
        t = time.perf_counter()
        with bench.recorder.span("build_workload", workload=cell.workload):
            cell.program = profiles.build_workload(cell.workload)
        build_s += time.perf_counter() - t
        length = SAMPLED_TRACE if cell.sampled else WARMUP + MEASURE
        t = time.perf_counter()
        with bench.recorder.span("workload_trace", workload=cell.workload):
            cell.trace = profiles.workload_trace(cell.workload, length)
        emulate_s += time.perf_counter() - t
        emulated += length
    return time.perf_counter() - t0, build_s, emulate_s, emulated


def _reference(cell, plan):
    """The cell's result through the public ``Simulator`` facades."""
    if cell.sampled:
        return SamplingSimulator(cell.config, seed=cell.seed).run(
            cell.workload, plan, cell.program, cell.trace)
    return Simulator(cell.config, seed=cell.seed).run(
        cell.workload, WARMUP, MEASURE, cell.program, cell.trace)


def _run_cell(cell, plan, bench, traced):
    """One timed simulation; returns (seconds, cycles, instructions)."""
    if cell.sampled:
        sim = SamplingSimulator(cell.config, seed=cell.seed)
        t0 = time.perf_counter()
        if traced:
            with bench.recorder.span("SamplingSimulator.run"), \
                    bench.sampler.arm():
                result = sim.run(cell.workload, plan, cell.program,
                                 cell.trace)
        else:
            result = sim.run(cell.workload, plan, cell.program, cell.trace)
        return time.perf_counter() - t0, result.cycles, result.instructions
    t0 = time.perf_counter()
    core = OoOCore(cell.config, cell.program, cell.trace, seed=cell.seed)
    if traced:
        with bench.recorder.span("OoOCore.run"), bench.sampler.arm():
            core.run(WARMUP + MEASURE, warmup=WARMUP)
    else:
        core.run(WARMUP + MEASURE, warmup=WARMUP)
    seconds = time.perf_counter() - t0
    if traced:
        core.quiesce()
        with bench.recorder.span("OoOCore.snapshot"):
            state = core.snapshot()
        with bench.recorder.span("OoOCore.restore"):
            core.restore(state)
    return seconds, core.measured_cycles(), core.measured_instructions()


class Tally:
    """Per-cell ``(seconds, host-speed tick)`` timings over the rounds."""

    def __init__(self, cells) -> None:
        self.seconds = {cell.name: [] for cell in cells}

    def kips(self, cells, time_of) -> float:
        """Instructions of ``cells`` over the sum of their median times
        (``time_of`` maps a timing to raw or normalised seconds): one
        slow repetition moves a median, not the total."""
        seconds = sum(median([time_of(*t) for t in self.seconds[cell.name]])
                      for cell in cells)
        instructions = sum(_instructions(cell) for cell in cells)
        return instructions / 1000.0 / seconds

    def runs(self, cells) -> int:
        return sum(len(self.seconds[cell.name]) for cell in cells)


def _instructions(cell) -> int:
    """Instructions a cell's kips counts: warm-up plus measured for a
    dense cell, the whole trace covered for a sampled one."""
    return len(cell.trace) if cell.sampled else WARMUP + MEASURE


def _raw(seconds: float, _tick: int) -> float:
    return seconds


def _count_instructions(record: dict, advanced: int) -> None:
    record["instructions"] = advanced


def _round(order, plan, bench, traced, index, tally):
    """Run every cell once; returns its (seconds, tick) timings and
    [instructions, cycles]."""
    timings = []
    counts = [0, 0]
    for cell in order:
        bench.attempted += 1
        bench.recorder.request_id = f"round{index}/{cell.name}"
        tick = bench.speed.tick()
        seconds, cycles, instructions = _run_cell(cell, plan, bench, traced)
        timings.append((seconds, tick))
        counts[0] += instructions
        counts[1] += cycles
        if (cycles, instructions) != cell.expected:
            bench.failed += 1
            bench.mismatch(f"{cell.name} seed {cell.seed}: {cycles} cycles / "
                           f"{instructions} instructions, reference "
                           f"{cell.expected}")
        tally.seconds[cell.name].append((seconds, tick))
    return timings, counts


def run(bench) -> None:
    rng = bench.rng
    cells = [Cell(w, label, False, rng.randrange(1, 1 << 30))
             for w in DENSE_WORKLOADS for label in CONFIGS]
    cells += [Cell(w, "base", True, rng.randrange(1, 1 << 30))
              for w in SAMPLED_WORKLOADS]
    plan = SamplingPlan()
    bench.facts.update(windows=f"{WARMUP}+{MEASURE}",
                       sampling=plan.cache_tag(), cells=len(cells))

    bench.recorder.enabled = bench.trace
    setups, setup_times = [], []
    for _ in range(SETUP_REPEATS):
        first = bench.speed.tick()
        setups.append(_setup(cells, bench))
        setup_times.append((setups[-1][0], first, bench.speed.tick()))
    bench.add_timing("setup_s", "s", setup_times, median)

    # untimed first round through the public facades: the reference
    # every timed repetition must reproduce exactly
    serialize_s = []
    for cell in cells:
        result = _reference(cell, plan)
        cell.expected = (result.cycles, result.instructions)
        t = time.perf_counter()
        with bench.recorder.span("serialize_result"):
            harness.serialize_result(result)
        serialize_s.append(time.perf_counter() - t)

    rounds, traced_rounds = [], []
    tally = Tally(cells)
    first_round_counts = None
    deadline = time.perf_counter() + bench.seconds
    index = 0
    while time.perf_counter() < deadline:
        traced = bench.trace and index % 2 == 1
        bench.recorder.enabled = traced
        order = list(cells)
        rng.shuffle(order)
        with (bench.recorder.patched(
                FunctionalWarmer, "advance", "FunctionalWarmer.advance",
                on_result=_count_instructions)
              if traced else nullcontext()):
            timings, counts = _round(order, plan, bench, traced, index, tally)
        (traced_rounds if traced else rounds).append(timings)
        if first_round_counts is None:
            first_round_counts = counts
        index += 1

    report = bench.report
    dense = [cell for cell in cells if not cell.sampled]
    groups = {"kips": dense,
              **{f"{label}_kips": [cell for cell in dense
                                   if cell.label == label]
                 for label in CONFIGS},
              "sampled_kips": [cell for cell in cells if cell.sampled]}
    for name, group in groups.items():
        report.add(name, "kinst/s", tally.kips(group, bench.speed.normalise),
                   tally.runs(group))
    report.add("kips.raw", "kinst/s", tally.kips(dense, _raw),
               tally.runs(dense))
    bench.add_rounds("op_p50_ms", rounds)
    if not bench.trace:
        return

    add = bench.add_layer
    builds = [s[1] for s in setups]
    add("workloads.build_s", median(builds), len(builds))
    add("workloads.emulate_kips",
        median([s[3] / 1000.0 / s[2] for s in setups]), len(setups))
    # cells share programs and traces through the profiles cache, so
    # per-item means divide by the distinct items each set-up built
    programs = len({c.workload for c in cells}) * len(setups)
    traces = len({(c.workload, len(c.trace)) for c in cells}) * len(setups)
    add("workloads.build_ms", 1000.0 * sum(builds) / programs, programs)
    add("workloads.emulate_ms",
        1000.0 * sum(s[2] for s in setups) / traces, traces)
    for layer, share in bench.sampler.shares().items():
        add(f"{layer}.share", share, bench.sampler.total)
    advances = bench.recorder.named("FunctionalWarmer.advance")
    ffwd_s = sum(s["end"] - s["start"] for s in advances)
    add("sampling.ffwd_kips",
        sum(s["instructions"] for s in advances) / 1000.0 / ffwd_s
        if ffwd_s else 0.0, len(advances))
    add("core.snapshot_ms", bench.recorder.mean_ms("OoOCore.snapshot"),
        len(bench.recorder.named("OoOCore.snapshot")))
    add("core.restore_ms", bench.recorder.mean_ms("OoOCore.restore"),
        len(bench.recorder.named("OoOCore.restore")))
    add("harness.serialize_ms", 1000.0 * median(serialize_s),
        len(serialize_s))
    add("core.instructions", first_round_counts[0], 1)
    add("core.cycles", first_round_counts[1], 1)
    bench.add_overhead(rounds, traced_rounds)
