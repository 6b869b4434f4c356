"""Process-parallel experiment runner with a crash-safe result store.

Every paper experiment sweeps the same 16 workloads over many
``CoreConfig``s. This module fans (workload, config, windows, seed) jobs
across a pool of worker processes — ChampSim/Scarab-style campaign
running — while the parent process owns the on-disk cache: it probes for
hits before scheduling, treats corrupt entries as misses (recording the
recovery in the run manifest), and commits results atomically via
``tmp + os.replace`` so an interrupted run can never poison the cache.

Guarantees:

* **Determinism** — a simulation is a pure function of its job tuple, and
  every result (fresh or cached) is round-tripped through the same
  canonical JSON payload, so parallel runs produce results identical to
  serial runs and byte-identical cache files.
* **Per-job timeout** — jobs run in a pool of long-lived worker
  processes (forked once each, then fed job after job, keeping their
  program cache warm); a job that exceeds ``timeout`` seconds has its
  worker terminated and replaced, and is retried.
* **Bounded retry** — crashed / timed-out / raising jobs are retried up
  to ``retries`` extra times before being reported as failures.
* **Structured manifest** — a :class:`RunManifest` records per-job
  status, wall time, cache hit/miss, attempts, and run-level events
  (corrupt-entry recoveries, retries), and serialises to JSON.

The module-level "active runner" lets high-level entry points (the
``repro bench`` CLI) install one configured :class:`Runner` that all
:func:`repro.analysis.harness.sweep` calls underneath share — benches
need no code changes to run in parallel.

Execution is factored into an incremental :class:`JobExecutor` —
submit/step semantics over the worker pool, blocking in
``multiprocessing.connection.wait`` on the busy workers' pipes instead of
busy-polling — so long-lived drivers (the ``repro serve`` daemon's DAG
scheduler) can feed jobs one at a time and interleave their own work,
while :meth:`Runner.run` stays the batch front door.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.util
import os
import sys
import time
import traceback
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing import connection as _mp_connection
from pathlib import Path
from typing import (Deque, Dict, Iterable, Iterator, List, Optional,
                    Sequence)

from repro.common.config import CoreConfig
from repro.core.simulator import SimResult, Simulator
from repro.obs.metrics import current_metric_stream
from repro.sampling import SamplingPlan, SamplingSimulator

__all__ = [
    "Job", "JobEvent", "JobExecutor", "JobFailure", "RunManifest",
    "Runner", "RunnerError", "current_runner", "make_job", "resolve_jobs",
    "using_runner",
]

_JOBS_ENV = "REPRO_BENCH_JOBS"

#: default seconds one executor step blocks waiting for worker pipes
_POLL_INTERVAL = 0.02


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker-count default: explicit value, else $REPRO_BENCH_JOBS, else 1."""
    if jobs is None:
        jobs = int(os.environ.get(_JOBS_ENV, "1") or "1")
    return max(1, jobs)


# --------------------------------------------------------------------------
# Jobs
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Job:
    """One simulation: a (workload, config, windows, seed) tuple, plus an
    optional sampling plan (which supersedes the dense windows)."""

    workload: str
    config: CoreConfig
    warmup: int
    measure: int
    seed: int = 1234
    sampling: Optional[SamplingPlan] = None

    @property
    def key(self) -> str:
        from repro.analysis import harness
        return harness.result_key(self.workload, self.config,
                                  self.warmup, self.measure, self.seed,
                                  self.sampling)


def make_job(workload: str, config: CoreConfig,
             warmup: Optional[int] = None, measure: Optional[int] = None,
             seed: int = 1234,
             sampling: Optional[SamplingPlan] = None) -> Job:
    """Build a :class:`Job`, defaulting windows to :func:`bench_windows`."""
    from repro.analysis import harness
    default_warmup, default_measure = harness.bench_windows()
    return Job(workload, config,
               default_warmup if warmup is None else warmup,
               default_measure if measure is None else measure,
               seed, sampling)


# --------------------------------------------------------------------------
# Manifest
# --------------------------------------------------------------------------

@dataclass
class JobFailure:
    key: str
    workload: str
    status: str         # "failed" | "timeout"
    error: str


@dataclass
class RunManifest:
    """Structured record of one campaign: job outcomes plus run events."""

    meta: dict = field(default_factory=dict)
    jobs: List[dict] = field(default_factory=list)
    events: List[dict] = field(default_factory=list)
    _started: float = field(default_factory=time.monotonic, repr=False)

    def record_job(self, job: Job, status: str, *, wall_time: float = 0.0,
                   cache_hit: bool = False, attempts: int = 0,
                   error: Optional[str] = None,
                   result_payload: Optional[dict] = None) -> None:
        entry = {
            "key": job.key,
            "workload": job.workload,
            "warmup": job.warmup,
            "measure": job.measure,
            "seed": job.seed,
            "status": status,
            "wall_time_s": round(wall_time, 4),
            "cache_hit": cache_hit,
            "attempts": attempts,
        }
        if result_payload is not None \
                and result_payload.get("counters", {}).get("cycle_cap_hit"):
            # the core burned its max_cycles budget before retiring the
            # target: the result is truncated, not a converged measurement
            entry["cycle_cap_hit"] = True
            self.record_event(
                "cycle_cap_hit", key=job.key, workload=job.workload,
                detail="max_cycles reached before the instruction target; "
                       "metrics cover a truncated window")
        if job.sampling is not None:
            entry["sampling"] = job.sampling.cache_tag()
            if result_payload is not None:
                # per-interval stats so a campaign's statistical quality
                # is auditable from the manifest alone
                entry["interval_ipcs"] = list(
                    result_payload.get("interval_ipcs", []))
                if "ipc_ci" in result_payload:
                    entry["ipc_ci"] = dict(result_payload["ipc_ci"])
        if error:
            entry["error"] = error
        stack = None
        if result_payload is not None and any(
                key.startswith("cpi_")
                for key in result_payload.get("counters", ())):
            # per-workload CPI stack in the manifest: the campaign's
            # where-did-the-cycles-go answer travels with its results
            from repro.analysis.harness import config_signature
            from repro.obs.accounting import stack_from_counters
            stack = stack_from_counters(
                result_payload["counters"],
                width=job.config.backend.allocate_width,
                cycles=result_payload.get("cycles", 0),
                workload=job.workload,
                config=config_signature(job.config),
                instructions=result_payload.get("instructions", 0))
            entry["cpi_stack"] = stack.to_record()
        self.jobs.append(entry)
        stream = current_metric_stream()
        if stream is not None:
            # emitted parent-side as results arrive: worker processes do
            # not inherit the ambient stream (see repro.obs.metrics)
            from repro.analysis.harness import config_signature
            stream.emit("job", workload=job.workload,
                        config=config_signature(job.config),
                        status=status, attempts=attempts,
                        duration_s=entry["wall_time_s"],
                        cache_hit=cache_hit, key=job.key,
                        cycle_cap_hit=bool(entry.get("cycle_cap_hit")))
            if stack is not None:
                stream.emit("cpi_stack", **stack.to_record())

    def record_event(self, kind: str, **detail) -> None:
        self.events.append({"kind": kind, **detail})

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for entry in self.jobs:
            out[entry["status"]] = out.get(entry["status"], 0) + 1
        return out

    def to_dict(self) -> dict:
        return {
            "meta": dict(self.meta),
            "elapsed_s": round(time.monotonic() - self._started, 3),
            "counts": self.counts(),
            "jobs": list(self.jobs),
            "events": list(self.events),
        }

    def save(self, path) -> Path:
        """Atomically write the manifest JSON to ``path``.

        The temp file is unlinked even when serialisation raises
        (e.g. unserialisable ``meta``), mirroring the cache writer in
        :func:`repro.analysis.harness.store_cache_payload`.
        """
        import json
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        try:
            with tmp.open("w") as handle:
                json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            os.replace(tmp, path)
        finally:
            if tmp.exists():
                tmp.unlink()
        return path


class RunnerError(RuntimeError):
    """Raised (in strict mode) when jobs remain failed after retries."""

    def __init__(self, failures: Sequence[JobFailure]) -> None:
        self.failures = list(failures)
        lines = [f"{len(self.failures)} job(s) failed:"]
        for failure in self.failures[:8]:
            first = failure.error.strip().splitlines()
            lines.append(f"  [{failure.status}] {failure.key}: "
                         f"{first[-1] if first else '?'}")
        if len(self.failures) > 8:
            lines.append(f"  ... and {len(self.failures) - 8} more")
        super().__init__("\n".join(lines))


# --------------------------------------------------------------------------
# Worker side
# --------------------------------------------------------------------------

def _run_job(job: Job) -> dict:
    """Simulate ``job`` in this process; return its serialised payload."""
    from repro.analysis import harness
    if job.sampling is not None:
        result = SamplingSimulator(job.config, seed=job.seed).run(
            job.workload, job.sampling)
    else:
        result = Simulator(job.config, seed=job.seed).run(
            job.workload, job.warmup, job.measure)
    return harness.serialize_result(result)


def _worker_main(conn) -> None:
    """Serve jobs from ``conn`` until the parent closes it (or dies).

    The worker keeps :func:`~repro.workloads.profiles.build_workload`'s
    program cache across jobs (at most one program per workload name)
    and only the trace its latest job used, so its memory stays bounded
    however many leaves it runs. A job that raises is reported as an
    ``("error", traceback)`` message and the worker waits for the next.
    """
    from repro.workloads import profiles
    while True:
        try:
            job = conn.recv()
        except EOFError:
            return
        try:
            message = ("ok", _run_job(job))
        except Exception:
            message = ("error", traceback.format_exc())
        try:
            conn.send(message)
        except OSError:
            return      # the parent is gone
        profiles.trim_trace_cache(1)


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


@dataclass
class _Task:
    job: Job
    attempts: int = 0
    started: float = 0.0
    first_started: float = 0.0


@dataclass
class _Worker:
    """One long-lived worker process and the parent's end of its pipe."""

    proc: object
    conn: object
    task: Optional[_Task] = None    # the job it is running; None when idle

    def stop(self) -> None:
        self.proc.terminate()
        self.proc.join()
        self.conn.close()


# --------------------------------------------------------------------------
# Incremental executor
# --------------------------------------------------------------------------

@dataclass
class JobEvent:
    """One executor transition, returned by :meth:`JobExecutor.step`.

    ``kind`` is one of:

    * ``"started"`` — the job was handed to a worker process
      (``attempts`` counts this hand-off).
    * ``"retry"`` — the attempt crashed / timed out / raised and the job
      was re-enqueued; ``error`` holds the failure text.
    * ``"ok"`` — terminal success; ``payload`` is the serialised result.
    * ``"failed"`` / ``"timeout"`` — terminal failure after all retries;
      ``error`` holds the last failure text.

    ``wall_time`` on terminal events spans from the job's *first* hand-off.
    """

    kind: str
    job: Job
    attempts: int
    payload: Optional[dict] = None
    error: Optional[str] = None
    wall_time: float = 0.0


class JobExecutor:
    """Incremental worker-pool executor: submit jobs, step for events.

    The executor owns up to ``slots`` long-lived worker processes,
    per-job timeout enforcement, and bounded retry; callers own
    everything else (cache probes, result handling, manifests beyond
    retry events). :class:`Runner` drives it to completion in one loop;
    the ``repro serve`` scheduler feeds it one DAG-ready job at a time
    and interleaves its own bookkeeping between :meth:`step` calls.

    Worker model:

    * Workers are forked on first need and then receive job after job
      over a duplex pipe, keeping their program cache warm. A job that
      raises leaves its worker alive; a worker that crashes is replaced,
      and one whose job exceeds ``timeout`` is terminated and replaced.
    * Every forked child closes its inherited copies of the parent's pipe
      ends, so when the parent dies (even by SIGKILL) each idle worker
      reads EOF and exits instead of outliving it — holding, say, a
      killed daemon's listening socket.
    * Start method stays ``fork``, paid once per worker instead of once
      per job: a ``spawn``/``forkserver`` worker re-imports ``repro``,
      which costs more than a whole cold service start.

    Scheduling structure:

    * ``pending`` is a :class:`collections.deque`; fresh submissions and
      retries both join at the **tail** (documented behaviour: a retried
      job waits behind everything already queued, so one flaky job cannot
      starve the rest of a campaign), and launches pop from the head.
    * :meth:`step` blocks in ``multiprocessing.connection.wait`` on the
      pipes of busy workers (bounded by the nearest timeout deadline)
      instead of busy-polling each pipe — an idle pool costs no CPU,
      which is what lets a long-lived daemon host sleep between jobs.
    """

    def __init__(self, slots: Optional[int] = None,
                 timeout: Optional[float] = None, retries: int = 1,
                 manifest: Optional[RunManifest] = None) -> None:
        self.slots = resolve_jobs(slots)
        self.timeout = timeout
        self.retries = max(0, retries)
        self.manifest = manifest
        self._ctx = _mp_context()
        self._pending: Deque[_Task] = deque()
        self._workers: List[_Worker] = []

    # -- introspection ----------------------------------------------------

    def _busy(self) -> List[_Worker]:
        return [worker for worker in self._workers
                if worker.task is not None]

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def active_count(self) -> int:
        return len(self._busy())

    @property
    def free_slots(self) -> int:
        """Slots not already claimed by running or queued work."""
        return max(0, self.slots - self.active_count - len(self._pending))

    @property
    def idle(self) -> bool:
        return not self._pending and not self._busy()

    # -- submission -------------------------------------------------------

    def submit(self, job: Job) -> None:
        """Enqueue ``job`` at the tail of the pending deque."""
        self._pending.append(_Task(job))

    # -- stepping ---------------------------------------------------------

    def step(self, wait: float = _POLL_INTERVAL) -> List[JobEvent]:
        """Hand queued work to idle workers, else wait up to ``wait``
        seconds for worker activity; return the resulting
        :class:`JobEvent` list.

        A step that hands out work returns its ``started`` events at
        once, before any wait, so callers stamp a job's start when it
        really starts. Returns immediately (empty list) when the
        executor is idle.
        """
        events: List[JobEvent] = []
        while self._pending and self.active_count < self.slots:
            task = self._pending.popleft()
            if self._launch(task):
                events.append(JobEvent("started", task.job, task.attempts))
            else:
                self._fail_or_retry(
                    task, "failed", "worker died before taking the job",
                    events)
        busy = self._busy()
        if events or not busy:
            return events

        timeout = wait
        if self.timeout is not None:
            nearest = min(worker.task.started + self.timeout
                          for worker in busy)
            timeout = max(0.0, min(wait, nearest - time.monotonic()))
        ready = set(_mp_connection.wait(
            [worker.conn for worker in busy], timeout))

        now = time.monotonic()
        for worker in busy:
            task = worker.task
            ready_or_dead = (worker.conn in ready
                             or not worker.proc.is_alive())
            # read a pending result before declaring the worker dead: it
            # may have sent it and exited between wait() and is_alive()
            message = self._receive(worker) if ready_or_dead else None
            if message is not None:
                worker.task = None
                kind, payload = message
                if kind == "ok":
                    events.append(JobEvent(
                        "ok", task.job, task.attempts, payload=payload,
                        wall_time=now - task.first_started))
                else:
                    self._fail_or_retry(task, "failed", payload, events)
            elif ready_or_dead:
                self._retire(worker)
                self._fail_or_retry(
                    task, "failed",
                    f"worker crashed (exitcode {worker.proc.exitcode})",
                    events)
            elif (self.timeout is not None
                  and now - task.started > self.timeout):
                self._retire(worker)
                self._fail_or_retry(
                    task, "timeout",
                    f"timed out after {self.timeout:g}s", events)
        return events

    @staticmethod
    def _receive(worker: _Worker):
        """The worker's pending message, or ``None`` at EOF / no data."""
        try:
            return worker.conn.recv() if worker.conn.poll(0) else None
        except (EOFError, OSError):
            return None

    def _launch(self, task: _Task) -> bool:
        """Hand ``task`` to an idle worker, starting one if none is idle.
        Returns False when the worker died before it took the job."""
        worker = next((w for w in self._workers if w.task is None), None)
        if worker is not None and not worker.proc.is_alive():
            self._retire(worker)
            worker = None
        if worker is None:
            worker = self._start_worker()
        task.started = time.monotonic()
        if not task.first_started:
            task.first_started = task.started
        task.attempts += 1
        try:
            worker.conn.send(task.job)
        except OSError:
            self._retire(worker)
            return False
        worker.task = task
        return True

    def _start_worker(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        # a forked child (of this pool or any other) closes its copy of
        # this end, so the worker reads EOF once the parent is gone
        multiprocessing.util.register_after_fork(parent_conn,
                                                 type(parent_conn).close)
        proc = self._ctx.Process(target=_worker_main, args=(child_conn,),
                                 daemon=True)
        proc.start()
        child_conn.close()
        worker = _Worker(proc, parent_conn)
        self._workers.append(worker)
        return worker

    def _retire(self, worker: _Worker) -> None:
        """Stop ``worker`` (if still running) and drop it from the pool."""
        self._workers.remove(worker)
        worker.stop()

    def _fail_or_retry(self, task: _Task, status: str, error: str,
                       events: List[JobEvent]) -> None:
        if task.attempts <= self.retries:
            if self.manifest is not None:
                self.manifest.record_event(
                    "retry", key=task.job.key, attempt=task.attempts,
                    status=status, error=error.strip().splitlines()[-1]
                    if error.strip() else status)
            # re-enqueue at the tail: the retry waits behind every job
            # already queued (see the class docstring)
            self._pending.append(task)
            events.append(JobEvent("retry", task.job, task.attempts,
                                   error=error))
            return
        events.append(JobEvent(
            status, task.job, task.attempts, error=error,
            wall_time=time.monotonic() - task.first_started))

    # -- teardown ---------------------------------------------------------

    def shutdown(self) -> None:
        """Stop every worker and drop queued work."""
        for worker in self._workers:
            worker.stop()
        self._workers.clear()
        self._pending.clear()

    def __enter__(self) -> "JobExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


# --------------------------------------------------------------------------
# Runner
# --------------------------------------------------------------------------

class Runner:
    """Fan jobs across worker processes with caching, timeout, and retry.

    Parameters
    ----------
    jobs:
        Worker-process count (``None`` → ``$REPRO_BENCH_JOBS`` or 1).
    timeout:
        Per-job wall-clock limit in seconds (``None`` → unlimited).
    retries:
        Extra attempts after a crash/timeout/exception before a job is
        declared failed.
    use_cache:
        Consult and populate the on-disk result cache.
    progress:
        Emit a live ``[done/total]`` line on stderr (``None`` → only when
        stderr is a tty).
    manifest:
        A shared :class:`RunManifest`; one is created if not given.
    """

    def __init__(self, jobs: Optional[int] = None,
                 timeout: Optional[float] = None, retries: int = 1,
                 use_cache: bool = True,
                 progress: Optional[bool] = None,
                 manifest: Optional[RunManifest] = None) -> None:
        self.jobs = resolve_jobs(jobs)
        self.timeout = timeout
        self.retries = max(0, retries)
        self.use_cache = use_cache
        self.manifest = manifest if manifest is not None else RunManifest()
        self.progress = (sys.stderr.isatty() if progress is None
                         else progress)

    # -- high-level entry points ------------------------------------------

    def run_sweep(self, workloads: Iterable[str], config: CoreConfig,
                  warmup: Optional[int] = None,
                  measure: Optional[int] = None,
                  seed: int = 1234,
                  sampling: Optional[SamplingPlan] = None
                  ) -> Dict[str, SimResult]:
        """Parallel equivalent of the harness' serial ``sweep``."""
        names = list(workloads)
        jobs = [make_job(name, config, warmup, measure, seed, sampling)
                for name in names]
        results = self.run(jobs)
        return {name: results[job] for name, job in zip(names, jobs)}

    def run_sweep_configs(self, workloads: Iterable[str],
                          configs: Dict[str, CoreConfig],
                          warmup: Optional[int] = None,
                          measure: Optional[int] = None,
                          seed: int = 1234,
                          sampling: Optional[SamplingPlan] = None
                          ) -> Dict[str, Dict[str, SimResult]]:
        """Run {config_name: config} x workloads as one flat campaign."""
        names = list(workloads)
        jobs = {cfg_name: [make_job(n, cfg, warmup, measure, seed, sampling)
                           for n in names]
                for cfg_name, cfg in configs.items()}
        flat = [job for job_list in jobs.values() for job in job_list]
        results = self.run(flat)
        return {cfg_name: {name: results[job]
                           for name, job in zip(names, job_list)}
                for cfg_name, job_list in jobs.items()}

    # -- core scheduler ---------------------------------------------------

    def run(self, jobs: Sequence[Job],
            strict: bool = True) -> Dict[Job, SimResult]:
        """Execute ``jobs``; return ``{job: result}`` for completed jobs.

        Identical jobs are executed once. In strict mode (the default) a
        :class:`RunnerError` is raised after the whole campaign finishes
        if any job still failed after its retries; with ``strict=False``
        failed jobs are simply absent from the returned mapping (their
        outcome lives in the manifest).
        """
        from repro.analysis import harness

        unique: List[Job] = []
        seen = set()
        for job in jobs:
            if job not in seen:
                seen.add(job)
                unique.append(job)

        results: Dict[Job, SimResult] = {}
        total = len(unique)
        done = hits = ran = 0
        executor = JobExecutor(self.jobs, self.timeout, self.retries,
                               manifest=self.manifest)

        for job in unique:
            payload = None
            if self.use_cache:
                path = harness.entry_path(job.key)
                payload, corrupt = harness.load_cache_payload(path)
                if corrupt:
                    self.manifest.record_event(
                        "corrupt_cache_entry", key=job.key, path=str(path),
                        action="treated as miss; re-running")
            if payload is not None:
                results[job] = harness.deserialize_result(payload)
                self.manifest.record_job(job, "ok", cache_hit=True,
                                         result_payload=payload)
                done += 1
                hits += 1
            else:
                executor.submit(job)
        self._progress(done, total, hits, ran, executor.pending_count, 0)

        failures: List[JobFailure] = []
        try:
            while not executor.idle:
                progressed = False
                for event in executor.step():
                    if event.kind == "ok":
                        job = event.job
                        results[job] = harness.deserialize_result(
                            event.payload)
                        if self.use_cache:
                            harness.store_cache_payload(
                                harness.entry_path(job.key), event.payload)
                        done += 1
                        ran += 1
                        self.manifest.record_job(
                            job, "ok", wall_time=event.wall_time,
                            attempts=event.attempts,
                            result_payload=event.payload)
                        progressed = True
                    elif event.kind in ("failed", "timeout"):
                        done += 1
                        self.manifest.record_job(
                            event.job, event.kind,
                            wall_time=event.wall_time,
                            attempts=event.attempts, error=event.error)
                        failures.append(JobFailure(
                            event.job.key, event.job.workload,
                            event.kind, event.error))
                        progressed = True
                if progressed:
                    self._progress(done, total, hits, ran,
                                   executor.pending_count,
                                   executor.active_count)
        finally:
            executor.shutdown()
            self._progress_end()

        if failures and strict:
            raise RunnerError(failures)
        return results

    # -- progress line ----------------------------------------------------

    def _progress(self, done: int, total: int, hits: int, ran: int,
                  queued: int, active: int) -> None:
        if not self.progress:
            return
        sys.stderr.write(
            f"\r[{done}/{total}] cache-hits={hits} ran={ran} "
            f"queued={queued} active={active}   ")
        sys.stderr.flush()

    def _progress_end(self) -> None:
        if self.progress:
            sys.stderr.write("\n")
            sys.stderr.flush()


# --------------------------------------------------------------------------
# Active-runner context
# --------------------------------------------------------------------------

_ACTIVE_RUNNER: Optional[Runner] = None


@contextmanager
def using_runner(runner: Runner) -> Iterator[Runner]:
    """Install ``runner`` as the one every harness sweep call routes to."""
    global _ACTIVE_RUNNER
    previous = _ACTIVE_RUNNER
    _ACTIVE_RUNNER = runner
    try:
        yield runner
    finally:
        _ACTIVE_RUNNER = previous


def current_runner() -> Runner:
    """The installed runner, or a fresh env-configured default."""
    if _ACTIVE_RUNNER is not None:
        return _ACTIVE_RUNNER
    return Runner()
