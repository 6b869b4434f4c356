"""Tests for the process-parallel experiment runner and its crash-safe
result store: parallel-vs-serial equivalence, cache hit accounting,
corrupt-entry recovery, per-job timeout, bounded retry, the manifest,
and the warm worker pool (worker reuse and replacement, parent-death
exit, warm-vs-fresh payload identity).

Simulation windows are tiny so each job is ~50 ms; the determinism
guarantees under test are window-independent.
"""

import json
import os
import pickle
import random
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.analysis import harness
from repro.analysis import runner as runner_module
from repro.analysis.runner import (
    Job,
    JobExecutor,
    RunManifest,
    Runner,
    RunnerError,
    current_runner,
    make_job,
    resolve_jobs,
    using_runner,
)
from repro.common.config import (AlternatePathMode, FetchScheme,
                                 small_core_config)
from repro.core.simulator import Simulator
from repro.workloads.profiles import ALL_NAMES

WARMUP, MEASURE = 400, 400
WORKLOADS = ["xz", "leela"]


def cache_to(monkeypatch, path):
    path.mkdir(parents=True, exist_ok=True)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(path))
    return path


def snapshot(results):
    return {name: harness.serialize_result(res)
            for name, res in results.items()}


class TestEquivalence:
    def test_parallel_matches_serial_results_and_cache_bytes(
            self, tmp_path, monkeypatch):
        configs = {"base": small_core_config(),
                   "apf": small_core_config().with_apf()}

        serial_dir = cache_to(monkeypatch, tmp_path / "serial")
        serial = Runner(jobs=1, progress=False).run_sweep_configs(
            WORKLOADS, configs, WARMUP, MEASURE)

        parallel_dir = cache_to(monkeypatch, tmp_path / "parallel")
        parallel = Runner(jobs=4, progress=False).run_sweep_configs(
            WORKLOADS, configs, WARMUP, MEASURE)

        for cfg_name in configs:
            assert snapshot(parallel[cfg_name]) == snapshot(serial[cfg_name])

        serial_files = sorted(p.name for p in serial_dir.glob("*.json"))
        parallel_files = sorted(p.name for p in parallel_dir.glob("*.json"))
        assert serial_files == parallel_files
        assert len(serial_files) == len(WORKLOADS) * len(configs)
        for name in serial_files:
            assert (serial_dir / name).read_bytes() \
                == (parallel_dir / name).read_bytes()

    def test_runner_matches_run_cached(self, tmp_path, monkeypatch):
        cache_to(monkeypatch, tmp_path)
        cfg = small_core_config()
        direct = harness.run_cached("xz", cfg, WARMUP, MEASURE,
                                    use_cache=False)
        via_runner = Runner(jobs=1, progress=False).run_sweep(
            ["xz"], cfg, WARMUP, MEASURE)["xz"]
        assert harness.serialize_result(via_runner) \
            == harness.serialize_result(direct)


class TestCache:
    def test_second_run_is_all_cache_hits(self, tmp_path, monkeypatch):
        cache_to(monkeypatch, tmp_path)
        cfg = small_core_config()
        first = Runner(jobs=2, progress=False)
        first.run_sweep(WORKLOADS, cfg, WARMUP, MEASURE)
        assert all(not e["cache_hit"] for e in first.manifest.jobs)

        second = Runner(jobs=2, progress=False)
        second.run_sweep(WORKLOADS, cfg, WARMUP, MEASURE)
        assert all(e["cache_hit"] for e in second.manifest.jobs)
        assert second.manifest.counts() == {"ok": len(WORKLOADS)}

    def test_corrupt_entry_is_recovered_and_recorded(
            self, tmp_path, monkeypatch):
        cache_to(monkeypatch, tmp_path)
        cfg = small_core_config()
        clean = Runner(jobs=1, progress=False).run_sweep(
            ["xz"], cfg, WARMUP, MEASURE)
        path = harness.entry_path(make_job("xz", cfg, WARMUP, MEASURE).key)
        intact = path.read_bytes()
        path.write_bytes(intact[:25])   # truncate mid-JSON

        runner = Runner(jobs=1, progress=False)
        recovered = runner.run_sweep(["xz"], cfg, WARMUP, MEASURE)
        assert snapshot(recovered) == snapshot(clean)
        assert path.read_bytes() == intact          # rewritten atomically
        events = [e for e in runner.manifest.events
                  if e["kind"] == "corrupt_cache_entry"]
        assert len(events) == 1 and events[0]["path"] == str(path)
        assert not runner.manifest.jobs[0]["cache_hit"]

    def test_no_cache_mode_leaves_disk_untouched(self, tmp_path,
                                                 monkeypatch):
        cache_to(monkeypatch, tmp_path)
        runner = Runner(jobs=1, use_cache=False, progress=False)
        runner.run_sweep(["xz"], small_core_config(), WARMUP, MEASURE)
        assert not list(tmp_path.iterdir())

    def test_no_temp_files_left_behind(self, tmp_path, monkeypatch):
        cache_to(monkeypatch, tmp_path)
        Runner(jobs=2, progress=False).run_sweep(
            WORKLOADS, small_core_config(), WARMUP, MEASURE)
        assert not list(tmp_path.glob("*.tmp*"))


class TestFailureHandling:
    def test_timeout_kills_retries_and_reports(self, tmp_path, monkeypatch):
        cache_to(monkeypatch, tmp_path)
        job = Job("leela", small_core_config(), 300_000, 300_000)
        runner = Runner(jobs=1, timeout=0.1, retries=1, progress=False)
        results = runner.run([job], strict=False)
        assert results == {}
        [entry] = runner.manifest.jobs
        assert entry["status"] == "timeout"
        assert entry["attempts"] == 2          # initial + one retry
        retries = [e for e in runner.manifest.events
                   if e["kind"] == "retry"]
        assert len(retries) == 1

    def test_timeout_retry_fail_leaves_cache_empty(self, tmp_path,
                                                   monkeypatch):
        cache_to(monkeypatch, tmp_path)
        job = Job("leela", small_core_config(), 300_000, 300_000)
        runner = Runner(jobs=1, timeout=0.1, retries=2, progress=False)
        runner.run([job], strict=False)
        [entry] = runner.manifest.jobs
        assert entry["status"] == "timeout"
        assert entry["attempts"] == 3          # initial + two retries
        retries = [e for e in runner.manifest.events
                   if e["kind"] == "retry"]
        assert [e["attempt"] for e in retries] == [1, 2]
        assert all(e["key"] == job.key for e in retries)
        assert all(e["status"] == "timeout" for e in retries)
        # a job that never succeeded must never write a cache entry
        assert not list(tmp_path.iterdir())

    def test_retry_reenqueues_at_tail(self, tmp_path, monkeypatch):
        """A retried job waits behind everything already queued: with one
        slot, the bad job's retry runs after the good job, so the good
        result lands in the manifest first."""
        cache_to(monkeypatch, tmp_path)
        bad = Job("no-such-workload", small_core_config(), WARMUP, MEASURE)
        good = Job("xz", small_core_config(), WARMUP, MEASURE)
        runner = Runner(jobs=1, retries=1, progress=False)
        results = runner.run([bad, good], strict=False)
        assert len(results) == 1
        order = [(e["workload"], e["status"])
                 for e in runner.manifest.jobs]
        assert order == [("xz", "ok"), ("no-such-workload", "failed")]
        bad_entry = runner.manifest.jobs[1]
        assert bad_entry["attempts"] == 2

    def test_strict_mode_raises_after_campaign(self, tmp_path, monkeypatch):
        cache_to(monkeypatch, tmp_path)
        bad = Job("no-such-workload", small_core_config(), WARMUP, MEASURE)
        good = Job("xz", small_core_config(), WARMUP, MEASURE)
        runner = Runner(jobs=2, retries=0, progress=False)
        with pytest.raises(RunnerError) as err:
            runner.run([bad, good])
        assert len(err.value.failures) == 1
        # the good job still completed and was cached before the raise
        statuses = {e["workload"]: e["status"] for e in runner.manifest.jobs}
        assert statuses["xz"] == "ok"
        assert statuses["no-such-workload"] == "failed"

    def test_worker_exception_recorded_with_traceback(self, tmp_path,
                                                      monkeypatch):
        cache_to(monkeypatch, tmp_path)
        bad = Job("no-such-workload", small_core_config(), WARMUP, MEASURE)
        runner = Runner(jobs=1, retries=0, progress=False)
        runner.run([bad], strict=False)
        [entry] = runner.manifest.jobs
        assert "no-such-workload" in entry["error"] \
            or "Traceback" in entry["error"]


class TestScheduling:
    def test_duplicate_jobs_run_once(self, tmp_path, monkeypatch):
        cache_to(monkeypatch, tmp_path)
        job = make_job("xz", small_core_config(), WARMUP, MEASURE)
        runner = Runner(jobs=2, progress=False)
        results = runner.run([job, Job(job.workload, job.config,
                                       job.warmup, job.measure, job.seed)])
        assert len(results) == 1
        assert len(runner.manifest.jobs) == 1

    def test_make_job_defaults_to_bench_windows(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "tiny")
        job = make_job("xz", small_core_config())
        assert (job.warmup, job.measure) == harness.bench_windows()

    def test_resolve_jobs_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_JOBS", raising=False)
        assert resolve_jobs() == 1
        assert resolve_jobs(6) == 6
        monkeypatch.setenv("REPRO_BENCH_JOBS", "3")
        assert resolve_jobs() == 3
        assert resolve_jobs(0) == 1

    def test_using_runner_routes_harness_sweep(self, tmp_path, monkeypatch):
        cache_to(monkeypatch, tmp_path)
        runner = Runner(jobs=2, progress=False)
        with using_runner(runner):
            assert current_runner() is runner
            harness.sweep(WORKLOADS, small_core_config(), WARMUP, MEASURE)
        assert len(runner.manifest.jobs) == len(WORKLOADS)
        assert current_runner() is not runner


class TestExecutor:
    def test_submit_step_event_sequence(self, tmp_path, monkeypatch):
        cache_to(monkeypatch, tmp_path)
        job = make_job("xz", small_core_config(), WARMUP, MEASURE)
        with JobExecutor(slots=1) as executor:
            assert executor.idle and executor.free_slots == 1
            executor.submit(job)
            assert executor.pending_count == 1 and executor.free_slots == 0
            events = []
            while not executor.idle:
                events.extend(executor.step())
        assert [e.kind for e in events] == ["started", "ok"]
        assert events[-1].attempts == 1
        assert events[-1].payload["workload"] == "xz"
        assert events[-1].wall_time > 0


def config_variants():
    """Baseline plus every fetch scheme and DPIP."""
    base = small_core_config()
    return {
        "base": base,
        "apf": base.with_apf(),
        "timeshare": base.with_apf(fetch_scheme=FetchScheme.TIME_SHARED),
        "dualport": base.with_apf(fetch_scheme=FetchScheme.DUAL_PORT),
        "dpip": base.with_apf(mode=AlternatePathMode.DPIP, num_buffers=0),
    }


def payload_bytes_of(result):
    return harness.payload_bytes(harness.serialize_result(result))


def run_to_idle(executor, timeout=120.0):
    events = []
    deadline = time.monotonic() + timeout
    while not executor.idle:
        assert time.monotonic() < deadline, "executor did not drain"
        events.extend(executor.step())
    return events


def pids(executor):
    return [worker.proc.pid for worker in executor._workers]


def process_gone(pid):
    """True once ``pid`` has exited (a zombie awaiting its reaper counts)."""
    try:
        status = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return status.rsplit(")", 1)[1].split()[0] in ("Z", "X")


class TestConfigPickle:
    @pytest.mark.parametrize("name", sorted(config_variants()))
    def test_payload_survives_config_pickle_round_trip(self, name):
        """Configs travel to pool workers pickled; string constants come
        back equal but not identical, and must select the same model."""
        config = config_variants()[name]
        copy = pickle.loads(pickle.dumps(config))
        assert copy == config
        assert harness.config_signature(copy) \
            == harness.config_signature(config)
        assert payload_bytes_of(Simulator(copy, seed=7).run(
            "leela", WARMUP, MEASURE)) == payload_bytes_of(
            Simulator(config, seed=7).run("leela", WARMUP, MEASURE))


class TestWorkerPool:
    def test_consecutive_jobs_share_one_worker(self, tmp_path, monkeypatch):
        cache_to(monkeypatch, tmp_path)
        cfg = small_core_config()
        with JobExecutor(slots=1) as executor:
            seen = []
            for workload in ("xz", "leela", "xz"):
                executor.submit(make_job(workload, cfg, WARMUP, MEASURE))
                kinds = [e.kind for e in run_to_idle(executor)]
                assert kinds == ["started", "ok"]
                seen.append(pids(executor))
        assert len(seen[0]) == 1
        assert seen[0] == seen[1] == seen[2]

    def test_timed_out_worker_is_replaced(self, tmp_path, monkeypatch):
        cache_to(monkeypatch, tmp_path)
        cfg = small_core_config()
        with JobExecutor(slots=1, timeout=0.3, retries=0) as executor:
            executor.submit(make_job("xz", cfg, WARMUP, MEASURE))
            run_to_idle(executor)
            [first] = pids(executor)
            executor.submit(Job("leela", cfg, 300_000, 300_000))
            assert [e.kind for e in run_to_idle(executor)] \
                == ["started", "timeout"]
            assert pids(executor) == []
            assert process_gone(first)
            executor.submit(make_job("xz", cfg, WARMUP, MEASURE))
            events = run_to_idle(executor)
            assert [e.kind for e in events] == ["started", "ok"]
            [second] = pids(executor)
        assert second != first

    def test_raising_job_keeps_its_worker(self, tmp_path, monkeypatch):
        cache_to(monkeypatch, tmp_path)
        cfg = small_core_config()
        with JobExecutor(slots=1, retries=0) as executor:
            executor.submit(Job("no-such-workload", cfg, WARMUP, MEASURE))
            [started, failed] = run_to_idle(executor)
            assert failed.kind == "failed"
            assert "no-such-workload" in failed.error
            before = pids(executor)
            executor.submit(make_job("xz", cfg, WARMUP, MEASURE))
            assert [e.kind for e in run_to_idle(executor)] \
                == ["started", "ok"]
            assert pids(executor) == before and len(before) == 1

    def test_started_returned_before_waiting(self, tmp_path, monkeypatch):
        """The step that hands a job out returns at once, so a caller's
        start stamp is not delayed until the result arrives."""
        cache_to(monkeypatch, tmp_path)
        with JobExecutor(slots=1) as executor:
            executor.submit(make_job("xz", small_core_config(),
                                     WARMUP, MEASURE))
            assert [e.kind for e in executor.step(wait=60.0)] \
                == ["started"]
            assert executor.active_count == 1
            assert [e.kind for e in run_to_idle(executor)] == ["ok"]

    def test_result_sent_before_exit_is_not_a_crash(self, tmp_path,
                                                    monkeypatch):
        """A worker that sends its result and dies before the parent
        looks is reported ok, not crashed and re-run."""
        cache_to(monkeypatch, tmp_path)
        with JobExecutor(slots=1, retries=0) as executor:
            executor.submit(make_job("xz", small_core_config(),
                                     WARMUP, MEASURE))
            executor.step()
            [worker] = executor._workers
            assert worker.conn.poll(60.0)
            worker.proc.kill()
            worker.proc.join(10.0)
            assert not worker.proc.is_alive()
            # the wait returned just before the result arrived
            with monkeypatch.context() as patch:
                patch.setattr(runner_module, "_mp_connection",
                              SimpleNamespace(wait=lambda conns, timeout: []))
                [event] = executor.step()
            assert event.kind == "ok" and event.attempts == 1
            assert executor._workers == [worker]
            executor.submit(make_job("leela", small_core_config(),
                                     WARMUP, MEASURE))
            assert [e.kind for e in run_to_idle(executor)] \
                == ["started", "ok"]
            assert worker not in executor._workers

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                        reason="reads process states from /proc")
    def test_idle_workers_exit_when_parent_is_killed(self, tmp_path):
        script = textwrap.dedent(f"""
            import os, sys, time
            from repro.analysis.runner import JobExecutor, make_job
            from repro.common.config import small_core_config
            executor = JobExecutor(slots=2)
            for workload in ("xz", "leela"):
                executor.submit(make_job(workload, small_core_config(),
                                         {WARMUP}, {MEASURE}))
            while not executor.idle:
                executor.step()
            print(*[w.proc.pid for w in executor._workers], flush=True)
            time.sleep(600)
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(harness.__file__).parents[2])] + sys.path),
            REPRO_CACHE_DIR=str(tmp_path))
        parent = subprocess.Popen([sys.executable, "-c", script], env=env,
                                  stdout=subprocess.PIPE, text=True)
        try:
            workers = [int(pid) for pid in parent.stdout.readline().split()]
            assert len(workers) == 2
            assert not any(process_gone(pid) for pid in workers)
        finally:
            parent.send_signal(signal.SIGKILL)
            parent.wait(10.0)
            parent.stdout.close()
        deadline = time.monotonic() + 10.0
        while not all(process_gone(pid) for pid in workers):
            assert time.monotonic() < deadline, "orphaned worker lives on"
            time.sleep(0.05)

    def test_warm_worker_matches_fresh_simulation(self, tmp_path,
                                                  monkeypatch):
        """One worker runs every workload under every scheme in a random
        order; warm program and trace caches change no payload byte."""
        cache_to(monkeypatch, tmp_path)
        jobs = [make_job(workload, config, WARMUP, MEASURE, seed=5)
                for workload in ALL_NAMES
                for config in config_variants().values()]
        random.Random(13).shuffle(jobs)
        with JobExecutor(slots=1, retries=0) as executor:
            for job in jobs:
                executor.submit(job)
            events = run_to_idle(executor, timeout=600.0)
            assert len(pids(executor)) == 1
        done = {e.job: e.payload for e in events if e.kind == "ok"}
        assert len(done) == len(jobs)
        for job in jobs:
            fresh = Simulator(job.config, seed=job.seed).run(
                job.workload, job.warmup, job.measure)
            assert harness.payload_bytes(done[job]) \
                == payload_bytes_of(fresh), job.key


class TestManifest:
    def test_manifest_saves_valid_json(self, tmp_path, monkeypatch):
        cache_to(monkeypatch, tmp_path / "cache")
        manifest = RunManifest(meta={"campaign": "unit"})
        runner = Runner(jobs=1, progress=False, manifest=manifest)
        runner.run_sweep(["xz"], small_core_config(), WARMUP, MEASURE)
        out = manifest.save(tmp_path / "manifest.json")
        payload = json.loads(out.read_text())
        assert payload["meta"] == {"campaign": "unit"}
        assert payload["counts"] == {"ok": 1}
        [entry] = payload["jobs"]
        assert entry["workload"] == "xz"
        assert entry["status"] == "ok"
        assert entry["wall_time_s"] >= 0
        assert not list(tmp_path.glob("*.tmp*"))

    def test_save_failure_leaves_no_tmp_file(self, tmp_path):
        manifest = RunManifest(meta={"unserialisable": object()})
        target = tmp_path / "manifest.json"
        with pytest.raises(TypeError):
            manifest.save(target)
        assert not target.exists()
        assert not list(tmp_path.iterdir())   # the temp file was unlinked
