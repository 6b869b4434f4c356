"""Golden digest gate: simulation results are pinned byte-for-byte.

Every workload runs under four core configurations (baseline, APF with
banked fetch, APF with time-shared fetch, DPIP) on ``small_core_config()``
for a 400-instruction warmup and a 400-instruction measured window with
``Simulator(cfg, seed=7)``. For each cell the committed
``golden/cell_digests.json`` records the measured cycles and the sha256
of the exact cache-payload bytes (``harness.payload_bytes`` of
``harness.serialize_result``), which covers every statistics counter and
therefore the CPI stack. Two cells additionally pin the sha256 of the
full observability event stream.

A refactor that claims to change no behaviour must leave this file
unchanged. To re-record it after a deliberate behaviour change::

    PYTHONPATH=src python tests/test_golden_digests.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.analysis import harness
from repro.common.config import (AlternatePathMode, FetchScheme,
                                 small_core_config)
from repro.core.ooo_core import OoOCore
from repro.core.simulator import Simulator
from repro.obs import EventRecorder
from repro.workloads.profiles import (ALL_NAMES, build_workload,
                                      workload_trace)

GOLDEN = Path(__file__).parent / "golden" / "cell_digests.json"
WARMUP = 400
MEASURE = 400
SEED = 7

CONFIGS = {
    "base": lambda: small_core_config(),
    "apf_banked": lambda: small_core_config().with_apf(),
    "timeshare": lambda: small_core_config().with_apf(
        fetch_scheme=FetchScheme.TIME_SHARED),
    "dpip": lambda: small_core_config().with_apf(
        mode=AlternatePathMode.DPIP, num_buffers=0),
}

#: cells whose whole event stream is pinned as well
EVENT_CELLS = [("leela", "base"), ("leela", "apf_banked")]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cell_digest(workload: str, config_key: str) -> dict:
    result = Simulator(CONFIGS[config_key](), seed=SEED).run(
        workload, WARMUP, MEASURE)
    payload = harness.payload_bytes(harness.serialize_result(result))
    return {"cycles": result.cycles, "payload_sha256": sha256(payload)}


def event_digest(workload: str, config_key: str) -> str:
    total = WARMUP + MEASURE
    core = OoOCore(CONFIGS[config_key](), build_workload(workload),
                   workload_trace(workload, total), seed=SEED)
    recorder = EventRecorder()
    core.attach_obs(recorder)
    core.run(total, warmup=WARMUP)
    assert recorder.dropped == 0
    stream = json.dumps(list(recorder.events), separators=(",", ":"))
    return sha256(stream.encode())


def record() -> dict:
    return {
        "cells": {f"{workload}/{key}": cell_digest(workload, key)
                  for workload in ALL_NAMES for key in CONFIGS},
        "events": {f"{workload}/{key}": event_digest(workload, key)
                   for workload, key in EVENT_CELLS},
    }


def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_cell():
    cells = golden()["cells"]
    assert sorted(cells) == sorted(f"{workload}/{key}"
                                   for workload in ALL_NAMES
                                   for key in CONFIGS)
    assert sorted(golden()["events"]) == sorted(
        f"{workload}/{key}" for workload, key in EVENT_CELLS)


@pytest.mark.parametrize("workload", ALL_NAMES)
@pytest.mark.parametrize("config_key", sorted(CONFIGS))
def test_cell_digest(workload, config_key):
    want = golden()["cells"][f"{workload}/{config_key}"]
    assert cell_digest(workload, config_key) == want


@pytest.mark.parametrize("workload,config_key", EVENT_CELLS)
def test_event_stream_digest(workload, config_key):
    want = golden()["events"][f"{workload}/{config_key}"]
    assert event_digest(workload, config_key) == want


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_digests.py --write")
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
