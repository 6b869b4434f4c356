"""The package runs on the Python standard library alone.

``pyproject.toml`` declares no runtime dependency. A fresh interpreter
that imports the CLI and the service daemon and drives a banked-TAGE APF
simulation must therefore load no top-level module outside the standard
library other than ``repro`` itself.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys

def third_party():
    stdlib = set(sys.stdlib_module_names) | set(sys.builtin_module_names)
    return {name.split(".")[0] for name in sys.modules} - stdlib

before = third_party()   # whatever site-packages hooks preloaded
import repro.cli, repro.service.daemon
from repro.branch.banking import BankedTage
from repro.common.config import small_core_config
from repro.core.ooo_core import OoOCore
from repro.workloads.profiles import build_workload, workload_trace

core = OoOCore(small_core_config().with_apf(), build_workload("leela"),
               workload_trace("leela", 300), seed=7)
assert isinstance(core.branch_unit.predictor, BankedTage)
core.run(300)
assert core.retired >= 300
# multiprocessing aliases the main module as __mp_main__
print(",".join(sorted(third_party() - before - {"__mp_main__"})))
"""


def test_banked_simulation_loads_only_stdlib():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    assert out.stdout.strip() == "repro"
