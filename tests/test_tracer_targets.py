"""The benchmark tracer's targets against the package, run the way the benchmark runs.

perfbench/tracer.py wraps klsym functions by name, from outside the package.  A
renamed target reads as absent, and a layer that work is routed around reads as a
label with no calls; either blanks a per-layer metric without failing a run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import klsym

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# installs the tracer as perfbench/child.py does, then runs every workload's argv
# in this one process: a warm workload twice on one cache, so its second run hits
_CHILD = """
import json, os, sys
import klsym.cli
sys.path.insert(0, sys.argv[1])
from run import WORKLOADS
from tracer import Tracer
tracer = Tracer()
tracer.install({name.rpartition(".")[2]: mod for name, mod in list(sys.modules.items())
                if name.split(".")[0] == "klsym"})
codes = []
for name, spec in WORKLOADS.items():
    cache = [] if spec["cache"] is None else ["--cache", os.path.join(sys.argv[2], name)]
    for _ in range(2 if spec["cache"] == "warm" else 1):
        codes.append(klsym.cli.console_main(
            spec["argv"] + ["--workers", "1", "--out", os.devnull] + cache))
print(json.dumps({"codes": codes, "absent": tracer.absent, "counts": tracer.counts}))
"""


def test_every_tracer_target_is_found_and_called(tmp_path):
    # a child process, so that no wrapper outlives the test
    # and no bytecode, so that nothing is written under perfbench/
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(klsym.__file__)),
               PYTHONDONTWRITEBYTECODE="1")
    env.pop("KLSYM_CACHE", None)
    proc = subprocess.run([sys.executable, "-c", _CHILD, str(PERFBENCH), str(tmp_path)],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["codes"] == [0, 0, 0, 0]
    # the two targets the package no longer has
    assert out["absent"] == ["ff.Field.mul", "lfun.sym_k_factor"]
    # the workloads multiply in Z[zeta_p] on coordinate tuples (cyclo.mul_coords),
    # never through CycInt.__mul__; every other layer is called
    idle = [key[:-len(".calls")] for key, calls in out["counts"].items()
            if key.endswith(".calls") and calls == 0]
    assert idle == ["cyclo.mul"]
