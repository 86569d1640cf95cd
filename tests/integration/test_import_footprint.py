"""Importing the library loads no process-pool machinery.

Only a parallel sweep (``SweepRunner`` with ``workers > 1``) and a
multiprocess sharded run start processes, and they import
``multiprocessing`` and ``concurrent.futures`` where they do.  Every
in-process run, which is every single-engine run and every benchmark pass,
is spared the modules' memory (about 2 MB of resident set).
"""

from __future__ import annotations

import os
import subprocess
import sys

SCRIPT = """
import sys
import repro, repro.shard, repro.sweep
print(sorted(m for m in sys.modules if m.split(".")[0] in ("multiprocessing", "concurrent")))
"""


def test_importing_the_library_loads_no_process_pool_modules():
    # A fresh interpreter: pytest itself has loaded both packages here.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "[]"
