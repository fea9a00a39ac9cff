"""The runtime is standard-library only: importing any part of ``repro``
loads no third-party module.

``pyproject.toml`` declares ``dependencies = []`` and the CI jobs that run
the CLI install nothing, so a third-party import anywhere in the package
breaks every one of them.  It also costs every sweep worker and daemon its
import time and resident memory.  Third-party packages the tests use
(``hypothesis``, ``networkx``, ...) are imported by the test modules, never
by the package.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs in a fresh interpreter.  The snapshot comes first, because ``site``
# may already have loaded third-party modules (from ``.pth`` files) before
# any of this runs; only modules the imports below add are checked.
_CHILD = """
import sys
before = set(sys.modules)
import importlib, json, pkgutil

allowed = sys.stdlib_module_names | {"repro", "__mp_main__"}
seen = set(before)
culprits = {}

def check(name):
    new = {m.partition(".")[0] for m in sys.modules.keys() - seen}
    seen.update(sys.modules)
    bad = sorted(new - allowed)
    if bad:
        culprits[name] = bad

repro = importlib.import_module("repro")
check("repro")
imported = ["repro"]
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
    check(info.name)
    imported.append(info.name)
print(json.dumps({"culprits": culprits, "imported": imported}))
"""


def test_every_module_imports_only_the_standard_library():
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    # Each entry names the module whose import first loaded the offender.
    assert report["culprits"] == {}
    imported = set(report["imported"])
    assert {"repro.cli", "repro.service.server", "repro.topology"} <= imported
