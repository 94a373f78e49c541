"""The package's layout: what `import schurfit` loads and what it exports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import schurfit

# runs in a fresh interpreter, so that no other test's imports are counted
_PROBE = """
import json, sys
import schurfit, schurfit.cli
loaded = sorted(n for n in sys.modules if n.startswith("schurfit"))
unresolved = [n for n in schurfit.__all__ if not hasattr(schurfit, n)]
from schurfit.reference import alternating, brute_force_min, schur_bialternant, schur_tableaux
print(json.dumps({"loaded": loaded, "unresolved": unresolved}))
"""


def test_runtime_leaves_out_the_cross_checks_and_its_exports_resolve():
    src = str(Path(schurfit.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = subprocess.run([sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, check=True)
    found = json.loads(probe.stdout)
    assert "schurfit.cli" in found["loaded"]
    assert "schurfit.reference" not in found["loaded"]
    assert found["unresolved"] == []
