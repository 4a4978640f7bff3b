"""Every demo script runs to completion without writing to stderr, and prints the bytes it always has."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout; a change here is a change in the numbers or the text the demo prints
STDOUT_SHA256 = {
    "01_flat_scheme.py": "4c0e1cee1ee96ca172b89db73dd637ae1e24702e427ad2dda6f0b28a03210420",
    "02_hierarchy_penalty_bound.py": "0a04a5ab85383ee4a4aed87e1a9187529c7100401b8a51ab0f733d81b5d64188",
    "03_heterogeneous_population.py": "e7f46b0c8180cd72d11e22a5f33fa3d867a62212908175c0e72212cda9f147bc",
    "04_quantitative_scheme.py": "1d76e2922884d0031a3d1e3b5eb62a8fd52ca912d2014bde92b13913a406c3c0",
    "05_structures_and_allocation.py": "83c708088557f27c007d40ef3a670c119eb2b770eca9a6a1646898be6eb4a937",
    "06_monte_carlo_checks.py": "d95e3df0bf0df3709b08153cc14da8f327a81ef436376bc6ff08592a45608af4",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.name]
