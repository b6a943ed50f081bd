"""Each demo prints exactly what it printed when its output was pinned.

The demos run as scripts, in a temporary directory because demo 05 writes
``render-out/`` into its working directory, with only the package's source
on the path, as a reader would run them.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# sha256 of each demo's stdout
DEMO_STDOUT_SHA256 = {
    "01_formulas.py": "b7af32ed949992c7bdbfc5effbb1f476c070d7293d6a0bc45c55be1456a6ce4d",
    "02_gadget_census.py": "7aaab3c8624216d243748ab39027dcd638a29637e11fa673e20152f5ecf88b6a",
    "03_reduce_and_certify.py": "0f4ede6b6ee623b6321b779c9af4b7bb62f40d5c3120f96c069e3449e15ac394",
    "04_solve_roundtrip.py": "4ff0f4ea1f4129d8a02b81ade7858e709488d48ed17321bedcfbbef845e5cba9",
    "05_render.py": "2358f4db3a7c534b0f603b4a886174d3c2bc0627e531ae5b369c3c4f64fa78a5",
}


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_stdout_pinned(tmp_path, demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path, env=env,
                         capture_output=True, timeout=120)
    assert run.returncode == 0, run.stderr.decode()
    assert hashlib.sha256(run.stdout).hexdigest() == DEMO_STDOUT_SHA256.get(demo)
