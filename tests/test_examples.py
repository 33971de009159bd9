"""Every script under ``examples/`` runs to completion.

Each runs in its own process, the way its docstring says to run it, so
an API change that breaks an example fails here.  The scripts check
themselves where they can: ``coherence_schemes.py`` asserts zero stale
L0 reads under each coherence scheme, PSR included.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    result = subprocess.run(
        [sys.executable, str(script)],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout
