import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# lottery_experiment.py samples for several seconds and is left out
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py") if p.name != "lottery_experiment.py")


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, text=True, cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=path), timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
