import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# lottery_experiment.py samples for several seconds and is left out
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py") if p.name != "lottery_experiment.py")
# SHA-256 of stdout; hexagon_counts.py prints its elapsed time and has no pin
STDOUT_SHA256 = {
    "field_quotients.py": "ebbd4130bd98ec32138a3eb1dfdc93f57aa8be1c0dc7b36b5f19ee8a3f009aa8",
    "named_hyperfields.py": "8b84f47ac8b1de3585bcc3f042c42da724d103fab94b6befda73faf2833bf5a0",
    "product_construction.py": "8d587ef502fdab689f89f96e5cc78c4a42bb5b636b1381c91c228fb82d2ffcb4",
    "skew_orbits.py": "e9b4220b655197f4eeb612433e1179b6af30f1955804c9f0dbb4c5d7e4bd2028",
}


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, text=True, cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=path), timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
    if name in STDOUT_SHA256:
        assert hashlib.sha256(done.stdout.encode()).hexdigest() == STDOUT_SHA256[name]
