"""The README's library example runs as written and prints the paper's numbers."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def library_use_block():
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^## Library use\n\n```python\n(.*?)^```", readme, re.S | re.M)
    assert len(blocks) == 1, "README needs exactly one python block under 'Library use'"
    return blocks[0]


def test_library_use_example_prints_the_stan30_answer():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", library_use_block()],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    nf, w_int, n_int = done.stdout.split()
    assert int(nf) == 5
    assert float(w_int) == pytest.approx(4.7512, abs=5e-5)
    assert float(n_int) == pytest.approx(142.5353, abs=5e-5)
