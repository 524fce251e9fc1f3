"""The README's code runs as printed."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def readme_block(heading):
    """The first ```python block after the README section `heading`."""
    text = (ROOT / "README.md").read_text()
    section = text[text.index(f"\n## {heading}\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_example_runs():
    # a fresh interpreter with only the package's source on its path: the
    # block imports, solves, prints e_L2 and splits the dof vector
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", readme_block("Library use")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert abs(float(done.stdout) - 6.476e-05) <= 1e-3 * 6.476e-05
