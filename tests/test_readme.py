"""The README's "A minimal attack in code" block runs and prints what it says."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def readme_block(heading: str) -> str:
    """The first ```python block after the line ``heading`` in the README."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    after = text[text.index(heading + "\n"):]
    return re.search(r"```python\n(.*?)```", after, re.S).group(1)


def test_minimal_attack_block_recovers_the_key(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           "-c", readme_block("A minimal attack in code:")],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    key_line, min_traces_line = proc.stdout.splitlines()
    assert key_line == bytes(range(16)).hex() + " " + str((1,) * 16)
    min_traces = int(min_traces_line)
    assert min_traces > 0 and min_traces % 250 == 0
