"""The README's library example runs as written and prints what its comments say."""

import os
import re
import subprocess
import sys
from pathlib import Path

import elemop

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs_and_prints_its_comments():
    (code,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                         re.MULTILINE | re.DOTALL)
    # the child imports the same elemop as this process, installed or not
    src = str(Path(elemop.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    # hypotheses fail, but the conclusion holds anyway
    assert proc.stdout.splitlines()[-2:] == ["False", "True"]
