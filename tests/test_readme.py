import os
import re
import subprocess
import sys
from pathlib import Path

import vecsobol

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block(after_heading: str) -> str:
    """The first python code block below a README heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(after_heading):]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_quick_start_runs():
    code = _python_block("## Library quick start")
    env = dict(os.environ)
    src = str(Path(vecsobol.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    exact, estimate = (float(v) for v in out.stdout.split()[:2])
    assert abs(exact - 15 / 31) <= 1e-12 and abs(estimate - exact) < 0.01
