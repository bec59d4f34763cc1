"""The README quickstart, its command-line block and every demo run to
completion as written."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run_python(args, cwd=ROOT):
    """Run python on ``args`` with every warning an error, as pytest runs."""
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    return subprocess.run([sys.executable, "-W", "error", *args], env=env, cwd=cwd,
                          capture_output=True, text=True)


def test_readme_quickstart_runs():
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    assert len(blocks) == 1
    out = _run_python(["-c", blocks[0]])
    assert out.returncode == 0, out.stderr


def test_readme_command_line_runs(tmp_path):
    # the fenced block under "## Command line": each command, its "\"
    # continuations joined and its "#" comment dropped, runs in order
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Command line\n+```bash\n(.*?)```", readme, re.DOTALL)
    lines = [line.split("#", 1)[0].strip()
             for line in block.group(1).replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line) for line in lines if line]
    assert [c[1] for c in commands] == ["simulate", "speed", "apply", "green",
                                        "sweep", "selftest"]
    for command in commands:
        assert command[0] == "fracfront"
        out = _run_python(["-m", "fracfront", *command[1:]], cwd=tmp_path)
        assert (out.returncode, out.stderr) == (0, ""), command


def test_demos_are_found():
    assert DEMOS   # an empty glob would only skip the parametrized test


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_0(demo):
    out = _run_python([str(demo)])
    assert out.returncode == 0, out.stderr
