"""README's examples run as written and print what their comments show."""

import contextlib
import io
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def fenced_block(section: str, language: str) -> str:
    """The first ``language`` code block under the ``## section`` heading."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", body, re.S)[1]


def test_library_example_prints_its_comment(monkeypatch):
    code = fenced_block("Library", "python")
    shown = re.search(r"print\(.*\)\s+# (.*)", code)[1]
    assert shown == "the yellow block to the left of the car 1.955"
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue() == shown + "\n"


def test_generate_example_prints_its_comment():
    code = fenced_block("CLI", "sh")
    command, shown = re.search(r"^(pcsreg generate .*--target blk_a)\n# -> (.*)$", code, re.M).groups()
    out = subprocess.run(
        [sys.executable, "-m", "pcsreg", *command.split()[1:]], capture_output=True, text=True, cwd=ROOT
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == shown + "\n"
