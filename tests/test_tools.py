"""Smoke tests of the scripts in ``tools/``."""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_unrun_lines_lists_the_lines_a_run_never_executes():
    r = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "unrun_lines.py"),
                        "-q", "-p", "no:cacheprovider", "tests/test_package.py"],
                       cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stdout + r.stderr
    counts = dict(re.findall(r"^(\w+\.py): (\d+) never ran: ", r.stdout, re.M))
    total = re.search(r"^total: (\d+) lines never ran$", r.stdout, re.M)
    assert total and int(total.group(1)) == sum(map(int, counts.values())) > 0
    # the star imports run every module's top level but no command of the CLI
    assert "cli.py" in counts and "__init__.py" not in counts
