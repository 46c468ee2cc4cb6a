"""Smoke tests of the scripts in ``tools/``."""

import importlib.util
import os
import re
import subprocess
import sys

import pytest

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


def _tool(name):
    """The module ``tools/<name>.py``, loaded from its file."""
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, "tools", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_CORPUS = ["=== library",
           '{"identities": [{"max_residual": 1.25e-14, "name": "HA", "pass": true}], "pass": true}',
           "=== cli", "$ superint curvature --class II1", "{", ' "classification": "Zero",',
           ' "mean": -0.0,', ' "pass": true', "}", "--- stderr", "--- exit 0",
           "=== exits", "II2 domain_exit 0x1.8p+1 {}",
           "=== geometry", '["I1", "liouville", "Neither", [1.7784454595025592]]',
           "=== sampling", "I1 7 " + "0a" * 32 + " 1.5 -2.25e-07 nan"]


def test_corpus_cmp_verdicts_passes_moved_digits_only(capsys):
    cmp = _tool("corpus_cmp")
    moved = [_CORPUS[0], _CORPUS[1].replace("1.25e-14", "1.2500000000000002e-14"),
             *_CORPUS[2:6], ' "mean": 1e-300,', *_CORPUS[7:14],
             _CORPUS[14].replace("1.7784454595025592", "1.7784454595025594"),
             _CORPUS[15], "I1 7 " + "1b" * 32 + " 1.5 -2.2500000000000001e-07 nan"]
    assert cmp.verdicts(_CORPUS, moved) == 0
    out = capsys.readouterr().out
    assert "changed lines per section (4 of 17):" in out
    assert "  library: 1\n  cli: 1\n  geometry: 1\n  sampling: 1\n" in out
    assert "only digits moved" in out


@pytest.mark.parametrize("line, new", [
    (1, '{"identities": [{"max_residual": 1.25e-14, "name": "HA", "pass": false}], "pass": false}'),
    (5, ' "classification": "Constant",'), (7, ' "pass": false'), (10, "--- exit 1"),
    (12, "II2 completed 0x1.8p+1 {}"), (14, '["I1", "liouville", "SumOnly", [1e-12]]'),
    (14, "DomainError: curvature is not finite"), (16, "I1 7 SamplingError: too few"),
    (14, '["I1", "transformed", "Neither", [1.7784454595025592]]')])
def test_corpus_cmp_verdicts_fails_a_changed_verdict_or_text(capsys, line, new):
    cmp = _tool("corpus_cmp")
    changed = list(_CORPUS)
    changed[line] = new
    assert cmp.verdicts(_CORPUS, changed) == 1
    assert f"changed at line {line + 1}:" in capsys.readouterr().out


def test_corpus_cmp_verdicts_fails_a_changed_line_count(capsys):
    assert _tool("corpus_cmp").verdicts(_CORPUS, _CORPUS[:-1]) == 1
    assert "line counts differ: 17 -> 16" in capsys.readouterr().out


_SOURCE = '''"""A module docstring,
over two lines."""

import os  # a comment after code

__all__ = [
    "f",
    "g",
]


def f(x):
    """A function docstring."""
    # a comment line

    return (x +
            1)


def g():
    """A docstring
    over three lines.
    """
    return "a string that is no docstring"
'''


def test_code_lines_counts_code_but_no_docstring_comment_or_blank(tmp_path, capsys):
    tool = _tool("code_lines")
    # import, the four lines of __all__, def f, its two return lines, def g, return
    assert tool.code_lines(_SOURCE) == 10
    assert tool.public_names(_SOURCE) == 2
    assert tool.public_names("x = 1\n") == 0
    (tmp_path / "superint").mkdir()
    (tmp_path / "superint" / "m.py").write_text(_SOURCE)
    (tmp_path / "superint" / "notes.txt").write_text("not a module\n")
    assert tool.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["    10       2  m.py",
                                                        "    10       2  total"]
