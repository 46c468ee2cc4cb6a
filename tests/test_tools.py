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


def test_corpus_cmp_verdicts_lists_every_changed_line_by_section(capsys):
    # more lines than the plain diff shows (SHOWN), in two sections
    cmp = _tool("corpus_cmp")
    old = ["=== rhs", *[f"II1 rhs {i} -> 0.1" for i in range(30)],
           "=== exits", *[f"II2 domain_exit {i} {{}}" for i in range(30)]]
    new = [line.replace("0.1", "0.10000000000000001") if " rhs " in line
           else line.replace(" {}", ".5 {}") for line in old]
    assert cmp.SHOWN < 60 and cmp.verdicts(old, new) == 0
    out = capsys.readouterr().out
    for i, (a, b) in enumerate(zip(old, new), 1):
        if a != b:
            assert f"digits changed at line {i}:\n- {a}\n+ {b}\n" in out
    assert out.index("=== rhs\n") < out.index("line 2:") < out.index("=== exits\n")
    assert out.index("=== exits\n") < out.index("line 33:")
    assert "changed lines per section (60 of 62):\n  rhs: 30\n  exits: 30\n" in out


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


_PARENT = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]


@pytest.mark.parametrize("tree, better, bound, want", [
    # the tree's median 30 % above the parent's, against a 25 % bound
    ([1.3 * a for a in _PARENT], "lower", 0.25, "worse"),
    # the same numbers where higher is better: 10 of 10 pairs and far out of the spread
    ([1.3 * a for a in _PARENT], "higher", 0.25, "gain"),
    ([0.9 * a for a in _PARENT], "lower", 0.25, "gain"),
    # 8 of 10 pairs better is no gain, however far the medians
    ([0.9 * a for a in _PARENT[:8]] + [1.1, 1.1], "lower", 0.25, "within bound"),
    # a tie counts for neither side: 8 better and 2 ties is no gain, 9 and 1 is
    ([0.9 * a for a in _PARENT[:8]] + _PARENT[8:], "lower", 0.25, "within bound"),
    ([0.9 * a for a in _PARENT[:9]] + _PARENT[9:], "lower", 0.25, "gain"),
    # within the bound and the spread, whichever side is better
    ([a + 0.005 for a in _PARENT], "lower", 0.25, "within bound"),
    ([a - 0.005 for a in _PARENT], "lower", 0.25, "within bound"),
    # the parent's quartiles 2 % apart: a 1 % bound cannot resolve that spread
    ([a + 0.005 for a in _PARENT], "lower", 0.01, "unresolved"),
    # unless every tree run is better than every parent run
    ([0.97 - 0.001 * i for i in range(10)], "lower", 0.01, "gain"),
])
def test_bench_pairs_verdicts(tree, better, bound, want):
    pairs = list(zip(_PARENT, tree))
    assert _tool("bench_pairs").verdict(pairs, better, bound) == want


def test_bench_pairs_reads_a_ten_percent_swing_under_a_tight_bound_as_unresolved():
    # the same code, run to run, with its quartiles 10 % apart: under a bound
    # of 5 % the pairs cannot show a move either way
    parent = [60.0, 66.0, 61.0, 68.0, 59.0, 67.0, 60.0, 69.0, 62.0, 66.0]
    tree = parent[1:] + parent[:1]
    bench_pairs = _tool("bench_pairs")
    assert bench_pairs.verdict(list(zip(parent, tree)), "lower", 0.05) == "unresolved"
    assert bench_pairs.verdict(list(zip(parent, tree)), "lower", 0.25) == "within bound"
