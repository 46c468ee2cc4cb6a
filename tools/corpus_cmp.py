"""Compare the report corpus of a revision's source with the working tree's.

    python3 tools/corpus_cmp.py [REV] [--verdicts]

``REV`` is any git revision (default ``HEAD``).  Its ``src/`` is extracted
with ``git archive`` into a temporary directory, and ``tools/report_corpus.py``
of the working tree runs once on that source and once on the working tree's
``src/``, the two at the same time.  The script prints the line count and
exits 0 when the outputs are identical byte for byte; otherwise it prints the
first differing lines as a unified diff and exits 1.  It exits 2 when a corpus
run itself fails.

With ``--verdicts``, a change that moves only digits passes.  After the diff
the script compares the two corpora line by line: the verdict tokens of each
line (``"pass"`` and ``"..._pass"`` values, ``"status"`` values, ``--- exit
N``, trajectory statuses, revolution and curvature tags and error names)
must be the same, and so must the text left when every number and hash is
masked.  It lists every changed line, old and new, under the name of its
corpus section (the ``=== NAME`` line), marked as a change of digits, of a
verdict or of text; then the count per section.  It exits 0 when only
digits changed and 1 otherwise, as when the line counts differ.
"""

from __future__ import annotations

import argparse
import difflib
import io
import os
import re
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = os.path.join(ROOT, "tools", "report_corpus.py")
SHOWN = 40  # lines of the diff printed
SECTION = "=== "  # starts the line of report_corpus.py that names a section

_VERDICT = re.compile(
    r'"\w*pass": (?:true|false)'                 # a check's verdict
    r'|"status": "\w+"|\b(?:completed|domain_exit)\b'  # a row's or a run's status
    r'|^--- exit -?\d+$'                         # a CLI run's exit code
    r'|"(?:Both|SumOnly|DiffOnly|Neither)"'      # revolution tags
    r'|"(?:Zero|Constant|NonConstant)"'          # curvature classes
    r'|\b\w+(?:Error|Exception)\b', re.M)       # an error raised or reported
_NUMBER = re.compile(
    r"\b[0-9a-f]{64}\b"                          # a sha256 digest
    r"|[-+]?0x[0-9a-f]+(?:\.[0-9a-f]*)?p[-+]?\d+"  # float.hex
    r"|[-+]?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?"   # decimal
    r"|[-+]?\b(?:nan|inf)\b", re.I)


def _corpus(trees, tmp):
    """The corpus of each ``(name, src)`` of ``trees``, as ``{name: (code,
    stdout, stderr)}``: the runs go side by side, each writing to files of
    its own in ``tmp``, so that neither waits on a pipe."""
    runs = {}
    for i, (name, src) in enumerate(trees):
        out, err = (os.path.join(tmp, f"{i}.{part}") for part in ("out", "err"))
        with open(out, "wb") as fo, open(err, "wb") as fe:
            runs[name] = (subprocess.Popen([sys.executable, CORPUS, src], cwd=ROOT,
                                           stdout=fo, stderr=fe), out, err)
    results = {}
    for name, (proc, out, err) in runs.items():
        with open(out, "rb") as fo, open(err, "rb") as fe:
            results[name] = (proc.wait(), fo.read(), fe.read())
    return results


def verdicts(old, new):
    """Print what ``--verdicts`` reports on the corpus lines ``old`` and
    ``new``, and return its exit status: 0 when only digits moved."""
    if len(old) != len(new):
        print(f"line counts differ: {len(old)} -> {len(new)}")
        return 1
    section, changed, shown = "(before the first section)", {}, 0
    for i, (a, b) in enumerate(zip(old, new), 1):
        if a.startswith(SECTION):
            section = a[len(SECTION):]
        if a == b:
            continue
        if section not in changed:
            print(f"{SECTION}{section}")
        changed[section] = changed.get(section, 0) + 1
        what = ("verdict" if _VERDICT.findall(a) != _VERDICT.findall(b) else
                "text" if _NUMBER.sub("#", a) != _NUMBER.sub("#", b) else "digits")
        shown += what != "digits"
        print(f"{what} changed at line {i}:\n- {a}\n+ {b}")
    print(f"changed lines per section ({sum(changed.values())} of {len(old)}):")
    for name, count in changed.items():
        print(f"  {name}: {count}")
    print(f"{shown} lines changed a verdict or text" if shown else
          "only digits moved: no verdict, status, exit code or tag changed")
    return 1 if shown else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", nargs="?", default="HEAD", help="git revision (default HEAD)")
    parser.add_argument("--verdicts", action="store_true",
                        help="exit 0 when only digits moved (see the module docstring)")
    args = parser.parse_args(argv)
    rev = args.rev
    archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, capture_output=True)
    if archive.returncode != 0:
        sys.stderr.write(archive.stderr.decode())
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp, filter="data")
        results = _corpus([(rev, os.path.join(tmp, "src")),
                           ("working tree", os.path.join(ROOT, "src"))], tmp)
    for name, (code, _, err) in results.items():
        if code != 0:
            sys.stderr.write(f"report_corpus.py failed on {name}:\n{err.decode()}")
            return 2
    old, new = (out for _, out, _ in results.values())
    if old == new:
        print(f"identical: {len(old.splitlines())} lines")
        return 0
    diff = difflib.unified_diff(old.decode().splitlines(), new.decode().splitlines(),
                                f"{rev}:src", "working tree", lineterm="", n=1)
    for i, line in enumerate(diff):
        if i == SHOWN:
            print("...")
            break
        print(line)
    if args.verdicts:
        return verdicts(old.decode().splitlines(), new.decode().splitlines())
    return 1


if __name__ == "__main__":
    sys.exit(main())
