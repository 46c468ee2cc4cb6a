"""Compare the report corpus of a revision's source with the working tree's.

    python3 tools/corpus_cmp.py [REV]

``REV`` is any git revision (default ``HEAD``).  Its ``src/`` is extracted
with ``git archive`` into a temporary directory, and ``tools/report_corpus.py``
of the working tree runs once on that source and once on the working tree's
``src/``, the two at the same time.  The script prints the line count and
exits 0 when the outputs are identical byte for byte; otherwise it prints the
first differing lines as a unified diff and exits 1.  It exits 2 when a corpus
run itself fails.
"""

from __future__ import annotations

import argparse
import difflib
import io
import os
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = os.path.join(ROOT, "tools", "report_corpus.py")
SHOWN = 40  # lines of the diff printed


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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", nargs="?", default="HEAD", help="git revision (default HEAD)")
    rev = parser.parse_args(argv).rev
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
    return 1


if __name__ == "__main__":
    sys.exit(main())
