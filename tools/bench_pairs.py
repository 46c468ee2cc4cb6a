"""Run a revision's benchmark and the working tree's in alternating pairs.

    python3 tools/bench_pairs.py [REV] --workload W --pairs N --seconds S [--seed K]
        [--record LABEL]

``REV`` is any git revision (default ``HEAD``).  Its ``src/``, ``bench/`` and
``BENCHMARK.json`` are extracted with ``git archive`` into a temporary
directory.  Pair ``i`` runs the benchmark command of ``BENCHMARK.json``
(``bench/run.py``) once in that directory and once in the working tree, both
with ``--workload W --seed K+i --seconds S``; the tree that goes first
alternates from pair to pair, so that a drift of the machine's speed falls
on both alike.  Each run's end-to-end metrics (``end_to_end`` of the working
tree's ``BENCHMARK.json``) are read from the last line of its output.

For every pair it prints each metric's value in both runs and the relative
change, and ``correct``/``failed`` of both runs; at the end, per metric, the
median and quartiles of each side, the median change and the number of
pairs where the working tree is better.  It exits 1 when a run fails or is
not correct, 2 when ``git archive`` fails, and 0 otherwise.  Nothing under
``bench/`` is changed.

With ``--record LABEL`` it also writes ``BENCH_<LABEL>.json`` at the root of
the working tree: per metric, each side's median and quartiles, the change
and the pairs where the tree is better; the values of every pair; the
workload, seeds and seconds; both git revisions (the tree's as its ``HEAD``
and whether files differ from it); and the CPU model and the Python, numpy
and scipy versions.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(tree, command, workload, seed, seconds):
    """The result object of one benchmark run in ``tree``."""
    proc = subprocess.run([*command, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds)],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return {"correct": False, "failed": None, "metrics": {}}
    return json.loads(lines[-1])


def _quartiles(values):
    """Median and quartiles of ``values``: ``{"median", "q1", "q3"}``."""
    q1, q3 = (statistics.quantiles(values, n=4, method="inclusive")[::2]
              if len(values) > 1 else values * 2)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True).stdout.strip()


def _machine():
    """The CPU model and the Python, numpy and scipy versions."""
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", nargs="?", default="HEAD", help="git revision (default HEAD)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=101, help="seed of the first pair")
    parser.add_argument("--record", metavar="LABEL",
                        help="also write BENCH_<LABEL>.json at the repository root")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    metrics = [(m["name"], m["better"]) for m in bench["end_to_end"]]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    archive = subprocess.run(["git", "archive", args.rev, "src", "bench", "BENCHMARK.json"],
                             cwd=ROOT, capture_output=True)
    if archive.returncode != 0:
        sys.stderr.write(archive.stderr.decode())
        return 2
    runs = {args.rev: [], "tree": []}
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp, filter="data")
        with open(os.path.join(tmp, "BENCHMARK.json")) as fh:
            old_command = json.load(fh)["command"]
        trees = [(args.rev, tmp, old_command), ("tree", ROOT, bench["command"])]
        for i in range(args.pairs):
            seed = args.seed + i
            for name, tree, command in trees if i % 2 == 0 else trees[::-1]:
                runs[name].append(_run(tree, command, args.workload, seed, args.seconds))
            old, new = runs[args.rev][-1], runs["tree"][-1]
            print(f"pair {i + 1} seed {seed}: {args.rev} correct={old['correct']} "
                  f"failed={old['failed']}, tree correct={new['correct']} "
                  f"failed={new['failed']}")
            for name, _ in metrics:
                a = old["metrics"].get(name, {}).get("value")
                b = new["metrics"].get(name, {}).get("value")
                if a is not None and b is not None:
                    print(f"  {name:12s} {a:.6g} -> {b:.6g} ({100.0 * (b / a - 1.0):+.1f} %)")
            sys.stdout.flush()

    print(f"median [quartiles] over {args.pairs} pairs ({args.rev} -> tree):")
    summary = {}
    for name, better in metrics:
        pairs = [(o["metrics"][name]["value"], n["metrics"][name]["value"])
                 for o, n in zip(runs[args.rev], runs["tree"])
                 if name in o["metrics"] and name in n["metrics"]]
        if not pairs:
            continue
        sides = [_quartiles([a for a, _ in pairs]), _quartiles([b for _, b in pairs])]
        change = statistics.median(100.0 * (b / a - 1.0) for a, b in pairs)
        wins = sum((b < a) if better == "lower" else (b > a) for a, b in pairs)
        summary[name] = {"unit": units[name], "better": better,
                         "rev": sides[0], "tree": sides[1], "change_pct": change,
                         "tree_better": wins, "pairs": [list(p) for p in pairs]}
        text = [f"{q['median']:.6g} [{q['q1']:.6g}, {q['q3']:.6g}]" for q in sides]
        print(f"  {name:12s} {' -> '.join(text)} (change {change:+.1f} %,"
              f" tree better in {wins}/{len(pairs)})")
    bad = [r for rs in runs.values() for r in rs if not r["correct"] or r["failed"]]
    if args.record:
        record = {
            "workload": args.workload, "seeds": [args.seed + i for i in range(args.pairs)],
            "seconds": args.seconds,
            "revisions": {"rev": args.rev, "rev_commit": _git("rev-parse", args.rev),
                          "tree_head": _git("rev-parse", "HEAD"),
                          "tree_modified": bool(_git("status", "--porcelain", "--",
                                                     "src", "bench", "BENCHMARK.json"))},
            "machine": _machine(), "all_correct": not bad, "metrics": summary}
        path = os.path.join(ROOT, f"BENCH_{args.record}.json")
        with open(path, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
        print(f"recorded {path}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
