"""Benchmark of the superint certifier: one workload per run, one JSON result.

    python3 bench/run.py --workload {sweep,dense,tables,flow} --seed N \
        --seconds S --trace {0,1} [--size {full,tiny}]

Run it from the repository root.  The package is imported from ``src/``; no
install and no network is needed.  With ``--trace 0`` the run measures the
end-to-end metrics with nothing wrapped; with ``--trace 1`` it measures the
per-layer metrics and the traced passes.  Human-readable lines come first;
the last line of standard output is the result object.  A copy of the
result, and with ``--trace 1`` the recorded spans, go to ``.bench_results/``.
See ``bench/README.md`` for the workloads and what each metric shows.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_results")
SETUP_RUNS = {"full": 5, "tiny": 1}
TRACE_SETUP_RUNS = {"full": 3, "tiny": 1}

# A fresh interpreter pays this on every command-line call.
SETUP_CODE = """\
import time
import superint.cli
from superint import catalog
t0 = time.perf_counter()
catalog.load_catalog()
print(time.perf_counter() - t0)
"""


def _child_env():
    env = dict(os.environ, PYTHONPATH=SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def fresh_setup(importtime=False):
    """Wall seconds of one fresh set-up, catalog load seconds, importtime text."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", SETUP_CODE]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=_child_env(),
                          cwd=ROOT, timeout=120)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"fresh set-up failed: {proc.stderr.strip()[-500:]}")
    return wall, float(proc.stdout.split()[-1]), proc.stderr


class Tally:
    """Operations attempted and failed, and any disagreement of a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, op):
        self.attempted += 1
        note = ""
        try:
            failed, problems = op.judge(op.run())
        except Exception:  # an operation that raises counts as failed
            failed, problems, note = True, [], "\n" + traceback.format_exc()
        if failed:
            self.failed += 1
            print(f"failed: {op.label}{note}", file=sys.stderr)
        self.problems += [f"{op.label}: {p}" for p in problems]


class _Dual:
    """A Dual4-like number for the speed probe: small objects, method calls."""

    __slots__ = ("v", "d")

    def __init__(self, v, d):
        self.v, self.d = v, d

    def __mul__(self, o):
        a, b, u, w = self.d, o.d, self.v, o.v
        return _Dual(u * w, tuple(a[i] * w + b[i] * u for i in range(4)))

    def __add__(self, o):
        return _Dual(self.v + o.v, tuple(x + y for x, y in zip(self.d, o.d)))


class SpeedProbe:
    """Rescales wall times to one reference machine speed.

    On a shared machine the speed of a core drifts by a quarter or more
    within seconds, while the program's work stays the same.  The probe is a
    short fixed mix of what the certifier runs — interpreter arithmetic,
    small objects with operator methods, small-array numpy and packed outer
    products — and shares no code with it.  Probes are taken between
    operations, at least every ``EVERY_S`` seconds; work is multiplied by
    ``REF_S`` over the mean probe time around it, which gives the time it
    would take at the speed where the probe takes ``REF_S``.
    """

    REF_S = 0.020
    EVERY_S = 0.15

    def __init__(self):
        import numpy as np

        self._np = np
        self._arr = np.random.default_rng(0).uniform(size=(10, 256))
        self._iu = np.array([0, 0, 0, 0, 1, 1, 1, 2, 2, 3])
        self._ju = np.array([0, 1, 2, 3, 1, 2, 3, 2, 3, 3])
        self.history = []
        self._window = []
        self.take()

    def take(self):
        np = self._np
        t0 = time.perf_counter()
        x = 0
        for i in range(80_000):
            x += i * i
        d, e = _Dual(1.0001, (1.0, 0.0, 0.0, 0.0)), _Dual(0.9999, (0.0, 1.0, 0.0, 0.0))
        for _ in range(1000):
            z = (d * e + d) * e
            math.sqrt(abs(z.v))
        a = b = self._arr
        for _ in range(300):
            b = np.abs(b * 1.0000001 + a).max(axis=0) * a
        g = a[:4]
        for _ in range(150):
            h = a * 0.5 + g[self._iu] * g[self._ju]
            g = np.tanh(g * 0.5 + h[:4] * 0.5)
        now = time.perf_counter()
        self.history.append(now - t0)
        self._window.append(now - t0)
        self._last = now

    def tick(self):
        """Take a probe if the last one is more than EVERY_S old."""
        if time.perf_counter() - self._last >= self.EVERY_S:
            self.take()

    def scale(self):
        """Factor for the work since the previous call; ends with a probe."""
        self.take()
        window, self._window = self._window, self._window[-1:]
        return self.REF_S / statistics.fmean(window)


def run_pass(ops, tally, probe, latencies=None):
    """Run every op once; return the pass time at the reference speed."""
    lat = []
    for op in ops:
        t = time.perf_counter()
        tally.run(op)
        lat.append(time.perf_counter() - t)
        probe.tick()
    factor = probe.scale()
    if latencies is not None:
        latencies += [factor * x for x in lat]
    return factor * sum(lat)


def end_to_end(wl, seed, seconds, size):
    """Untraced passes for ``seconds``, then the run's checks."""
    import workloads

    probe = SpeedProbe()
    setups = []
    for _ in range(SETUP_RUNS[size]):
        wall = fresh_setup()[0]
        setups.append(wall * probe.scale())
    ops, extra = wl(seed, workloads.SIZES[size])
    tally, passes, lat = Tally(), [], []
    probe.scale()
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(run_pass(ops, tally, probe, lat))
    run_pass(extra + workloads.controls(seed), tally, probe)
    lat_ms = sorted(1e3 * x for x in lat)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "pass_s": (statistics.median(passes), "s"),
        "op_ms_p50": (statistics.median(lat_ms), "ms"),
        "op_ms_p90": (statistics.quantiles(lat_ms, n=10, method="inclusive")[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    info = {"passes": len(passes), "ops_per_pass": len(ops), "op_samples": len(lat),
            "setup_samples": len(setups), "probe_s": statistics.median(probe.history)}
    return tally, metrics, info


def per_layer(wl, seed, seconds, size):
    """Layer timings, then alternating untraced and traced passes, then the
    workload's checks untraced and the controls traced.  Layer self time and
    calls are per traced pass plus the one round of controls, so that every
    layer a control enters shows on every workload."""
    import layers
    import tracing
    import workloads

    setups = [fresh_setup(importtime=True) for _ in range(TRACE_SETUP_RUNS[size])]
    ops, extra = wl(seed, workloads.SIZES[size])
    start = time.perf_counter()
    metrics = layers.measure(seed, size)
    metrics["catalog.load_ms"] = (1e3 * statistics.median(p[1] for p in setups), "ms")
    imports = [layers.parse_importtime(p[2]) for p in setups]
    for mod in layers.IMPORTS:
        name = "import." + mod.replace(".", "_") + "_ms"
        metrics[name] = (statistics.median(i[mod] for i in imports), "ms")

    tally, plain, traced = Tally(), [], []
    probe = SpeedProbe()
    tracer = tracing.Tracer()
    sections = []
    deadline = start + seconds
    while not traced or time.perf_counter() < deadline:
        plain.append(run_pass(ops, tally, probe))
        mark = tracer.mark()
        tracer.install()
        try:
            traced.append(run_pass(ops, tally, probe))
        finally:
            tracer.remove()
        sections.append((mark, tracer.mark()))
    run_pass(extra, tally, probe)
    mark = tracer.mark()
    tracer.install()
    try:
        run_pass(workloads.controls(seed), tally, probe)
    finally:
        tracer.remove()
    controls_section = (mark, tracer.mark())

    # totals over the traced passes, divided once so that calls stay whole
    self_s = dict.fromkeys(tracing.LAYERS, 0.0)
    calls = dict.fromkeys(tracing.LAYERS, 0)
    by_name = {}
    for section in sections:
        s, c, names = tracer.layer_totals(*section)
        for layer in tracing.LAYERS:
            self_s[layer] += s[layer]
            calls[layer] += c[layer]
        for name, count in names.items():
            by_name[name] = by_name.get(name, 0) + count
    n = len(sections)
    s, c, _ = tracer.layer_totals(*controls_section)
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = (self_s[layer] / n + s[layer], "s")
        metrics[f"{layer}.calls"] = (calls[layer] / n + c[layer], "count")
    metrics["systems.build_fns_calls"] = (by_name.get("systems.build_fns", 0) / n, "count")
    metrics["jets.eval_calls"] = (by_name.get("jets.Observable.eval", 0) / n, "count")
    metrics["trace.spans"] = (controls_section[0] / n, "count")
    metrics["trace.overhead_pct"] = (
        100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0), "%")
    info = {"traced_passes": len(traced), "untraced_pass_s": statistics.median(plain),
            "traced_pass_s": statistics.median(traced), "spans": len(tracer.spans)}
    return tally, metrics, info, tracer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "dense", "tables", "flow"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every workload at a few points (self-test)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "superint", "__init__.py")):
        sys.exit(f"bench: no superint package under {SRC}")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # One CPU for the run and its set-up children, so that the speed probe
    # measures the core the work runs on.
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass
    sys.path.insert(0, SRC)
    import superint
    import workloads

    if not os.path.abspath(superint.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: imported superint from {superint.__file__}, not from {SRC}")
    seed = args.seed % 2**32
    wl = workloads.WORKLOADS[args.workload]
    if args.trace:
        tally, metrics, info, tracer = per_layer(wl, seed, args.seconds, args.size)
    else:
        tally, metrics, info = end_to_end(wl, seed, args.seconds, args.size)
        tracer = None

    for line in tally.problems:
        print(f"WRONG {line}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:.6g} {unit}")
    print("# " + json.dumps(info))
    result = {"correct": not tally.problems, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}}
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({"result": result, "info": info, "args": vars(args),
                   "python": platform.python_version(), "machine": platform.machine(),
                   "cpus": os.cpu_count()}, fh, indent=1)
    if tracer is not None:
        tracer.dump(stem + "-spans.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
