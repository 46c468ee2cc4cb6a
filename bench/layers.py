"""Per-layer timings, each taken by calling one module's public functions.

Every figure is the best of a few repeats (``perf_counter``), so that it
shows the cost of the layer rather than the noise of the machine.  The
inputs are the six classes at the reference parameters of the acceptance
suite, which all six classes admit.
"""

from __future__ import annotations

import time

import numpy as np

from superint import catalog, dynamics, geometry, jets, poisson, systems

from workloads import FIXED_PAIRS, REF

LAYER_SIZES = {
    "full": dict(n_dense=20000, n_small=100, reps=3, dense_reps=1, t_end=10.0),
    "tiny": dict(n_dense=600, n_small=20, reps=1, dense_reps=1, t_end=1.0),
}
IMPORTS = ("superint", "superint.jets", "superint.systems", "superint.poisson",
           "superint.geometry", "superint.dynamics", "superint.catalog",
           "superint.cli", "numpy", "scipy.optimize")


def _best(fn, reps):
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def measure(seed, size):
    """All per-layer timings and counts as {name: (value, unit)}."""
    sz = LAYER_SIZES[size]
    reps, n_dense, n_small = sz["reps"], sz["n_dense"], sz["n_small"]
    specs = [systems.SystemSpec(tag, **REF) for tag in systems.CLASS_TAGS]
    rng = lambda: np.random.default_rng(seed)
    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    for n, label in ((n_small, "n100"), (n_dense, "n20000")):
        t = _best(lambda: [systems.sample_points(s, n, rng()) for s in specs], reps)
        put(f"systems.sample_us_per_pt.{label}", 1e6 * t / (n * len(specs)), "us")
    put("systems.build_fns_us", 1e6 * _best(
        lambda: [systems.build_fns(s) for s in specs * 20], reps) / (20 * len(specs)), "us")
    put("systems.constants_us", 1e6 * _best(
        lambda: [systems.constants_poly(s) for s in specs * 20], reps) / (20 * len(specs)), "us")

    obs = [(systems.hamiltonian(s), systems.integral_A(s), systems.integral_B(s)) for s in specs]

    def eval_all(i, pts):
        return [o.eval(pts) for o in obs[i]]

    small = [systems.sample_points(s, n_small, rng()) for s in specs]
    t = _best(lambda: [eval_all(i, p) for i, p in enumerate(small)], reps)
    put("jets.eval_us_per_pt.n100", 1e6 * t / (n_small * len(specs)), "us")
    for i, s in enumerate(specs):
        pts = systems.sample_points(s, n_dense, rng())
        put(f"jets.eval_us_per_pt.{s.tag}", 1e6 * _best(lambda: eval_all(i, pts), reps) / n_dense, "us")
    points = [jets.PhasePoint(*p.as_array()[:, 0]) for p in small]
    put("jets.dual_us", 1e6 * _best(
        lambda: [obs[i][0].dual(p) for _ in range(20) for i, p in enumerate(points)],
        reps) / (20 * len(specs)), "us")

    for s in specs:
        t = _best(lambda: poisson.verify_algebra(s, n_points=n_dense, seed=seed), sz["dense_reps"])
        put(f"poisson.verify_algebra_us_per_pt.{s.tag}", 1e6 * t / n_dense, "us")
    t = _best(lambda: [poisson.verify_casimir(s, n_points=n_small, seed=seed) for s in specs], reps)
    put("poisson.verify_casimir_us_per_pt.n100", 1e6 * t / (n_small * len(specs)), "us")

    for name, fn in (("classify_curvature", geometry.classify_curvature),
                     ("revolution_check", geometry.revolution_check),
                     ("linear_integral_check",
                      lambda s, seed: geometry.linear_integral_check(s, "plus", seed=seed))):
        t = _best(lambda: [fn(s, seed=seed) for s in specs], reps)
        put(f"geometry.{name}_ms", 1e3 * t / len(specs), "ms")

    rows = [catalog.lookup(table=t, include_aliases=False)[0] for t in catalog.TABLES[1:]]
    t = _best(lambda: [catalog.verify_entry(e, free_draws=1, seed=seed) for e in rows], reps)
    put("catalog.verify_entry_ms", 1e3 * t / len(rows), "ms")

    stats = {}

    def run_pairs():
        for spec, y0 in FIXED_PAIRS:
            stats[spec.tag] = dynamics.integrate(spec, jets.PhasePoint(*y0), t_end=sz["t_end"],
                                                 rel_tol=1e-10).stats

    t = _best(run_pairs, reps)
    steps = sum(s["accepted"] + s["rejected"] for s in stats.values())
    rhs = sum(s["rhs_evals"] for s in stats.values())
    put("dynamics.step_us", 1e6 * t / steps, "us")
    put("dynamics.rhs_per_s", rhs / t, "1/s")
    put("dynamics.rhs_evals", rhs, "count")
    put("dynamics.rejected_steps", sum(s["rejected"] for s in stats.values()), "count")
    return out


def parse_importtime(stderr):
    """Cumulative import time in ms of each module in IMPORTS (0 if not imported)."""
    cumulative = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = (part.strip() for part in line[len("import time:"):].split("|"))
        if cum.isdigit():
            cumulative.setdefault(name, int(cum) / 1e3)
    return {mod: cumulative.get(mod, 0.0) for mod in IMPORTS}
