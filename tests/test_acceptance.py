"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see every line.  All
tolerances are pinned here; nothing is deferred to later calibration.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from superint.catalog import lookup, verify_entry
from superint.errors import SamplingError
from superint.jets import PhasePoint, fd_derivatives, norm_residual
from superint.poisson import (c_observable, casimir_coefficients,
                              polynomial_membership, verify_algebra,
                              verify_casimir)
from superint.systems import (CLASS_TAGS, SystemSpec, build_fns,
                              characteristic_residual, hamiltonian, integral_A,
                              integral_B, sample_points,
                              structural_pde_residual)
from superint.dynamics import drift_report, integrate

SEED = 0xC0FFEE
N_DRAWS = 20
N_POINTS = 100


def _report(cid, ok, detail):
    print(f"\n[criterion {cid:>2}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {cid}: {detail}"


def _random_specs(tag, n, rng):
    """n admissible parameter draws, components uniform in [-2, 2]."""
    out = []
    guard = 0
    while len(out) < n and guard < 50 * n:
        guard += 1
        spec = SystemSpec(tag, *rng.uniform(-2.0, 2.0, size=8))
        try:
            sample_points(spec, N_POINTS, np.random.default_rng(SEED))
        except SamplingError:
            continue
        out.append(spec)
    assert len(out) == n, f"could not draw {n} admissible specs for {tag}"
    return out


@pytest.fixture(scope="module")
def sweep():
    """The shared criterion-1/2/3 sweep: 6 classes x 20 draws x 100 points."""
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    rows = []
    for tag in CLASS_TAGS:
        for spec in _random_specs(tag, N_DRAWS, rng):
            ra = verify_algebra(spec, n_points=N_POINTS, seed=SEED, threads=1)
            rc = verify_casimir(spec, n_points=N_POINTS, seed=SEED, threads=1)
            rows.append((spec, ra, rc))
    return {"rows": rows, "elapsed": time.time() - t0}


def test_criterion_01_commutation(sweep):
    worst = 0.0
    for _, ra, _ in sweep["rows"]:
        for ident in ra.identities:
            if ident.name in ("HA", "HB", "HC"):
                worst = max(worst, ident.max_residual)
    ok = worst <= 1e-9 and sweep["elapsed"] < 30.0
    _report(1, ok, f"max normalized |{{H,.}}| = {worst:.2e} (tol 1e-9) over "
                   f"{len(sweep['rows'])} draws x {N_POINTS} points in "
                   f"{sweep['elapsed']:.1f}s (< 30s)")


def test_criterion_02_quadratic_algebra(sweep):
    worst = 0.0
    corrected = 0
    for _, ra, _ in sweep["rows"]:
        corrected += ra.correction_applied
        for ident in ra.identities:
            if ident.name in ("AC_row", "BC_row"):
                worst = max(worst, ident.max_residual)
    ok = worst <= 1e-8 and corrected == 0
    _report(2, ok, f"max row residual = {worst:.2e} (tol 1e-8), "
                   f"correction_applied in {corrected} of {len(sweep['rows'])} runs")


def test_criterion_03_casimir(sweep):
    worst = max(rc.identities[0].max_residual for _, _, rc in sweep["rows"])
    corrected = sum(rc.correction_applied for _, _, rc in sweep["rows"])
    ok = worst <= 1e-8 and corrected == 0
    _report(3, ok, f"max Casimir residual = {worst:.2e} (tol 1e-8)")


def test_criterion_04_characteristic_equations():
    rng = np.random.default_rng(SEED + 4)
    worst = 0.0
    for tag in CLASS_TAGS:
        spec = SystemSpec(tag, *rng.uniform(-2, 2, 8))
        try:
            pts = sample_points(spec, 20, rng)
        except SamplingError:
            pts = sample_points(SystemSpec(tag, nu=1.0, kappa=1.0), 20, rng)
        r = np.abs(characteristic_residual(spec, pts.xi))
        worst = max(worst, float((r / (1.0 + np.abs(pts.xi))).max()))
    # I3: the inhomogeneous constant is pinned by solving the equation
    # itself; its xi-independence is part of the criterion
    fns = build_fns(SystemSpec("I3"))
    alpha, gamma, a_pinned = fns.char_constants
    from superint.systems import _univariate_jet

    xs = np.linspace(-1.3, 1.3, 20)
    A, A1, _ = _univariate_jet(fns.A_of_xi, xs)
    derived = -(6.0 * A1**2 - 3.0 * gamma * A**2 - 3.0 * alpha * A)
    ok = (worst <= 1e-10 and abs(derived.mean() - a_pinned) <= 1e-10
          and derived.std() <= 1e-10)
    _report(4, ok, f"max residual = {worst:.2e} (tol 1e-10); I3 constant "
                   f"a = {a_pinned} with derivation stddev {derived.std():.2e}")


def test_criterion_05_structural_pdes():
    rng = np.random.default_rng(SEED + 5)
    worst = 0.0
    for tag in CLASS_TAGS:
        for spec in _random_specs(tag, N_DRAWS, rng):
            pts = sample_points(spec, 20, rng)
            for which in ("metric_pair", "potential_pair"):
                r = structural_pde_residual(spec, which, pts.xi, pts.eta)
                worst = max(worst, float(r.max()))
    ok = worst <= 1e-9
    _report(5, ok, f"max structural-PDE residual = {worst:.2e} (tol 1e-9), "
                   f"both pairs, {N_DRAWS} draws/class x 20 points")


def test_criterion_06_table3_curvature_zero():
    worst = 0.0
    for entry in lookup(table="T3"):
        v = verify_entry(entry, free_draws=5, seed=SEED, n_points=50)
        assert v.status == "verified", entry.row_id
        worst = max(worst, max(d["max_abs_K"] for d in v.details["draws"]))
    ok = worst <= 1e-8
    _report(6, ok, f"all 11 rows Zero; max |K| = {worst:.2e} (tol 1e-8)")


def test_criterion_07_table4_constant_curvature():
    worst_mean, worst_std = 0.0, 0.0
    for entry in lookup(table="T4"):
        v = verify_entry(entry, free_draws=5, seed=SEED, n_points=50)
        assert v.status == "verified", entry.row_id
        assert {d["K"] for d in v.details["draws"]} == {1.0, 2.0, -1.0}, entry.row_id
        for d in v.details["draws"]:
            worst_mean = max(worst_mean, abs(d["mean"] - d["K"]))
            worst_std = max(worst_std, d["stddev"])
    ok = worst_mean <= 1e-7 and worst_std <= 1e-8
    _report(7, ok, f"all 7 rows Constant(K) for K in {{1,2,-1}}; "
                   f"|mean-K| <= {worst_mean:.2e}, stddev <= {worst_std:.2e}")


def test_criterion_08_table2_revolution():
    must_verify = {"R_1", "R_2", "R_3", "R_9", "R_10"}
    verified, unchecked = set(), set()
    for entry in lookup(table="T2"):
        v = verify_entry(entry, free_draws=5, seed=SEED, n_points=50)
        assert v.passed, entry.row_id
        if any(d.get("revolution") == "unchecked" for d in v.details["draws"]):
            unchecked.add(entry.row_id)
        else:
            verified.add(entry.row_id)
    ok = (must_verify <= verified and verified | unchecked ==
          {e.row_id for e in lookup(table="T2")})
    _report(8, ok, f"{len(verified)} rows verified "
                   f"({', '.join(sorted(verified))}); annotated unchecked: "
                   f"{', '.join(sorted(unchecked))}")


def test_criterion_09_table5_linear_integrals():
    worst = 0.0
    for entry in lookup(table="T5", include_aliases=False):
        v = verify_entry(entry, free_draws=5, seed=SEED, n_points=50)
        assert v.status == "verified", entry.row_id
        worst = max(worst, max(d["residual"] for d in v.details["draws"]))
    ok = worst <= 1e-9
    _report(9, ok, f"all principal rows pass one sign; max residual = {worst:.2e}")


def test_criterion_10_casimir_membership():
    # tolerance is stated for coefficients O(1)-O(100) after column scaling,
    # so random draws are kept in that regime (the identity itself is
    # parameter-independent; extreme draws only inflate absolute scales)
    rng = np.random.default_rng(SEED + 10)
    worst_coef, worst_rms = 0.0, 0.0
    for tag in CLASS_TAGS:
        specs = [SystemSpec(tag, kappa=1.0, lam=0.5, mu=-0.3, nu=2.0,
                            k=0.4, ell=-0.1, m=0.2, n=1.0)]
        guard = 0
        while len(specs) < 3 and guard < 500:
            guard += 1
            cand = SystemSpec(tag, *rng.uniform(-0.7, 0.7, size=8))
            if max(abs(v) for v in casimir_coefficients(cand).values()) > 100.0:
                continue
            try:
                sample_points(cand, 400, np.random.default_rng(SEED))
            except SamplingError:
                continue
            specs.append(cand)
        assert len(specs) == 3, tag
        for spec in specs:
            C = c_observable(spec)

            class _Csq:
                def value(self, pts):
                    return C.value(pts) ** 2

            gens = [hamiltonian(spec), integral_A(spec), integral_B(spec)]
            res = polynomial_membership(_Csq(), gens, spec, n_points=400, seed=SEED)
            expected = casimir_coefficients(spec)
            err = max(abs(res.coefficients[mn] - expected.get(mn, 0.0))
                      for mn in res.coefficients)
            worst_coef = max(worst_coef, err)
            worst_rms = max(worst_rms, res.rms_holdout)
    ok = worst_coef <= 1e-6 and worst_rms <= 1e-7
    _report(10, ok, f"C^2 coefficients match to {worst_coef:.2e} (tol 1e-6); "
                    f"held-out rms <= {worst_rms:.2e} (tol 1e-7)")


def test_criterion_11_jet_correctness():
    from tests.test_jets import _random_observable

    rng = np.random.default_rng(SEED + 11)
    worst_g, worst_h = 0.0, 0.0
    for _ in range(1000):
        obs = _random_observable(rng)
        pt = PhasePoint(*rng.uniform(0.4, 1.6, size=4))
        j = obs.eval(pt)
        grad_fd, hess_fd = fd_derivatives(obs, pt)
        worst_g = max(worst_g, float(norm_residual(j.grad, grad_fd).max()))
        worst_h = max(worst_h, float(norm_residual(j.hess, hess_fd).max()))
    ok = worst_g <= 1e-6 and worst_h <= 1e-4
    _report(11, ok, f"1000 compositions: gradient <= {worst_g:.2e} (tol 1e-6), "
                    f"Hessian <= {worst_h:.2e} (tol 1e-4) vs central differences")


def test_criterion_12_dynamics():
    from tests.test_dynamics import FIXED_PAIRS

    t0 = time.time()
    worst_drift, worst_rev = 0.0, 0.0
    for spec, y0 in FIXED_PAIRS:
        traj = integrate(spec, PhasePoint(*y0), t_end=10.0, rel_tol=1e-10)
        assert traj.status == "completed", spec.tag
        rep = drift_report(spec, traj)
        worst_drift = max(worst_drift, max(v["normalized"] for v in rep.values()))
        yT = traj.states[:, -1].copy()
        yT[2:] *= -1.0
        back = integrate(spec, PhasePoint(*yT), t_end=float(traj.times[-1]),
                         rel_tol=1e-10)
        yB = back.states[:, -1].copy()
        yB[2:] *= -1.0
        rev = np.abs(yB - np.array(y0)).max() / (1.0 + np.abs(np.array(y0)).max())
        worst_rev = max(worst_rev, float(rev))
    elapsed = time.time() - t0
    ok = worst_drift <= 1e-6 and worst_rev <= 1e-5 and elapsed < 10.0
    _report(12, ok, f"5 pairs, t_end=10, rel_tol=1e-10: drift <= {worst_drift:.2e} "
                    f"(tol 1e-6), reversal <= {worst_rev:.2e} (tol 1e-5), "
                    f"{elapsed:.1f}s (< 10s)")


def test_criterion_13_determinism():
    args = [sys.executable, "-m", "superint.cli", "verify", "--class", "I2",
            "--kappa", "1", "--lambda", "0.5", "--mu", "-0.3", "--nu", "2",
            "--k", "0.4", "--ell", "-0.1", "--m", "0.2", "--n", "1",
            "--points", "200", "--seed", str(SEED), "--no-timestamp"]
    outs = []
    for threads in ("1", "4", "1"):
        r = subprocess.run(args + ["--threads", threads], capture_output=True,
                           text=True)
        assert r.returncode == 0, r.stderr
        outs.append(r.stdout)
    in_process = [verify_algebra(SystemSpec("I3", kappa=1.0, lam=0.5, mu=-0.3,
                                            nu=2.0, k=0.4, ell=-0.1, m=0.2,
                                            n=1.0), n_points=200, seed=SEED,
                                 threads=t).to_json() for t in (1, 3)]
    ok = outs[0] == outs[1] == outs[2] and in_process[0] == in_process[1]
    _report(13, ok, "byte-identical timestamp-stripped reports at thread "
                    "counts 1 and 4 (CLI) and 1 and 3 (library)")
