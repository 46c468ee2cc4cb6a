"""Trajectory integration and conservation drift."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from superint import dynamics
from superint.errors import DomainError
from superint.jets import Dual4, PhasePoint, norm_residual, trace
from superint.poisson import TOL_NESTED
from superint.systems import CLASS_TAGS, SystemSpec, algebra_constants, hamiltonian
from superint.dynamics import (clamp_energy, conserved_values, drift_report,
                               integrate, trajectory_csv)

# The five pinned (spec, initial) pairs of the acceptance suite; all stay
# inside their class domains for at least 10 time units.
FIXED_PAIRS = [
    (SystemSpec("I1", kappa=0.184, lam=0.291, mu=0.354, nu=1.254,
                k=0.418, ell=0.063, m=0.212, n=0.399), (1.053, 0.348, 0.007, 0.359)),
    (SystemSpec("I2", kappa=0.381, lam=0.185, mu=0.584, nu=1.348,
                k=0.172, ell=0.033, m=0.348, n=0.114), (1.192, 0.4, -0.348, 0.729)),
    (SystemSpec("II1", mu=1.0, nu=1.0, m=0.5, n=0.2), (1.0, 1.2, 0.6, 0.7)),
    (SystemSpec("II2", kappa=0.3, nu=2.0, k=0.3, n=0.2), (1.0, 1.0, 0.7, 0.6)),
    (SystemSpec("II3", lam=0.5, mu=0.5, nu=2.0, m=0.2, n=0.3), (1.0, 1.0, 0.6, -0.4)),
]


def test_free_motion_closed_form():
    # dxi/dt = p_eta / g = 1/2, momenta constant
    spec = SystemSpec("I1", nu=2.0)
    traj = integrate(spec, PhasePoint(1.0, 0.5, 1.0, 1.0), t_end=4.0, rel_tol=1e-10)
    assert traj.status == "completed"
    t = traj.times
    assert np.abs(traj.states[0] - (1.0 + t / 2)).max() <= 1e-12
    assert np.abs(traj.states[1] - (0.5 + t / 2)).max() <= 1e-12
    assert np.abs(traj.states[2] - 1.0).max() == 0.0
    assert np.abs(traj.states[3] - 1.0).max() == 0.0


def test_free_motion_drifts_tiny():
    spec = SystemSpec("I1", nu=2.0)
    traj = integrate(spec, PhasePoint(1.0, 0.5, 1.0, 0.8), t_end=5.0, rel_tol=1e-10)
    rep = drift_report(spec, traj)
    assert max(v["max_drift"] for v in rep.values()) <= 1e-12


@pytest.mark.parametrize("spec,y0", FIXED_PAIRS, ids=[s.tag for s, _ in FIXED_PAIRS])
def test_fixed_pairs_conserve(spec, y0):
    traj = integrate(spec, PhasePoint(*y0), t_end=10.0, rel_tol=1e-10)
    assert traj.status == "completed"
    rep = drift_report(spec, traj)
    for name in ("H", "A", "B", "K"):
        assert rep[name]["normalized"] <= 1e-6, (spec.tag, name)


@pytest.mark.parametrize("spec,y0", FIXED_PAIRS, ids=[s.tag for s, _ in FIXED_PAIRS])
def test_casimir_value_is_certified_constant(spec, y0):
    # every function of H, A and B is conserved, so drift cannot expose a
    # wrong Casimir combination; its value must be the certified K(E0)
    traj = integrate(spec, PhasePoint(*y0), t_end=10.0, rel_tol=1e-10)
    vals = conserved_values(spec, traj.points)
    K = algebra_constants(spec, float(vals["H"][0])).K_casimir
    assert norm_residual(vals["K"], K).max() <= TOL_NESTED


@pytest.mark.parametrize("spec,y0", FIXED_PAIRS[:2], ids=["I1", "I2"])
def test_time_reversal(spec, y0):
    fwd = integrate(spec, PhasePoint(*y0), t_end=10.0, rel_tol=1e-10)
    yT = fwd.states[:, -1].copy()
    yT[2:] *= -1.0
    back = integrate(spec, PhasePoint(*yT), t_end=float(fwd.times[-1]), rel_tol=1e-10)
    yB = back.states[:, -1].copy()
    yB[2:] *= -1.0
    err = np.abs(yB - np.array(y0)).max() / (1.0 + np.abs(np.array(y0)).max())
    assert err <= 1e-5


def test_tolerance_monotonicity():
    # halving tolerances never increases drift (2x slack factor)
    for spec, y0 in FIXED_PAIRS:
        drifts = []
        for rel in (1e-6, 1e-8, 1e-10):
            traj = integrate(spec, PhasePoint(*y0), t_end=10.0, rel_tol=rel)
            rep = drift_report(spec, traj)
            drifts.append(max(v["normalized"] for v in rep.values()))
        assert drifts[1] <= 2.0 * drifts[0]
        assert drifts[2] <= 2.0 * drifts[1]


def test_loose_tolerance_grows_drift():
    spec, y0 = FIXED_PAIRS[1]
    loose = max(v["normalized"] for v in drift_report(
        spec, integrate(spec, PhasePoint(*y0), 10.0, rel_tol=1e-4)).values())
    tight = max(v["normalized"] for v in drift_report(
        spec, integrate(spec, PhasePoint(*y0), 10.0, rel_tol=1e-10)).values())
    assert loose > 100.0 * tight


def test_domain_exit_before_collision():
    # I1 with a metric pole on xi = eta: shrinking separation must exit
    spec = SystemSpec("I1", nu=2.0, mu=0.5)
    traj = integrate(spec, PhasePoint(1.0, 0.5, -1.0, 1.0), t_end=10.0, rel_tol=1e-8)
    assert traj.status == "domain_exit"
    assert traj.exit_time is not None and 0.0 < traj.exit_time < 10.0
    # all recorded states still inside the guarded domain
    assert np.abs(traj.states[0] - traj.states[1]).min() >= 0.15


def test_initial_outside_domain_rejected():
    spec = SystemSpec("I1", nu=2.0, mu=0.5)
    with pytest.raises(DomainError):
        integrate(spec, PhasePoint(1.0, 0.95, 0.0, 0.0), t_end=1.0)


@pytest.mark.parametrize("controls", [
    dict(t_end=0.0), dict(t_end=-1.0), dict(t_end=np.inf),
    dict(t_end=1.0, rel_tol=-1e-10), dict(t_end=1.0, abs_tol=np.nan),
    dict(t_end=1.0, rel_tol=0.0, abs_tol=0.0),
])
def test_bad_controls_raise_value_error(controls):
    spec, y0 = FIXED_PAIRS[3]
    with pytest.raises(ValueError):
        integrate(spec, PhasePoint(*y0), **controls)


def test_step_stats_recorded():
    spec, y0 = FIXED_PAIRS[3]
    traj = integrate(spec, PhasePoint(*y0), t_end=10.0, rel_tol=1e-10)
    st = traj.stats
    assert st["accepted"] == len(traj) - 1
    assert st["rhs_evals"] >= 6 * st["accepted"]
    assert 0 < st["min_dt"] <= st["max_dt"]
    assert np.all(np.diff(traj.times) > 0.0)
    assert np.all(np.isfinite(traj.states))


def test_trajectory_csv_format():
    spec, y0 = FIXED_PAIRS[2]
    traj = integrate(spec, PhasePoint(*y0), t_end=1.0, rel_tol=1e-10)
    csv = trajectory_csv(spec, traj)
    lines = csv.strip().split("\n")
    assert lines[0] == "t,xi,eta,p_xi,p_eta,H,A,B,K"
    assert len(lines) == len(traj) + 1
    first = lines[1].split(",")
    assert len(first) == 9
    # 17 significant digits round-trip exactly
    assert float(first[1]) == traj.states[0, 0]
    vals = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    assert np.array_equal(vals[:, 0], traj.times)


def test_clamp_energy():
    spec = SystemSpec("II1", kappa=1.0, k=1.0)
    pt, scale = clamp_energy(spec, PhasePoint(1.0, 1.0, 30.0, 30.0))
    assert abs(float(hamiltonian(spec).value(pt))) <= 10.0
    assert 0.0 < scale < 1.0


def test_clamp_energy_reports_the_scale_it_applies():
    # H = 22.9: two reductions by 0.7 reach |H| <= 10
    spec = SystemSpec("II2", kappa=0.3, nu=2.0, k=0.3, n=0.2)
    pt, scale = clamp_energy(spec, PhasePoint(1.0, 1.0, 9.0, 8.0))
    assert scale == 0.7 * 0.7
    assert (float(pt.p_xi), float(pt.p_eta)) == (9.0 * 0.7 * 0.7, 8.0 * 0.7 * 0.7)
    assert (float(pt.xi), float(pt.eta)) == (1.0, 1.0)


def test_clamp_energy_keeps_a_state_that_scaling_cannot_bring_down():
    # H = 272.9 comes from the potential: no momentum scaling reaches 10
    spec = SystemSpec("II1", mu=1.0, nu=1.0, k=500.0)
    y0 = PhasePoint(1.0, 1.2, 0.6, 0.7)
    pt, scale = clamp_energy(spec, y0)
    assert scale == 1.0
    assert np.array_equal(pt.as_array(), y0.as_array())


def test_step_failure_on_budget_exhaustion():
    from superint.errors import StepFailure

    spec, y0 = FIXED_PAIRS[0]
    with pytest.raises(StepFailure):
        integrate(spec, PhasePoint(*y0), t_end=10.0, rel_tol=1e-12, max_steps=3)


# -- the traced right-hand side ---------------------------------------------


def _dual_rhs_fn(spec):
    """The reference: H's gradient from Dual4 numbers, evaluated per call."""
    H = hamiltonian(spec, enforce_min_g=False)

    def rhs(y):
        args = [Dual4.seed(y[i], i) for i in range(4)]
        out = H.fn(*args)
        d = out.d
        return np.array([d[2], d[3], -d[0], -d[1]])

    return rhs


def _outcome(fn, *args):
    """``fn``'s result as (type, hex) per float, or the exception it raises."""
    try:
        return [(type(v), float.hex(v)) for v in fn(*args)]
    except Exception as exc:
        return type(exc), str(exc)


def _dual_eval(fn, y):
    out = fn(*[Dual4.seed(v, i) for i, v in enumerate(y)])
    return (out.val, *out.d)


_PARAM = st.one_of(st.sampled_from([0.0, 1.0, -0.5]), st.floats(-2.0, 2.0))
_COMPONENT = st.one_of(st.floats(0.2, 2.0), st.floats(-3.0, 3.0), st.floats(-1e3, 1e3),
                       st.sampled_from([0.0, -0.0, 1.0, np.nan, np.inf]))


@given(tag=st.sampled_from(CLASS_TAGS), params=st.lists(_PARAM, min_size=8, max_size=8),
       states=st.lists(st.tuples(*[_COMPONENT] * 4), min_size=1, max_size=8))
@settings(max_examples=150, deadline=None)
def test_traced_gradient_equals_the_dual4_evaluation(tag, params, states):
    # same floats of the same types, signed zeros included, and where the
    # Dual4 evaluation raises, the same exception with the same text
    H = hamiltonian(SystemSpec(tag, *params), enforce_min_g=False)
    traced = trace(H.fn)
    for y in states:
        assert _outcome(traced, *y) == _outcome(_dual_eval, H.fn, y), (tag, params, y)


def test_traced_gradient_raises_the_dual4_errors():
    # each kind of failure the integrator turns into a rejected step
    cases = [(SystemSpec("I1", nu=2.0, mu=0.5), (1.0, 1.0, 0.5, 0.5)),   # pole
             (SystemSpec("II2", nu=2.0, k=0.3), (1.0, -1.0, 0.5, 0.5)),  # sqrt < 0
             (SystemSpec("II3", nu=2.0, m=0.2), (1.0, 0.0, 0.5, 0.5)),   # 0 ** -2
             (SystemSpec("I3", nu=1.0, k=0.5), (1e3, 0.5, 0.5, 0.5))]    # exp overflow
    kinds = set()
    for spec, y in cases:
        H = hamiltonian(spec, enforce_min_g=False)
        want = _outcome(_dual_eval, H.fn, y)
        assert _outcome(trace(H.fn), *y) == want
        kinds.add(want[0])
    assert kinds == {DomainError, ZeroDivisionError, OverflowError}


@pytest.mark.parametrize("spec,y0", FIXED_PAIRS, ids=[s.tag for s, _ in FIXED_PAIRS])
def test_fixed_pairs_integrate_as_with_the_dual4_rhs(spec, y0, monkeypatch):
    traj = integrate(spec, PhasePoint(*y0), t_end=10.0)
    monkeypatch.setattr(dynamics, "_rhs_fn", _dual_rhs_fn)
    ref = integrate(spec, PhasePoint(*y0), t_end=10.0)
    assert traj.times.tobytes() == ref.times.tobytes()
    assert traj.states.tobytes() == ref.states.tobytes()
    assert traj.stats == ref.stats and traj.status == ref.status
