"""Trajectory integration and conservation drift."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from superint import dynamics
from superint.errors import DomainError, StepFailure
from superint.jets import Dual4, Observable, PhasePoint, norm_residual, straight_line, trace
from superint.poisson import TOL_NESTED
from superint.systems import (CLASS_TAGS, MIN_ABS_G, SystemSpec, algebra_constants,
                              build_fns, hamiltonian, integral_A, integral_B,
                              sample_domain, sample_points)
from superint.dynamics import _csv, clamp_energy, conserved_values, drift_report, integrate

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
    csv = _csv(traj, conserved_values(spec, traj.points))
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


class _FreshDual(Dual4):
    """A Dual4 that keeps no basis value: each one is computed afresh, so the
    reference shares nothing with the traced evaluation."""

    __slots__ = ()

    def once(self, fn):
        return fn(self)


def _dual_rhs_fn(spec):
    """The reference: H's gradient from Dual4 numbers, evaluated per call.

    Its seeds carry plain 0.0 derivatives, not Dual4's structural zeros, so
    the reference does all four-float arithmetic of the dual rules."""
    H = hamiltonian(spec)

    def rhs(y):
        args = [_FreshDual(float(y[i]), tuple(float(i == j) for j in range(4)))
                for i in range(4)]
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
    out = fn(*[_FreshDual.seed(v, i) for i, v in enumerate(y)])
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
    H = hamiltonian(SystemSpec(tag, *params))
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
        H = hamiltonian(spec)
        want = _outcome(_dual_eval, H.fn, y)
        assert _outcome(trace(H.fn), *y) == want
        kinds.add(want[0])
    assert kinds == {DomainError, ZeroDivisionError, OverflowError}


@pytest.mark.parametrize("tag", CLASS_TAGS)
def test_duals_that_keep_basis_values_equal_fresh_ones(tag):
    # H, A, B and g on Dual4 numbers, which keep their basis values, give
    # the floats of duals that compute each one afresh
    spec = SystemSpec(tag, kappa=1.0, lam=0.5, mu=-0.3, nu=2.0, k=0.4, ell=-0.1,
                      m=0.2, n=1.0)
    fns = build_fns(spec)
    observables = (hamiltonian(spec), integral_A(spec), integral_B(spec),
                   Observable(lambda xi, eta, p_xi, p_eta: fns.metric(xi, eta)))
    for y in sample_points(spec, 20, np.random.default_rng(26)).as_array().T.tolist():
        for obs in observables:
            val, grad = obs.dual(PhasePoint(*y))
            want = _dual_eval(obs.fn, y)
            assert [float.hex(v) for v in (val, *grad)] == list(map(float.hex, want))


# -- the compiled step against the numpy integrator ---------------------------

_REF_A = [
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
]
_REF_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_REF_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                    187 / 2100, 1 / 40])
_REF_E = _REF_B5 - _REF_B4


def _numpy_in_domain(fns, dom, y):
    """The reference domain check: numpy on the state array."""
    xi, eta = y[0], y[1]
    if not np.all(np.isfinite(y)):
        return False
    if not bool(dom.admits(xi, eta)):
        return False
    try:
        g = fns.metric(float(xi), float(eta))
        gt = fns.tilde_metric(float(xi), float(eta))
    except (DomainError, FloatingPointError, ZeroDivisionError):
        return False
    return (np.isfinite(g) and abs(g) >= MIN_ABS_G
            and np.isfinite(gt) and abs(gt) >= MIN_ABS_G)


def _reference_integrate(spec, initial, t_end, rel_tol=dynamics.REL_TOL,
                         abs_tol=dynamics.ABS_TOL, max_steps=1_000_000):
    """The reference integrator: the DP5(4) loop on 4-element numpy arrays,
    with the per-call Dual4 right-hand side and the numpy domain check."""
    fns, dom, rhs = build_fns(spec), sample_domain(spec), _dual_rhs_fn(spec)
    y = initial.as_array().astype(float).reshape(4)
    if not _numpy_in_domain(fns, dom, y):
        raise DomainError("initial", tuple(y), "initial state outside class domain")
    t, times, states = 0.0, [0.0], [y.copy()]
    n_acc = n_rej = 0
    min_dt, max_dt = np.inf, 0.0
    status, exit_time = "completed", None
    k = np.empty((7, 4))
    k[0] = rhs(y)
    nevals = 1
    scale0 = abs_tol + rel_tol * np.abs(y)
    d0 = np.sqrt(np.mean((y / scale0) ** 2))
    d1 = np.sqrt(np.mean((k[0] / scale0) ** 2))
    h = min(t_end, 0.01 * d0 / d1 if d1 > 1e-10 else 1e-4)
    err_prev = 1.0
    safety, beta1, beta2 = 0.9, 0.17, 0.08
    for _ in range(max_steps):
        if t >= t_end:
            break
        h = min(h, t_end - t)
        if h < 1e-14:
            raise StepFailure(f"step size underflow (dt={h:.3e}) at t={t:.6g}")
        try:
            for i in range(1, 7):
                yi = y + h * sum(a * k[j] for j, a in enumerate(_REF_A[i]))
                k[i] = rhs(yi)
            nevals += 6
        except (DomainError, OverflowError, ZeroDivisionError, ValueError):
            n_rej += 1
            h *= 0.5
            continue
        y_new = y + h * (_REF_B5[:, None] * k).sum(axis=0)
        err_vec = h * (_REF_E[:, None] * k).sum(axis=0)
        scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))
        if not np.isfinite(err) or err > 1.0:
            n_rej += 1
            h *= max(0.2, safety * (max(err, 1e-10)) ** -0.2) if np.isfinite(err) else 0.5
            err_prev = 1.0
            continue
        t += h
        n_acc += 1
        min_dt, max_dt = min(min_dt, h), max(max_dt, h)
        y = y_new
        k[0] = k[6]
        if not _numpy_in_domain(fns, dom, y):
            status, exit_time = "domain_exit", t
            break
        times.append(t)
        states.append(y.copy())
        e = max(err, 1e-10)
        h *= min(5.0, max(0.2, safety * e**-beta1 * err_prev**beta2))
        err_prev = e
    else:
        raise StepFailure(f"max_steps={max_steps} exceeded at t={t:.6g}")
    stats = {"accepted": n_acc, "rejected": n_rej, "rhs_evals": nevals,
             "min_dt": float(min_dt) if n_acc else 0.0, "max_dt": float(max_dt)}
    return dynamics.Trajectory(np.array(times), np.array(states).T, status, exit_time, stats)


def _assert_same_run(spec, y0, **controls):
    traj = integrate(spec, PhasePoint(*y0), **controls)
    ref = _reference_integrate(spec, PhasePoint(*y0), **controls)
    assert traj.times.tobytes() == ref.times.tobytes()
    assert traj.states.tobytes() == ref.states.tobytes()
    assert traj.stats == ref.stats
    assert (traj.status, traj.exit_time) == (ref.status, ref.exit_time)
    return traj


@pytest.mark.parametrize("spec,y0", FIXED_PAIRS, ids=[s.tag for s, _ in FIXED_PAIRS])
def test_fixed_pairs_integrate_as_with_the_dual4_rhs(spec, y0):
    # forward and reversed, as the reference integrator with the Dual4 RHS
    fwd = _assert_same_run(spec, y0, t_end=10.0)
    yT = fwd.states[:, -1].copy()
    yT[2:] *= -1.0
    _assert_same_run(spec, tuple(yT), t_end=float(fwd.times[-1]))


# II2 leaving its domain: at rel_tol 1e-3 some attempts fail in a stage and
# some fail the error test
_REJECTING = (SystemSpec("II2", kappa=0.64, lam=1.73, mu=-1.17, nu=0.52,
                         k=-0.81, ell=0.97, m=0.89, n=-1.13), (1.898, 1.067, -1.963, 0.056))


@pytest.mark.parametrize("rel_tol", [1e-3, 1e-6])
def test_rejected_steps_as_the_reference(rel_tol):
    spec, y0 = _REJECTING
    traj = _assert_same_run(spec, y0, t_end=5.0, rel_tol=rel_tol)
    st = traj.stats
    assert st["rejected"] > 0 and traj.status == "domain_exit"
    if rel_tol == 1e-3:  # a stage raised: its attempt made no counted evaluation
        assert st["rhs_evals"] < 1 + 6 * (st["accepted"] + st["rejected"])


def test_domain_exit_as_the_reference():
    traj = _assert_same_run(SystemSpec("I1", nu=2.0, mu=0.5), (1.0, 0.5, -1.0, 1.0),
                            t_end=10.0, rel_tol=1e-8)
    assert traj.status == "domain_exit"


def test_step_failure_as_the_reference():
    spec, y0 = FIXED_PAIRS[0]
    texts = []
    for run in (integrate, _reference_integrate):
        with pytest.raises(StepFailure) as err:
            run(spec, PhasePoint(*y0), t_end=10.0, rel_tol=1e-12, max_steps=3)
        texts.append(str(err.value))
    assert texts[0] == texts[1]


# -- the float domain check and the compiled-flow cache ------------------------


def _numpy_predicate(fns, dom, y):
    """The reference domain check, with an exception counted as outside."""
    try:
        return bool(_numpy_in_domain(fns, dom, np.array(y)))
    except Exception:
        return False


# 1e103 ... 1e200 overflow a float under Python's ** (cubes, squares)
_COORD = st.one_of(st.floats(0.2, 2.0), st.floats(-3.0, 3.0), st.floats(-1e3, 1e3),
                   st.sampled_from([0.0, -0.0, 1e-9, 1.0, np.nan, np.inf, -np.inf,
                                    1e103, 1e155, 1e200, -1e200]))
# generic states, and states on the poles xi = eta and xi = -eta
_STATE = st.one_of(st.tuples(*[_COORD] * 4),
                   st.tuples(_COORD, _COORD).map(lambda c: (c[0], c[0], c[1], 0.5)),
                   st.tuples(_COORD, _COORD).map(lambda c: (c[0], -c[0], 0.5, c[1])))


@given(tag=st.sampled_from(CLASS_TAGS), params=st.lists(_PARAM, min_size=8, max_size=8),
       states=st.lists(_STATE, min_size=1, max_size=12))
@settings(max_examples=150, deadline=None)
def test_float_domain_check_equals_the_numpy_predicate(tag, params, states):
    spec = SystemSpec(tag, *params)
    fns, dom = build_fns(spec), sample_domain(spec)
    in_domain = dynamics._flow(spec).in_domain
    with np.errstate(all="ignore"):
        for y in states:
            assert in_domain(list(y)) == _numpy_predicate(fns, dom, y), (tag, params, y)


def test_domain_check_counts_an_overflow_as_outside():
    # Python's float ** raises OverflowError where numpy gives inf: the
    # tilde metric squares X + Y = 2e200 here
    spec = SystemSpec("II1", kappa=1.0, mu=1.0, nu=1.0)
    y = [1e200, 1.0, 0.1, 0.1]
    assert dynamics._flow(spec).in_domain(y) is False
    with np.errstate(all="ignore"):
        assert _numpy_predicate(build_fns(spec), sample_domain(spec), y) is False
    with pytest.raises(DomainError, match="initial state outside class domain"):
        integrate(spec, PhasePoint(*y), t_end=1.0)


@given(tag=st.sampled_from(CLASS_TAGS), params=st.lists(_PARAM, min_size=8, max_size=8),
       states=st.lists(_STATE, min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_traced_metrics_equal_the_closed_forms(tag, params, states):
    # the domain check's g and tilde metric keep their numpy calls: the
    # same floats of the same types, and the same exceptions
    fns = build_fns(SystemSpec(tag, *params))

    def metrics(xi, eta):
        return fns.metric(xi, eta), fns.tilde_metric(xi, eta)

    traced = straight_line(metrics, 2)
    with np.errstate(all="ignore"):
        for y in states:
            assert _outcome(traced, *y[:2]) == _outcome(metrics, *y[:2]), (tag, params, y)


_SIGNED = st.one_of(st.floats(-1e3, 1e3), st.floats(),
                    st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf]))


def _stand_in(grads, seen):
    """A gradient that returns ``grads`` in turn and records its arguments."""
    queue = iter(grads)
    return lambda *state: seen.append(state) or next(queue)


@given(y=st.tuples(*[_SIGNED] * 4), h=st.one_of(st.floats(0.0, 1.0), st.just(-0.0)),
       grads=st.lists(st.tuples(*[_SIGNED] * 5), min_size=7, max_size=7))
@settings(max_examples=200, deadline=None)
def test_float_step_equals_the_numpy_stage_sums(y, h, grads):
    # the stages, the update and the error estimate of one step, on floats
    # and compiled, against the numpy loop: every stage state, every output
    # float, signed zeros, infinities and NaN included
    seen = []
    dH = _stand_in(grads, seen)
    k = np.empty((7, 4))
    k[0] = dynamics._slope(dH, y)
    ya = np.array(y)
    with np.errstate(all="ignore"):
        for i in range(1, 7):
            yi = ya + h * sum(a * k[j] for j, a in enumerate(_REF_A[i]))
            k[i] = dynamics._slope(dH, yi.tolist())
        ref = [*(ya + h * (_REF_B5[:, None] * k).sum(axis=0)),
               *(h * (_REF_E[:, None] * k).sum(axis=0)), *k[6]]
    want = [list(map(float.hex, ref)), [list(map(float.hex, s)) for s in seen]]

    for compiled in (False, True):
        seen = []
        dH = _stand_in(grads, seen)
        k0 = dynamics._slope(dH, y)
        out = dynamics._step()(dH, *y, h, *k0) if compiled else dynamics._attempt(dH, y, h, k0)
        assert [list(map(float.hex, out)), [list(map(float.hex, s)) for s in seen]] == want


@given(y=st.tuples(*[st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0]))] * 4),
       y_new=st.tuples(*[_SIGNED] * 4), err=st.tuples(*[_SIGNED] * 4),
       rel_tol=st.sampled_from([1e-10, 1e-3, 0.0]), abs_tol=st.sampled_from([1e-12, 0.0]))
@settings(max_examples=300, deadline=None)
def test_error_norm_equals_numpys(y, y_new, err, rel_tol, abs_tol):
    # the same float where numpy's is finite; where it is not, the step is
    # rejected either way, so the float norm need only be non-finite too
    with np.errstate(all="ignore"):
        scale = abs_tol + rel_tol * np.maximum(np.abs(np.array(y)), np.abs(np.array(y_new)))
        want = float(np.sqrt(np.mean((np.array(err) / scale) ** 2)))
    got = dynamics._error_norm(y, y_new, err, rel_tol, abs_tol)
    if np.isfinite(want):
        assert float.hex(got) == float.hex(want)
    else:
        assert not np.isfinite(got)


def test_forward_and_reversed_runs_trace_h_once(monkeypatch):
    calls = []
    monkeypatch.setattr(dynamics, "trace", lambda fn: calls.append(fn) or trace(fn))
    dynamics._compiled.cache_clear()
    spec, y0 = FIXED_PAIRS[1]
    fwd = integrate(spec, PhasePoint(*y0), t_end=10.0)
    yT = fwd.states[:, -1].copy()
    yT[2:] *= -1.0
    integrate(spec, PhasePoint(*yT), t_end=float(fwd.times[-1]))
    assert len(calls) == 1


def test_signed_zero_parameters_compile_their_own_flow():
    pos = SystemSpec("II1", mu=1.0, nu=1.0, m=0.5, n=0.2)
    neg = SystemSpec("II1", kappa=-0.0, mu=1.0, nu=1.0, m=0.5, n=0.2)
    assert pos == neg  # equal as dataclasses, so a key on the spec would share
    dynamics._compiled.cache_clear()
    flow = dynamics._flow(pos)
    assert dynamics._flow(neg) is not flow and dynamics._flow(pos) is flow
    assert dynamics._compiled.cache_info().currsize == 2


def test_compiled_flow_cache_stays_at_its_bound():
    dynamics._compiled.cache_clear()
    bound = dynamics._compiled.cache_info().maxsize
    for i in range(bound + 3):
        dynamics._flow(SystemSpec("II1", mu=1.0, nu=1.0 + i))
    assert dynamics._compiled.cache_info().currsize == bound


def test_the_drift_of_an_empty_trajectory_is_a_value_error():
    empty = dynamics.Trajectory(np.empty(0), np.empty((4, 0)), "completed")
    with pytest.raises(ValueError, match="empty trajectory"):
        drift_report(FIXED_PAIRS[0][0], empty)
