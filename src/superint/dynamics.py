"""Hamiltonian flow integration and conservation drift certification.

Hamilton's equations in Liouville/Lie coordinates,

    dxi/dt  =  dH/dp_xi,   deta/dt  =  dH/dp_eta,
    dp_xi/dt = -dH/dxi,    dp_eta/dt = -dH/deta,

are integrated with an explicit embedded Dormand-Prince 5(4) pair under
PI step-size control.  The conformal-metric Hamiltonians are
non-separable (p_xi p_eta / g coupling), so explicit symplectic
splitting does not apply; tight tolerances substitute for structure
preservation and conservation drift is the acceptance metric.

The step is compiled code.  Each spec's parts are built on first use and
shared by every :func:`integrate` call on the same parameter bits (a small
LRU cache, so a forward and a time-reversed run trace H once):

* the right-hand side is H's gradient, traced (:func:`superint.jets.trace`)
  into straight-line float code that gives the Dual4 evaluation's floats
  and errors bit for bit; the seeds' structural zeros fold as it is
  traced, so the code holds no arithmetic on a derivative that is zero by
  construction, such as the momentum derivatives of g and w;
* the domain check runs on floats: the positivity and pole-margin tests of
  :class:`SampleDomain`, then g and the recoordinatized metric, whose
  closed forms are traced with their numpy calls kept.

The DP5(4) step itself, six stages, the 5th-order update and the error
estimate on Python floats, is written once in :func:`_attempt` and
compiled once with :func:`superint.jets.straight_line`; it calls the
spec's gradient at each stage.  Its sums keep the order of operations of
numpy's sums over 4-arrays, so every step is bit-identical to them.

Integration stops early with a ``domain_exit`` status when the state
leaves the class domain (pole-margin exclusions, positivity, metric
magnitude), recording the exit time.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, StepFailure
from .jets import PhasePoint, one_call, straight_line, trace
from .poisson import bracket_value, casimir_combination
from .systems import (MIN_ABS_G, SystemSpec, algebra_constants, build_fns,
                      hamiltonian, integrals, sample_domain)

__all__ = ["Trajectory", "integrate", "drift_report", "clamp_energy", "REL_TOL",
           "ABS_TOL", "MAX_ABS_H"]

REL_TOL = 1e-10   # the integrator's default relative tolerance
ABS_TOL = 1e-12   # and absolute tolerance
MAX_ABS_H = 10.0  # the largest |H| clamp_energy leaves an initial state at

# Dormand-Prince 5(4) tableau; the 5th-order solution is propagated (FSAL).
# The flow is autonomous, so the c-nodes never enter the stage evaluations.
_A = [
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
]
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)
_E = tuple(b5 - b4 for b5, b4 in zip(_B5, _B4))

_MIN_DT = 1e-14
_CACHED_SPECS = 16  # specs whose gradient and domain check are kept


@dataclass(frozen=True)
class Trajectory:
    """Accepted integration states and bookkeeping for one run."""

    times: np.ndarray
    states: np.ndarray            # shape (4, n): xi, eta, p_xi, p_eta
    status: str                   # "completed" | "domain_exit"
    exit_time: float = None
    stats: dict = field(default_factory=dict)

    @property
    def points(self) -> PhasePoint:
        return PhasePoint.from_array(self.states)

    def __len__(self):
        return self.times.size


def _slope(dH, y):
    """Hamilton's equations at the state ``y``, from H's traced gradient."""
    _, d0, d1, d2, d3 = dH(*y)
    return d2, d3, -d0, -d1


def _attempt(dH, y, h, k0):
    """One DP5(4) step of size ``h`` from ``y``, whose slope is ``k0``.

    Returns the 5th-order state, the error estimate and the slope there,
    twelve floats.  Each stage sum starts from 0 and adds left to right,
    and the two weight sums add all seven stages, zero weights included:
    the operations of numpy's sums over 4-arrays.
    """
    k = [k0]
    for a in _A[1:]:
        k.append(_slope(dH, [yc + h * sum(aj * kj[c] for aj, kj in zip(a, k))
                             for c, yc in enumerate(y)]))
    y_new = [yc + h * sum(b * kj[c] for b, kj in zip(_B5, k)) for c, yc in enumerate(y)]
    err = [h * sum(e * kj[c] for e, kj in zip(_E, k)) for c in range(4)]
    return (*y_new, *err, *k[6])


def _error_norm(y, y_new, err, rel_tol, abs_tol):
    """RMS of ``err`` over ``abs_tol + rel_tol * max(|y|, |y_new|)``.

    ``y`` is finite, so ``max`` keeps a NaN of ``y_new`` as ``np.maximum``
    does.  A zero scale gives inf, where numpy gives inf or NaN: a rejected
    step either way.
    """
    try:
        r = [e / (abs_tol + rel_tol * max(abs(b), abs(a))) for e, a, b in zip(err, y, y_new)]
    except ZeroDivisionError:
        return math.inf
    return math.sqrt(sum(x * x for x in r) / 4)


def _domain_check(spec: SystemSpec):
    """Whether a state of four floats lies in ``spec``'s class domain.

    The state must be finite, pass :meth:`SampleDomain.admits_point`, and
    have both conformal factors, g and the recoordinatized one, finite and
    at least ``MIN_ABS_G`` in magnitude (an exception evaluating them means
    outside).  The two factors are the closed forms of
    :meth:`SystemFns.metric` and :meth:`SystemFns.tilde_metric`, traced to
    straight-line code once.
    """
    fns, dom = build_fns(spec), sample_domain(spec)
    metrics = straight_line(lambda xi, eta: (fns.metric(xi, eta), fns.tilde_metric(xi, eta)), 2)

    def in_domain(y):
        xi, eta = y[0], y[1]
        # math.isfinite classifies a float exactly as np.isfinite does
        if not all(map(math.isfinite, y)) or not dom.admits_point(xi, eta):
            return False
        try:
            g, gt = metrics(xi, eta)
        except (DomainError, FloatingPointError, ZeroDivisionError, OverflowError):
            return False
        # both conformal factors must stay non-degenerate: g divides H and A,
        # the recoordinatized one divides B
        return (math.isfinite(g) and abs(g) >= MIN_ABS_G
                and math.isfinite(gt) and abs(gt) >= MIN_ABS_G)

    return in_domain


@functools.cache
def _step():
    """:func:`_attempt` as straight-line code: ``step(dH, *y, h, *k0)``,
    with one call of the gradient ``dH`` per stage."""
    return straight_line(lambda dH, *a: _attempt(one_call(dH, 5), a[:4], a[4], a[5:]), 10)


_Flow = namedtuple("_Flow", "dH in_domain")


@functools.lru_cache(maxsize=_CACHED_SPECS)
def _compiled(tag, *params):
    """H's traced gradient and the domain check of the spec of class ``tag``
    whose parameters have the ``float.hex`` strings ``params``."""
    spec = SystemSpec(tag, *map(float.fromhex, params))
    return _Flow(trace(hamiltonian(spec).fn), _domain_check(spec))


def _flow(spec: SystemSpec) -> _Flow:
    """``spec``'s compiled flow, shared by every call on the same parameter
    bits (so ``-0.0`` and ``0.0`` do not share)."""
    return _compiled(spec.tag, *map(float.hex, spec.metric_params + spec.potential_params))


def integrate(spec: SystemSpec, initial: PhasePoint, t_end: float,
              rel_tol: float = REL_TOL, abs_tol: float = ABS_TOL,
              max_steps: int = 1_000_000) -> Trajectory:
    """Integrate Hamilton's equations from ``initial`` for ``t_end`` time units.

    Adaptive embedded RK5(4) with PI step control.  Observables are meant
    to be evaluated at accepted steps only (no dense output).  Raises
    :class:`StepFailure` if the step size underflows below 1e-14, and
    ``ValueError`` unless ``t_end`` is finite and positive and the two
    tolerances are finite, non-negative and not both zero.
    """
    if not (math.isfinite(t_end) and t_end > 0):
        raise ValueError(f"t_end must be finite and positive, got {t_end}")
    for name, tol in (("rel_tol", rel_tol), ("abs_tol", abs_tol)):
        if not (math.isfinite(tol) and tol >= 0):
            raise ValueError(f"{name} must be finite and non-negative, got {tol}")
    if rel_tol == 0 and abs_tol == 0:
        raise ValueError("rel_tol and abs_tol cannot both be zero")
    flow, step = _flow(spec), _step()

    y0 = initial.as_array().astype(float).reshape(4)
    y = y0.tolist()
    if not flow.in_domain(y):
        raise DomainError("initial", tuple(y0), "initial state outside class domain")

    t = 0.0
    times = [0.0]
    states = [y]
    n_acc = n_rej = 0
    min_dt, max_dt = math.inf, 0.0
    status, exit_time = "completed", None

    k0 = _slope(flow.dH, y)
    nevals = 1

    # initial step: conservative scale from the first derivative
    scale0 = abs_tol + rel_tol * np.abs(y0)
    d0 = np.sqrt(np.mean((y0 / scale0) ** 2))
    d1 = np.sqrt(np.mean((np.array(k0) / scale0) ** 2))
    h = float(min(t_end, 0.01 * d0 / d1 if d1 > 1e-10 else 1e-4))

    err_prev = 1.0
    safety, beta1, beta2 = 0.9, 0.17, 0.08

    for _ in range(max_steps):
        if t >= t_end:
            break
        h = min(h, t_end - t)
        if h < _MIN_DT:
            raise StepFailure(f"step size underflow (dt={h:.3e}) at t={t:.6g}")
        try:
            out = step(flow.dH, *y, h, *k0)
            nevals += 6
        except (DomainError, OverflowError, ZeroDivisionError, ValueError):
            n_rej += 1
            h *= 0.5
            continue

        y_new = out[:4]
        err = _error_norm(y, y_new, out[4:8], rel_tol, abs_tol)

        if not math.isfinite(err) or err > 1.0:
            n_rej += 1
            h *= max(0.2, safety * (max(err, 1e-10)) ** -0.2) if math.isfinite(err) else 0.5
            err_prev = 1.0
            continue

        # accepted
        t += h
        n_acc += 1
        min_dt, max_dt = min(min_dt, h), max(max_dt, h)
        y, k0 = y_new, out[8:]  # FSAL
        if not flow.in_domain(y):
            status, exit_time = "domain_exit", t
            break
        times.append(t)
        states.append(y)
        e = max(err, 1e-10)
        h *= min(5.0, max(0.2, safety * e**-beta1 * err_prev**beta2))
        err_prev = e
    else:
        raise StepFailure(f"max_steps={max_steps} exceeded at t={t:.6g}")

    stats = {"accepted": n_acc, "rejected": n_rej, "rhs_evals": nevals,
             "min_dt": float(min_dt) if n_acc else 0.0,
             "max_dt": float(max_dt)}
    return Trajectory(np.array(times), np.array(states).T, status, exit_time, stats)


def conserved_values(spec: SystemSpec, points: PhasePoint):
    """H, A, B and the Casimir combination along a batch of states.

    The Casimir combination freezes the energy-dependent constants at the
    first state's energy, making it a bona fide conserved scalar.  A state
    with ``|g| < MIN_ABS_G``, which no stored trajectory state has, raises.
    """
    # values only: C = {A, B} reads the gradients, so order-1 jets suffice
    H, A, B = integrals(spec, 1)(points)
    C, _ = bracket_value(A, B)
    E0 = float(np.atleast_1d(H.val)[0])
    con = algebra_constants(spec, E0)
    kcomb, _ = casimir_combination(con, C, A.val, B.val)
    return {"H": H.val, "A": A.val, "B": B.val, "K": kcomb}


def drift_report(spec: SystemSpec, traj: Trajectory) -> dict:
    """Max |Q(t) - Q(0)| (absolute and normalized) for Q in {H, A, B, K}."""
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    return _drifts(conserved_values(spec, traj.points))


def _drifts(vals):
    out = {}
    for name, q in vals.items():
        drift = float(np.abs(q - q[0]).max())
        out[name] = {"max_drift": drift,
                     "normalized": drift / (1.0 + float(np.abs(q).max()))}
    return out


def _csv(traj, vals):
    """CSV export of ``traj``: t,xi,eta,p_xi,p_eta,H,A,B,K with 17 significant
    digits, H, A, B and K from ``vals``, the trajectory's
    :func:`conserved_values`."""
    cols = [traj.times, traj.states[0], traj.states[1], traj.states[2],
            traj.states[3], vals["H"], vals["A"], vals["B"], vals["K"]]
    lines = ["t,xi,eta,p_xi,p_eta,H,A,B,K"]
    for row in zip(*cols):
        lines.append(",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def clamp_energy(spec: SystemSpec, point: PhasePoint):
    """``point`` with its momenta scaled until |H| <= MAX_ABS_H, and the factor.

    The momenta are multiplied by 0.7 up to 60 times, and the first state
    with |H| <= MAX_ABS_H is returned with the factor applied (1.0 when
    ``point`` itself has it).  When no scaling gets there, e.g. when the
    potential dominates H, ``point`` is returned as given, with factor 1.0.
    Scaling keeps step sizes sane at the cost of a different trajectory.
    H is evaluated with numpy's floating-point warnings off: ``point`` may
    lie outside the domain, which :func:`integrate` reports.
    """
    H = hamiltonian(spec)
    arr = point.as_array().astype(float).reshape(4)
    scale = 1.0
    with np.errstate(all="ignore"):
        for _ in range(61):
            if abs(float(H.value(PhasePoint.from_array(arr)))) <= MAX_ABS_H:
                return PhasePoint.from_array(arr), scale
            arr[2:] *= 0.7
            scale *= 0.7
    return point, 1.0
