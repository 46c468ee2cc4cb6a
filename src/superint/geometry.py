"""Curvature, surface-of-revolution and linear-integral checks.

The Gaussian curvature of the conformal metric ``ds^2 = g dxi deta`` is

    K = -(1 / 2g) d^2(ln g) / dxi deta

implemented in the log-free rational form

    K = -(g g_xieta - g_xi g_eta) / (2 g^3)

which only needs g != 0 (indefinite conformal factors are legitimate
here, so the ln branch must not be forced).

A metric is "of revolution" when it depends on only one of xi+eta or
xi-eta; that is detected as a directional-derivative null test, either in
the native coordinates or after the class's real recoordinatization
(X, Y) where the structure often only appears there.

Each check is written once, on given points (:func:`curvature_class`,
:func:`revolution_tag`, :func:`linear_residual`); :func:`classify_curvature`,
:func:`revolution_check` and :func:`linear_integral_check` draw
``sample_points(spec, n_points, default_rng(seed))`` and run it there, the
last two in the native coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .jets import CoordJet, Observable, PhasePoint, _norm
from .poisson import DEFAULT_SEED, bracket_value
from .systems import SystemSpec, build_fns, hamiltonian, sample_points

__all__ = [
    "CurvatureClass",
    "curvature",
    "curvature_class",
    "classify_curvature",
    "revolution_tag",
    "revolution_check",
    "linear_residual",
    "linear_integral_check",
    "linear_observable",
    "TOL_CURV_ZERO",
    "TOL_CURV_CONST",
    "TOL_CURV_MEAN",
    "TOL_DIRECTIONAL",
    "TOL_LINEAR",
]

TOL_CURV_ZERO = 1e-8
TOL_CURV_CONST = 1e-8
TOL_CURV_MEAN = 1e-7   # |mean K - K| of a row that claims constant curvature K
TOL_DIRECTIONAL = 1e-9
TOL_LINEAR = 1e-9


@dataclass(frozen=True)
class CurvatureClass:
    """Classification of the sampled curvature field."""

    tag: str                 # "Zero" | "Constant" | "NonConstant"
    max_abs: float
    mean: float
    stddev: float


def _metric_jet(spec: SystemSpec, xi, eta, order=2) -> CoordJet:
    fns = build_fns(spec)
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    if xi.shape != eta.shape:
        xi, eta = np.broadcast_arrays(xi, eta)
    return fns.metric(CoordJet.seed(xi, 0, order), CoordJet.seed(eta, 1, order))


def curvature(spec: SystemSpec, xi, eta):
    """Gaussian curvature K at (xi, eta); batched, momenta irrelevant."""
    g = _metric_jet(spec, xi, eta)
    g_xi, g_eta = g.grad[0], g.grad[1]
    g_cross = g.hess_at(0, 1)
    return -(g.val * g_cross - g_xi * g_eta) / (2.0 * g.val**3)


def classify_curvature(spec: SystemSpec, n_points: int = 50,
                       seed: int = DEFAULT_SEED) -> CurvatureClass:
    """Sample the domain and classify the curvature field there
    (:func:`curvature_class`)."""
    return curvature_class(spec, sample_points(spec, n_points, np.random.default_rng(seed)))


def curvature_class(spec: SystemSpec, pts: PhasePoint) -> CurvatureClass:
    """Compute K at the points and classify the field.

    Raises :class:`DomainError` when K is not finite at some point: the
    metric's values then left float64, and NaN or inf is no curvature a
    tolerance can judge.
    """
    K = curvature(spec, pts.xi, pts.eta)
    max_abs = float(np.abs(K).max())  # ndarray.max keeps a NaN
    if not math.isfinite(max_abs):
        raise DomainError("curvature", max_abs, f"max |K| is {max_abs}, not finite")
    mean = float(K.mean())
    std = float(K.std())
    if max_abs <= TOL_CURV_ZERO:
        tag = "Zero"
    elif std <= TOL_CURV_CONST:
        tag = "Constant"
    else:
        tag = "NonConstant"
    return CurvatureClass(tag, max_abs, mean, std)


# ---------------------------------------------------------------------------
# Revolution detection


def _directional_residuals(spec: SystemSpec, xi, eta, coords: str):
    """Normalized |dg/d(xi-eta)| and |dg/d(xi+eta)| samples (or X,Y analogue).

    Reads first derivatives only, so the jets are of order 1.
    """
    if coords == "liouville":
        g = _metric_jet(spec, xi, eta, 1)
        gx, gy = g.grad[0], g.grad[1]
    elif coords == "transformed":
        fns = build_fns(spec)
        # d xi / dX and d eta / dY of the class's B-integral map, except for
        # II1, whose own map is the identity; there the log map (d xi / dX =
        # xi) linearizes the Lie metric's xi-dependence, which is the natural
        # real map exhibiting rotational symmetry (e.g. g = kappa xi eta).
        if spec.tag == "II1":
            dxi = deta = lambda c: c
        else:
            dxi = deta = fns.sqrtA
        xi = np.asarray(xi, dtype=float)
        eta = np.asarray(eta, dtype=float)
        xj, ej = CoordJet.seed(xi, 0, 1), CoordJet.seed(eta, 1, 1)
        # transformed conformal factor g~ = g * (dxi/dX) * (deta/dY)
        gt = fns.metric(xj, ej) * dxi(xj) * deta(ej)
        gx = gt.grad[0] * dxi(xi)    # d g~ / dX
        gy = gt.grad[1] * deta(eta)  # d g~ / dY
    else:
        raise ValueError("coords must be 'liouville' or 'transformed'")
    ax, ay = np.abs(gx), np.abs(gy)
    return _norm(gx - gy, ax, ay), _norm(gx + gy, ax, ay)


# kept for bench/layers.py (geometry.revolution_check_ms); the CLI and the
# catalog call revolution_tag
def revolution_check(spec: SystemSpec, n_points: int = 50,
                     seed: int = DEFAULT_SEED) -> str:
    """Sample the domain and classify the metric's direction dependence
    there, in the native coordinates (:func:`revolution_tag`)."""
    return revolution_tag(spec, sample_points(spec, n_points, np.random.default_rng(seed)))


def revolution_tag(spec: SystemSpec, pts: PhasePoint, coords: str = "liouville") -> str:
    """Classify the metric's direction dependence at the points: SumOnly,
    DiffOnly, Both or Neither.

    SumOnly means g depends only on xi+eta (the xi-eta directional
    derivative vanishes); DiffOnly the converse; Both means a constant
    metric.  With ``coords='transformed'`` the test runs on the
    recoordinatized conformal factor.  A directional derivative vanishes
    when its largest normalized sample is at most ``TOL_DIRECTIONAL``.
    """
    r_sum, r_diff = _directional_residuals(spec, pts.xi, pts.eta, coords)
    sum_only = float(r_sum.max()) <= TOL_DIRECTIONAL
    diff_only = float(r_diff.max()) <= TOL_DIRECTIONAL
    if sum_only and diff_only:
        return "Both"
    if sum_only:
        return "SumOnly"
    if diff_only:
        return "DiffOnly"
    return "Neither"


# ---------------------------------------------------------------------------
# Linear integrals


def linear_observable(spec: SystemSpec, sign: str, coords: str = "liouville") -> Observable:
    """p_xi +/- p_eta, its transformed analogue p_X +/- p_Y, or p_eta
    (``coords='eta-only'``, which ignores the sign)."""
    s = {"plus": 1.0, "minus": -1.0}.get(sign)
    if s is None:
        raise ValueError(f"unknown sign {sign!r}")
    if coords == "liouville":
        return Observable(lambda xi, eta, p_xi, p_eta: p_xi + s * p_eta,
                          label=f"p_xi{'+' if s > 0 else '-'}p_eta")
    if coords == "transformed":
        fns = build_fns(spec)
        return Observable(lambda xi, eta, p_xi, p_eta:
                          fns.sqrtA(xi) * p_xi + s * fns.sqrtA(eta) * p_eta,
                          label=f"p_X{'+' if s > 0 else '-'}p_Y")
    if coords == "eta-only":
        return Observable(lambda xi, eta, p_xi, p_eta: p_eta + 0.0 * p_xi,
                          label="p_eta")
    raise ValueError(f"unknown coords {coords!r}")


# kept for bench/layers.py (geometry.linear_integral_check_ms); the CLI and the
# catalog call linear_residual
def linear_integral_check(spec: SystemSpec, sign: str, n_points: int = 50,
                          seed: int = DEFAULT_SEED) -> float:
    """Sample the domain and take the max normalized residual of
    {H, p_xi +/- p_eta} there (:func:`linear_residual`)."""
    return linear_residual(spec, sample_points(spec, n_points, np.random.default_rng(seed)),
                           sign)


def linear_residual(spec: SystemSpec, pts: PhasePoint, sign: str,
                    coords: str = "liouville") -> float:
    """Max normalized residual of {H, p_xi +/- p_eta} over the points.

    A residual below ~1e-9 certifies the linear integral (whose square is
    the catalog's quadratic form).
    """
    # the bracket's value reads gradients only: order-1 jets
    val, scale = bracket_value(hamiltonian(spec).eval(pts, 1),
                               linear_observable(spec, sign, coords).eval(pts, 1))
    return float(_norm(val, scale).max())
