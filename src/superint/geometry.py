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

Each check is written once, as a function of the jets of a sample
(:class:`~superint.systems.SampleJets`: the phase seeds, the metric g and
H): :func:`curvature_class_of` reads g, :func:`revolution_tag_of` g and the
seeds, and :func:`linear_residual_of` H and the linear observable built on
the seeds.  The catalog hands them each draw's part of its algebra pass
(``SampleJets.part`` of a ``SampleJets.evaluate``); a caller with points
of its own hands them ``SampleJets(spec, pts)``, which evaluates each jet
on its first read, as :func:`curvature` does with the points (xi, eta) at
zero momenta.
:func:`classify_curvature`, :func:`revolution_check` and
:func:`linear_integral_check` draw ``sample_points(spec, n_points,
default_rng(seed))`` and run the check on fresh jets of those points, the
last two in the native coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .jets import Observable, PhasePoint, _ipow, _norm
from .poisson import DEFAULT_SEED, bracket_value
from .systems import SampleJets, SystemSpec, _solution, sample_points

__all__ = [
    "CurvatureClass",
    "curvature",
    "curvature_class_of",
    "classify_curvature",
    "revolution_tag_of",
    "revolution_check",
    "linear_residual_of",
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


def _curvature(g):
    """Gaussian curvature K from the order-2 jet g of the metric."""
    g_xi, g_eta = g.grad[0], g.grad[1]
    g_cross = g.hess_at(0, 1)
    return -(g.val * g_cross - g_xi * g_eta) / (2.0 * _ipow(g.val, 3))


def curvature(spec: SystemSpec, xi, eta):
    """Gaussian curvature K at (xi, eta); batched, momenta irrelevant.

    Raises :class:`DomainError` when a coordinate is not finite
    (:class:`~superint.jets.PhasePoint`).
    """
    return _curvature(SampleJets(spec, PhasePoint(xi, eta, 0.0, 0.0)).g)


def classify_curvature(spec: SystemSpec, n_points: int = 50,
                       seed: int = DEFAULT_SEED) -> CurvatureClass:
    """Sample the domain and classify the curvature field there
    (:func:`curvature_class_of`)."""
    pts = sample_points(spec, n_points, np.random.default_rng(seed))
    return curvature_class_of(SampleJets(spec, pts))


def curvature_class_of(jets) -> CurvatureClass:
    """Compute K from the order-2 metric jet ``jets.g`` of a sample and
    classify the field.

    Raises :class:`DomainError` when K is not finite at some point: the
    metric's values then left float64, and NaN or inf is no curvature a
    tolerance can judge.
    """
    K = _curvature(jets.g)
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


def _directional_residuals(spec: SystemSpec, xi, eta, coords: str, g):
    """Normalized |dg/d(xi-eta)| and |dg/d(xi+eta)| samples (or X,Y analogue).

    ``xi`` and ``eta`` are the coordinate seeds of a sample and ``g`` the
    metric's jet on them.  Reads first derivatives only, so the jets are
    taken at order 1.
    """
    g, xj, ej = g.first_order(), xi.first_order(), eta.first_order()
    if coords == "liouville":
        gx, gy = g.grad[0], g.grad[1]
    elif coords == "transformed":
        # d xi / dX and d eta / dY of the class's B-integral map, except for
        # II1, whose own map is the identity; there the log map (d xi / dX =
        # xi) linearizes the Lie metric's xi-dependence, which is the natural
        # real map exhibiting rotational symmetry (e.g. g = kappa xi eta).
        dxi = (lambda c: c) if spec.tag == "II1" else _solution(spec.tag).sqrtA
        dX, dY = dxi(xj), dxi(ej)
        # transformed conformal factor g~ = g * (dxi/dX) * (deta/dY)
        gt = g * dX * dY
        gx = gt.grad[0] * dX.val    # d g~ / dX
        gy = gt.grad[1] * dY.val    # d g~ / dY
    else:
        raise ValueError("coords must be 'liouville' or 'transformed'")
    ax, ay = np.abs(gx), np.abs(gy)
    return _norm(gx - gy, ax, ay), _norm(gx + gy, ax, ay)


# kept for bench/layers.py (geometry.revolution_check_ms); the CLI and the
# catalog call revolution_tag_of
def revolution_check(spec: SystemSpec, n_points: int = 50,
                     seed: int = DEFAULT_SEED) -> str:
    """Sample the domain and classify the metric's direction dependence
    there, in the native coordinates (:func:`revolution_tag_of`)."""
    pts = sample_points(spec, n_points, np.random.default_rng(seed))
    return revolution_tag_of(spec, SampleJets(spec, pts))


def revolution_tag_of(spec: SystemSpec, jets, coords: str = "liouville") -> str:
    """Classify the metric's direction dependence on a sample of ``spec``,
    from its metric jet ``jets.g`` and coordinate seeds ``jets.seeds``:
    SumOnly, DiffOnly, Both or Neither.

    SumOnly means g depends only on xi+eta (the xi-eta directional
    derivative vanishes); DiffOnly the converse; Both means a constant
    metric.  With ``coords='transformed'`` the test runs on the
    recoordinatized conformal factor.  A directional derivative vanishes
    when its largest normalized sample is at most ``TOL_DIRECTIONAL``.
    """
    r_sum, r_diff = _directional_residuals(spec, *jets.seeds[:2], coords, jets.g)
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
        sqrtA = _solution(spec.tag).sqrtA
        return Observable(lambda xi, eta, p_xi, p_eta:
                          sqrtA(xi) * p_xi + s * sqrtA(eta) * p_eta,
                          label=f"p_X{'+' if s > 0 else '-'}p_Y")
    if coords == "eta-only":
        return Observable(lambda xi, eta, p_xi, p_eta: p_eta + 0.0 * p_xi,
                          label="p_eta")
    raise ValueError(f"unknown coords {coords!r}")


# kept for bench/layers.py (geometry.linear_integral_check_ms); the CLI and the
# catalog call linear_residual_of
def linear_integral_check(spec: SystemSpec, sign: str, n_points: int = 50,
                          seed: int = DEFAULT_SEED) -> float:
    """Sample the domain and take the max normalized residual of
    {H, p_xi +/- p_eta} there (:func:`linear_residual_of`)."""
    pts = sample_points(spec, n_points, np.random.default_rng(seed))
    return linear_residual_of(spec, SampleJets(spec, pts), sign)


def linear_residual_of(spec: SystemSpec, jets, sign: str, coords: str = "liouville") -> float:
    """Max normalized residual of {H, L} over a sample of ``spec``, from its
    jet ``jets.H`` and the linear observable L (:func:`linear_observable`)
    built on its seeds ``jets.seeds``.

    A residual below ~1e-9 certifies the linear integral (whose square is
    the catalog's quadratic form).
    """
    # the bracket's value reads gradients only: order-1 jets
    L = linear_observable(spec, sign, coords).fn(*(s.first_order() for s in jets.seeds))
    return float(_norm(*bracket_value(jets.H, L)).max())
