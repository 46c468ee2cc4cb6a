"""Poisson-bracket engine and verifiers for the quadratic algebra.

The canonical bracket in Liouville/Lie coordinates is

    {F, G} = F_xi G_pxi - F_pxi G_xi + F_eta G_peta - F_peta G_eta.

Values of nested brackets like {A, {A, B}} need first derivatives of
{A, B}, which in turn need second derivatives of A and B; that is why
the algebra rows are evaluated with order-2 jets.  The value of a single
bracket needs gradients only, so the Casimir identity, a value identity
in H, A, B and C = {A, B}, is evaluated with order-1 jets.

Residuals are normalized as |lhs - rhs| / (1 + max(|lhs|, |rhs|)) where
lhs/rhs are the signed-term aggregates of the identity under test; the
denominator also carries the largest term entering the bracket
contractions, so the check measures genuine identity violation relative
to the magnitudes the computation actually handled (near-degenerate
sample points otherwise drown the tolerance in float64 roundoff).
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .errors import IllConditioned
from .jets import Jet2, Observable, PhasePoint
from .systems import (SystemSpec, constants_poly, integral_A, integral_B,
                      integrals, sample_points, spec_to_dict)

__all__ = [
    "BracketValue",
    "bracket",
    "bracket_jets",
    "bracket_value",
    "casimir_combination",
    "bracket_fd",
    "c_observable",
    "verify_algebra",
    "verify_casimir",
    "polynomial_membership",
    "casimir_coefficients",
    "VerificationReport",
    "Identity",
    "report_header",
    "DEFAULT_SEED",
    "REPORT_SCHEMA",
    "TOL_BRACKET",
    "TOL_NESTED",
]

DEFAULT_SEED = 0xC0FFEE
REPORT_SCHEMA = "superint-report/1"  # the "schema" field of every report
TOL_BRACKET = 1e-9   # first brackets {H, .}
TOL_NESTED = 1e-8    # nested brackets (algebra rows), Casimir
_RIDGE_FACTOR = 1e-12  # membership fit: ridge relative to the top singular value
_HOLDOUT = 0.2         # membership fit: share of the points held out

_PAIRS = ((0, 2), (1, 3))  # (coordinate, conjugate momentum) index pairs
_CHUNK = 2048  # points per residual pass; the max over chunks is exact
_NESTED = ("HC", "AC_row", "BC_row")  # read {., C}, so the Hessians of A and B
_FIT = ("AC_row", "BC_row", "casimir")  # the affine-match fit's residuals


@dataclass(frozen=True)
class BracketValue:
    """{F, G} truncated to order 1: value, gradient, and term scales.

    ``val_scale`` is the largest |term| in the value contraction;
    ``grad_scale`` the same per gradient component.  These feed the
    normalization of downstream residuals.
    """

    val: np.ndarray
    grad: np.ndarray
    val_scale: np.ndarray
    grad_scale: np.ndarray


def _contract(dF, dG):
    """Value and largest |term| of the canonical contraction of gradients dF, dG."""
    terms = np.stack([dF[q] * dG[p] for q, p in _PAIRS]
                     + [-dF[p] * dG[q] for q, p in _PAIRS])
    return terms.sum(axis=0), np.abs(terms).max(axis=0)


def bracket_jets(F: Jet2, G: Jet2) -> BracketValue:
    """{F, G} from already evaluated order-2 jets of F and G."""
    val, val_scale = _contract(F.grad, G.grad)
    FH, GH = F.hess_full(), G.hess_full()
    gterms = []
    for q, p in _PAIRS:
        gterms += [FH[q] * G.grad[p], F.grad[q] * GH[p],
                   -FH[p] * G.grad[q], -F.grad[p] * GH[q]]
    gstack = np.stack(gterms)
    grad = gstack.sum(axis=0)
    grad_scale = np.abs(gstack).max(axis=0)
    return BracketValue(val, grad, val_scale, grad_scale)


def bracket_value(F: Jet2, G: Jet2):
    """Value and largest |term| of {F, G} from the gradients of jets F and G.

    Reads no Hessian, so order-1 jets suffice.
    """
    return _contract(F.grad, G.grad)


def bracket(F: Observable, G: Observable, point: PhasePoint) -> BracketValue:
    """{F, G} at ``point`` (batched), with first derivatives."""
    return bracket_jets(F.eval(point), G.eval(point))


def bracket_fd(F: Observable, G: Observable, point: PhasePoint, h: float = 1e-5):
    """Bracket value from finite-difference gradients (oracle path)."""
    from .jets import fd_derivatives

    gF, _ = fd_derivatives(F, point, h=h)
    gG, _ = fd_derivatives(G, point, h=h)
    return sum(gF[q] * gG[p] - gF[p] * gG[q] for q, p in _PAIRS)


def _grad_bracket_value(Xjet: Jet2, C: BracketValue):
    """Value and scale of {X, C} from X's gradient and C's gradient."""
    val, term_scale = _contract(Xjet.grad, C.grad)
    # error carriers: X's gradient times the roundoff scale of C's gradient
    carriers = np.stack([np.abs(Xjet.grad[q]) * C.grad_scale[p] for q, p in _PAIRS]
                        + [np.abs(Xjet.grad[p]) * C.grad_scale[q] for q, p in _PAIRS])
    return val, np.maximum(term_scale, carriers.max(axis=0))


class CObservable:
    """C = {A, B}: evaluable to order 1 (value + gradient), batched."""

    label = "C"

    def __init__(self, spec: SystemSpec):
        self._A = integral_A(spec)
        self._B = integral_B(spec)

    def order1(self, point: PhasePoint) -> BracketValue:
        return bracket(self._A, self._B, point)

    def value(self, point: PhasePoint):
        # the value reads only the gradients of A and B
        val, _ = _contract(self._A.eval(point, 1).grad, self._B.eval(point, 1).grad)
        return val

    __call__ = order1


def c_observable(spec: SystemSpec) -> CObservable:
    """The cubic integral C = {A, B} as an order-1 evaluable observable."""
    return CObservable(spec)


# ---------------------------------------------------------------------------
# Reports


@dataclass(frozen=True)
class Identity:
    name: str
    max_residual: float
    tolerance: float

    @property
    def passed(self):
        return bool(self.max_residual <= self.tolerance)

    def to_dict(self):
        return {"name": self.name, "max_residual": self.max_residual,
                "tolerance": self.tolerance, "pass": self.passed}


def report_header(kind: str, spec: SystemSpec, seed: int, n_points: int) -> dict:
    """The fields that open every report on a sample of one spec."""
    return {"schema": REPORT_SCHEMA, "kind": kind, "spec": spec_to_dict(spec),
            "seed": seed, "n_points": n_points}


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one verification run, serializable to a stable document."""

    kind: str
    spec: SystemSpec
    seed: int
    n_points: int
    identities: tuple
    correction: dict = None   # the affine-match offsets, where they were fitted

    @property
    def passed(self):
        return all(i.passed for i in self.identities)

    @property
    def correction_applied(self):
        return self.correction is not None

    def to_dict(self):
        doc = {**report_header(self.kind, self.spec, self.seed, self.n_points),
               "identities": [i.to_dict() for i in self.identities],
               "correction_applied": self.correction_applied,
               "pass": self.passed}
        if self.correction:
            doc["correction"] = self.correction
        return doc

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)

    def summary_lines(self):
        lines = []
        for i in self.identities:
            status = "pass" if i.passed else "FAIL"
            lines.append(f"{i.name:12s} max_residual={i.max_residual:.3e} "
                         f"tol={i.tolerance:.1e} {status}")
        return lines


# ---------------------------------------------------------------------------
# Core residual assembly


def _norm(num, *scales):
    s = scales[0]
    for extra in scales[1:]:
        s = np.maximum(s, extra)
    return np.abs(num) / (1.0 + s)


def casimir_combination(con, c, a, b):
    """Value and largest |term| of the Casimir combination.

    C^2 - 2 alpha A^2 B - 2 gamma A B^2 - 2 delta A B - epsilon B^2
    - 2 zeta B + (2/3) a A^3 + d A^2 + 2 z A, with the structure constants
    ``con``; it equals K(H) wherever A, B and C = {A, B} are the values of
    the integrals.
    """
    terms = np.stack([c**2, -2.0 * con.alpha * a**2 * b,
                      -2.0 * con.gamma * a * b**2, -2.0 * con.delta * a * b,
                      -con.epsilon * b**2, -2.0 * con.zeta * b,
                      (2.0 / 3.0) * con.a * a**3, con.d * a**2,
                      2.0 * con.z * a])
    # summed row by row: numpy's axis-0 sum of 8 or more rows groups the
    # terms differently for a single point, so a one-point batch would differ
    return functools.reduce(np.add, terms), np.abs(terms).max(axis=0)


def _row_residuals(cp, hab, pts, names, a_off=0.0, b_off=0.0):
    """Per-point residuals of the identities in ``names``, as a dict.

    The identities are HA, HB, HC, AC_row, BC_row and casimir.  ``cp`` is
    the spec's ``constants_poly``; ``hab`` maps points to the jets of H, A
    and B (``systems.integrals``; A and B of order 2 where ``names`` holds
    one of ``_NESTED`` and of order 1 otherwise, H always of order 1);
    ``a_off``/``b_off`` are the affine-match offsets (normally zero).
    """
    H, A, B = hab(pts)
    E = H.val
    con = cp.at_energy(E)
    Av, Bv = A.val + a_off, B.val + b_off
    res = {}
    if "HA" in names:
        res["HA"] = _norm(*_contract(H.grad, A.grad))
    if "HB" in names:
        res["HB"] = _norm(*_contract(H.grad, B.grad))

    def poly_terms(*terms):
        t = np.stack(terms)
        return t.sum(axis=0), np.abs(t).max(axis=0)

    if any(k in names for k in _NESTED):
        C = bracket_jets(A, B)
        C_val, C_scale = C.val, C.val_scale
        one = np.ones_like(E)
        if "HC" in names:
            res["HC"] = _norm(*_grad_bracket_value(H, C))
        if "AC_row" in names:
            AC_val, AC_scale = _grad_bracket_value(A, C)
            rhs_AC, s_AC = poly_terms(con.alpha * Av**2, 2.0 * con.gamma * Av * Bv,
                                      con.delta * Av, con.epsilon * Bv, con.zeta * one)
            res["AC_row"] = _norm(AC_val - rhs_AC, AC_scale, s_AC)
        if "BC_row" in names:
            BC_val, BC_scale = _grad_bracket_value(B, C)
            rhs_BC, s_BC = poly_terms(con.a * Av**2, -con.gamma * Bv**2,
                                      -2.0 * con.alpha * Av * Bv, con.d * Av,
                                      -con.delta * Bv, con.z * one)
            res["BC_row"] = _norm(BC_val - rhs_BC, BC_scale, s_BC)
    else:
        # the value of C = {A, B} reads only the gradients of A and B
        C_val, C_scale = _contract(A.grad, B.grad)
    if "casimir" in names:
        kcomb, s_K = casimir_combination(con, C_val, Av, Bv)
        # roundoff carrier of C^2 via C's own contraction scale
        s_K = np.maximum(s_K, np.abs(C_val) * C_scale)
        res["casimir"] = _norm(kcomb - con.K_casimir, s_K, np.abs(con.K_casimir))
    return res


def _chunks(pts):
    """``pts`` in consecutive slices of ``_CHUNK`` points (as given if they fit
    in one)."""
    n = pts.shape[0]
    if n <= _CHUNK:
        yield pts
        return
    arr = pts.as_array()
    for lo in range(0, n, _CHUNK):
        yield PhasePoint.from_array(arr[:, lo:lo + _CHUNK])


def _chunked_max(cp, hab, pts, names, a_off=0.0, b_off=0.0):
    """Max residual per identity over chunks of ``_CHUNK`` points."""
    maxima = []
    for sub in _chunks(pts):
        res = _row_residuals(cp, hab, sub, names, a_off, b_off)
        maxima.append([res[k].max() for k in names])
    # np.max, unlike the builtin max, keeps a NaN from any chunk
    return dict(zip(names, map(float, np.max(maxima, axis=0))))


def _fit_offsets(cp, hab, pts):
    """Affine-match pre-step: constant offsets for A and B (q=1, r=0).

    ``hab`` gives order-2 jets: the cost reads the algebra rows.
    """
    # imported here: the fit runs only on a failing row, and scipy.optimize
    # would otherwise dominate the import time of the CLI
    from scipy.optimize import least_squares

    def cost(x):
        # chunked like _chunked_max, for its memory; each identity's points
        # stay in order, so the vector is the one a single pass would give
        res = [_row_residuals(cp, hab, sub, _FIT, a_off=x[0], b_off=x[1])
               for sub in _chunks(pts)]
        return np.concatenate([r[k] for k in _FIT for r in res])

    sol = least_squares(cost, x0=np.zeros(2), method="lm", max_nfev=60)
    return float(sol.x[0]), float(sol.x[1])


def _verify(kind, spec, n_points, seed, tols, trigger):
    """Certify the identities named in ``tols`` on one sample of the domain.

    The pass evaluates order-2 jets only if a nested bracket is asked for.
    If an identity in ``trigger`` exceeds its tolerance, the affine-match
    pre-step fits constant offsets for A and B and re-verifies;
    ``correction_applied`` records whether that was needed (it must not be,
    for the printed forms).
    """
    pts = sample_points(spec, n_points, np.random.default_rng(seed))
    cp = constants_poly(spec)
    hab = integrals(spec, 2 if any(k in tols for k in _NESTED) else 1)
    worst = _chunked_max(cp, hab, pts, tols)
    correction = None
    if any(worst[k] > tols[k] for k in trigger):
        a_off, b_off = _fit_offsets(cp, integrals(spec, 2), pts)
        correction = {"a_offset": a_off, "b_offset": b_off}
        worst = _chunked_max(cp, hab, pts, tols, a_off, b_off)
    idents = tuple(Identity(k, worst[k], tol) for k, tol in tols.items())
    return VerificationReport(kind, spec, seed, n_points, idents, correction)


def verify_algebra(spec: SystemSpec, n_points: int = 100, seed: int = DEFAULT_SEED,
                   tol_bracket: float = TOL_BRACKET, tol_nested: float = TOL_NESTED,
                   threads: int = 1) -> VerificationReport:
    """Certify {H,A} = {H,B} = {H,C} = 0 and the two quadratic-algebra rows.

    Constants are evaluated per point at E = H(point); a failing row
    triggers the affine correction.  ``threads`` is accepted for
    compatibility and has no effect.
    """
    tols = {"HA": tol_bracket, "HB": tol_bracket, "HC": tol_bracket,
            "AC_row": tol_nested, "BC_row": tol_nested}
    return _verify("algebra", spec, n_points, seed, tols, ("AC_row", "BC_row"))


def verify_casimir(spec: SystemSpec, n_points: int = 100, seed: int = DEFAULT_SEED,
                   tol: float = TOL_NESTED, threads: int = 1) -> VerificationReport:
    """Certify C^2 - (quadratic-algebra combination) = K(H) per class.

    A failing Casimir triggers the affine correction.  ``threads`` is
    accepted for compatibility and has no effect.
    """
    return _verify("casimir", spec, n_points, seed, {"casimir": tol}, ("casimir",))


# ---------------------------------------------------------------------------
# Polynomial membership (Appendix-style least-squares oracle)


def _monomials(degree):
    return [(i, j, k) for i in range(degree + 1) for j in range(degree + 1)
            for k in range(degree + 1) if i + j + k <= degree]


@dataclass(frozen=True)
class MembershipResult:
    coefficients: dict
    rms_holdout: float
    condition: float

    def coefficient(self, i, j, k):
        return self.coefficients.get((i, j, k), 0.0)


def polynomial_membership(target, generators, spec: SystemSpec, degree: int = 3,
                          n_points: int = 400, seed: int = DEFAULT_SEED) -> MembershipResult:
    """Least-squares membership of ``target`` in polynomials of the generators.

    Fits target(point) over all monomials H^i A^j B^k with i+j+k <= degree,
    with column scaling and a small ridge; reports coefficients and the rms
    residual on a held-out split.  Raises :class:`IllConditioned` when the
    scaled design matrix's condition exceeds 1e12 (functionally dependent
    sampling; enlarge the domain).
    """
    monos = _monomials(degree)
    if n_points < 2 * len(monos):
        raise ValueError(f"need at least {2 * len(monos)} points for "
                         f"{len(monos)} monomials, got {n_points}")
    rng = np.random.default_rng(seed)
    pts = sample_points(spec, n_points, rng)
    gvals = [np.asarray(g.value(pts), dtype=float) for g in generators]
    y = np.asarray(target.value(pts), dtype=float)

    X = np.stack([gvals[0]**i * gvals[1]**j * gvals[2]**k for i, j, k in monos],
                 axis=1)
    n_hold = max(1, int(round(_HOLDOUT * n_points)))
    train = slice(0, n_points - n_hold)
    hold = slice(n_points - n_hold, n_points)

    # Row weights make the fit relative: the membership identity is exact,
    # so absolute residuals scale with |row| and would otherwise let a few
    # near-degenerate sample points dominate the normal equations.
    w = 1.0 / (1.0 + np.abs(X[train]).max(axis=1) + np.abs(y[train]))
    Xw = X[train] * w[:, None]
    yw = y[train] * w

    scale = np.sqrt(np.mean(Xw**2, axis=0))
    scale[scale == 0.0] = 1.0
    Xs = Xw / scale
    sv = np.linalg.svd(Xs, compute_uv=False)
    condition = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
    if condition > 1e12:
        raise IllConditioned(
            f"scaled design condition {condition:.3e} exceeds 1e12; "
            "sampling looks functionally dependent - enlarge the domain")

    lam = _RIDGE_FACTOR * sv[0]
    aug = np.vstack([Xs, lam * np.eye(Xs.shape[1])])
    rhs = np.concatenate([yw, np.zeros(Xs.shape[1])])
    cs, *_ = np.linalg.lstsq(aug, rhs, rcond=None)
    coefs = cs / scale

    pred = X[hold] @ coefs
    wh = 1.0 / (1.0 + np.abs(X[hold]).max(axis=1) + np.abs(y[hold]))
    num = np.sqrt(np.mean(((pred - y[hold]) * wh) ** 2))
    den = np.sqrt(np.mean((y[hold] * wh) ** 2))
    rms = float(num / (1e-12 + den))
    return MembershipResult(dict(zip(monos, coefs)), rms, condition)


def casimir_coefficients(spec: SystemSpec) -> dict:
    """Expected monomial coefficients of C^2 over H^i A^j B^k, from the
    printed structure constants (the rearranged Casimir identity)."""
    cp = constants_poly(spec)
    out = {}

    def put(i, j, k, value):
        if value != 0.0:
            out[(i, j, k)] = out.get((i, j, k), 0.0) + value

    put(0, 2, 1, 2.0 * cp.alpha)
    put(0, 1, 2, 2.0 * cp.gamma)
    put(0, 3, 0, -(2.0 / 3.0) * cp.a)
    for i, c in enumerate(np.atleast_1d(cp.delta)):
        put(i, 1, 1, 2.0 * c)
    for i, c in enumerate(np.atleast_1d(cp.epsilon)):
        put(i, 0, 2, c)
    for i, c in enumerate(np.atleast_1d(cp.zeta)):
        put(i, 0, 1, 2.0 * c)
    for i, c in enumerate(np.atleast_1d(cp.d)):
        put(i, 2, 0, -c)
    for i, c in enumerate(np.atleast_1d(cp.z)):
        put(i, 1, 0, -2.0 * c)
    for i, c in enumerate(np.atleast_1d(cp.K)):
        put(i, 0, 0, c)
    return out
