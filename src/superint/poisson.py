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

Every residual is a function of its own point alone, so the verifiers run
one core (``_verify``) over a group of ``(spec, seed, points)`` samples:
the samples of specs that keep the same terms of their closed forms and
the same structure-constant lengths (``systems.pass_key``) are laid end to
end, up to ``_CHUNK`` points, with each spec's parameters repeated over its
own points, and evaluated in one jet pass; each spec's maxima are taken
over its own points.  A spec whose algebra rows fail leaves the batch for
the affine correction, and a batch whose pass raises is re-run spec by
spec, so every report, and the first error, is the one the sample gives
alone.  ``verify_algebra`` and ``verify_casimir`` are groups of one;
``algebra_reports`` verifies many samples, as the catalog does for the
draws of a row.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IllConditioned
from .jets import Jet2, Observable, PhasePoint, _norm
from .systems import (SystemSpec, constants_poly, group_constants, group_fns, integral_A,
                      integral_B, integrals, pass_key, sample_points, spec_to_dict)

__all__ = [
    "BracketValue",
    "bracket",
    "bracket_jets",
    "bracket_value",
    "casimir_combination",
    "bracket_fd",
    "c_observable",
    "verify_algebra",
    "algebra_reports",
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


def _sum_and_scale(terms):
    """The axis-0 sum of the list of equal-shaped ``terms`` and their largest
    |term|, the reductions of ``np.stack(terms)``'s ``sum`` and ``max``."""
    t = np.array(terms)
    return np.add.reduce(t), np.maximum.reduce(np.abs(t, out=t))


def _contract(dF, dG):
    """Value and largest |term| of the canonical contraction of gradients dF, dG."""
    return _sum_and_scale([dF[q] * dG[p] for q, p in _PAIRS]
                          + [-dF[p] * dG[q] for q, p in _PAIRS])


def bracket_jets(F: Jet2, G: Jet2) -> BracketValue:
    """{F, G} from already evaluated order-2 jets of F and G.

    The eight gradient terms are added one by one into the first, and their
    largest |term| is kept as they come, so no stack of them is built.  The
    sum starts from +0.0, as numpy's axis-0 sum of their stack does, so
    terms that are all -0.0 sum to +0.0 as there.
    """
    val, val_scale = _contract(F.grad, G.grad)
    FH, GH, Fg, Gg = F.hess_full(), G.hess_full(), F.grad, G.grad
    terms = (t for q, p in _PAIRS
             for t in (FH[q] * Gg[p], Fg[q] * GH[p], -FH[p] * Gg[q], -Fg[p] * GH[q]))
    grad = next(terms)
    np.add(0.0, grad, out=grad)
    grad_scale = np.abs(grad)
    for t in terms:
        grad += t
        np.maximum(grad_scale, np.abs(t, out=t), out=grad_scale)
    return BracketValue(val, grad, val_scale, grad_scale)


def bracket_value(F: Jet2, G: Jet2):
    """Value and largest |term| of {F, G} from the gradients of jets F and G.

    Reads no Hessian, so order-1 jets suffice.
    """
    return _contract(F.grad, G.grad)


# kept for bench/workloads.py and CObservable; the verifiers call bracket_jets
def bracket(F: Observable, G: Observable, point: PhasePoint) -> BracketValue:
    """{F, G} at ``point`` (batched), with first derivatives."""
    return bracket_jets(F.eval(point), G.eval(point))


# kept for bench/workloads.py (the dense workload's check)
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
    carriers = ([np.abs(Xjet.grad[q]) * C.grad_scale[p] for q, p in _PAIRS]
                + [np.abs(Xjet.grad[p]) * C.grad_scale[q] for q, p in _PAIRS])
    return val, functools.reduce(np.maximum, carriers, term_scale)


# kept for bench/tracing.py, which wraps order1, __call__ and value
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


def casimir_combination(con, c, a, b):
    """Value and largest |term| of the Casimir combination.

    C^2 - 2 alpha A^2 B - 2 gamma A B^2 - 2 delta A B - epsilon B^2
    - 2 zeta B + (2/3) a A^3 + d A^2 + 2 z A, with the structure constants
    ``con``; it equals K(H) wherever A, B and C = {A, B} are the values of
    the integrals.
    """
    terms = [c**2, -2.0 * con.alpha * a**2 * b,
             -2.0 * con.gamma * a * b**2, -2.0 * con.delta * a * b,
             -con.epsilon * b**2, -2.0 * con.zeta * b,
             (2.0 / 3.0) * con.a * a**3, con.d * a**2,
             2.0 * con.z * a]
    # summed row by row: numpy's axis-0 sum of 8 or more rows groups the
    # terms differently for a single point, so a one-point batch would differ
    t = np.array(terms)
    return functools.reduce(np.add, terms), np.maximum.reduce(np.abs(t, out=t))


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

    if any(k in names for k in _NESTED):
        C = bracket_jets(A, B)
        C_val, C_scale = C.val, C.val_scale
        if "HC" in names:
            res["HC"] = _norm(*_grad_bracket_value(H, C))
        if "AC_row" in names:
            AC_val, AC_scale = _grad_bracket_value(A, C)
            rhs_AC, s_AC = _sum_and_scale([con.alpha * Av**2, 2.0 * con.gamma * Av * Bv,
                                           con.delta * Av, con.epsilon * Bv, con.zeta])
            res["AC_row"] = _norm(AC_val - rhs_AC, AC_scale, s_AC)
        if "BC_row" in names:
            BC_val, BC_scale = _grad_bracket_value(B, C)
            rhs_BC, s_BC = _sum_and_scale([con.a * Av**2, -con.gamma * Bv**2,
                                           -2.0 * con.alpha * Av * Bv, con.d * Av,
                                           -con.delta * Bv, con.z])
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


def _chunked_max(cp, hab, pts, names, a_off=0.0, b_off=0.0, starts=(0,)):
    """Max residual per identity over chunks of ``_CHUNK`` points: one dict
    per spec of the pass, whose points begin at ``starts``.

    A pass of several specs has at most ``_CHUNK`` points, one chunk.
    """
    maxima = []
    for sub in _chunks(pts):
        res = _row_residuals(cp, hab, sub, names, a_off, b_off)
        # reduceat, like ndarray.max, keeps a NaN
        maxima.append([np.maximum.reduceat(res[k], starts) for k in names])
    # np.max, unlike the builtin max, keeps a NaN from any chunk
    worst = maxima[0] if len(maxima) == 1 else np.max(maxima, axis=0)
    return [dict(zip(names, map(float, col))) for col in zip(*worst)]


def _passes(group, counts, cps):
    """The samples of ``group``, of ``counts`` points each, that share each
    pass, as index lists.

    Samples share a pass when their specs have the same
    :func:`~superint.systems.pass_key`.  Whole samples are packed in order
    into passes of at most ``_CHUNK`` points; a sample of more points has a
    pass of its own, which ``_chunked_max`` chunks.
    """
    if len(group) == 1:
        return [[0]]
    by_key = {}
    for i, ((spec, _, _), cp) in enumerate(zip(group, cps)):
        by_key.setdefault(pass_key(spec, cp), []).append(i)
    passes = []
    for members in by_key.values():
        size = _CHUNK  # the first sample opens a pass
        for i in members:
            if size + counts[i] > _CHUNK:
                passes.append([])
                size = 0
            passes[-1].append(i)
            size += counts[i]
    return passes


def _group_max(group, counts, cps, names, order):
    """Each sample's max residual per identity, one dict per sample, from one
    residual pass per set of samples that share one (:func:`_passes`).

    The points of a pass are the samples' laid end to end, and each spec's
    parameters and structure constants are repeated over its own points
    (:func:`~superint.systems.group_fns`,
    :func:`~superint.systems.group_constants`), so every point's residuals
    are those of its spec's own pass.  A group of one runs on the spec's
    own closed forms and constants.
    """
    worst = [None] * len(group)
    for members in _passes(group, counts, cps):
        specs = [group[i][0] for i in members]
        samples = [group[i][2] for i in members]
        sizes = [counts[i] for i in members]
        pts = samples[0] if len(samples) == 1 else PhasePoint.from_array(
            np.concatenate([p.as_array() for p in samples], axis=1))
        hab = integrals(group_fns(specs, sizes), order)
        cp = group_constants([cps[i] for i in members], sizes)
        starts = list(itertools.accumulate(sizes[:-1], initial=0))
        for i, w in zip(members, _chunked_max(cp, hab, pts, names, starts=starts)):
            worst[i] = w
    return worst


def _fit_offsets(cp, hab, pts):
    """Affine-match pre-step: constant offsets for A and B (q=1, r=0).

    ``hab`` gives order-2 jets: the cost reads the algebra rows.  Raises
    :class:`DomainError` when a residual of the cost at zero offsets is not
    finite: the cost includes the Casimir, which ``verify_algebra`` does not
    check first.
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

    x0 = np.zeros(2)
    r0 = cost(x0)
    bad = ~np.isfinite(r0)
    if bad.any():
        value = float(r0[bad][0])
        raise DomainError("affine fit", value,
                          f"affine fit: a residual at zero offsets is {value}, not finite")
    sol = least_squares(cost, x0=x0, method="lm", max_nfev=60)
    return float(sol.x[0]), float(sol.x[1])


def _finite(worst):
    """``worst``, the max residual per identity; :class:`DomainError` if one is
    not finite, since the sample's values then left float64."""
    for name, value in worst.items():
        if not math.isfinite(value):
            raise DomainError(name, value, f"max {name} residual is {value}, not finite")
    return worst


def _verify(kind, group, tols, trigger):
    """Certify the identities named in ``tols`` on each sample of ``group``,
    ``(spec, seed, points)`` triples: an iterator of one report per sample,
    in order.

    The samples are evaluated together, in one residual pass per set of
    specs that can share one (:func:`_group_max`), run by this call, and
    each spec's maxima are taken over its own points, so each report is the
    one the sample gives alone.  A pass evaluates order-2 jets only if a
    nested bracket is asked for.  A sample leaves the batch:

    * with :class:`DomainError`, as its report is read, when a residual
      maximum is not finite: NaN or inf is no residual a tolerance can judge;
    * when an identity in ``trigger`` exceeds its tolerance: the
      affine-match pre-step fits constant offsets for A and B on that
      sample alone and re-verifies it, as its report is read;
      ``correction_applied`` records that it was needed (it must not be,
      for the printed forms);
    * when the batched passes leave a domain (``DomainError``): each sample
      is then verified alone, in order, as its report is read, so the first
      error is the one that order raises, and a caller that stops at a
      failing report raises none from the samples after it.
    """
    order = 2 if any(k in tols for k in _NESTED) else 1
    cps = [constants_poly(spec) for spec, _, _ in group]
    counts = [pts.shape[0] for _, _, pts in group]
    try:
        maxima = _group_max(group, counts, cps, tols, order)
    except DomainError:
        if len(group) == 1:
            raise
        return itertools.chain.from_iterable(
            _verify(kind, [sample], tols, trigger) for sample in group)

    def report(sample, n_points, cp, worst):
        spec, seed, pts = sample
        correction = None
        _finite(worst)
        if any(worst[k] > tols[k] for k in trigger):
            a_off, b_off = _fit_offsets(cp, integrals(spec, 2), pts)
            correction = {"a_offset": a_off, "b_offset": b_off}
            worst = _finite(_chunked_max(cp, integrals(spec, order), pts, tols,
                                         a_off, b_off)[0])
        idents = tuple(Identity(k, worst[k], tol) for k, tol in tols.items())
        return VerificationReport(kind, spec, seed, n_points, idents, correction)

    return map(report, group, counts, cps, maxima)


def verify_algebra(spec: SystemSpec, n_points: int = 100, seed: int = DEFAULT_SEED,
                   tol_bracket: float = TOL_BRACKET, tol_nested: float = TOL_NESTED,
                   threads: int = 1) -> VerificationReport:
    """Certify {H,A} = {H,B} = {H,C} = 0 and the two quadratic-algebra rows.

    Constants are evaluated per point at E = H(point); a failing row
    triggers the affine correction.  ``threads`` is accepted for
    compatibility and has no effect.
    """
    pts = sample_points(spec, n_points, np.random.default_rng(seed))
    report, = algebra_reports([(spec, seed, pts)], tol_bracket, tol_nested)
    return report


def algebra_reports(samples, tol_bracket: float = TOL_BRACKET,
                    tol_nested: float = TOL_NESTED):
    """:func:`verify_algebra`'s report on each ``(spec, seed, points)`` of
    ``samples``, where ``points`` is the spec's sample at ``seed``: an
    iterator, in order.

    The samples are verified together, in as few passes as their specs
    allow, and each report is the one that sample gives alone.
    """
    tols = {"HA": tol_bracket, "HB": tol_bracket, "HC": tol_bracket,
            "AC_row": tol_nested, "BC_row": tol_nested}
    return _verify("algebra", list(samples), tols, ("AC_row", "BC_row"))


def verify_casimir(spec: SystemSpec, n_points: int = 100, seed: int = DEFAULT_SEED,
                   tol: float = TOL_NESTED, threads: int = 1) -> VerificationReport:
    """Certify C^2 - (quadratic-algebra combination) = K(H) per class.

    A failing Casimir triggers the affine correction.  ``threads`` is
    accepted for compatibility and has no effect.
    """
    pts = sample_points(spec, n_points, np.random.default_rng(seed))
    report, = _verify("casimir", [(spec, seed, pts)], {"casimir": tol}, ("casimir",))
    return report


# ---------------------------------------------------------------------------
# Polynomial membership (Appendix-style least-squares oracle)


# the membership fit's monomials H^i A^j B^k, of degree at most 3
_MONOMIALS = [(i, j, k) for i in range(4) for j in range(4) for k in range(4)
              if i + j + k <= 3]


@dataclass(frozen=True)
class MembershipResult:
    coefficients: dict
    rms_holdout: float
    condition: float

    def coefficient(self, i, j, k):
        return self.coefficients.get((i, j, k), 0.0)


def polynomial_membership(target, generators, spec: SystemSpec, n_points: int = 400,
                          seed: int = DEFAULT_SEED) -> MembershipResult:
    """Least-squares membership of ``target`` in polynomials of the generators.

    Fits target(point) over all monomials H^i A^j B^k with i+j+k <= 3,
    with column scaling and a small ridge; reports coefficients and the rms
    residual on a held-out split.  Raises :class:`IllConditioned` when the
    scaled design matrix's condition exceeds 1e12 (functionally dependent
    sampling; enlarge the domain).
    """
    if n_points < 2 * len(_MONOMIALS):
        raise ValueError(f"need at least {2 * len(_MONOMIALS)} points for "
                         f"{len(_MONOMIALS)} monomials, got {n_points}")
    rng = np.random.default_rng(seed)
    pts = sample_points(spec, n_points, rng)
    gvals = [np.asarray(g.value(pts), dtype=float) for g in generators]
    y = np.asarray(target.value(pts), dtype=float)

    X = np.stack([gvals[0]**i * gvals[1]**j * gvals[2]**k for i, j, k in _MONOMIALS],
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
    return MembershipResult(dict(zip(_MONOMIALS, coefs)), rms, condition)


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
