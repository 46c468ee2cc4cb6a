"""The six fundamental classes of 2D superintegrable systems.

Each system lives on a surface with conformal metric ``ds^2 = g dxi deta``.
Class I (Liouville surfaces) has ``g = F(xi+eta) + G(xi-eta)``; Class II
(Lie surfaces) has ``g = F(eta)*xi + G(eta)``.  The potential numerator
``w`` has the same shape built from a second pair ``(f_pot, g_pot)``, which
solves the same structural PDE: each class's closed forms are written once,
for one parameter quadruple, and taken at the metric parameters
``(kappa, lam, mu, nu)`` for (F, G) and at the potential parameters
``(k, ell, m, n)`` for (f_pot, g_pot), and so for the tilde functions and
the Class II antiderivatives.

The module builds, per subclass:

* the Hamiltonian ``H = (p_xi p_eta + w) / g``,
* the first quadratic integral ``A`` (Liouville form for Class I, Lie form
  with hard-coded antiderivatives for Class II),
* the second quadratic integral ``B`` through the per-class
  recoordinatization ``(X, Y) = (X(xi), X(eta))`` and the tilde functions,
  A and B each written as a quadratic form in the momenta whose four
  coefficients are functions of the coordinates (``_quadratic``): on
  jets the coefficients stay in (xi, eta), and the four-variable jet of
  the form is written once from theirs,
* one jet pass for H, A and B (``SampleJets.evaluate``), whose seeds,
  metric g and H the geometry checks read too (``SampleJets``),
* the characteristic-equation and structural-PDE residuals,
* the structure constants of the quadratic Poisson algebra and the Casimir
  polynomial, as explicit polynomials in the energy.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, SamplingError
from .jets import (CoordJet, Jet2, Observable, PhasePoint, _ipow, _Jet, _norm, arctan,
                   exp, log, seed_phase, sqrt, tan)

__all__ = [
    "CLASS_TAGS",
    "SystemSpec",
    "SystemFns",
    "SampleDomain",
    "AlgebraConstants",
    "ConstantsPoly",
    "build_fns",
    "group_fns",
    "group_constants",
    "pass_key",
    "hamiltonian",
    "integral_A",
    "integral_B",
    "SampleJets",
    "characteristic_residual",
    "structural_pde_residual",
    "algebra_constants",
    "constants_poly",
    "sample_domain",
    "sample_points",
    "spec_to_dict",
    "spec_from_dict",
]

CLASS_TAGS = ("I1", "I2", "I3", "II1", "II2", "II3")

MIN_ABS_G = 1e-3                # smallest admitted |g| (and |F~ + G~|)
MOMENTUM_RANGE = (-2.0, 2.0)    # the sampled range of p_xi and p_eta


def _class_one(tag):
    """Class I (Liouville surfaces), as opposed to Class II (Lie surfaces)."""
    return not tag.startswith("II")


@dataclass(frozen=True)
class SystemSpec:
    """One superintegrable system: a subclass tag plus 8 real parameters.

    ``kappa, lam, mu, nu`` select the metric, ``k, ell, m, n`` the
    potential.  (Only three of the four potential parameters are
    independent: shifting them along the metric direction adds a constant
    to the Hamiltonian.  All four are retained; the redundancy is a
    documented property, not an input restriction.)
    """

    tag: str
    kappa: float = 0.0
    lam: float = 0.0
    mu: float = 0.0
    nu: float = 0.0
    k: float = 0.0
    ell: float = 0.0
    m: float = 0.0
    n: float = 0.0

    def __post_init__(self):
        if self.tag not in CLASS_TAGS:
            raise ValueError(f"unknown class tag {self.tag!r}; expected one of {CLASS_TAGS}")
        for name in ("kappa", "lam", "mu", "nu", "k", "ell", "m", "n"):
            try:
                v = float(getattr(self, name))
            except (TypeError, ValueError, OverflowError):
                raise ValueError(f"parameter {name} is not a number: "
                                 f"{getattr(self, name)!r}") from None
            if not math.isfinite(v):
                raise ValueError(f"parameter {name} is not finite")
            object.__setattr__(self, name, v)

    @property
    def metric_params(self):
        return (self.kappa, self.lam, self.mu, self.nu)

    @property
    def potential_params(self):
        return (self.k, self.ell, self.m, self.n)

    def is_class_one(self):
        return _class_one(self.tag)


_FIELD_MAP = [("class", "tag"), ("kappa", "kappa"), ("lambda", "lam"), ("mu", "mu"),
              ("nu", "nu"), ("k", "k"), ("ell", "ell"), ("m", "m"), ("n", "n")]


def spec_to_dict(spec: SystemSpec) -> dict:
    """Flat key-value document; field names are the wire format."""
    return {key: getattr(spec, attr) for key, attr in _FIELD_MAP}


def spec_from_dict(doc: dict) -> SystemSpec:
    if not isinstance(doc, dict):
        raise ValueError(f"spec document is not an object: {doc!r}")
    missing = [key for key, _ in _FIELD_MAP if key not in doc]
    if missing:
        raise ValueError(f"spec document missing fields: {missing}")
    extra = set(doc) - {key for key, _ in _FIELD_MAP}
    if extra:
        raise ValueError(f"spec document has unknown fields: {sorted(extra)}")
    kwargs = {attr: doc[key] for key, attr in _FIELD_MAP}
    return SystemSpec(**kwargs)


@dataclass(frozen=True)
class SampleDomain:
    """Where a subclass may be evaluated and sampled.

    ``tests`` are the predicates ``fn(xi, eta)`` a point must satisfy: the
    coordinates the class's maps require to stay positive, then margins
    that keep poles and branch cuts away.  A drawn point always satisfies
    every test, ``|g| >= MIN_ABS_G`` and ``|F~ + G~| >= MIN_ABS_G``; its
    momenta lie in ``MOMENTUM_RANGE``, the same for every class.
    """

    xi_range: tuple
    eta_range: tuple
    tests: tuple = ()

    def admits(self, xi, eta):
        """The mask of points that pass every test (the metric magnitude is
        checked separately)."""
        xi, eta = np.asarray(xi), np.asarray(eta)
        shape = xi.shape if xi.shape == eta.shape else np.broadcast_shapes(xi.shape, eta.shape)
        ok = np.ones(shape, dtype=bool)
        for test in self.tests:
            ok &= test(xi, eta)
        return ok


_POSITIVE_XI_ETA = (lambda x, e: x > 1e-9, lambda x, e: e > 1e-9)

_DOMAINS = {
    "I1": SampleDomain((0.2, 2.0), (0.2, 2.0),
                       (*_POSITIVE_XI_ETA, lambda x, e: np.abs(x - e) >= 0.15)),
    "I2": SampleDomain((0.3, 2.0), (0.3, 2.0),
                       (*_POSITIVE_XI_ETA, lambda x, e: np.abs(x - e) >= 0.15,
                        lambda x, e: x + e >= 0.4)),
    "I3": SampleDomain((-1.0, 1.0), (-1.0, 1.0),
                       (lambda x, e: np.abs(x - e) >= 0.2, lambda x, e: np.abs(x + e) >= 0.2)),
    "II1": SampleDomain((0.5, 2.0), (0.5, 2.0), _POSITIVE_XI_ETA),
    "II2": SampleDomain((0.2, 2.0), (0.3, 2.0), _POSITIVE_XI_ETA),
    "II3": SampleDomain((0.3, 2.0), (0.3, 2.0), _POSITIVE_XI_ETA),
}


def sample_domain(spec: SystemSpec) -> SampleDomain:
    return _DOMAINS[spec.tag]


@dataclass(frozen=True)
class SystemFns:
    """Closed forms of one subclass, bundled.

    The metric forms (F, G, F_tilde, G_tilde, intF) and the potential
    forms (f_pot, g_pot, f_tilde, g_tilde, intf) are the class's forms,
    written once for one parameter quadruple and taken at the metric and at
    the potential parameters.  For Class I the pair functions take
    ``u = xi + eta`` and ``v = xi - eta``; for Class II they take ``eta``
    alone.  :meth:`pairs` builds these arguments once and combines each
    pair.  All callables accept jets, duals or plain arrays.  On a jet or a
    dual, each basis function of the closed forms runs once per argument
    and the argument keeps its value (:meth:`_Jet.once`), so that F and f
    share theirs at the same u, G and g at the same v, and so on; on
    anything else each call evaluates afresh.  ``A_of_xi``, ``sqrtA``, ``X_of_xi`` and
    ``char_constants`` are the class's entry of ``_CHARACTERISTIC``; the
    B-side functions are the same callables taken at ``eta``.
    """

    tag: str
    F: Callable
    G: Callable
    f_pot: Callable
    g_pot: Callable
    F_tilde: Callable
    G_tilde: Callable
    f_tilde: Callable
    g_tilde: Callable
    A_of_xi: Callable
    sqrtA: Callable          # d xi / dX, i.e. sqrt(A(xi)); identity map -> 1
    X_of_xi: Callable
    char_constants: tuple    # (alpha, gamma, a) of the characteristic equation
    intF: Callable = None    # Class II only: antiderivative of F
    intf: Callable = None    # Class II only: antiderivative of f_pot

    def _rule(self, xi, eta):
        """The arguments of the pair functions and the combination of a pair:
        ``(xi + eta, xi - eta)`` and ``a + b`` for Class I, ``(eta, eta)``
        and ``a * xi + b`` for Class II."""
        if _class_one(self.tag):
            return xi + eta, xi - eta, lambda a, b: a + b
        return eta, eta, lambda a, b: a * xi + b

    def pairs(self, xi, eta, guard=False):
        """The metric pair and g, and the potential pair and w, at (xi, eta):
        ``((F, G, g), (f_pot, g_pot, w))``.

        The arguments are built once, and the parts are computed in the
        order F, G, g, the metric guard (on jets only, with ``guard``),
        f_pot, g_pot, w, so that the first error is the same in every
        caller.
        """
        u, v, combine = self._rule(xi, eta)
        F, G = self.F(u), self.G(v)
        g = combine(F, G)
        if guard and isinstance(g, Jet2):
            _guard_metric(g)
        f, g_pot = self.f_pot(u), self.g_pot(v)
        return (F, G, g), (f, g_pot, combine(f, g_pot))

    def metric(self, xi, eta):
        """Conformal factor g at (xi, eta); arguments may be jets."""
        u, v, combine = self._rule(xi, eta)
        return combine(self.F(u), self.G(v))

    def tilde_metric(self, xi, eta):
        """Recoordinatized conformal factor F~(X+Y) + G~(X-Y) at (xi, eta)."""
        X, Y = self.X_of_xi(xi), self.X_of_xi(eta)
        return self.F_tilde(X + Y) + self.G_tilde(X - Y)


def _once(fn, x):
    """``fn(x)``, kept on ``x`` when it is a jet or a dual, traced duals
    included (:meth:`_Jet.once`), and evaluated afresh on anything else:
    floats, arrays, traced floats."""
    return x.once(fn) if isinstance(x, _Jet) else fn(x)


# Basis functions of one argument: each closed form is a sum of these
# (``_terms``), and a basis reads the ones it is built from through
# ``_once``, so on a jet or a dual each runs once per argument.  F and f,
# G and g, the four tilde functions and intF and intf share them.  A basis
# is first evaluated where it would be without ``_once``, so an evaluation
# raises the same first ``DomainError``.  The primitives have private
# names, so that the keys stay these objects when the imported names are
# rebound (as the benchmark's span recording, bench/tracing.py, does).
_ident = lambda x: x
_one = lambda x: x * 0.0 + 1.0
_sqrt = lambda x: sqrt(x)
_rsqrt = lambda x: _once(_sqrt, x)**-1
_log = lambda x: log(x)
_exp = lambda x: exp(x)
_exp2 = lambda x: exp(2.0 * x)
_tan = lambda x: tan(x)


def _power(p):
    return lambda x: _ipow(x, p)


_POW = {p: _power(p) for p in (-3, -2, 2, 3, 4, 6)}


def _sum_terms(active, x):
    """Sum of coef * basis(x) over the ``active`` pairs, in their order; x * 0
    when there are none."""
    out = None
    for c, f in active:
        term = c * _once(f, x)
        out = term if out is None else out + term
    return x * 0.0 if out is None else out


def _terms(*pairs):
    """Sum of coef * basis(x) over the pairs, in their order, dropping the
    terms whose coefficient is zero (at every point, for an array of
    coefficients).

    Dropping at construction keeps pole terms (1/v^2, cot^2, ...) out of
    the evaluation entirely when their coefficient vanishes, so degenerate
    rows evaluate cleanly on the pole locus instead of producing 0 * inf.
    The sum reads each basis through ``_once``; the kept pairs are the
    form's ``args[0]``.
    """
    return functools.partial(_sum_terms, [
        (c, f) for c, f in pairs if (c.any() if isinstance(c, np.ndarray) else c != 0.0)])


_Solution = namedtuple("_Solution", "A_of_xi sqrtA X_of_xi char_constants")


def _ch(x):
    """e^x + e^-x, the square root of the I3 solution."""
    return _once(_exp, x) + exp(-x)


# A(xi) solving 6 A'^2 = 3 gamma A^2 + 3 alpha A - a, d xi / dX = sqrt(A), X(xi)
# and (alpha, gamma, a), keyed by the classes that use them; B(eta) = A(eta).
_CHARACTERISTIC = {
    ("I1", "II2"): _Solution(_ident, _sqrt, lambda x: 2.0 * _once(_sqrt, x), (0.0, 0.0, -6.0)),
    ("I2", "II3"): _Solution(_POW[2], _ident, _log, (8.0, 0.0, 0.0)),
    ("I3",): _Solution(lambda x: _once(_ch, x)**2, _ch, lambda x: arctan(_once(_exp, x)),
                       (-32.0, 8.0, 0.0)),
    ("II1",): _Solution(_one, _one, _ident, (0.0, 0.0, 0.0)),
}


def _solution(tag):
    """The characteristic solution of class ``tag``."""
    return next(sol for tags, sol in _CHARACTERISTIC.items() if tag in tags)


def build_fns(spec: SystemSpec) -> SystemFns:
    """Instantiate the closed forms of ``spec``'s subclass: the metric forms
    at ``(kappa, lam, mu, nu)`` and the potential forms, the same ones, at
    ``(k, ell, m, n)``.

    Construction is total: parameter degeneracies surface later, at
    sampling or evaluation time.
    """
    return _fns(spec.tag, spec.metric_params, spec.potential_params)


def group_fns(specs, counts) -> SystemFns:
    """The closed forms of ``specs``, one subclass, for one pass over their
    points laid end to end: :func:`build_fns` with each parameter an array
    that repeats each spec's value over its own ``counts`` points.

    Every coefficient is then computed per point from that spec's value, in
    the same operations, so each point's jets equal those of the spec's own
    forms as long as the specs keep the same terms (:func:`pass_key`).  One
    spec keeps its floats: its forms are :func:`build_fns`'s.
    """
    if len(specs) == 1:
        return build_fns(specs[0])
    params = np.repeat(np.array([s.metric_params + s.potential_params for s in specs]).T,
                       counts, axis=1)
    return _fns(specs[0].tag, params[:4], params[4:])


def _fns(tag, metric, potential):
    F, G, F_tilde, G_tilde, intF = _forms(tag, *metric)
    f, g, f_tilde, g_tilde, intf = _forms(tag, *potential)
    return SystemFns(tag, F, G, f, g, F_tilde, G_tilde, f_tilde, g_tilde,
                     **_solution(tag)._asdict(), intF=intF, intf=intf)


# Bases of one class alone, kept here so that both calls of ``_forms``
# key the same objects and F and f share their values.
_plus = lambda v: _once(_exp, v) / (1.0 + _once(_exp, v))**2           # I2's G~
_minus = lambda v: _once(_exp, v) / (_once(_exp, v) - 1.0)**2
_den = lambda u: (_once(_exp2, u) - 1.0)**2                             # I3's F, G
_even = lambda u: _once(_exp2, u) / _once(_den, u)
_odd = lambda u: _once(_exp, u) * (1.0 + _once(_exp2, u)) / _once(_den, u)
_tan2 = lambda u: _once(_tan, u)**2                                     # I3's F~, G~
_cot2 = lambda u: _ipow(_once(_tan, u), -2)


def _forms(tag, ka, la, mu, nu):
    """F, G, F~, G~ and intF of class ``tag`` at one parameter quadruple;
    intF is None for Class I.

    At the metric parameters these are the metric forms; at the potential
    parameters (k, ell, m, n) in the same slots, the potential forms f,
    g, f~, g~ and intf, which solve the same structural PDE.
    """
    sq, inv2, ident = _POW[2], _POW[-2], _ident
    if tag == "I1":
        return (_terms((4.0 * la, sq), (ka, ident), (0.5 * nu, _one)),
                _terms((-la, sq), (mu, inv2), (0.5 * nu, _one)),
                _terms((la / 256.0, _POW[6]), (ka / 128.0, _POW[4]),
                       (nu / 16.0, sq), (-mu, inv2)),
                _terms((-la / 256.0, _POW[6]), (-ka / 128.0, _POW[4]),
                       (-nu / 16.0, sq), (mu, inv2)),
                None)
    if tag == "I2":
        return (_terms((la, sq), (ka, inv2), (0.5 * nu, _one)),
                _terms((-la, sq), (mu, inv2), (0.5 * nu, _one)),
                _terms((4.0 * la, _exp2), (nu, _exp)),
                _terms((ka, _plus), (mu, _minus)),
                None)
    if tag == "I3":
        return (_terms((ka, _even), (la, _odd)),
                _terms((mu, _even), (nu, _odd)),
                _terms(((ka + 2.0 * la) / 4.0, _tan2), ((2.0 * nu - mu) / 4.0, _cot2),
                       ((la + nu) / 2.0, _one)),
                _terms(((2.0 * la - ka) / 4.0, _tan2), ((mu + 2.0 * nu) / 4.0, _cot2),
                       ((la + nu) / 2.0, _one)),
                None)
    if tag == "II1":
        return (_terms((ka, ident), (la, _one)),
                _terms((mu, ident), (nu, _one)),
                _terms((ka / 4.0, sq), ((la + mu) / 2.0, ident), (0.5 * nu, _one)),
                _terms((-ka / 4.0, sq), ((la - mu) / 2.0, ident), (0.5 * nu, _one)),
                _terms((ka / 2.0, sq), (la, ident)))
    if tag == "II2":
        return (_terms((ka, _rsqrt), (la, _one)),
                _terms((3.0 * ka, _sqrt), (la, ident), (mu, _rsqrt), (nu, _one)),
                _terms((la / 128.0, _POW[4]), (ka / 16.0, _POW[3]),
                       (nu / 16.0, sq), (mu / 4.0, ident)),
                _terms((-la / 128.0, _POW[4]), (ka / 16.0, _POW[3]),
                       (-nu / 16.0, sq), (mu / 4.0, ident)),
                _terms((2.0 * ka, _sqrt), (la, ident)))
    # II3
    return (_terms((la, ident), (ka, _POW[-3])),
            _terms((nu, _one), (mu, inv2)),
            _terms((la, _exp2), (nu, _exp)),
            _terms((ka, _exp2), (mu, _exp)),
            _terms((la / 2.0, sq), (-ka / 2.0, inv2)))


# ---------------------------------------------------------------------------
# Observables


def _guard_metric(g):
    small = np.abs(g.val) < MIN_ABS_G
    if small.any():
        raise DomainError("metric", float(g.val[small].flat[0]),
                          f"|g| below {MIN_ABS_G} (degenerate metric at sample)")


def _h_form(p_xi, p_eta, g, w):
    """H = (p_xi p_eta + w) / g."""
    return (p_xi * p_eta + w) / g


def _seed_of(var):
    """The test that a jet is :func:`seed_phase`'s seed of variable ``var``:
    a unit gradient in ``var`` and a zero Hessian, or none."""
    unit = np.eye(Jet2._NV)[var]
    return lambda p: bool((p.grad.T == unit).all()) and (p.order == 1 or not p.hess.any())


_SEEDS = {2: _seed_of(2), 3: _seed_of(3)}


def _coord_block(c):
    """The value, gradient and packed Hessian (None at order 1) of ``c`` over
    (xi, eta): a :class:`CoordJet`'s own rows, and a four-variable jet's
    coordinate rows (gradient 0-1, Hessian 0, 1, 4) where every momentum row
    is zero, None where one is not.  A number's gradient is None."""
    if not isinstance(c, Jet2):
        return c, None, None
    h = c.hess if c.order == 2 else None
    if isinstance(c, CoordJet):
        return c.val, c.grad, h
    if c.grad[2:].any() or (h is not None and h[Jet2._JU >= 2].any()):  # a momentum row
        return None
    return c.val, c.grad[:2], None if h is None else h.take(CoordJet._LIFT, 0)


def _dot(pairs):
    """The sum of ``rows * m`` over the pairs whose rows are not None, in
    order; 0.0 when there are none."""
    terms = (rows * m for rows, m in pairs if rows is not None)
    out = next(terms, 0.0)
    for term in terms:
        out += term    # ``out`` is a product made here, never an operand
    return out


def _quadratic(p1, p2, c20, c11, c02, c00):
    """c20 p1^2 + c11 p1 p2 + c02 p2^2 + c00: a quadratic form in the momenta
    ``p1`` = p_xi and ``p2`` = p_eta, whose coefficients depend on the
    coordinates alone.

    On :func:`seed_phase`'s momentum seeds it writes the four-variable jet
    from the coefficients' (xi, eta) jets (:func:`_coord_block`) and the
    momenta's values: the value and the coordinate rows are the sums of
    ``c * m`` over the monomials m = p1^2, p1 p2, p2^2 (and 1 for c00), the
    momentum gradient is (2 c20 p1 + c11 p2, c11 p1 + 2 c02 p2), the mixed
    Hessian rows are the same sums of the coefficients' gradients, and the
    momentum rows are (2 c20, c11, 2 c02), so a numeric 0.0 coefficient
    leaves its row +0.0.  Like the jet rules, it has a Hessian only if every
    operand has one.  On anything else (floats, arrays, duals, traced
    floats, other jets) it is the plain expression.
    """
    blocks = [_coord_block(c) for c in (c20, c11, c02, c00)]
    if (type(p1) is not Jet2 or type(p2) is not Jet2 or None in blocks
            or not (p1.once(_SEEDS[2]) and p2.once(_SEEDS[3]))):
        return c20 * p1**2 + c11 * p1 * p2 + c02 * p2**2 + c00
    (v20, g20, h20), (v11, g11, h11), (v02, g02, h02), (v00, g00, h00) = blocks
    P1, P2 = p1.val, p2.val
    m20, m11, m02 = P1 * P1, P1 * P2, P2 * P2
    t20, t02 = 2.0 * v20, 2.0 * v02
    val = v20 * m20 + v11 * m11 + v02 * m02 + v00
    shape = np.shape(val)
    grad = np.empty((Jet2._NV,) + shape)
    grad[:2] = _dot([(g20, m20), (g11, m11), (g02, m02), (g00, 1.0)])
    grad[2] = t20 * P1 + v11 * P2
    grad[3] = v11 * P1 + t02 * P2
    if p1.order == 1 or p2.order == 1 or any(g is not None and h is None for _, g, h in blocks):
        return Jet2._of(val, grad, None)
    hess = np.empty((Jet2._IU.size,) + shape)
    hess[CoordJet._LIFT] = _dot([(h20, m20), (h11, m11), (h02, m02), (h00, 1.0)])
    hess[2:6:3] = _dot([(g20, 2.0 * P1), (g11, P2)])    # (xi, p_xi), (eta, p_xi)
    hess[3:7:3] = _dot([(g11, P1), (g02, 2.0 * P2)])    # (xi, p_eta), (eta, p_eta)
    hess[7], hess[8], hess[9] = t20, v11, t02
    return Jet2._of(val, grad, hess)


def _liouville_form(p1, p2, F, G, f, g, m, s1=1.0, s2=1.0):
    """The Liouville form in the momenta ``s1 p1`` and ``s2 p2``: (s1 p1)^2 +
    (s2 p2)^2 - 2 (s1 p1)(s2 p2) (F - G)/m + 4 (f G - g F)/m, as the
    quadratic form of :func:`_quadratic`.  m = F + G is given, so that a
    metric g built already keeps its one inverse."""
    sq = _POW[2]    # a square kept on s, which may be a coordinate seed
    return _quadratic(p1, p2, _once(sq, s1), -2.0 * s1 * s2 * (F - G) / m, _once(sq, s2),
                      4.0 * (f * G - g * F) / m)


def _a_form(fns, eta, p_xi, p_eta, metric, potential):
    """A from the metric and potential pairs ``(F, G, g)`` and ``(f, g_pot, w)``.

    Liouville form for Class I; for Class II the Lie form with the
    antiderivatives ``intF`` and ``intf``, the quadratic form with
    coefficients (1, -2 beta/g, 0, -2 w beta/g + 2 intf), beta = intF(eta).
    """
    F, G, g = metric
    f, g_pot, w = potential
    if _class_one(fns.tag):
        return _liouville_form(p_xi, p_eta, F, G, f, g_pot, g)
    c11 = -2.0 * fns.intF(eta) / g
    return _quadratic(p_xi, p_eta, 1.0, c11, 0.0, w * c11 + 2.0 * fns.intf(eta))


def _b_form(fns, xi, eta, p_xi, p_eta):
    """B: the Liouville form of the tilde functions in the (X, Y)
    coordinates, whose momenta are sqrt(A) p_xi and sqrt(A) p_eta, with
    ``sqrtA`` of ``_CHARACTERISTIC`` taken at xi and at eta."""
    X, Y = fns.X_of_xi(xi), fns.X_of_xi(eta)
    sX, sY = _once(fns.sqrtA, xi), _once(fns.sqrtA, eta)    # sqrt(A) may be X's own basis
    U, V = X + Y, X - Y
    F, G, f, g = fns.F_tilde(U), fns.G_tilde(V), fns.f_tilde(U), fns.g_tilde(V)
    return _liouville_form(p_xi, p_eta, F, G, f, g, F + G, sX, sY)


# enforce_min_g=False: kept for bench/workloads.py; no program path sets it
def hamiltonian(spec: SystemSpec, enforce_min_g: bool = True) -> Observable:
    """H = (p_xi p_eta + w(xi, eta)) / g(xi, eta).

    With ``enforce_min_g``, a jet evaluation raises ``DomainError`` where
    ``|g| < MIN_ABS_G``; duals, floats and arrays are never guarded.
    """
    fns = build_fns(spec)

    def fn(xi, eta, p_xi, p_eta):
        (_, _, g), (_, _, w) = fns.pairs(xi, eta, enforce_min_g)
        return _h_form(p_xi, p_eta, g, w)

    return Observable(fn, label="H")


# integral_A and integral_B: kept for bench/layers.py, bench/workloads.py and
# CObservable; the verifiers and the flow evaluate A and B in SampleJets.evaluate
def integral_A(spec: SystemSpec) -> Observable:
    """The first quadratic integral, in Liouville (Class I) or Lie (Class II) form."""
    fns = build_fns(spec)

    def fn(xi, eta, p_xi, p_eta):
        return _a_form(fns, eta, p_xi, p_eta, *fns.pairs(xi, eta))

    return Observable(fn, label="A")


def integral_B(spec: SystemSpec) -> Observable:
    """The second quadratic integral, via the per-class (X, Y) coordinates.

    For II1 the recoordinatization is the identity and the tilde functions
    are applied directly in (xi, eta).
    """
    fns = build_fns(spec)

    def fn(xi, eta, p_xi, p_eta):
        return _b_form(fns, xi, eta, p_xi, p_eta)

    return Observable(fn, label="B")


class SampleJets:
    """The jets of one pass over the points ``pts`` of ``spec``: ``seeds``,
    the four phase seeds (:func:`~superint.jets.seed_phase`), and ``g``, the
    metric on the coordinate seeds, of order 2; and ``H`` on the seeds'
    order-1 views, of order 1.  The geometry checks read these three.

    ``SampleJets(spec, pts)`` evaluates each on its first read, g as the
    metric alone, with no guard and no potential.  :meth:`evaluate` runs the
    pass that the verifiers read, which sets A and B too, and :meth:`part`
    cuts one sample's share out of a pass over several.  Over the same
    points the seeds, g and H of the three are equal bit for bit, so a check
    reads the same numbers from any of them.
    """

    _whole = None   # the pass a part is cut from

    def __init__(self, spec: SystemSpec, pts: PhasePoint):
        self._spec, self._pts = spec, pts

    @classmethod
    def evaluate(cls, spec, pts: PhasePoint, order: int = 2) -> "SampleJets":
        """One pass for H, A and B on the points ``pts``, with the seeds and g
        it builds on the way: jets of ``order``, but H of order 1.

        ``spec`` is a :class:`SystemSpec`, or the :class:`SystemFns` of one
        (:func:`build_fns`) or of several laid end to end (:func:`group_fns`).

        The closed forms are built once, and H and A share one
        :meth:`SystemFns.pairs` call (g and w; for Class I also F(u), G(v),
        f(u), g(v)).  Each basis function runs once per argument jet, whose
        basis values live as long as it does (:meth:`_Jet.once`): F and f
        share theirs at u, G and g at v, the tilde functions at U and V, and
        in Class II F, G, f, g, intF, intf, X and sqrt(A) share theirs at
        eta.  They are computed as the forms ask: the seeds, the pairs with
        the metric guard, H, then A's and B's own terms.  The closed forms
        run on (xi, eta) jets.  H's form lifts them to four variables where a
        momentum enters; A and B are quadratic forms in the momenta, whose
        four-variable jets :func:`_quadratic` writes from their coefficients'
        (xi, eta) jets and the momenta's values.  The jets equal the ``eval``
        of :func:`hamiltonian`, :func:`integral_A` and :func:`integral_B` bit
        for bit, and the first ``DomainError`` is the one the three would
        raise in that order.  A caller that reads no Hessian asks for
        ``order`` 1.

        H is an order-1 jet at either order: no identity reads its Hessian.
        It is built from order-1 views of p_xi, p_eta and w, divided by g,
        and the value and gradient rules never read a Hessian, so its value
        and gradient equal those of ``hamiltonian(spec).eval`` bit for bit.
        g keeps its inverse, which A's form divides by too (g = F + G is the
        Liouville form's denominator in Class I), so each pass inverts g
        once.  At ``order`` 2 the seeds, g and H have the orders and the bits
        of ``SampleJets(spec, pts)``'s.
        """
        fns = spec if isinstance(spec, SystemFns) else build_fns(spec)
        jets = cls.__new__(cls)   # not __init__: every jet is set here, none read lazily
        jets.seeds = xi, eta, p_xi, p_eta = seed_phase(pts, order)
        metric, potential = fns.pairs(xi, eta, guard=True)
        jets.g, jets.H = metric[2], _h_form(p_xi.first_order(), p_eta.first_order(), metric[2],
                                            potential[2].first_order())
        jets.A = _a_form(fns, eta, p_xi, p_eta, metric, potential)
        jets.B = _b_form(fns, xi, eta, p_xi, p_eta)
        return jets

    @property
    def hab(self):
        """The jets of H, A and B of an evaluated pass."""
        return self.H, self.A, self.B

    def part(self, lo: int, hi: int) -> "SampleJets":
        """The seeds, g and H of this pass at its points ``lo:hi``, each cut
        out on its first read."""
        part = SampleJets.__new__(SampleJets)
        part._whole, part._span = self, np.s_[..., lo:hi]
        return part

    def _cut(self, jet):
        s = self._span
        return jet._of(jet.val[s], jet.grad[s], None if jet.order == 1 else jet.hess[s])

    @functools.cached_property
    def seeds(self):
        return tuple(map(self._cut, self._whole.seeds)) if self._whole else seed_phase(self._pts)

    @functools.cached_property
    def g(self):
        return (self._cut(self._whole.g) if self._whole
                else build_fns(self._spec).metric(*self.seeds[:2]))

    @functools.cached_property
    def H(self):
        return (self._cut(self._whole.H) if self._whole
                else hamiltonian(self._spec).fn(*(s.first_order() for s in self.seeds)))


# ---------------------------------------------------------------------------
# Identity residuals


def _univariate_jet(fn, x):
    """(fn(x), fn'(x), fn''(x)) for a univariate callable, via a jet in slot 0."""
    j = fn(CoordJet.seed(np.asarray(x, dtype=float), 0))
    return j.val, j.grad[0], j.hess_at(0, 0)


def characteristic_residual(spec: SystemSpec, xi):
    """6 A'(xi)^2 - 3 gamma A(xi)^2 - 3 alpha A(xi) + a, with the class constants.

    Analytically zero; the numerical value is the transcription check.
    """
    sol = _solution(spec.tag)
    alpha, gamma, a = sol.char_constants
    A, A1, _ = _univariate_jet(sol.A_of_xi, xi)
    return 6.0 * A1**2 - 3.0 * gamma * A**2 - 3.0 * alpha * A + a


def structural_pde_residual(spec: SystemSpec, which: str, xi, eta):
    """Normalized residual of the class's structural PDE at (xi, eta).

    ``which`` selects the metric pair (F, G) or the potential pair (f, g);
    both satisfy the same equation.  The operator is the master equation

        (A_xixi - B_etaeta) g + 3 A_xi g_xi - 3 B_eta g_eta
        + 2 A g_xixi - 2 B g_etaeta = 0

    on order-2 jets in (xi, eta) of g, A = A(xi) and B = A(eta), with g the
    class's metric rule (:meth:`SystemFns.metric`) over the selected pair;
    the residual is normalized by the largest term.
    """
    if which not in ("metric_pair", "potential_pair"):
        raise ValueError("which must be 'metric_pair' or 'potential_pair'")
    params = spec.metric_params if which == "metric_pair" else spec.potential_params
    fns = _fns(spec.tag, params, params)
    X, Y = CoordJet.seed(xi, 0), CoordJet.seed(eta, 1)
    g, A, B = fns.metric(X, Y), fns.A_of_xi(X), fns.A_of_xi(Y)
    terms = np.stack([
        (A.hess_at(0, 0) - B.hess_at(1, 1)) * g.val,
        3.0 * A.grad[0] * g.grad[0],
        -3.0 * B.grad[1] * g.grad[1],
        2.0 * A.val * g.hess_at(0, 0),
        -2.0 * B.val * g.hess_at(1, 1),
    ])
    return _norm(terms.sum(axis=0), np.abs(terms).max(axis=0))


# ---------------------------------------------------------------------------
# Poisson-algebra structure constants


@dataclass(frozen=True)
class AlgebraConstants:
    """Structure constants of the quadratic algebra at one fixed energy."""

    alpha: float
    gamma: float
    a: float
    delta: float
    epsilon: float
    zeta: float
    d: float
    z: float
    K_casimir: float


@dataclass(frozen=True)
class ConstantsPoly:
    """Structure constants as polynomials in the energy (coeffs low-first).

    The polynomial fields are 1-D float arrays, built on Python floats by
    :func:`_pmul` and :func:`_padd` as ``numpy.polynomial``'s ``polymul``
    and ``polyadd`` build them; :meth:`at_energy` evaluates them as its
    ``polyval`` does, bit for bit, without importing it.
    """

    alpha: float
    gamma: float
    a: float
    delta: np.ndarray
    epsilon: np.ndarray
    zeta: np.ndarray
    d: np.ndarray
    z: np.ndarray
    K: np.ndarray

    def at_energy(self, E) -> AlgebraConstants:
        E = np.asarray(E, dtype=float)
        return AlgebraConstants(
            alpha=self.alpha, gamma=self.gamma, a=self.a,
            delta=_polyval(E, self.delta),
            epsilon=_polyval(E, self.epsilon),
            zeta=_polyval(E, self.zeta),
            d=_polyval(E, self.d),
            z=_polyval(E, self.z),
            K_casimir=_polyval(E, self.K),
        )


# Energy polynomials as coefficient sequences, low order first.  _polyval
# evaluates a 1-D array as numpy.polynomial's polyval does (the same numpy
# calls on the same values, so the same bits).  constants_poly builds its
# polynomials as tuples of Python floats, which for a few coefficients cost
# less than numpy arrays: _pmul and _padd give the bits of polymul and
# polyadd where every factor of a product is at most linear, as there.
# np.convolve sums each coefficient's products from +0.0; with at most two
# products per sum their order does not matter (for longer factors it may
# fuse a product into its sum, which Python floats cannot).

class _Poly(tuple):
    """Polynomial coefficients; a number times it, and its negation, act on
    each coefficient, as they do on an array."""

    __slots__ = ()

    def __rmul__(self, c):
        return _Poly([c * x for x in self])

    def __neg__(self):
        return _Poly([-x for x in self])


def _trim(c):
    """``c`` without trailing zeros, keeping at least one entry (``trimseq``)."""
    if c[-1] != 0 or len(c) == 1:
        return c
    n = len(c) - 1
    while n > 1 and c[n - 1] == 0:
        n -= 1
    return _Poly(c[:n])


def _polyval(E, c):
    """The polynomial ``c`` at ``E`` (an ndarray) by Horner's rule."""
    out = c[-1] + E * 0
    for i in range(2, len(c) + 1):
        out = c[-i] + out * E
    return out


def _lin(c, c0):
    """The linear-in-energy factor (c*E - c0) as poly coefficients."""
    return _Poly((-c0, c))


def _pmul(*polys):
    """The product of ``polys``, each at most linear."""
    out = [1.0]
    for p in polys:
        p = _trim(p)
        if len(p) == 1:
            out = _trim([0.0 + x * p[0] for x in out])
        else:
            a, b = p
            out = _trim([0.0 + out[0] * a, *[0.0 + x * a + y * b for x, y in zip(out[1:], out)],
                         0.0 + out[-1] * b])
    return _Poly(out)


def _padd(*polys):
    out = (0.0,)
    for p in polys:
        # the longer operand (the second on a tie) takes the shorter's terms
        p = _trim(p)
        a, b = (p, out) if len(out) <= len(p) else (out, p)
        out = _trim([*(x + y for x, y in zip(a, b)), *a[len(b):]])
    return _Poly(out)


def _constants(alpha, gamma, a, **polys):
    """A :class:`ConstantsPoly` whose polynomials are 1-D float arrays."""
    return ConstantsPoly(alpha, gamma, a,
                         **{name: np.array(c, dtype=float) for name, c in polys.items()})


def constants_poly(spec: SystemSpec) -> ConstantsPoly:
    """Per-class structure constants as explicit energy polynomials."""
    alpha, gamma, a = _solution(spec.tag).char_constants  # the characteristic equation's
    ka, la, mu, nu = spec.metric_params
    k, el, m, n = spec.potential_params
    K_ = _lin(ka, k)     # (kappa E - k)
    L_ = _lin(la, el)
    M_ = _lin(mu, m)
    N_ = _lin(nu, n)
    zero = _Poly((0.0,))

    if spec.tag == "I1":
        return _constants(
            alpha, gamma, a,
            delta=16.0 * K_,
            epsilon=256.0 * L_,
            zeta=-32.0 * _pmul(K_, N_),
            d=8.0 * N_,
            z=_padd(8.0 * _pmul(N_, N_), -128.0 * _pmul(L_, M_)),
            K=_padd(32.0 * _pmul(N_, N_, N_), 512.0 * _pmul(L_, M_, N_),
                    -64.0 * _pmul(K_, K_, M_)),
        )
    if spec.tag == "I2":
        KplusM = _padd(K_, M_)   # ((kappa+mu) E - (k+m))
        KminusM = _padd(K_, -M_)
        return _constants(
            alpha, gamma, a,
            delta=zero,
            epsilon=256.0 * L_,
            zeta=_padd(-32.0 * _pmul(N_, N_), 256.0 * _pmul(L_, _padd(M_, -K_))),
            d=zero,
            z=32.0 * _pmul(KplusM, N_),
            K=_padd(256.0 * _pmul(L_, KplusM, KplusM),
                    128.0 * _pmul(KminusM, N_, N_)),
        )
    if spec.tag == "I3":
        return _constants(
            alpha, gamma, a,
            delta=zero,
            epsilon=zero,
            zeta=-32.0 * _pmul(L_, N_),
            d=-64.0 * _padd(K_, -M_),
            z=_padd(32.0 * _pmul(_padd(L_, -N_), _padd(L_, -N_)),
                    -32.0 * _pmul(K_, M_)),
            K=_padd(64.0 * _pmul(K_, N_, N_), -64.0 * _pmul(L_, L_, M_)),
        )
    if spec.tag == "II1":
        # z carries the factor 8 on both squares; the printed Casimir line
        # is consistent only with this grouping (fits to 1e-13 pointwise).
        return _constants(
            alpha, gamma, a,
            delta=-8.0 * K_,
            epsilon=zero,
            zeta=8.0 * _pmul(L_, L_),
            d=-16.0 * K_,
            z=8.0 * _padd(_pmul(L_, L_), -_pmul(M_, M_)),
            K=_padd(16.0 * _pmul(N_, N_, K_), -32.0 * _pmul(L_, M_, N_)),
        )
    if spec.tag == "II2":
        return _constants(
            alpha, gamma, a,
            delta=-4.0 * L_,
            epsilon=zero,
            zeta=8.0 * _pmul(K_, K_),
            d=8.0 * N_,
            z=_padd(-8.0 * _pmul(K_, M_), -2.0 * _pmul(N_, N_)),
            K=_padd(8.0 * _pmul(L_, M_, M_), -16.0 * _pmul(K_, M_, N_)),
        )
    # II3
    return _constants(
        alpha, gamma, a,
        delta=zero,
        epsilon=zero,
        zeta=32.0 * _pmul(K_, L_),
        d=zero,
        z=32.0 * _pmul(M_, N_),
        K=_padd(64.0 * _pmul(L_, M_, M_), -64.0 * _pmul(K_, N_, N_)),
    )


_POLY_FIELDS = ("delta", "epsilon", "zeta", "d", "z", "K")


def group_constants(cps, counts) -> ConstantsPoly:
    """The :func:`constants_poly` values ``cps`` of specs of one subclass, for
    one pass over their points laid end to end.

    Each coefficient array becomes an (L, N) array whose column at a point
    is that point's spec's coefficients, so :meth:`ConstantsPoly.at_energy`
    runs unchanged (Horner's rule is elementwise) and gives each point its
    spec's values bit for bit.  The specs must agree on the length of each
    array (:func:`pass_key`).  One spec's values are returned as they are.
    """
    if len(cps) == 1:
        return cps[0]
    first = cps[0]
    return ConstantsPoly(first.alpha, first.gamma, first.a, **{
        name: np.repeat(np.stack([getattr(cp, name) for cp in cps], axis=1), counts, axis=1)
        for name in _POLY_FIELDS})


def pass_key(spec: SystemSpec, cp: ConstantsPoly) -> tuple:
    """What specs must share to be evaluated in one pass, each point as it is
    alone: the subclass, which also fixes the characteristic constants of
    :func:`constants_poly`, the basis functions each closed form keeps (those
    whose coefficient is non-zero, :func:`_terms`), and the length of each
    coefficient array of ``cp``, the spec's :func:`constants_poly`."""
    forms = _forms(spec.tag, *spec.metric_params) + _forms(spec.tag, *spec.potential_params)
    return (spec.tag,
            tuple(None if f is None else tuple(b for _, b in f.args[0]) for f in forms),
            tuple(len(getattr(cp, name)) for name in _POLY_FIELDS))


def algebra_constants(spec: SystemSpec, E: float) -> AlgebraConstants:
    """Structure constants evaluated at energy ``E``, exactly as printed per class."""
    return constants_poly(spec).at_energy(E)


# ---------------------------------------------------------------------------
# Sampling


def _screen(fns, xi, eta):
    """Which of the points (xi, eta) have ``|g| >= MIN_ABS_G`` and
    ``|F~ + G~| >= MIN_ABS_G``, both finite; the tilde metric is evaluated
    only where g passes."""
    with np.errstate(all="ignore"):
        g = fns.metric(xi, eta)
        ok = (np.abs(g) >= MIN_ABS_G) & np.isfinite(g)
        idx = ok.nonzero()[0]
        gt = fns.tilde_metric(xi[idx], eta[idx])
        ok[idx] = (np.abs(gt) >= MIN_ABS_G) & np.isfinite(gt)
    return ok


def sample_points(spec: SystemSpec, n: int, rng) -> PhasePoint:
    """Draw ``n`` phase points from the class domain by rejection.

    Points pass the class domain's tests, ``|g| >= MIN_ABS_G`` and
    ``|F~ + G~| >= MIN_ABS_G`` (the recoordinatized metric).  That is the
    one screening rule of every sample: the geometry checks read points
    screened as the algebra's are, and a catalog draw's claim check and
    algebra check read the same sample.
    Candidates are drawn in batches of ``max(4 n, 256)``; the metrics are
    evaluated only on those that pass the tests, in draw order and in
    blocks sized from the points still needed and the share kept so far,
    and screening stops at the ``n``-th kept point.  The points are those
    of screening every candidate, in the same order.  Raises
    :class:`SamplingError` when more than 90% of candidates are rejected,
    and ``ValueError`` when ``n`` is below 1.
    """
    if n < 1:
        raise ValueError(f"need at least one sample point, got n={n}")
    dom = sample_domain(spec)
    fns = build_fns(spec)
    out = []
    total = 0
    accepted = 0
    screened = 0
    batch = max(4 * n, 256)
    max_candidates = max(20 * n, 4000)
    while accepted < n and total < max_candidates:
        xi = rng.uniform(*dom.xi_range, size=batch)
        eta = rng.uniform(*dom.eta_range, size=batch)
        p_xi = rng.uniform(*MOMENTUM_RANGE, size=batch)
        p_eta = rng.uniform(*MOMENTUM_RANGE, size=batch)
        total += batch
        todo = dom.admits(xi, eta).nonzero()[0]
        while todo.size and accepted < n:
            need = n - accepted
            # enough for ``need`` at the share kept so far, with a margin
            size = need * (screened + 1) // (accepted + 1) + need // 4 + 16
            block, todo = todo[:size], todo[size:]
            keep = block[_screen(fns, xi[block], eta[block])]
            screened += block.size
            accepted += keep.size
            out.append(np.array([xi[keep], eta[keep], p_xi[keep], p_eta[keep]]))
    if accepted < n:
        raise SamplingError(
            f"domain for {spec.tag} rejected {100.0 * (1 - accepted / max(total, 1)):.1f}% "
            f"of {total} candidates (need {n} points); degenerate parameters?")
    arr = np.concatenate(out, axis=1)[:, :n]
    return PhasePoint.from_array(arr)
