"""The six fundamental classes of 2D superintegrable systems.

Each system lives on a surface with conformal metric ``ds^2 = g dxi deta``.
Class I (Liouville surfaces) has ``g = F(xi+eta) + G(xi-eta)``; Class II
(Lie surfaces) has ``g = F(eta)*xi + G(eta)``.  The potential numerator
``w`` has the same shape built from a second pair ``(f_pot, g_pot)`` with
potential parameters ``(k, ell, m, n)`` replacing the metric parameters
``(kappa, lam, mu, nu)``.

The module builds, per subclass:

* the Hamiltonian ``H = (p_xi p_eta + w) / g``,
* the first quadratic integral ``A`` (Liouville form for Class I, Lie form
  with hard-coded antiderivatives for Class II),
* the second quadratic integral ``B`` through the per-class
  recoordinatization ``(X, Y) = (X(xi), X(eta))`` and the tilde functions,
* the characteristic-equation and structural-PDE residuals,
* the structure constants of the quadratic Poisson algebra and the Casimir
  polynomial, as explicit polynomials in the energy.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, SamplingError
from .jets import (CoordJet, Jet2, Observable, PhasePoint, _Jet, arctan, exp, log,
                   seed_phase, sqrt, tan)

__all__ = [
    "CLASS_TAGS",
    "SystemSpec",
    "SystemFns",
    "SampleDomain",
    "AlgebraConstants",
    "ConstantsPoly",
    "build_fns",
    "hamiltonian",
    "integral_A",
    "integral_B",
    "integrals",
    "metric_observable",
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
            v = float(getattr(self, name))
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

    ``exclusions`` are named predicates a point must satisfy (they keep
    poles and branch cuts away by a fixed margin); ``positivity`` lists the
    coordinates the class's maps require to stay positive.  A drawn point
    always satisfies every exclusion and ``|g| >= MIN_ABS_G``; its momenta
    lie in ``MOMENTUM_RANGE``, the same for every class.
    """

    xi_range: tuple
    eta_range: tuple
    exclusions: tuple = ()        # (name, fn(xi, eta) -> bool array) pairs
    positivity: tuple = ()        # subset of ("xi", "eta") that must stay > 0

    def _tests(self):
        """The positivity tests, then the exclusions, as ``fn(xi, eta)``."""
        return ([_POSITIVE[name] for name in ("xi", "eta") if name in self.positivity]
                + [fn for _, fn in self.exclusions])

    def admits(self, xi, eta):
        """Exclusion + positivity mask (metric magnitude is checked separately)."""
        ok = np.ones(np.broadcast_shapes(np.shape(xi), np.shape(eta)), dtype=bool)
        for test in self._tests():
            ok &= test(np.asarray(xi), np.asarray(eta))
        return ok

    def admits_point(self, xi: float, eta: float) -> bool:
        """:meth:`admits` at one point given as floats, up to the first failed
        test."""
        return all(test(xi, eta) for test in self._tests())


_POSITIVE = {"xi": lambda x, e: x > 1e-9, "eta": lambda x, e: e > 1e-9}


_DOMAINS = {
    "I1": SampleDomain((0.2, 2.0), (0.2, 2.0),
                       exclusions=(("|xi-eta| >= 0.15", lambda x, e: np.abs(x - e) >= 0.15),),
                       positivity=("xi", "eta")),
    "I2": SampleDomain((0.3, 2.0), (0.3, 2.0),
                       exclusions=(("|xi-eta| >= 0.15", lambda x, e: np.abs(x - e) >= 0.15),
                                   ("xi+eta >= 0.4", lambda x, e: x + e >= 0.4)),
                       positivity=("xi", "eta")),
    "I3": SampleDomain((-1.0, 1.0), (-1.0, 1.0),
                       exclusions=(("|xi-eta| >= 0.2", lambda x, e: np.abs(x - e) >= 0.2),
                                   ("|xi+eta| >= 0.2", lambda x, e: np.abs(x + e) >= 0.2))),
    "II1": SampleDomain((0.5, 2.0), (0.5, 2.0), positivity=("xi", "eta")),
    "II2": SampleDomain((0.2, 2.0), (0.3, 2.0), positivity=("xi", "eta")),
    "II3": SampleDomain((0.3, 2.0), (0.3, 2.0), positivity=("xi", "eta")),
}


def sample_domain(spec: SystemSpec) -> SampleDomain:
    return _DOMAINS[spec.tag]


@dataclass(frozen=True)
class SystemFns:
    """Closed forms of one subclass, bundled.

    For Class I the metric/potential builders take ``u = xi + eta`` and
    ``v = xi - eta``; for Class II they take ``eta`` alone.  :meth:`pairs`
    builds these arguments once and combines each pair.  All callables
    accept jets, duals or plain arrays.  On a jet or a dual, each basis
    function of the closed forms runs once per argument and the argument
    keeps its value (:meth:`_Jet.once`), so that F and f share theirs at
    the same u, G and g at the same v, and so on; on anything else each
    call evaluates afresh.  ``A_of_xi``, ``sqrtA``, ``X_of_xi`` and
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
    return lambda x: x**p


_POW = {p: _power(p) for p in (-3, -2, 2, 3, 4, 6)}


def _terms(*pairs):
    """Sum of coef * basis(x) over the pairs, in their order, dropping zero
    coefficients.

    Dropping at construction keeps pole terms (1/v^2, cot^2, ...) out of
    the evaluation entirely when their coefficient vanishes, so degenerate
    rows evaluate cleanly on the pole locus instead of producing 0 * inf.
    The sum reads each basis through ``_once``.
    """
    active = [(c, f) for c, f in pairs if c != 0.0]
    if not active:
        return lambda x: x * 0.0
    (c0, f0), rest = active[0], active[1:]

    def fn(x):
        out = c0 * _once(f0, x)
        for c, f in rest:
            out = out + c * _once(f, x)
        return out

    return fn


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
    """Instantiate the closed forms of ``spec``'s subclass.

    Construction is total: parameter degeneracies surface later, at
    sampling or evaluation time.
    """
    return SystemFns(spec.tag, **_solution(spec.tag)._asdict(), **_closed_forms(spec))


def _closed_forms(spec: SystemSpec) -> dict:
    """The ``SystemFns`` fields of ``spec``'s subclass besides its tag and solution."""
    ka, la, mu, nu = spec.metric_params
    k, el, m, n = spec.potential_params
    tag = spec.tag
    sq, inv2, ident = _POW[2], _POW[-2], _ident

    if tag == "I1":
        def F_of(c2, c1, c0):
            return _terms((4.0 * c2, sq), (c1, ident), (0.5 * c0, _one))

        def G_of(c2, cmu, c0):
            return _terms((-c2, sq), (cmu, inv2), (0.5 * c0, _one))

        def Ft(c2, c1, cmu, c0):
            return _terms((c2 / 256.0, _POW[6]), (c1 / 128.0, _POW[4]),
                          (c0 / 16.0, sq), (-cmu, inv2))

        def Gt(c2, c1, cmu, c0):
            return _terms((-c2 / 256.0, _POW[6]), (-c1 / 128.0, _POW[4]),
                          (-c0 / 16.0, sq), (cmu, inv2))

        return dict(
            F=F_of(la, ka, nu), G=G_of(la, mu, nu),
            f_pot=F_of(el, k, n), g_pot=G_of(el, m, n),
            F_tilde=Ft(la, ka, mu, nu), G_tilde=Gt(la, ka, mu, nu),
            f_tilde=Ft(el, k, m, n), g_tilde=Gt(el, k, m, n),
        )

    if tag == "I2":
        def F_of(c2, cinv, c0):
            return _terms((c2, sq), (cinv, inv2), (0.5 * c0, _one))

        def G_of(c2, cinv, c0):
            return _terms((-c2, sq), (cinv, inv2), (0.5 * c0, _one))

        def Ft(c2, c0):
            return _terms((4.0 * c2, _exp2), (c0, _exp))

        def plus(v):
            return _once(_exp, v) / (1.0 + _once(_exp, v))**2

        def minus(v):
            return _once(_exp, v) / (_once(_exp, v) - 1.0)**2

        def Gt(c1, cmu):
            return _terms((c1, plus), (cmu, minus))

        return dict(
            F=F_of(la, ka, nu), G=G_of(la, mu, nu),
            f_pot=F_of(el, k, n), g_pot=G_of(el, m, n),
            F_tilde=Ft(la, nu), G_tilde=Gt(ka, mu),
            f_tilde=Ft(el, n), g_tilde=Gt(k, m),
        )

    if tag == "I3":
        def den(u):
            return (_once(_exp2, u) - 1.0)**2

        def even(u):
            return _once(_exp2, u) / _once(den, u)

        def odd(u):
            return _once(_exp, u) * (1.0 + _once(_exp2, u)) / _once(den, u)

        def FG(ca, cb):
            return _terms((ca, even), (cb, odd))

        def tan2(u):
            return _once(_tan, u)**2

        def cot2(u):
            return _once(_tan, u)**-2

        def Ft(ca, cc, cd):
            return _terms((ca, tan2), (cc, cot2), (cd, _one))

        return dict(
            F=FG(ka, la), G=FG(mu, nu),
            f_pot=FG(k, el), g_pot=FG(m, n),
            F_tilde=Ft((ka + 2.0 * la) / 4.0, (2.0 * nu - mu) / 4.0, (la + nu) / 2.0),
            G_tilde=Ft((2.0 * la - ka) / 4.0, (mu + 2.0 * nu) / 4.0, (la + nu) / 2.0),
            f_tilde=Ft((k + 2.0 * el) / 4.0, (2.0 * n - m) / 4.0, (el + n) / 2.0),
            g_tilde=Ft((2.0 * el - k) / 4.0, (m + 2.0 * n) / 4.0, (el + n) / 2.0),
        )

    if tag == "II1":
        lin = lambda c1, c0: _terms((c1, ident), (c0, _one))

        def Ft(cq, cl, c0):
            return _terms((cq / 4.0, sq), (cl / 2.0, ident), (0.5 * c0, _one))

        return dict(
            F=lin(ka, la), G=lin(mu, nu),
            f_pot=lin(k, el), g_pot=lin(m, n),
            F_tilde=Ft(ka, la + mu, nu), G_tilde=Ft(-ka, la - mu, nu),
            f_tilde=Ft(k, el + m, n), g_tilde=Ft(-k, el - m, n),
            intF=_terms((ka / 2.0, sq), (la, ident)),
            intf=_terms((k / 2.0, sq), (el, ident)),
        )

    if tag == "II2":
        def F_of(ci, c0):
            return _terms((ci, _rsqrt), (c0, _one))

        def G_of(ci, c0, cmu, cn):
            return _terms((3.0 * ci, _sqrt), (c0, ident), (cmu, _rsqrt), (cn, _one))

        def Ft(c4, c3, c2, c1):
            return _terms((c4 / 128.0, _POW[4]), (c3 / 16.0, _POW[3]),
                          (c2 / 16.0, sq), (c1 / 4.0, ident))

        def Gt(c4, c3, c2, c1):
            return _terms((-c4 / 128.0, _POW[4]), (c3 / 16.0, _POW[3]),
                          (-c2 / 16.0, sq), (c1 / 4.0, ident))

        return dict(
            F=F_of(ka, la), G=G_of(ka, la, mu, nu),
            f_pot=F_of(k, el), g_pot=G_of(k, el, m, n),
            F_tilde=Ft(la, ka, nu, mu), G_tilde=Gt(la, ka, nu, mu),
            f_tilde=Ft(el, k, n, m), g_tilde=Gt(el, k, n, m),
            intF=_terms((2.0 * ka, _sqrt), (la, ident)),
            intf=_terms((2.0 * k, _sqrt), (el, ident)),
        )

    # II3
    def F_of(c1, c3):
        return _terms((c1, ident), (c3, _POW[-3]))

    def G_of(c0, c2):
        return _terms((c0, _one), (c2, inv2))

    def Ft(ca, cb):
        return _terms((ca, _exp2), (cb, _exp))

    return dict(
        F=F_of(la, ka), G=G_of(nu, mu),
        f_pot=F_of(el, k), g_pot=G_of(n, m),
        F_tilde=Ft(la, nu), G_tilde=Ft(ka, mu),
        f_tilde=Ft(el, n), g_tilde=Ft(k, m),
        intF=_terms((la / 2.0, sq), (-ka / 2.0, inv2)),
        intf=_terms((el / 2.0, sq), (-k / 2.0, inv2)),
    )


# ---------------------------------------------------------------------------
# Observables


def _guard_metric(g):
    gv = np.atleast_1d(g.val)
    small = np.abs(gv) < MIN_ABS_G
    if np.any(small):
        raise DomainError("metric", float(gv[small].flat[0]),
                          f"|g| below {MIN_ABS_G} (degenerate metric at sample)")


def _h_form(p_xi, p_eta, g, w):
    """H = (p_xi p_eta + w) / g."""
    return (p_xi * p_eta + w) / g


def _liouville_form(p1, p2, F, G, f, g):
    """p1^2 + p2^2 - 2 p1 p2 (F - G)/(F + G) + 4 (f G - g F)/(F + G)."""
    m = F + G
    return (p1**2 + p2**2
            - 2.0 * p1 * p2 * (F - G) / m
            + 4.0 * (f * G - g * F) / m)


def _a_form(fns, eta, p_xi, p_eta, metric, potential):
    """A from the metric and potential pairs ``(F, G, g)`` and ``(f, g_pot, w)``.

    Liouville form for Class I; Lie form with the antiderivatives ``intF``
    and ``intf`` for Class II.
    """
    F, G, g = metric
    f, g_pot, w = potential
    if _class_one(fns.tag):
        return _liouville_form(p_xi, p_eta, F, G, f, g_pot)
    beta = fns.intF(eta)
    return (p_xi**2
            - 2.0 * p_xi * p_eta * beta / g
            - 2.0 * w * beta / g
            + 2.0 * fns.intf(eta))


def _b_form(fns, xi, eta, p_xi, p_eta):
    """B: the Liouville form of the tilde functions in the (X, Y) coordinates."""
    X, Y = fns.X_of_xi(xi), fns.X_of_xi(eta)
    pX = _once(fns.sqrtA, xi) * p_xi    # sqrt(A) may be X's own basis
    pY = _once(fns.sqrtA, eta) * p_eta
    U, V = X + Y, X - Y
    return _liouville_form(pX, pY, fns.F_tilde(U), fns.G_tilde(V),
                           fns.f_tilde(U), fns.g_tilde(V))


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


def integrals(spec: SystemSpec, order: int = 2) -> Callable[[PhasePoint], tuple]:
    """One pass for H, A and B: a map from points to their jets of ``order``.

    The closed forms are built once, and H and A share one
    :meth:`SystemFns.pairs` call (g and w; for Class I also F(u), G(v),
    f(u), g(v)).  Each basis function runs once per argument jet, whose
    basis values live as long as it does (:meth:`_Jet.once`): F and f share
    theirs at u, G and g at v, the tilde functions at U and V, and in
    Class II F, G, f, g, intF, intf, X and sqrt(A) share theirs at eta.
    They are computed as the forms ask: the pairs with the metric guard,
    then A's and B's own terms.  The forms run on (xi, eta) jets,
    lifted to four variables where a momentum enters.  The jets equal the
    ``eval`` of :func:`hamiltonian`, :func:`integral_A` and
    :func:`integral_B` bit for bit, and the first ``DomainError`` is the
    one the three would raise in that order.  A caller that reads no
    Hessian asks for ``order`` 1.

    H is an order-1 jet at either order: no identity reads its Hessian.
    It is built from order-1 views of p_xi, p_eta, g and w, and the value
    and gradient rules never read a Hessian, so its value and gradient
    equal those of ``hamiltonian(spec).eval`` bit for bit.
    """
    fns = build_fns(spec)

    def evaluate(point: PhasePoint):
        xi, eta, p_xi, p_eta = seed_phase(point, order)
        metric, potential = fns.pairs(xi, eta, guard=True)
        return (_h_form(*(j.first_order() for j in (p_xi, p_eta, metric[2], potential[2]))),
                _a_form(fns, eta, p_xi, p_eta, metric, potential),
                _b_form(fns, xi, eta, p_xi, p_eta))

    return evaluate


def metric_observable(spec: SystemSpec) -> Observable:
    """The conformal factor g as an observable (momenta ignored)."""
    fns = build_fns(spec)

    def fn(xi, eta, p_xi, p_eta):
        return fns.metric(xi, eta)

    return Observable(fn, label="g")


# ---------------------------------------------------------------------------
# Identity residuals


def _univariate_jet(fn, x):
    """(fn(x), fn'(x), fn''(x)) for a univariate callable, via a jet in slot 0."""
    j = fn(CoordJet.seed(np.asarray(x, dtype=float), 0))
    if not isinstance(j, Jet2):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(np.asarray(j, dtype=float), x.shape), np.zeros(x.shape), np.zeros(x.shape)
    return j.val, j.grad[0], j.hess_at(0, 0)


def characteristic_residual(spec: SystemSpec, xi):
    """6 A'(xi)^2 - 3 gamma A(xi)^2 - 3 alpha A(xi) + a, with the class constants.

    Analytically zero; the numerical value is the transcription check.
    """
    fns = build_fns(spec)
    alpha, gamma, a = fns.char_constants
    A, A1, _ = _univariate_jet(fns.A_of_xi, xi)
    return 6.0 * A1**2 - 3.0 * gamma * A**2 - 3.0 * alpha * A + a


def structural_pde_residual(spec: SystemSpec, which: str, xi, eta):
    """Normalized residual of the class's structural PDE at (xi, eta).

    ``which`` selects the metric pair (F, G) or the potential pair (f, g);
    both satisfy the same equation.  The operator is the master equation
    (A''-B'') g + 3 A' g_xi - 3 B' g_eta + 2 A g_xixi - 2 B g_etaeta = 0
    specialized per class; residuals are normalized by the largest term.
    """
    if which not in ("metric_pair", "potential_pair"):
        raise ValueError("which must be 'metric_pair' or 'potential_pair'")
    fns = build_fns(spec)
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)

    A, A1, A2 = _univariate_jet(fns.A_of_xi, xi)
    B, B1, B2 = _univariate_jet(fns.A_of_xi, eta)  # B is the same solution at eta

    Ffn = fns.F if which == "metric_pair" else fns.f_pot
    Gfn = fns.G if which == "metric_pair" else fns.g_pot
    if spec.is_class_one():
        F, F1, F2 = _univariate_jet(Ffn, xi + eta)
        G, G1, G2 = _univariate_jet(Gfn, xi - eta)
        terms = np.stack([
            (A2 - B2) * (F + G),
            3.0 * A1 * (F1 + G1),
            -3.0 * B1 * (F1 - G1),
            2.0 * (A - B) * (F2 + G2),
        ])
    else:
        F, F1, F2 = _univariate_jet(Ffn, eta)
        G, G1, G2 = _univariate_jet(Gfn, eta)
        # g = F(eta) xi + G(eta): g_xixi = 0, g_etaeta = F'' xi + G''
        terms = np.stack([
            (A2 - B2) * (F * xi + G),
            3.0 * A1 * F,
            -3.0 * B1 * (F1 * xi + G1),
            -2.0 * B * (F2 * xi + G2),
        ])
    resid = terms.sum(axis=0)
    scale = np.abs(terms).max(axis=0)
    return np.abs(resid) / (1.0 + scale)


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
    beta: float = 0.0


@dataclass(frozen=True)
class ConstantsPoly:
    """Structure constants as polynomials in the energy (coeffs low-first).

    The polynomial fields are 1-D float arrays, built by :func:`_pmul` and
    :func:`_padd` as ``numpy.polynomial``'s ``polymul`` and ``polyadd``
    build them; :meth:`at_energy` evaluates them as its ``polyval`` does,
    bit for bit, without importing it.
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


# Polynomial arithmetic on 1-D coefficient arrays, low order first, as
# numpy.polynomial's polymul, polyadd and polyval compute it (same numpy
# calls on the same values, so the same bits), without their per-call
# conversion of every operand.

def _trim(c):
    """``c`` without trailing zeros, keeping at least one entry (``trimseq``)."""
    n = len(c)
    while n > 1 and c[n - 1] == 0:
        n -= 1
    return c[:n]


def _polyval(E, c):
    """The polynomial ``c`` at ``E`` (an ndarray) by Horner's rule."""
    out = c[-1] + E * 0
    for i in range(2, len(c) + 1):
        out = c[-i] + out * E
    return out


def _lin(c, c0):
    """The linear-in-energy factor (c*E - c0) as poly coefficients."""
    return np.array([-c0, c])


def _pmul(*polys):
    out = np.array([1.0])
    for p in polys:
        out = _trim(np.convolve(out, _trim(p)))
    return out


def _padd(*polys):
    out = np.array([0.0])
    for p in polys:
        # the longer operand (the second on a tie) takes the shorter in place
        a, b = out, _trim(p)
        if len(a) <= len(b):
            a, b = b, a
        a = np.array(a, dtype=float)
        a[:len(b)] += b
        out = _trim(a)
    return out


def constants_poly(spec: SystemSpec) -> ConstantsPoly:
    """Per-class structure constants as explicit energy polynomials."""
    alpha, gamma, a = _solution(spec.tag).char_constants  # the characteristic equation's
    ka, la, mu, nu = spec.metric_params
    k, el, m, n = spec.potential_params
    K_ = _lin(ka, k)     # (kappa E - k)
    L_ = _lin(la, el)
    M_ = _lin(mu, m)
    N_ = _lin(nu, n)
    zero = np.array([0.0])

    if spec.tag == "I1":
        return ConstantsPoly(
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
        return ConstantsPoly(
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
        return ConstantsPoly(
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
        return ConstantsPoly(
            alpha, gamma, a,
            delta=-8.0 * K_,
            epsilon=zero,
            zeta=8.0 * _pmul(L_, L_),
            d=-16.0 * K_,
            z=8.0 * _padd(_pmul(L_, L_), -_pmul(M_, M_)),
            K=_padd(16.0 * _pmul(N_, N_, K_), -32.0 * _pmul(L_, M_, N_)),
        )
    if spec.tag == "II2":
        return ConstantsPoly(
            alpha, gamma, a,
            delta=-4.0 * L_,
            epsilon=zero,
            zeta=8.0 * _pmul(K_, K_),
            d=8.0 * N_,
            z=_padd(-8.0 * _pmul(K_, M_), -2.0 * _pmul(N_, N_)),
            K=_padd(8.0 * _pmul(L_, M_, M_), -16.0 * _pmul(K_, M_, N_)),
        )
    # II3
    return ConstantsPoly(
        alpha, gamma, a,
        delta=zero,
        epsilon=zero,
        zeta=32.0 * _pmul(K_, L_),
        d=zero,
        z=32.0 * _pmul(M_, N_),
        K=_padd(64.0 * _pmul(L_, M_, M_), -64.0 * _pmul(K_, N_, N_)),
    )


def algebra_constants(spec: SystemSpec, E: float) -> AlgebraConstants:
    """Structure constants evaluated at energy ``E``, exactly as printed per class."""
    return constants_poly(spec).at_energy(E)


# ---------------------------------------------------------------------------
# Sampling


def _screen(fns, xi, eta, require_tilde):
    """Which of the points (xi, eta) have ``|g| >= MIN_ABS_G`` and, with
    ``require_tilde``, ``|F~ + G~| >= MIN_ABS_G``, both finite; the tilde
    metric is evaluated only where g passes."""
    with np.errstate(all="ignore"):
        g = fns.metric(xi, eta)
        ok = (np.abs(g) >= MIN_ABS_G) & np.isfinite(g)
        if require_tilde:
            idx = np.flatnonzero(ok)
            gt = fns.tilde_metric(xi[idx], eta[idx])
            ok[idx] = (np.abs(gt) >= MIN_ABS_G) & np.isfinite(gt)
    return ok


def sample_points(spec: SystemSpec, n: int, rng, require_tilde: bool = True) -> PhasePoint:
    """Draw ``n`` phase points from the class domain by rejection.

    Points satisfy all exclusions, ``|g| >= MIN_ABS_G`` and (when the
    class defines a recoordinatized metric) ``|F~ + G~| >= MIN_ABS_G``.
    Candidates are drawn in batches of ``max(4 n, 256)``; the metrics are
    evaluated only on those that pass the exclusions, in draw order and in
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
        todo = np.flatnonzero(dom.admits(xi, eta))
        while todo.size and accepted < n:
            need = n - accepted
            # enough for ``need`` at the share kept so far, with a margin
            size = need * (screened + 1) // (accepted + 1) + need // 4 + 16
            block, todo = todo[:size], todo[size:]
            keep = block[_screen(fns, xi[block], eta[block], require_tilde)]
            screened += block.size
            accepted += keep.size
            out.append(np.stack([xi[keep], eta[keep], p_xi[keep], p_eta[keep]]))
    if accepted < n:
        raise SamplingError(
            f"domain for {spec.tag} rejected {100.0 * (1 - accepted / max(total, 1)):.1f}% "
            f"of {total} candidates (need {n} points); degenerate parameters?")
    arr = np.concatenate(out, axis=1)[:, :n]
    return PhasePoint.from_array(arr)
