"""Order-2 jet arithmetic over the phase variables.

A :class:`Jet2` carries a value together with all first and second partial
derivatives with respect to ``(xi, eta, p_xi, p_eta)``, propagated through
arithmetic by truncated Taylor rules.  Everything is batched: the value may
be a scalar or an ndarray of sample points, and derivatives ride along with
a leading axis of size 4 (gradient) / 10 (packed Hessian).

An order-1 jet is a :class:`Jet2` whose ``hess`` is left out (``None`` in
storage): seeds, arithmetic, the chain rule and ``lift()`` skip the Hessian
rows, and a result has a Hessian only if every operand had one.  The value
and gradient rules never read the Hessian, so an order-1 jet's ``val`` and
``grad`` equal the order-2 jet's bit for bit.  Reading ``hess``,
``hess_at`` or ``hess_full`` of an order-1 jet raises ``AttributeError``.
Callers that read no second derivative evaluate at order 1, and
``first_order()`` views an order-2 jet as one, so that what is built from
it carries no Hessian (as H in :func:`superint.systems.integrals`).

The Hessian rules gather gradient rows into packed order (and
``hess_full`` the packed rows into a square) with ``ndarray.take``, the
copy fancy indexing makes at about half its per-call cost; and a rule's
result is built without ``__init__``'s conversions, since its parts are
float arrays already.  The product and chain rules add and multiply in
place into arrays they have just allocated, with the operands, grouping
and order of the plain expressions (``a.grad * b.val + b.grad * a.val``),
so every bit is that expression's; they never write into an operand's
arrays, which jets share (a scalar sum keeps ``grad`` and the Hessian,
``first_order()`` keeps ``val`` and ``grad``).

A :class:`CoordJet` is the same jet over ``(xi, eta)`` alone, with leading
axes of size 2 / 3: the closed forms of a system depend on the coordinates
only, and on this layout they skip the derivative rows that would always be
zero.  Its ``lift()`` pads it with zeros to the four-variable layout, and
``+``, ``-``, ``*`` and ``/`` lift it on their own where it meets a
:class:`Jet2`, to that operand's order, so a momentum enters in four
variables.  :func:`seed_phase` seeds the coordinates in two variables and
the momenta in four, on the point's read-only components.

A jet or a dual keeps the values computed from it through
:meth:`_Jet.once`: ``x.once(fn)`` runs ``fn(x)`` on the first call and
returns the same result after, as long as ``x`` lives, so that the closed
forms of :mod:`superint.systems` evaluate each basis function once per
argument, in a traced evaluation too.

A :class:`Dual4` is the order-1 little sibling (value + gradient, plain
Python floats) for first derivatives at one scalar point.  A seed's
derivatives for the other three variables are a structural zero, a float
0.0 whose sums give the other operand and whose products give the zero: a
derivative that is zero by construction stays exactly 0.0, where
four-float arithmetic gives -0.0 or, from inf * 0, NaN.  Values are
untouched; :class:`CoordJet`'s dropped momentum rows agree the same way, up
to the sign of a zero.

Both share one derivative rule per primitive (f, f' and f'' at the value);
each applies the chain rule to its own storage, and both raise the same
:class:`DomainError` outside a primitive's domain, NaN included.

Integer powers of arrays other than squares (in ``x**n`` and the inverse's
``v**3``, and in the closed forms and the curvature of the other modules)
are taken as ``|v|**n`` with the sign put back for odd n (``_ipow``):
numpy's float64 pow is vectorised for non-negative bases only, and its
scalar path for negative ones is more than an order of magnitude slower and
rounds otherwise.  So ``-x`` gives the sign image of ``x`` bit for bit, and
a 0-d point the bits it has in a batch.  A square stays ``v**2``, which
numpy computes as ``v * v``.  :class:`Dual4` and the traced floats of
:func:`trace` keep Python's float ``**``.

:func:`straight_line` runs a function of floats once on symbolic floats,
records every float operation, math or numpy call and domain check in
order, and compiles them into a straight-line function that gives the
same floats and errors bit for bit.  :func:`trace` applies it to Dual4's
rules: the result returns a value and its gradient, as the Dual4
evaluation would, bit for bit, signed zeros included, under Dual4's
structural-zero rules.  A structural zero is met at trace time, so an
operation on one records no line: the trace holds only the derivative
arithmetic the seeds reach (sparse forward mode; Griewank & Walther,
*Evaluating Derivatives*, ch. 7): 38 to 56 % fewer lines in H's gradient.
The flow (:mod:`superint.dynamics`) runs its right-hand side, its DP5(4)
step and its domain check this way.

:func:`fd_derivatives` is the independent finite-difference oracle used to
cross-check jet propagation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .errors import DomainError

__all__ = [
    "PhasePoint",
    "Jet2",
    "CoordJet",
    "Dual4",
    "Observable",
    "trace",
    "straight_line",
    "one_call",
    "seed_phase",
    "fd_derivatives",
    "norm_residual",
    "sqrt",
    "exp",
    "log",
    "tan",
    "arctan",
]

VAR_NAMES = ("xi", "eta", "p_xi", "p_eta")


def _packed(nv):
    """Packed storage of a symmetric nv x nv Hessian: upper triangle, row major.

    Returns (_IU, _JU, _UNPACK); _UNPACK[i, j] is the packed position of
    entry (i, j), in either order.
    """
    iu, ju = np.triu_indices(nv)
    unpack = np.empty((nv, nv), dtype=int)
    unpack[iu, ju] = unpack[ju, iu] = np.arange(iu.size)
    return iu, ju, unpack


def _ipow(v, n):
    """``v**n`` for an integer ``n``; of a float64 array ``v``, ``|v|**n`` with
    the sign put back for odd ``n``, so that both signs take numpy's
    vectorised pow (see the module docstring).  ``|v|`` is raised as an array
    also where ``v`` is 0-d and ``np.abs`` returns a numpy scalar, whose pow
    is the C library's.  On an array, ``n`` = 1 returns ``v`` itself and
    ``n`` = 2 keeps ``v**2``; anything else (a float or numpy scalar, a dual,
    a traced float, a jet) keeps ``**``.
    """
    if n == 2 or not isinstance(v, np.ndarray):
        return v**n
    if n == 1:
        return v
    p = np.asarray(np.abs(v)) ** n
    return np.copysign(p, v) if n % 2 else p


@dataclass(frozen=True)
class PhasePoint:
    """A phase-space point (or batch of points) in Liouville/Lie coordinates.

    The four components are finite float arrays of one shape, the batch
    shape: components of different shapes are broadcast against each other
    at construction.  They are read-only views, so that a jet seeded on a
    component (:func:`seed_phase`) cannot write into the point, nor into
    the arrays it was built from.
    """

    xi: np.ndarray
    eta: np.ndarray
    p_xi: np.ndarray
    p_eta: np.ndarray

    def __post_init__(self):
        parts = []
        for name in VAR_NAMES:
            arr = np.asarray(getattr(self, name), dtype=float)
            if not np.isfinite(arr).all():
                raise DomainError("PhasePoint", name, f"non-finite component {name}")
            parts.append(arr)
        if len({a.shape for a in parts}) > 1:
            parts = np.broadcast_arrays(*parts)
        for name, arr in zip(VAR_NAMES, parts):
            arr = arr.view()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def shape(self):
        return self.xi.shape

    def components(self):
        return (self.xi, self.eta, self.p_xi, self.p_eta)

    def as_array(self):
        """Stack components into shape (4,) + batch shape."""
        return np.array(self.components())

    @classmethod
    def from_array(cls, arr):
        arr = np.asarray(arr, dtype=float)
        return cls(arr[0], arr[1], arr[2], arr[3])

    # kept for fd_derivatives, which bench/workloads.py reaches through bracket_fd
    def shifted(self, var: int, delta: float) -> "PhasePoint":
        parts = list(self.components())
        parts[var] = parts[var] + delta
        return PhasePoint(*parts)


class _Jet:
    """The derivative rules shared by :class:`Jet2` and :class:`Dual4`.

    Each rule computes f, f' and f'' at ``val`` in the math namespace ``_m``
    (an integer power with ``_ipow``) and hands them to ``_chain``; f'' only
    where the jet carries a Hessian (``_hess`` is not None: never for
    ``Dual4`` or an order-1 jet, whose ``_chain`` does not read it).  Domain checks give
    ``_require`` the condition that must hold (``val > 0``), so NaN, for
    which every comparison is false, fails them.  Subclasses keep the
    storage arithmetic: +, -, * and negation.  Both keep the values computed
    from them in the same way (:meth:`once`).

    The rules are those the closed forms, the verifiers, the geometry checks
    and the flow use: +, - and * with a jet or a plain number on either
    side but the left of -, division by a jet, negation, the integer powers
    but 0 and 1, sqrt, exp, log, tan and arctan.  Any other operand returns
    ``NotImplemented``, so Python raises ``TypeError``.
    """

    __slots__ = ("_kept",)
    # an ndarray operand hands the operation to the jet's own rule (an array
    # of one factor per point broadcasts against ``grad`` and ``hess``)
    # instead of building an object array
    __array_ufunc__ = None

    def once(self, fn):
        """``fn(self)``, computed on the first call with ``fn`` and kept on
        this jet or dual for the next.

        A result that is the number itself is not kept, so that no number
        refers to itself and each is freed as soon as it is no longer used.
        """
        kept = getattr(self, "_kept", None)
        if kept is None:
            kept = self._kept = {}
        out = kept.get(fn)
        if out is None:
            out = fn(self)
            if out is not self:
                kept[fn] = out
        return out

    def __truediv__(self, other):
        # the divisor keeps its inverse, so inv runs once per divisor
        if isinstance(other, _Jet):
            return self * other.once(_Jet.inv)
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int) or n in (0, 1):
            return NotImplemented
        v = self.val
        if n == 2:
            # 2 * v**1 and 2 * v**0 of the rule below, whose v**1 is v and v**0
            # is 1, NaN and inf included
            return self._chain(v**2, 2 * v, 2)
        return self._chain(_ipow(v, n), n * _ipow(v, n - 1),
                           self._hess is not None and n * (n - 1) * _ipow(v, n - 2))

    def inv(self):
        v = self.val
        self._require(v != 0.0, "inv")
        return self._chain(1.0 / v, -1.0 / v**2, self._hess is not None and 2.0 / _ipow(v, 3))

    def sqrt(self):
        v = self.val
        self._require(v > 0.0, "sqrt")
        r = self._m.sqrt(v)
        return self._chain(r, 0.5 / r, self._hess is not None and -0.25 / (r * v))

    def exp(self):
        e = self._m.exp(self.val)
        return self._chain(e, e, e)

    def log(self):
        v = self.val
        self._require(v > 0.0, "ln")
        return self._chain(self._m.log(v), 1.0 / v,
                           self._hess is not None and -1.0 / v**2)

    def tan(self):
        t = self._m.tan(self.val)
        sec2 = 1.0 + t * t
        return self._chain(t, sec2, self._hess is not None and 2.0 * t * sec2)

    def arctan(self):
        v = self.val
        d = 1.0 / (1.0 + v**2)  # Dual4's float pow kept; numpy computes v * v
        return self._chain(self._m.arctan(v), d,
                           self._hess is not None and -2.0 * v * d * d)


class Jet2(_Jet):
    """Value with first and second partials w.r.t. the 4 phase variables.

    ``val`` has an arbitrary batch shape S; ``grad`` has shape (4,)+S and
    ``hess`` has shape (10,)+S holding the upper triangle of the symmetric
    second-derivative matrix (single storage, so hess[i,j] and hess[j,i]
    are the identical entry by construction); an order-1 jet stores None
    in its place.  The layout is a class attribute: ``_NV`` variables and
    the packing ``_IU``, ``_JU``, ``_UNPACK``, which :class:`CoordJet`
    narrows to (xi, eta).
    """

    __slots__ = ("val", "grad", "_hess")
    _m = np
    _NV = 4
    _IU, _JU, _UNPACK = _packed(4)

    def __init__(self, val, grad, hess):
        self.val = np.asarray(val, dtype=float)
        self.grad = np.asarray(grad, dtype=float)
        self._hess = None if hess is None else np.asarray(hess, dtype=float)

    @classmethod
    def _of(cls, val, grad, hess):
        """A rule's result, whose ``grad`` and ``hess`` (or None) are float
        arrays already: only ``val`` is converted, where a 0-d batch made it
        a numpy scalar."""
        out = object.__new__(cls)
        out.val = val if isinstance(val, np.ndarray) else np.asarray(val, dtype=float)
        out.grad, out._hess = grad, hess
        return out

    # -- constructors -------------------------------------------------

    @classmethod
    def _zero_hess(cls, shape, order):
        """Zero packed Hessian rows for an order-2 jet, None for order 1."""
        return np.zeros((cls._IU.size,) + shape) if order == 2 else None

    @classmethod
    def constant(cls, value, batch_shape=(), order=2):
        val = np.broadcast_to(np.asarray(value, dtype=float), batch_shape).copy()
        return cls(val, np.zeros((cls._NV,) + batch_shape),
                   cls._zero_hess(batch_shape, order))

    @classmethod
    def seed(cls, value, var: int, order=2):
        """Jet of coordinate ``var`` at ``value``: unit gradient, zero Hessian
        (none at ``order`` 1)."""
        val = np.asarray(value, dtype=float)
        grad = np.zeros((cls._NV,) + val.shape)
        grad[var] = 1.0
        return cls(val, grad, cls._zero_hess(val.shape, order))

    def lift(self, order=2):
        """This jet in the four-variable layout, which it already has."""
        return self

    def first_order(self):
        """This jet without its Hessian: an order-1 jet on the same value and
        gradient arrays."""
        return self if self._hess is None else self._of(self.val, self.grad, None)

    # -- accessors ----------------------------------------------------

    @property
    def order(self):
        """2 when the jet carries its Hessian, 1 when it does not."""
        return 1 if self._hess is None else 2

    @property
    def hess(self):
        """The packed Hessian rows; an order-1 jet has none and raises."""
        if self._hess is None:
            raise AttributeError("an order-1 jet carries no Hessian")
        return self._hess

    def hess_at(self, i: int, j: int):
        """Second partial w.r.t. variables i, j (symmetric single storage)."""
        return self.hess[self._UNPACK[i, j]]

    def hess_full(self):
        """The full (nv, nv)+S Hessian, gathered from the packed storage."""
        return self.hess.take(self._UNPACK, axis=0)

    # -- storage arithmetic -------------------------------------------
    # An operand in the other layout is lifted first, to the other's order
    # (a result with an order-1 operand reads no Hessian); both then have 4.
    # The Hessian rows are skipped when an operand has none.

    def __add__(self, other):
        if isinstance(other, Jet2):
            if other._NV != self._NV:
                return self.lift(other.order) + other.lift(self.order)
            a, b = self._hess, other._hess
            return self._of(self.val + other.val, self.grad + other.grad,
                            None if a is None or b is None else a + b)
        return self._of(self.val + other, self.grad, self._hess)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet2):
            if other._NV != self._NV:
                return self.lift(other.order) - other.lift(self.order)
            a, b = self._hess, other._hess
            return self._of(self.val - other.val, self.grad - other.grad,
                            None if a is None or b is None else a - b)
        return self._of(self.val - other, self.grad, self._hess)

    def __neg__(self):
        h = self._hess
        return self._of(-self.val, -self.grad, None if h is None else -h)

    def __mul__(self, other):
        if isinstance(other, Jet2):
            if other._NV != self._NV:
                return self.lift(other.order) * other.lift(self.order)
            a, b = self, other
            val = a.val * b.val
            grad = a.grad * b.val
            grad += b.grad * a.val
            if a._hess is None or b._hess is None:
                return self._of(val, grad, None)
            iu, ju, ag, bg = a._IU, a._JU, a.grad, b.grad
            cross = ag.take(iu, 0)
            cross *= bg.take(ju, 0)
            t = bg.take(iu, 0)
            t *= ag.take(ju, 0)
            cross += t
            hess = np.multiply(a._hess, b.val)
            hess += np.multiply(b._hess, a.val, out=t)
            hess += cross
            return self._of(val, grad, hess)
        h = self._hess
        return self._of(self.val * other, self.grad * other,
                        None if h is None else h * other)

    __rmul__ = __mul__

    def _require(self, ok, primitive):
        if not ok.all():
            raise DomainError(primitive, float(self.val[~ok].flat[0]))

    def _chain(self, f, f1, f2):
        """Chain rule for a scalar function applied to this jet, to its order."""
        g = self.grad
        grad = f1 * g
        if self._hess is None:
            return self._of(f, grad, None)
        outer = g.take(self._IU, 0)
        outer *= g.take(self._JU, 0)
        np.multiply(f2, outer, out=outer)  # f2 * outer, in the rule's operand order
        hess = f1 * self._hess
        hess += outer
        return self._of(f, grad, hess)


class CoordJet(Jet2):
    """A :class:`Jet2` over the coordinates (xi, eta) alone.

    ``grad`` has shape (2,)+S and ``hess`` (3,)+S: the partials with respect
    to the momenta, always zero for a function of the coordinates, are not
    stored.  The rules are those of :class:`Jet2`, on the non-zero entries
    in the same order, so ``lift()`` equals the four-variable jet bit for
    bit, up to the sign of a zero.
    """

    __slots__ = ()
    _NV = 2
    _IU, _JU, _UNPACK = _packed(2)
    # where the packed (xi, eta) Hessian sits in the packed 4-variable one
    _LIFT = Jet2._UNPACK[_IU, _JU]

    def lift(self, order=2):
        """The same jet in the four-variable layout, zero in the momenta; at
        ``order`` 1, or if it has none, without its Hessian."""
        shape = self.val.shape
        grad = np.zeros((Jet2._NV,) + shape)
        grad[:self._NV] = self.grad
        if self._hess is None or order == 1:
            return Jet2._of(self.val, grad, None)
        hess = np.zeros((Jet2._IU.size,) + shape)
        hess[self._LIFT] = self._hess
        return Jet2._of(self.val, grad, hess)


# math's scalar functions under numpy's names, so Dual4 stays on plain floats
_FLOAT_MATH = SimpleNamespace(sqrt=math.sqrt, exp=math.exp, log=math.log,
                              tan=math.tan, arctan=math.atan)


class _Zero(float):
    """A derivative that is zero by construction: the components of a
    :meth:`Dual4.seed` other than its own variable.

    ``z + x``, ``x + z`` and ``x - z`` are ``x``; ``z - x`` is ``-x``; ``z *
    x``, ``x * z`` and ``-z`` are ``z``, for every ``x``, inf and NaN
    included.  So a derivative no seed reaches stays exactly 0.0, and a
    traced evaluation records no line for it (sparse forward mode).  These
    are the operations Dual4's rules apply to a derivative; any other is
    float's.
    """

    __slots__ = ()
    # a numpy scalar operand hands the operation to these methods
    __array_ufunc__ = None

    def __add__(self, other):
        return other

    __radd__ = __rsub__ = __add__

    def __sub__(self, other):
        return -other

    def __mul__(self, other):
        return self

    __rmul__ = __mul__

    def __neg__(self):
        return self


_ZERO = _Zero()


class Dual4(_Jet):
    """Order-1 forward-mode number over the 4 phase variables (scalar only).

    A seed's derivatives for the other three variables are the structural
    zero ``_ZERO``, so a derivative that no seed reaches is exactly 0.0,
    where float arithmetic on zeros would give -0.0, or NaN from inf * 0.
    The storage arithmetic builds ``type(self)``, so that :func:`trace`'s
    subclass stays itself through every rule.
    """

    __slots__ = ("val", "d")
    _m = _FLOAT_MATH
    _hess = None  # order 1: the rules skip f''

    def __init__(self, val, d=(0.0, 0.0, 0.0, 0.0)):
        self.val = val
        self.d = d

    @classmethod
    def seed(cls, value, var: int):
        d = [_ZERO, _ZERO, _ZERO, _ZERO]
        d[var] = 1.0
        return cls(float(value), tuple(d))

    # -- storage arithmetic -------------------------------------------

    def __add__(self, other):
        if isinstance(other, Dual4):
            a, b = self.d, other.d
            return type(self)(self.val + other.val,
                              (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]))
        return type(self)(self.val + other, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual4):
            a, b = self.d, other.d
            return type(self)(self.val - other.val,
                              (a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3]))
        return type(self)(self.val - other, self.d)

    def __neg__(self):
        a = self.d
        return type(self)(-self.val, (-a[0], -a[1], -a[2], -a[3]))

    def __mul__(self, other):
        if isinstance(other, Dual4):
            u, v = self.val, other.val
            a, b = self.d, other.d
            return type(self)(u * v, (a[0] * v + b[0] * u, a[1] * v + b[1] * u,
                                      a[2] * v + b[2] * u, a[3] * v + b[3] * u))
        return self._chain(self.val * other, other)

    __rmul__ = __mul__

    def _require(self, ok, primitive):
        if not ok:
            raise DomainError(primitive, float(self.val))

    def _chain(self, f, f1, f2=None):
        """First-order chain rule; the second derivative is not carried."""
        a, b, c, e = self.d
        return type(self)(f, (f1 * a, f1 * b, f1 * c, f1 * e))


def _emit(fmt, reflected=False):
    """A ``_Sym`` operator that appends ``fmt`` of its operands to the tape."""
    if reflected:
        return lambda a, b: a.tape.emit(fmt, b, a)
    return lambda a, *b: a.tape.emit(fmt, a, *b)


class _Sym:
    """A float of one traced evaluation: a name in the code
    :func:`straight_line` emits.

    Each arithmetic operation, comparison, math or numpy call with a
    ``_Sym`` operand appends one line to the tape and returns the ``_Sym``
    of its result, but +, - and * with Dual4's structural zero on the
    right, which give the ``_Sym`` or the zero and record nothing.  An
    operation on constants alone never reaches it: Python runs it at trace
    time, on the same objects, so it is folded exactly.  A ``_Sym`` has no
    truth value, so a branch on a traced value fails the trace instead of
    fixing one side of the branch.
    """

    __slots__ = ("tape", "name")

    def __init__(self, tape, name):
        self.tape, self.name = tape, name

    def __bool__(self):
        raise TypeError("a traced value has no truth value")

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        """A numpy ufunc on traced floats (``np.sqrt(x)``, or ``np.float64 *
        x``), recorded as the same ufunc call."""
        if method != "__call__" or kwargs or ufunc.nout != 1:
            return NotImplemented
        return self.tape.emit("{}(" + ", ".join(["{}"] * len(inputs)) + ")", ufunc, *inputs)

    # a structural zero on the right folds here, with no line; on the left,
    # _Zero's own methods run first
    def __add__(self, other):
        return self if other is _ZERO else self.tape.emit("{} + {}", self, other)

    def __sub__(self, other):
        return self if other is _ZERO else self.tape.emit("{} - {}", self, other)

    def __mul__(self, other):
        return _ZERO if other is _ZERO else self.tape.emit("{} * {}", self, other)

    __radd__ = _emit("{} + {}", reflected=True)
    __rsub__ = _emit("{} - {}", reflected=True)
    __rmul__ = _emit("{} * {}", reflected=True)
    __truediv__, __rtruediv__ = _emit("{} / {}"), _emit("{} / {}", reflected=True)
    __pow__ = _emit("{} ** {}")
    __neg__ = _emit("-{}")
    __gt__ = _emit("{} > {}")
    __ne__ = _emit("{} != {}")


class _Tape:
    """The lines of one traced evaluation, in execution order, and the
    namespace they run in.  A constant operand is bound by object under a
    name of its own, so it keeps its type (float, np.float64, int) and its
    sign."""

    def __init__(self):
        self.lines = []
        self.env = {"DomainError": DomainError}
        self._bound = {}  # id of a bound constant -> its name; env keeps it alive

    def ref(self, x):
        if isinstance(x, _Sym):
            return x.name
        name = self._bound.get(id(x))
        if name is None:
            name = self._bound[id(x)] = f"c{len(self._bound)}"
            self.env[name] = x
        return name

    def emit(self, fmt, *args):
        """Append ``t<k> = fmt(args)`` and return the ``_Sym`` of ``t<k>``."""
        out = _Sym(self, f"t{len(self.lines)}")
        self.lines.append(f"{out.name} = " + fmt.format(*map(self.ref, args)))
        return out

    def call(self, fn, args, n_out):
        """Append ``t<k>_0, ..., = fn(args)`` and return the ``_Sym`` of each of
        its ``n_out`` results."""
        outs = [_Sym(self, f"t{len(self.lines)}_{i}") for i in range(n_out)]
        self.lines.append(", ".join(o.name for o in outs)
                          + f", = {self.ref(fn)}({', '.join(map(self.ref, args))})")
        return outs

    def guard(self, ok, primitive, value):
        """Append the check that raises Dual4's ``DomainError`` unless ``ok``."""
        self.lines.append(f"if not {ok.name}: raise DomainError("
                          f"{self.ref(primitive)}, float({self.ref(value)}))")


def _traced_call(fn):
    return lambda x: x.tape.emit("{}({})", fn, x) if isinstance(x, _Sym) else fn(x)


class _TraceDual(Dual4):
    """A :class:`Dual4` over traced floats: Dual4's own rules, recorded.

    Its math namespace records each call, and a domain check on a traced
    value becomes a guard that raises Dual4's ``DomainError``.
    """

    __slots__ = ()
    _m = SimpleNamespace(**{k: _traced_call(f) for k, f in vars(_FLOAT_MATH).items()})

    def _require(self, ok, primitive):
        ok.tape.guard(ok, primitive, self.val)


def straight_line(fn, nargs):
    """``fn`` of ``nargs`` floats, compiled to straight-line code.

    ``fn`` runs once, on traced floats, and returns a sequence of floats.
    The result is a function of ``nargs`` floats that replays, in order and
    on the same constant objects, every float operation, math or numpy call
    and :func:`one_call` of that run, and returns the sequence as a tuple.
    So it returns ``fn``'s floats bit for bit, of the same types, and raises
    where ``fn`` raises, with the same exception.  An operation on constants
    alone runs once, at trace time; a branch on a traced value fails the
    trace with ``TypeError``.
    """
    tape = _Tape()
    args = [_Sym(tape, f"a{i}") for i in range(nargs)]
    ret = ", ".join(map(tape.ref, fn(*args)))
    body = "\n    ".join([*tape.lines, f"return {ret},"])
    exec(f"def traced({', '.join(a.name for a in args)}):\n    {body}\n", tape.env)
    return tape.env["traced"]


def one_call(fn, n_out):
    """``fn``, which returns ``n_out`` floats, kept as one call in a trace.

    On a traced argument it records the call and returns a traced value per
    result; on plain numbers it calls ``fn``.  ``fn`` may itself be an
    argument of the traced function.
    """
    def call(*args):
        for a in args:
            if isinstance(a, _Sym):
                return a.tape.call(fn, args, n_out)
        return fn(*args)

    return call


def trace(fn):
    """``fn``'s value and gradient at one scalar point, as straight-line code.

    ``fn`` takes four numbers, as an :class:`Observable`'s does, and returns
    a :class:`Dual4` of them.  It runs once, through Dual4's rules, under
    :func:`straight_line`; the result is a function of four floats that
    returns ``(value, d/dxi, d/deta, d/dp_xi, d/dp_eta)``, each the float
    that ``fn`` on :meth:`Dual4.seed` arguments gives, bit for bit, signed
    zeros included, and raises where the Dual4 evaluation raises, with the
    same exception.  The seeds' structural zeros fold as the trace is
    recorded, so it keeps no arithmetic on a derivative that is zero by
    construction.
    """
    def dual(*args):
        out = fn(*[_TraceDual(a, Dual4.seed(0.0, var).d) for var, a in enumerate(args)])
        return (out.val, *out.d)

    return straight_line(dual, 4)


# Generic math entry points so the same formula code runs on Jet2, Dual4
# or plain floats/ndarrays.

def sqrt(x):
    return x.sqrt() if isinstance(x, _Jet) else np.sqrt(x)


def exp(x):
    return x.exp() if isinstance(x, _Jet) else np.exp(x)


def log(x):
    return x.log() if isinstance(x, _Jet) else np.log(x)


def tan(x):
    return x.tan() if isinstance(x, _Jet) else np.tan(x)


def arctan(x):
    return x.arctan() if isinstance(x, _Jet) else np.arctan(x)


def seed_phase(point: PhasePoint, order=2):
    """The jets of the four phase variables at ``point``, for evaluation.

    xi and eta are :class:`CoordJet` seeds, so that everything computed
    from the coordinates alone stays in two variables; p_xi and p_eta are
    four-variable :class:`Jet2` seeds.  At ``order`` 1 they carry no
    Hessian, for callers that read values and gradients only.
    """
    xi, eta, p_xi, p_eta = point.components()  # read-only, of one shape
    return (CoordJet.seed(xi, 0, order), CoordJet.seed(eta, 1, order),
            Jet2.seed(p_xi, 2, order), Jet2.seed(p_eta, 3, order))


@dataclass(frozen=True)
class Observable:
    """A pure, deterministic map from a phase point to a scalar.

    ``fn`` operates on four generic numbers (Jet2, Dual4 or plain arrays)
    so a single definition serves jet evaluation, fast first-order
    evaluation and raw value evaluation.
    """

    fn: Callable
    label: str = ""

    def eval(self, point: PhasePoint, order=2) -> Jet2:
        """Evaluate with four-variable jets: value, gradient and, at ``order``
        2, the Hessian."""
        out = self.fn(*seed_phase(point, order))
        if not isinstance(out, Jet2):
            return Jet2.constant(out, point.shape, order)
        return out.lift()

    __call__ = eval  # kept for bench/tracing.py, which wraps it

    def value(self, point: PhasePoint):
        """Plain value, no derivatives."""
        out = self.fn(*point.components())
        return np.asarray(out, dtype=float)

    # kept for bench/layers.py (jets.dual_us); the flow traces Dual4's rules instead
    def dual(self, point: PhasePoint):
        """Value and gradient at a single (scalar) point via Dual4 numbers."""
        args = [Dual4.seed(float(c), i) for i, c in enumerate(point.components())]
        out = self.fn(*args)
        if isinstance(out, Dual4):
            return out.val, np.array(out.d)
        return float(out), np.zeros(4)


_H_HESS = 1e-4  # step of the finite-difference Hessian stencils


# kept for bracket_fd, which bench/workloads.py calls, and for the tests
def fd_derivatives(obs: Observable, point: PhasePoint, h: float = 1e-5):
    """Finite-difference gradient and packed Hessian of ``obs`` at ``point``.

    Central second-order stencils: gradient error O(h^2), Hessian error
    O(_H_HESS^2).  This is the oracle against which jet propagation is
    certified; it shares no code with the jet rules.
    """

    def f(p):
        return obs.value(p)

    grad = np.empty((4,) + point.shape)
    for i in range(4):
        grad[i] = (f(point.shifted(i, +h)) - f(point.shifted(i, -h))) / (2.0 * h)

    hess = np.empty((10,) + point.shape)
    f0 = f(point)
    for p, (i, j) in enumerate(zip(Jet2._IU, Jet2._JU)):
        if i == j:
            hess[p] = (
                f(point.shifted(i, +_H_HESS)) - 2.0 * f0 + f(point.shifted(i, -_H_HESS))
            ) / _H_HESS**2
        else:
            pp = f(point.shifted(i, +_H_HESS).shifted(j, +_H_HESS))
            pm = f(point.shifted(i, +_H_HESS).shifted(j, -_H_HESS))
            mp = f(point.shifted(i, -_H_HESS).shifted(j, +_H_HESS))
            mm = f(point.shifted(i, -_H_HESS).shifted(j, -_H_HESS))
            hess[p] = (pp - pm - mp + mm) / (4.0 * _H_HESS**2)
    return grad, hess


def _norm(num, *scales):
    """|num| / (1 + max(scales)): the normalized residual of every check,
    ``num`` the residual and ``scales`` the magnitudes it is measured against."""
    s = scales[0]
    for extra in scales[1:]:
        s = np.maximum(s, extra)
    return np.abs(num) / (1.0 + s)


def norm_residual(lhs, rhs):
    """Magnitude-normalized comparison |lhs-rhs| / (1 + max(|lhs|, |rhs|))."""
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    return _norm(lhs - rhs, np.abs(lhs), np.abs(rhs))
