"""Jet arithmetic against definitions and the finite-difference oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from superint.errors import DomainError
from superint.jets import (CoordJet, Dual4, Jet2, Observable, PhasePoint, arctan,
                           exp, fd_derivatives, log, norm_residual, one_call, seed_phase,
                           sqrt, straight_line, tan, trace)
from superint.poisson import bracket_jets
from superint.systems import CLASS_TAGS, SystemSpec, integrals, sample_points


def _lifted_seeds(point):
    """The four phase-variable jets at ``point``, all in the four-variable layout."""
    return tuple(j.lift() for j in seed_phase(point))


def test_seed_xi():
    xi, _, _, _ = _lifted_seeds(PhasePoint(1.0, 2.0, 3.0, 4.0))
    assert xi.val == 1.0
    assert np.array_equal(xi.grad, [1.0, 0.0, 0.0, 0.0])
    assert not xi.hess.any()


def test_seed_p_eta():
    _, _, _, peta = _lifted_seeds(PhasePoint(0.0, 0.0, 0.0, 7.0))
    assert peta.val == 7.0
    assert np.array_equal(peta.grad, [0.0, 0.0, 0.0, 1.0])
    assert not peta.hess.any()


def test_seed_sum_linearity():
    xi, eta, pxi, peta = _lifted_seeds(PhasePoint(1.0, 2.0, 3.0, 4.0))
    s = xi + eta + pxi + peta
    assert s.val == 10.0
    assert np.array_equal(s.grad, np.ones(4))
    assert not s.hess.any()


def test_mul_bilinear():
    xi, eta, pxi, peta = _lifted_seeds(PhasePoint(2.0, 0.0, 3.0, 0.0))
    m = xi * pxi
    assert m.val == 6.0
    assert np.array_equal(m.grad, [3.0, 0.0, 2.0, 0.0])
    assert m.hess_at(0, 2) == 1.0
    # every other second derivative vanishes
    total = np.abs(m.hess).sum()
    assert total == abs(m.hess_at(0, 2))


def test_exp_of_zero():
    z = Jet2.constant(0.0)
    e = z.exp()
    assert e.val == 1.0
    assert not e.grad.any() and not e.hess.any()


def test_sqrt_branch_violation():
    xi = Jet2.seed(-1.0, 0)
    with pytest.raises(DomainError) as err:
        xi.sqrt()
    assert err.value.primitive == "sqrt"
    assert err.value.value == -1.0


def test_div_by_zero_jet():
    xi = Jet2.seed(0.0, 0)
    with pytest.raises(DomainError):
        Jet2.constant(1.0) / xi


def test_hessian_symmetric_single_storage():
    xi, eta, pxi, peta = _lifted_seeds(PhasePoint(1.1, 0.7, -0.4, 0.9))
    j = (xi * eta) * pxi.arctan() + (peta * xi).exp()
    for i in range(4):
        for k in range(4):
            assert j.hess_at(i, k) is j.hess_at(k, i) or j.hess_at(i, k) == j.hess_at(k, i)


def test_mul_inv_identity():
    rng = np.random.default_rng(0)
    vals = rng.uniform(-3.0, 3.0, size=1000)
    vals = vals[np.abs(vals) > 1e-3]
    xi = Jet2.seed(vals, 0)
    a = xi * 0.5 + xi * xi * 0.1 + 2.0
    prod = a * a.inv()
    assert np.abs(prod.val - 1.0).max() <= 1e-12 * np.abs(prod.val).max() + 1e-12
    assert np.abs(prod.grad).max() <= 1e-12


@given(x=st.floats(0.2, 2.5), y=st.floats(0.2, 2.5))
@settings(max_examples=200, deadline=None)
def test_add_sub_roundtrip(x, y):
    a = Jet2.seed(x, 0).exp() + 0.5
    b = Jet2.seed(y, 1).sqrt() * 2.0
    back = (a + b) - b
    assert np.allclose(back.val, a.val, rtol=1e-12, atol=1e-12)
    assert np.allclose(back.grad, a.grad, rtol=1e-12, atol=1e-12)


@given(x=st.floats(0.3, 2.0))
@settings(max_examples=200, deadline=None)
def test_log_exp_inverse(x):
    j = Jet2.seed(x, 2)
    round_trip = j.exp().log()
    assert np.allclose(round_trip.val, j.val, rtol=1e-12)
    assert np.allclose(round_trip.grad, j.grad, rtol=1e-10, atol=1e-12)
    assert np.allclose(round_trip.hess, j.hess, atol=1e-10)


def test_fd_xi_eta_product():
    obs = Observable(lambda xi, eta, pxi, peta: xi * eta, "xi*eta")
    grad, hess = fd_derivatives(obs, PhasePoint(1.0, 1.0, 0.0, 0.0), h=1e-5)
    assert np.abs(grad - [1.0, 1.0, 0.0, 0.0]).max() <= 1e-6
    j = obs.eval(PhasePoint(1.0, 1.0, 0.0, 0.0))
    assert abs(hess[1] - 1.0) <= 1e-6  # packed (0,1) mixed entry
    assert abs(j.hess_at(0, 1) - 1.0) == 0.0


def test_fd_constant():
    obs = Observable(lambda xi, eta, pxi, peta: 5.0 + 0.0 * xi, "const")
    grad, hess = fd_derivatives(obs, PhasePoint(0.3, 0.4, 0.5, 0.6))
    assert np.abs(grad).max() <= 1e-9
    assert np.abs(hess).max() <= 1e-9


def test_fd_matches_jet_for_class_hamiltonian():
    from superint.systems import SystemSpec, hamiltonian

    spec = SystemSpec("I1", mu=1.0, nu=2.0)
    H = hamiltonian(spec)
    pt = PhasePoint(1.0, 0.3, 0.5, -0.2)
    grad_fd, hess_fd = fd_derivatives(H, pt)
    j = H.eval(pt)
    assert norm_residual(j.grad, grad_fd).max() <= 1e-6
    assert norm_residual(j.hess, hess_fd).max() <= 1e-4


def _random_observable(rng):
    """A random composition of primitives, kept inside every domain by
    remapping each intermediate into (1.03, 1.97) via arctan."""
    unaries = ["sqrt", "ln", "exp_small", "inv", "rsqrt", "inv_sq", "tan_small",
               "arctan", "sq", "cube", "inv_cube"]
    binaries = ["add", "sub", "mul", "div"]
    steps = []
    for _ in range(rng.integers(2, 7)):
        if rng.random() < 0.6:
            steps.append(("u", unaries[rng.integers(len(unaries))]))
        else:
            steps.append(("b", binaries[rng.integers(len(binaries))],
                          int(rng.integers(4)), float(rng.uniform(0.2, 1.0))))

    def apply_unary(name, v):
        if name == "sqrt":
            return sqrt(v)
        if name == "ln":
            return log(v)
        if name == "exp_small":
            return exp(v * 0.3)
        if name == "inv":
            return v**-1
        if name == "rsqrt":
            return sqrt(v) ** -1
        if name == "inv_sq":
            return v**-2
        if name == "tan_small":
            return tan(v * 0.5)
        if name == "arctan":
            return arctan(v)
        if name == "sq":
            return v**2
        if name == "cube":
            return v**3
        return v**-3

    def fn(xi, eta, pxi, peta):
        leaves = [xi, eta, pxi, peta]
        v = 1.5 + 0.3 * arctan(0.7 * leaves[0] + 0.4 * leaves[2])
        for step in steps:
            if step[0] == "u":
                v = apply_unary(step[1], v)
            else:
                _, op, leaf, c = step
                w = 1.5 + 0.3 * arctan(c * leaves[leaf])
                if op == "add":
                    v = v + w
                elif op == "sub":
                    v = v - w
                elif op == "mul":
                    v = v * w
                else:
                    v = v / w
            v = 1.5 + 0.3 * arctan(v)
        return v

    return Observable(fn, "random-composition")


@pytest.mark.parametrize("block", range(4))
def test_jet_vs_fd_random_compositions(block):
    rng = np.random.default_rng(1234 + block)
    for _ in range(250):
        obs = _random_observable(rng)
        pt = PhasePoint(*rng.uniform(0.4, 1.6, size=4))
        j = obs.eval(pt)
        grad_fd, hess_fd = fd_derivatives(obs, pt)
        assert norm_residual(j.grad, grad_fd).max() <= 1e-6
        assert norm_residual(j.hess, hess_fd).max() <= 1e-4


_BASE = lambda xi, eta, pxi, peta: 0.7 * xi + 0.4 * eta * pxi - 0.3 * peta**2 + 0.2
_POS = lambda *args: 1.5 + 0.3 * arctan(_BASE(*args))      # range (1.03, 1.97)
_BAND = lambda *args: 0.55 * arctan(_BASE(*args))           # range (-0.87, 0.87)

_PRIMITIVES = {
    "add": lambda *a: _BASE(*a) + _POS(*a),
    "sub": lambda *a: _BASE(*a) - _POS(*a),
    "mul": lambda *a: _BASE(*a) * _POS(*a),
    "div": lambda *a: _BASE(*a) / _POS(*a),
    "neg": lambda *a: -_BASE(*a),
    "inv": lambda *a: (_BASE(*a) * 0.0 + 1.0) / _POS(*a),
    "sqrt": lambda *a: sqrt(_POS(*a)),
    "exp": lambda *a: exp(_BAND(*a)),
    "ln": lambda *a: log(_POS(*a)),
    "pow_int": lambda *a: _BASE(*a) ** 3,
    "pow_negative": lambda *a: _POS(*a) ** -3,
    "tan": lambda *a: tan(_BAND(*a)),
    "arctan": lambda *a: arctan(_BASE(*a)),
}


@pytest.mark.parametrize("name", sorted(_PRIMITIVES))
def test_every_primitive_vs_oracle(name):
    # 1000 random jets with generic gradients/Hessians, inside the
    # primitive's domain, against the finite-difference oracle
    rng = np.random.default_rng(hash(name) % 2**32)
    pt = PhasePoint(*rng.uniform(0.3, 1.7, size=(4, 1000)))
    obs = Observable(_PRIMITIVES[name], name)
    j = obs.eval(pt)
    grad_fd, hess_fd = fd_derivatives(obs, pt)
    assert norm_residual(j.grad, grad_fd).max() <= 1e-6
    assert norm_residual(j.hess, hess_fd).max() <= 1e-4


_PLAIN_OPERANDS = [("add", lambda x, e, p, q: 0.7 + x * p + 0.2),
                   ("sub", lambda x, e, p, q: x * p - 0.7),
                   ("neg", lambda x, e, p, q: -(e * p)),
                   ("mul", lambda x, e, p, q: 3.0 * (x * q) * 0.5)]


def test_dual4_matches_jet_gradient():
    rng = np.random.default_rng(5)
    for _ in range(50):
        obs = _random_observable(rng)
        pt = PhasePoint(*rng.uniform(0.4, 1.6, size=4))
        val, grad = obs.dual(pt)
        j = obs.eval(pt)
        assert abs(val - float(j.val)) <= 1e-12 * (1 + abs(val))
        assert norm_residual(grad, j.grad).max() <= 1e-12
    # the storage arithmetic with a plain number, which no composition reaches
    pt = PhasePoint(0.9, 1.3, 0.6, -0.4)
    for name, fn in _PLAIN_OPERANDS:
        obs = Observable(fn, name)
        val, grad = obs.dual(pt)
        j = obs.eval(pt)
        assert abs(val - float(j.val)) <= 1e-12 * (1 + abs(val)), name
        assert norm_residual(grad, j.grad).max() <= 1e-12, name


def _outcome(fn, *args):
    """``fn``'s result as (type, hex) per float, or the exception it raises."""
    try:
        return [(type(v), float.hex(v)) for v in fn(*args)]
    except Exception as exc:
        return type(exc), str(exc)


def _dual_eval(fn, y):
    out = fn(*[Dual4.seed(v, i) for i, v in enumerate(y)])
    return (out.val, *out.d)


_C, _Z = np.float64(0.3), np.float64(-0.0)


def _numpy_constants(x, e, p, q):
    # np.float64 operands on either side, a signed zero and an overflow
    return (_C * x + e * _Z) * p / (x * 2 + _C) - q ** 2 + sqrt(e) * np.float64(1e300) * 1e10


def _zero_operands(x, e, p, q):
    # 0 * inf is NaN and 0 * -y is -0: a 0.0 operand is never folded away
    return 0.0 * x + x * 0.0 + (x - x) * q + 1.0 * p


def test_trace_replays_the_dual4_evaluation():
    rng = np.random.default_rng(6)
    fns = ([_random_observable(rng).fn for _ in range(60)]
           + [fn for _, fn in _PLAIN_OPERANDS] + [_numpy_constants, _zero_operands])
    points = [tuple(rng.uniform(-2.0, 2.0, size=4).tolist()) for _ in range(6)] + [
        (0.9, 1.3, 0.6, -0.4), (-0.0, 0.0, np.inf, 1e308), (np.nan, 1.0, 0.0, -0.0),
        (np.inf, 0.5, -0.0, 2.0)]
    raised = set()
    with np.errstate(all="ignore"):
        for fn in fns:
            traced = trace(fn)
            for y in points:
                want = _outcome(_dual_eval, fn, y)
                assert _outcome(traced, *y) == want, (fn, y)
                if isinstance(want, tuple):
                    raised.add(want[0])
    assert DomainError in raised


_NUMPY_STEPS = [lambda v: np.sqrt(v), lambda v: np.exp(v), lambda v: np.log(v),
                lambda v: np.tan(v), lambda v: np.arctan(v), lambda v: 1.0 / v,
                lambda v: v ** -2, lambda v: np.float64(0.5) * v - 0.0]


@given(steps=st.lists(st.integers(0, len(_NUMPY_STEPS) - 1), min_size=1, max_size=6),
       x=st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, -0.0, np.nan, np.inf, 1e300])),
       e=st.floats(-3.0, 3.0))
@settings(max_examples=200, deadline=None)
def test_straight_line_replays_numpy_calls(steps, x, e):
    # numpy calls on Python floats stay numpy calls: the same floats of the
    # same types, and Python's ZeroDivisionError where a float divides by 0
    def fn(x, e):
        v = x + e
        for i in steps:
            v = _NUMPY_STEPS[i](v)
        return v, one_call(lambda a, b: (a * b, a - b), 2)(v, e)[1]

    with np.errstate(all="ignore"):
        assert _outcome(straight_line(fn, 2), x, e) == _outcome(fn, x, e)


def test_trace_refuses_a_branch_on_a_traced_value():
    with pytest.raises(TypeError, match="no truth value"):
        trace(lambda x, e, p, q: x if x.val > 0.0 else e)


_COORD_OPS = {
    "sqrt": lambda v, w: sqrt(v),
    "ln": lambda v, w: log(v),
    "exp": lambda v, w: exp(0.3 * v),
    "inv": lambda v, w: v.inv(),
    "tan": lambda v, w: tan(0.5 * v),
    "arctan": lambda v, w: arctan(v),
    "pow_int": lambda v, w: v**3,
    "pow_negative": lambda v, w: v**-3,
    "neg": lambda v, w: -v,
    "add_plain": lambda v, w: -v + 2.0,
    "add": lambda v, w: v + w,
    "sub": lambda v, w: v - w,
    "mul": lambda v, w: v * w,
    "div": lambda v, w: v / w,
}


def _coord_composition(steps, xi, eta):
    """A composition of the primitives on (xi, eta); every intermediate is
    remapped into (1.03, 1.97) so that it stays inside each domain."""
    v = 1.5 + 0.3 * arctan(0.7 * xi - 0.4 * eta)
    for name, leaf, c in steps:
        w = 1.5 + 0.3 * arctan(c * (xi, eta)[leaf])
        v = 1.5 + 0.3 * arctan(_COORD_OPS[name](v, w))
    return v


def _assert_same_jet(got, ref):
    assert type(got) is type(ref) is Jet2
    for part in ("val", "grad", "hess"):
        assert np.array_equal(getattr(got, part), getattr(ref, part)), part


@given(steps=st.lists(st.tuples(st.sampled_from(sorted(_COORD_OPS)),
                                st.integers(0, 1), st.floats(0.2, 1.0)),
                      min_size=1, max_size=8),
       xi=st.floats(0.3, 1.7), eta=st.floats(0.3, 1.7),
       p=st.floats(-2.0, 2.0), q=st.floats(-2.0, 2.0))
@settings(max_examples=200, deadline=None)
def test_coordinate_jets_lift_to_the_four_variable_jets(steps, xi, eta, p, q):
    # the two-variable layout runs the same rules on the same non-zero
    # entries, so lifting it gives the four-variable jet bit for bit
    pt = PhasePoint(np.array([xi, eta, 1.0]), np.array([eta, 1.0, xi]), p, q)
    two = _coord_composition(steps, *seed_phase(pt)[:2])
    assert type(two) is CoordJet
    _assert_same_jet(two.lift(), _coord_composition(steps, *_lifted_seeds(pt)[:2]))

    def mixed(xi, eta, p_xi, p_eta):
        v = _coord_composition(steps, xi, eta)
        return (p_xi * p_eta + v) / v - p_xi**2 * v + 3.0 * p_eta * (v - 1.0)

    _assert_same_jet(mixed(*seed_phase(pt)), mixed(*_lifted_seeds(pt)))


def test_phase_point_rejects_non_finite():
    with pytest.raises(DomainError):
        PhasePoint(np.nan, 0.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        PhasePoint(0.0, np.inf, 0.0, 0.0)


def test_pow_int_negative_base():
    j = Jet2.seed(-1.5, 0)
    sq = j ** 2
    assert sq.val == 2.25
    assert sq.grad[0] == -3.0
    assert sq.hess_at(0, 0) == 2.0


@pytest.mark.parametrize("cls", [Jet2, CoordJet, Dual4])
def test_an_unsupported_operand_is_a_type_error(cls):
    # no caller takes a real power, x**0 or x**1, subtracts a jet from a plain
    # number or divides by one, so those rules are not there
    x = cls.seed(1.5, 0)
    for apply in (lambda: x**1.5, lambda: x**2.0, lambda: x**0, lambda: x**1,
                  lambda: 2.0 - x, lambda: 2.0 / x, lambda: x / 2.0):
        with pytest.raises(TypeError):
            apply()


@pytest.mark.parametrize("primitive, value, apply", [
    ("inv", 0.0, lambda x: x.inv()),
    ("sqrt", -1.0, lambda x: x.sqrt()),
    ("sqrt", np.nan, lambda x: x.sqrt()),
    ("ln", -1.0, lambda x: x.log()),
    ("ln", np.nan, lambda x: x.log()),
], ids=["inv-zero", "sqrt-negative", "sqrt-nan", "ln-negative", "ln-nan"])
def test_jet2_and_dual4_raise_the_same_domain_error(primitive, value, apply):
    raised = []
    for cls in (Jet2, Dual4):
        with pytest.raises(DomainError) as err:
            apply(cls.seed(value, 0))
        raised.append((err.value.primitive, repr(err.value.value)))
    assert raised[0] == raised[1] == (primitive, repr(float(value)))


@given(steps=st.lists(st.tuples(st.sampled_from(sorted(_COORD_OPS)),
                                st.integers(0, 1), st.floats(0.2, 1.0)),
                      min_size=1, max_size=8),
       xi=st.floats(0.3, 1.7), eta=st.floats(0.3, 1.7),
       p=st.floats(-2.0, 2.0), q=st.floats(-2.0, 2.0))
@settings(max_examples=200, deadline=None)
def test_order_one_jets_equal_the_order_two_values_and_gradients(steps, xi, eta, p, q):
    # val and grad never read the Hessian, so leaving it out moves no bit;
    # the operands mix CoordJet and Jet2, order 1 and 2 and plain numbers
    pt = PhasePoint(np.array([xi, eta, 1.0]), np.array([eta, 1.0, xi]), p, q)

    def mixed(xi, eta, p_xi, p_eta):
        v = _coord_composition(steps, xi, eta)
        return ((p_xi * p_eta + v) / v - p_xi**2 * v + 3.0 * p_eta * (v - 1.0)
                - 2.0 * (p_xi * 0.25) * sqrt(v) + (-v) * v**-2)

    for seeds in (seed_phase(pt), _lifted_seeds(pt)):
        ref = mixed(*seeds)
        for one in (seed_phase(pt, 1), _lifted_seeds(pt)[:2] + seed_phase(pt, 1)[2:]):
            got = mixed(*one)
            assert type(got) is Jet2 and got.order == 1 and ref.order == 2
            assert np.array_equal(got.val, ref.val)
            assert np.array_equal(got.grad, ref.grad)
    two = _coord_composition(steps, *seed_phase(pt)[:2])
    one = _coord_composition(steps, *seed_phase(pt, 1)[:2])
    assert type(one) is CoordJet and one.order == 1
    for got, ref in ((one, two), (one.lift(), two.lift())):
        assert np.array_equal(got.val, ref.val) and np.array_equal(got.grad, ref.grad)


def test_an_order_one_jet_has_no_hessian_to_read():
    for jet in (Jet2.seed(1.5, 2, order=1), CoordJet.seed(np.ones(3), 0, order=1),
                CoordJet.seed(0.7, 1, order=1).lift(),
                Jet2.constant(2.0, (4,), order=1), Jet2.seed(1.5, 0, order=1).exp()):
        assert jet.order == 1
        for read in (lambda j: j.hess, lambda j: j.hess_at(0, 1), lambda j: j.hess_full()):
            with pytest.raises(AttributeError, match="order-1 jet"):
                read(jet)
    assert Observable(lambda xi, eta, p_xi, p_eta: 2.0).eval(
        PhasePoint(1.0, 1.0, 0.0, 0.0), order=1).order == 1


@pytest.mark.parametrize("primitive, value, apply", [
    ("inv", 0.0, lambda x: x * 0.0 / x),
    ("sqrt", -1.0, sqrt),
    ("sqrt", 0.0, sqrt),
    ("ln", -1.0, log),
    ("ln", 0.0, log),
])
def test_order_one_raises_the_domain_error_of_order_two(primitive, value, apply):
    raised = []
    for cls in (Jet2, CoordJet):
        for order in (2, 1):
            with pytest.raises(DomainError) as err:
                apply(cls.seed(np.array([1.0, value]), 0, order=order))
            raised.append((err.value.primitive, repr(err.value.value)))
    assert set(raised) == {(primitive, repr(float(value)))}


def test_an_array_times_a_jet_is_the_jets_rule():
    # an ndarray operand hands the operation to the jet (one factor per
    # point) instead of building an object array
    x = CoordJet.seed(np.array([1.0, 2.0, 3.0]), 0)
    c = np.array([2.0, 0.5, -1.0])
    for out, ref in ((np.ones(3) * x, x * 1.0), (c * x, x * c), (c + x, x + c)):
        assert type(out) is CoordJet
        for part in ("val", "grad", "hess"):
            assert np.array_equal(getattr(out, part), getattr(ref, part))
    assert type(np.ones(3) * Jet2.seed(np.ones(3), 2)) is Jet2
    # the jet has no rule for an array minus or over it: a TypeError, not an
    # object array
    for apply in (lambda: c - x, lambda: c / x):
        with pytest.raises(TypeError):
            apply()


# -- the order-2 rules against the plain expressions they accumulate ---------
# The rules build their results in arrays they have just allocated; every
# IEEE operation keeps its operands, grouping and order, so the results equal
# these expressions bit for bit, signed zeros and NaN signs included.

_SPECIAL = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf])
_ZEROS = np.array([0.0, -0.0])
_SHAPES = [(), (1,), (7,), (2048,)]


def _ref_mul(a, b):
    if a._NV != b._NV:
        a, b = a.lift(), b.lift()
    grad = a.grad * b.val + b.grad * a.val
    if a._hess is None or b._hess is None:
        return a.val * b.val, grad, None
    iu, ju, ag, bg = a._IU, a._JU, a.grad, b.grad
    cross = ag.take(iu, 0) * bg.take(ju, 0) + bg.take(iu, 0) * ag.take(ju, 0)
    return a.val * b.val, grad, a._hess * b.val + b._hess * a.val + cross


def _ref_chain(x, f, f1, f2):
    g = x.grad
    if x._hess is None:
        return f, f1 * g, None
    return f, f1 * g, f1 * x._hess + f2 * (g.take(x._IU, 0) * g.take(x._JU, 0))


_REF_PRIMITIVES = {
    "exp": (lambda x: x.exp(), lambda x, v: _ref_chain(x, np.exp(v), np.exp(v), np.exp(v))),
    "inv": (lambda x: x.inv(),
            lambda x, v: _ref_chain(x, 1.0 / v, -1.0 / v**2, 2.0 / v**3)),
    "pow-2": (lambda x: x**-2,
              lambda x, v: _ref_chain(x, v**-2, -2 * v**-3, -2 * -3 * v**-4)),
    "pow2": (lambda x: x**2, lambda x, v: _ref_chain(x, v**2, 2 * v**1, 2 * 1 * v**0)),
}


@pytest.mark.parametrize("v", [1.5, -2.25, 0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan])
def test_a_dual_squared_keeps_the_bits_of_its_rule(v):
    # Dual4 and the traced dual share the n == 2 rule of the jets
    v, d = float(v), (1.0, -0.0, 3.5, -np.nan)
    got = Dual4(v, d)**2
    ref = [v**2] + [2 * v**1 * x for x in d]
    assert np.array([got.val, *got.d]).tobytes() == np.array(ref).tobytes()
    seeded = Dual4.seed(v, 0)**2
    traced = trace(lambda xi, eta, p, q: xi**2)(v, 0.0, 0.0, 0.0)
    assert np.array(traced).tobytes() == np.array([seeded.val, *seeded.d]).tobytes()


def _ref_bracket(F, G):
    terms = np.stack([F.grad[0] * G.grad[2], F.grad[1] * G.grad[3],
                      -F.grad[2] * G.grad[0], -F.grad[3] * G.grad[1]])
    FH, GH = F.hess_full(), G.hess_full()
    gterms = []
    for q, p in ((0, 2), (1, 3)):
        gterms += [FH[q] * G.grad[p], F.grad[q] * GH[p],
                   -FH[p] * G.grad[q], -F.grad[p] * GH[q]]
    gstack = np.stack(gterms)
    return (terms.sum(axis=0), gstack.sum(axis=0), np.abs(terms).max(axis=0),
            np.abs(gstack).max(axis=0))


def _floats(rng, shape, special):
    """Floats over 16 decades, a share of them drawn from a pool of specials:
    ``special`` is (share, pool)."""
    n = int(np.prod(shape))
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
    share, pool = special
    chosen = rng.random(n) < share
    x[chosen] = rng.choice(pool, chosen.sum())
    return x.reshape(shape)


def _random_jet(rng, cls, shape, order, special, nonzero=False):
    val = _floats(rng, shape, special)
    if nonzero:
        val[val == 0.0] = 1.5
    hess = _floats(rng, (cls._IU.size,) + shape, special) if order == 2 else None
    return cls(val, _floats(rng, (cls._NV,) + shape, special), hess)


def _bits(*parts):
    return [None if p is None else np.asarray(p).tobytes() for p in parts]


def _jet_bits(jet):
    return _bits(jet.val, jet.grad, jet._hess)


_JET_CASES = dict(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from(_SHAPES),
                  # all-zero inputs make the signs of zero sums show
                  special=st.sampled_from([(0.0, _SPECIAL), (0.05, _SPECIAL),
                                           (0.5, _SPECIAL), (1.0, _SPECIAL),
                                           (0.7, _ZEROS), (1.0, _ZEROS)]))


@given(**_JET_CASES, classes=st.sampled_from([(Jet2, Jet2), (CoordJet, CoordJet), (CoordJet, Jet2)]),
       order=st.sampled_from([(2, 2), (1, 2), (2, 1)]))
@settings(max_examples=150, deadline=None)
def test_the_product_rule_keeps_the_bits_of_its_expression(seed, shape, special, classes,
                                                           order):
    rng = np.random.default_rng(seed)
    a, b = (_random_jet(rng, cls, shape, o, special) for cls, o in zip(classes, order))
    with np.errstate(all="ignore"):
        for x, y in ((a, b), (b, a), (a, a)):
            assert _jet_bits(x * y) == _bits(*_ref_mul(x, y))


@given(**_JET_CASES, cls=st.sampled_from([Jet2, CoordJet]), order=st.sampled_from([1, 2]),
       name=st.sampled_from(sorted(_REF_PRIMITIVES)))
@settings(max_examples=150, deadline=None)
def test_the_chain_rule_keeps_the_bits_of_its_expression(seed, shape, special, cls, order,
                                                         name):
    rng = np.random.default_rng(seed)
    x = _random_jet(rng, cls, shape, order, special, nonzero=name == "inv")
    rule, ref = _REF_PRIMITIVES[name]
    with np.errstate(all="ignore"):
        assert _jet_bits(rule(x)) == _bits(*ref(x, x.val))


@given(**_JET_CASES)
@settings(max_examples=100, deadline=None)
def test_the_bracket_keeps_the_bits_of_its_stacked_sums(seed, shape, special):
    rng = np.random.default_rng(seed)
    F, G = (_random_jet(rng, Jet2, shape, 2, special) for _ in range(2))
    with np.errstate(all="ignore"):
        for x, y in ((F, G), (G, F), (F, F)):
            out = bracket_jets(x, y)
            assert _bits(out.val, out.grad, out.val_scale, out.grad_scale) == _bits(
                *_ref_bracket(x, y))


def test_an_all_negative_zero_bracket_gradient_is_positive_zero():
    # numpy's axis-0 sum starts from +0.0, and so does the streamed sum
    F = Jet2(1.0, [-0.0, -0.0, 1.0, 1.0], np.zeros(10))
    G = Jet2(1.0, [0.0, 0.0, -1.0, -1.0], np.zeros(10))
    grad = bracket_jets(F, G).grad
    assert np.all(grad == 0.0) and not np.any(np.signbit(grad))


@pytest.mark.parametrize("shape", [(), (5,)])
def test_the_rules_leave_their_operands_unchanged(shape):
    # jets share arrays (a scalar sum keeps grad and hess, first_order() keeps
    # val and grad), so a rule that accumulates in place must write only into
    # arrays it has just made
    rng = np.random.default_rng(7)
    x = _random_jet(rng, Jet2, shape, 2, (0.0, _SPECIAL), nonzero=True)
    c = _random_jet(rng, CoordJet, shape, 2, (0.0, _SPECIAL), nonzero=True)
    operands = [x, x + 1.0, x.first_order(), c, c + 1.0, c.first_order()]
    before = [_jet_bits(j) for j in operands]
    with np.errstate(all="ignore"):
        for j in operands:
            j.exp(), j.inv(), j**-2, j**2
            for k in operands:
                j * k
        for F in operands[:2]:
            for G in operands[:2]:
                bracket_jets(F, G)
    assert [_jet_bits(j) for j in operands] == before


@given(**_JET_CASES, orders=st.sampled_from([(1, 1), (1, 2), (2, 1)]))
@settings(max_examples=100, deadline=None)
def test_a_mixed_layout_with_an_order_one_operand_is_the_four_variable_one(seed, shape,
                                                                           special, orders):
    # the coordinate jet is lifted only to the other operand's order, since the
    # result of an order-1 operand reads no lifted Hessian
    rng = np.random.default_rng(seed)
    c = _random_jet(rng, CoordJet, shape, orders[0], special)
    j = _random_jet(rng, Jet2, shape, orders[1], special)
    full = c.lift()
    with np.errstate(all="ignore"):
        for got, ref in ((c + j, full + j), (j + c, j + full), (c - j, full - j),
                         (j - c, j - full), (c * j, full * j), (j * c, j * full)):
            assert got.order == 1 and _jet_bits(got) == _jet_bits(ref)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("tag", CLASS_TAGS)
def test_a_point_with_scalar_momenta_is_the_point_of_full_arrays(tag, order):
    spec = SystemSpec(tag, kappa=1.0, lam=0.5, mu=-0.3, nu=2.0, k=0.4, ell=-0.1,
                      m=0.2, n=1.0)
    pts = sample_points(spec, 7, np.random.default_rng(11))
    xi = pts.xi.copy()
    mixed = PhasePoint(xi, pts.eta, 0.3, -0.7)
    full = PhasePoint(xi, pts.eta, np.full(7, 0.3), np.full(7, -0.7))
    assert mixed.shape == full.shape == (7,)
    assert all(c.shape == (7,) for c in mixed.components())
    assert mixed.as_array().tobytes() == full.as_array().tobytes()
    hab = integrals(spec, order)
    for got, ref in zip(hab(mixed), hab(full)):
        assert _jet_bits(got) == _jet_bits(ref)
    # the seeds are read-only views; the array the point was built from is not
    # made read-only
    for point in (mixed, full):
        assert not any(s.val.flags.writeable for s in seed_phase(point, order))
    assert xi.flags.writeable
