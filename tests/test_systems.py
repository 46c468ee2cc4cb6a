"""Closed forms of the six subclasses against hand-computed values."""

import functools
import gc

import numpy as np
import numpy.polynomial.polynomial as P
import pytest
from hypothesis import given, settings, strategies as st

from superint import jets, systems
from superint.errors import DomainError, SamplingError
from superint.jets import CoordJet, Jet2, PhasePoint, seed_phase
from superint.systems import (CLASS_TAGS, MIN_ABS_G, MOMENTUM_RANGE, SampleJets, SystemSpec,
                              _padd, _pmul, _polyval, algebra_constants, build_fns,
                              characteristic_residual, constants_poly,
                              hamiltonian, integral_A, integral_B,
                              sample_domain, sample_points,
                              spec_from_dict, spec_to_dict, structural_pde_residual)

GENERIC = dict(kappa=1.0, lam=0.5, mu=-0.3, nu=2.0, k=0.4, ell=-0.1, m=0.2, n=1.0)


# -- build_fns -----------------------------------------------------------


def test_i1_constant_metric():
    fns = build_fns(SystemSpec("I1", nu=2.0))
    xs = np.linspace(0.2, 2.0, 7)
    for xi in xs:
        for eta in xs:
            assert fns.metric(xi, eta) == 2.0


def test_i2_metric_point_value():
    fns = build_fns(SystemSpec("I2", kappa=1.0))
    # g(1, 0) = F(1) + G(1) = 1 + 0
    assert fns.metric(1.0, 0.0) == 1.0


def test_ii1_product_metric():
    fns = build_fns(SystemSpec("II1", kappa=1.0))
    for xi in (0.5, 1.0, 1.7):
        for eta in (0.6, 1.2):
            assert fns.metric(xi, eta) == xi * eta


# -- Hamiltonian ---------------------------------------------------------


def test_h_free_strip():
    H = hamiltonian(SystemSpec("I1", nu=2.0))
    assert H.value(PhasePoint(1.0, 0.5, 2.0, 3.0)) == 3.0


def test_h_ii1_point_value():
    H = hamiltonian(SystemSpec("II1", kappa=1.0, k=1.0))
    assert H.value(PhasePoint(1.0, 2.0, 1.0, 1.0)) == 1.5


def test_h_i2_unit_metric_line():
    H = hamiltonian(SystemSpec("I2", kappa=1.0))
    for pxi, peta in ((0.3, -1.2), (1.0, 1.0)):
        assert np.isclose(H.value(PhasePoint(1.0, 0.0, pxi, peta)), pxi * peta)


# -- integrals -----------------------------------------------------------


def test_a_free_case():
    A = integral_A(SystemSpec("I1", nu=2.0))
    assert A.value(PhasePoint(1.0, 0.5, 2.0, 3.0)) == 13.0


def test_a_ii1_point_value():
    A = integral_A(SystemSpec("II1", kappa=1.0, k=1.0))
    assert A.value(PhasePoint(1.0, 2.0, 1.0, 1.0)) == -1.0


def _b_ii1_oracle(kappa, lam, mu, nu, k, ell, m, n, xi, eta, pxi, peta):
    """Independent assembly of the II1 second integral from its printed
    quadratic tilde polynomials (no shared code with the package path)."""
    Ft = lambda u: kappa * u**2 / 4 + (lam + mu) * u / 2 + nu / 2
    Gt = lambda v: -kappa * v**2 / 4 + (lam - mu) * v / 2 + nu / 2
    ft = lambda u: k * u**2 / 4 + (ell + m) * u / 2 + n / 2
    gt = lambda v: -k * v**2 / 4 + (ell - m) * v / 2 + n / 2
    u, v = xi + eta, xi - eta
    gm = Ft(u) + Gt(v)
    return (pxi**2 + peta**2 - 2 * pxi * peta * (Ft(u) - Gt(v)) / gm
            + 4 * (ft(u) * Gt(v) - gt(v) * Ft(u)) / gm)


def test_b_ii1_pinned_value():
    B = integral_B(SystemSpec("II1", kappa=1.0, k=1.0))
    got = float(B.value(PhasePoint(1.0, 2.0, 1.0, 1.0)))
    assert got == pytest.approx(-0.5, abs=1e-14)
    oracle = _b_ii1_oracle(1, 0, 0, 0, 1, 0, 0, 0, 1.0, 2.0, 1.0, 1.0)
    assert got == pytest.approx(oracle, abs=1e-14)


def test_b_ii1_oracle_random_points():
    spec = SystemSpec("II1", **GENERIC)
    B = integral_B(spec)
    rng = np.random.default_rng(3)
    pts = sample_points(spec, 50, rng)
    got = B.value(pts)
    want = _b_ii1_oracle(*spec.metric_params, *spec.potential_params,
                         pts.xi, pts.eta, pts.p_xi, pts.p_eta)
    assert np.abs(got - want).max() <= 1e-12 * (1 + np.abs(want).max())


def test_b_i2_no_momentum_free_term():
    B = integral_B(SystemSpec("I2", **dict(GENERIC, k=0.0, ell=0.0, m=0.0, n=0.0)))
    rng = np.random.default_rng(4)
    xi, eta = rng.uniform(0.4, 1.8, 20), rng.uniform(0.4, 1.8, 20)
    vals = B.value(PhasePoint(xi, eta, np.zeros(20), np.zeros(20)))
    assert np.abs(vals).max() <= 1e-12


def _parts(jet):
    """The storage of ``jet`` that an order-2 reference must match bit for bit."""
    return ("val", "grad", "hess")[:jet.order + 1]


@pytest.mark.parametrize("tag", CLASS_TAGS)
def test_shared_pass_equals_separate_integrals(tag):
    spec = SystemSpec(tag, **GENERIC)
    pts = sample_points(spec, 300, np.random.default_rng(21))
    shared = SampleJets.evaluate(spec, pts).hab
    assert [j.order for j in shared] == [1, 2, 2]   # H's Hessian is not built
    for obs, jet in zip((hamiltonian(spec), integral_A(spec), integral_B(spec)), shared):
        ref = obs.eval(pts)
        for part in _parts(jet):
            assert np.array_equal(getattr(jet, part), getattr(ref, part)), (obs.label, part)


@pytest.mark.parametrize("tag", CLASS_TAGS)
def test_shared_pass_gives_h_at_order_one(tag):
    # at a batch and at a single point, whose values are numpy scalars
    spec = SystemSpec(tag, **GENERIC)
    pts = sample_points(spec, 50, np.random.default_rng(25))
    one = PhasePoint(*(float(c[0]) for c in pts.components()))
    for p in (pts, one):
        H = SampleJets.evaluate(spec, p, 2).H
        ref = hamiltonian(spec).eval(p, 2)
        assert type(H) is Jet2 and H.order == 1 and ref.order == 2
        assert H.val.shape == ref.val.shape == p.shape
        assert H.val.tobytes() == ref.val.tobytes()
        assert H.grad.shape == ref.grad.shape and H.grad.tobytes() == ref.grad.tobytes()
        with pytest.raises(AttributeError):
            H.hess


@pytest.mark.parametrize("tag", CLASS_TAGS)
def test_shared_pass_equals_four_variable_jets(tag):
    # the reference runs every closed form on four-variable jets, as the
    # coordinate jets of the shared pass must reproduce bit for bit
    spec = SystemSpec(tag, **GENERIC)
    pts = sample_points(spec, 300, np.random.default_rng(22))
    shared = SampleJets.evaluate(spec, pts).hab
    assert [j.order for j in shared] == [1, 2, 2]
    for obs, jet in zip((hamiltonian(spec), integral_A(spec), integral_B(spec)), shared):
        ref = obs.fn(*(j.lift() for j in seed_phase(pts)))
        assert type(jet) is type(ref) is Jet2
        for part in _parts(jet):
            assert np.array_equal(getattr(jet, part), getattr(ref, part)), (obs.label, part)


_BELOW_THE_GUARD = [
    (SystemSpec("II1", nu=1e-4), PhasePoint(1.0, 1.0, 0.5, 0.5)),  # g = 1e-4 everywhere
    # g = 0, and f = 1/sqrt(eta) raises at eta < 0: the guard must come first
    (SystemSpec("II2", k=1.0), PhasePoint(1.0, -0.5, 0.5, 0.5)),
]


def test_shared_pass_raises_the_metric_error():
    for spec, pt in _BELOW_THE_GUARD:
        for order in (2, 1):
            with pytest.raises(DomainError) as shared:
                SampleJets.evaluate(spec, pt, order)
            with pytest.raises(DomainError) as separate:
                hamiltonian(spec).eval(pt, order)
            assert shared.value.primitive == separate.value.primitive == "metric"
            assert str(shared.value) == str(separate.value)


def test_fresh_jets_read_the_metric_without_the_guard():
    # the catalog judges a claim from fresh jets where its pass raised, so a
    # fresh g is the metric alone; H, like the pass, raises the guard's error
    for spec, pt in _BELOW_THE_GUARD:
        g = SampleJets(spec, pt).g
        assert g.val.tobytes() == build_fns(spec).metric(*seed_phase(pt)[:2]).val.tobytes()
        assert abs(float(g.val)) < MIN_ABS_G
        with pytest.raises(DomainError) as fresh:
            SampleJets(spec, pt).H
        with pytest.raises(DomainError) as evaluated:
            SampleJets.evaluate(spec, pt)
        assert fresh.value.primitive == evaluated.value.primitive == "metric"
        assert str(fresh.value) == str(evaluated.value)


@pytest.mark.parametrize("name", ["seeds", "g", "H"])
def test_reading_one_jet_of_a_part_cuts_nothing_else(name, monkeypatch):
    spec = SystemSpec("I2", **GENERIC)
    pts = sample_points(spec, 12, np.random.default_rng(9))
    own = PhasePoint.from_array(pts.as_array()[:, 3:8])
    part = SampleJets.evaluate(spec, pts).part(3, 8)
    cut, real_cut = [], SampleJets._cut
    monkeypatch.setattr(SampleJets, "_cut",
                        lambda self, jet: cut.append(jet) or real_cut(self, jet))
    got = getattr(part, name)
    assert len(cut) == (4 if name == "seeds" else 1)
    assert [k for k in ("seeds", "g", "H") if k in vars(part)] == [name]
    # the bits of fresh jets of the part's own points
    ref = getattr(SampleJets(spec, own), name)
    for jet, want in zip(got if name == "seeds" else [got], ref if name == "seeds" else [ref]):
        assert jet.order == want.order
        for storage in _parts(jet):
            assert getattr(jet, storage).tobytes() == getattr(want, storage).tobytes()


_PRIMITIVES = ("exp", "tan", "sqrt", "log", "arctan", "__pow__")


def _spied(monkeypatch, names=_PRIMITIVES):
    """The calls of the named rules of every jet and dual, as (name, number,
    args), recorded until ``monkeypatch`` is undone.  The list holds every
    operand, so no id is reused while it lives."""
    calls = []

    def spy(name):
        rule = getattr(jets._Jet, name)

        def wrapped(self, *args):
            calls.append((name, self, args))
            return rule(self, *args)

        return wrapped

    for name in names:
        monkeypatch.setattr(jets._Jet, name, spy(name))
    return calls


def _evaluations(spec, order):
    """The shared pass and the ``eval`` of H, A and B, at ``order``."""
    return [functools.partial(SampleJets.evaluate, spec, order=order)] + [
        functools.partial(obs.eval, order=order)
        for obs in (hamiltonian(spec), integral_A(spec), integral_B(spec))]


@pytest.mark.parametrize("order", [2, 1])
@pytest.mark.parametrize("tag", CLASS_TAGS)
def test_shared_pass_applies_each_primitive_once_per_jet(tag, order, monkeypatch):
    # the same holds for H, A and B evaluated apart
    spec = SystemSpec(tag, **GENERIC)
    pts = sample_points(spec, 64, np.random.default_rng(24))
    evaluations = _evaluations(spec, order)
    calls = _spied(monkeypatch)
    for evaluate in evaluations:
        evaluate(pts)
    monkeypatch.undo()
    keys = [(name, id(jet), args) for name, jet, args in calls]
    assert calls and len(set(keys)) == len(keys)


@pytest.mark.parametrize("order", [2, 1])
@pytest.mark.parametrize("tag", CLASS_TAGS)
def test_hamiltonian_applies_each_primitive_once_per_argument_value(tag, order,
                                                                    monkeypatch):
    # g and w are built from one pair of arguments: F and f share the basis
    # values of one u, G and g those of one v, not of two equal copies
    spec = SystemSpec(tag, **GENERIC)
    pts = sample_points(spec, 64, np.random.default_rng(24))
    H = hamiltonian(spec)
    calls = _spied(monkeypatch)
    H.eval(pts, order)
    monkeypatch.undo()
    keys = [(name, args, jet.val.tobytes(), jet.grad.tobytes()) for name, jet, args in calls]
    assert len(set(keys)) == len(keys)
    assert calls or tag == "II1"   # II1's g and w are linear in eta


def test_traced_hamiltonian_shares_basis_values_as_jets_do(monkeypatch):
    # the flow's trace runs H on duals, which keep their basis values as
    # jets do: per spec it applies the primitives of a jet evaluation of H,
    # each once per traced argument, inv too, 25 over the six specs
    calls = _spied(monkeypatch, _PRIMITIVES + ("inv",))
    total = 0
    for tag in CLASS_TAGS:
        spec = SystemSpec(tag, **GENERIC)
        H = hamiltonian(spec)
        H.eval(sample_points(spec, 64, np.random.default_rng(24)), 1)
        evaluated = len(calls)
        calls.clear()
        jets.trace(H.fn)
        assert len(calls) == evaluated, tag
        keys = [(name, id(dual), args) for name, dual, args in calls]
        assert len(set(keys)) == len(keys), tag
        total += len(calls)
        calls.clear()
    assert total == 25


@pytest.mark.parametrize("tag", CLASS_TAGS)
def test_passes_leave_no_reference_cycle(tag):
    # a jet or dual keeping a basis value that refers back to it would be
    # freed only by the cyclic collector, long after its pass; I2 and II3
    # take sqrt(A) to be the identity
    spec = SystemSpec(tag, **GENERIC)
    pts = sample_points(spec, 64, np.random.default_rng(24))
    one = PhasePoint(*(float(c[0]) for c in pts.components()))
    observables = (hamiltonian(spec), integral_A(spec), integral_B(spec))
    traced = []   # a compiled function and its namespace refer to each other
    evaluations = _evaluations(spec, 2) + _evaluations(spec, 1) + [
        lambda p: [obs.dual(one) for obs in observables],
        lambda p: traced.extend(jets.trace(obs.fn) for obs in observables)]
    gc.collect()
    gc.disable()
    try:
        for evaluate in evaluations:
            evaluate(pts)
    finally:
        gc.enable()
    assert gc.collect() == 0


def test_order_one_pass_raises_the_metric_error_of_order_two():
    spec = SystemSpec("II1", nu=1e-4)   # g = 1e-4 everywhere, below MIN_ABS_G
    pt = PhasePoint(1.0, 1.0, 0.5, 0.5)
    errors = []
    for evaluate in (functools.partial(SampleJets.evaluate, spec),
                     functools.partial(SampleJets.evaluate, spec, order=1),
                     lambda p: hamiltonian(spec).eval(p, order=1)):
        with pytest.raises(DomainError) as err:
            evaluate(pt)
        errors.append((err.value.primitive, str(err.value)))
    assert errors[0][0] == "metric" and errors.count(errors[0]) == 3


@pytest.mark.parametrize("tag", CLASS_TAGS)
def test_order_one_pass_equals_order_two_values_and_gradients(tag):
    spec = SystemSpec(tag, **GENERIC)
    pts = sample_points(spec, 300, np.random.default_rng(23))
    ones, twos = SampleJets.evaluate(spec, pts, 1).hab, SampleJets.evaluate(spec, pts).hab
    assert [j.order for j in ones] == [1, 1, 1] and [j.order for j in twos] == [1, 2, 2]
    for one, two in zip(ones, twos):
        assert np.array_equal(one.val, two.val) and np.array_equal(one.grad, two.grad)


def test_tilde_metric_consistency():
    # F~(X+Y) + G~(X-Y) must equal g * sqrt(A(xi) B(eta)) identically
    rng = np.random.default_rng(11)
    for tag in CLASS_TAGS:
        spec = SystemSpec(tag, **GENERIC)
        fns = build_fns(spec)
        pts = sample_points(spec, 40, rng)
        X, Y = fns.X_of_xi(pts.xi), fns.X_of_xi(pts.eta)
        gt = fns.F_tilde(X + Y) + fns.G_tilde(X - Y)
        want = fns.metric(pts.xi, pts.eta) * fns.sqrtA(pts.xi) * fns.sqrtA(pts.eta)
        assert np.abs(gt - want).max() <= 1e-9 * (1 + np.abs(want).max()), tag


# -- the quadratic form of A and B -----------------------------------------


def _coefficients(rng, shape, order):
    """Four coordinate jets with random values, gradients and Hessians."""
    rows = lambda n: rng.uniform(-2.0, 2.0, (n,) + shape)
    return [CoordJet(rows(1)[0], rows(2), rows(3) if order == 2 else None) for _ in range(4)]


def _generic(p1, p2, c20, c11, c02, c00):
    """The quadratic form by the generic rules of the jets."""
    return c20 * p1**2 + c11 * p1 * p2 + c02 * p2**2 + c00


def _magnitude(x):
    """``x`` with every part replaced by its absolute value."""
    if not isinstance(x, Jet2):
        return abs(x)
    return type(x)(np.abs(x.val), np.abs(x.grad), np.abs(x.hess) if x.order == 2 else None)


def _no_jet_product(*args):
    raise AssertionError("a jet product in the quadratic form's assembly")


# the numeric coefficients, by slot, of the forms that have them
_NUMERIC = {"none": {}, "A of Class I": {0: 1.0, 2: 1.0}, "A of Class II": {0: 1.0, 2: 0.0},
            "all": {0: 0.0, 1: 1.0, 2: 0.0, 3: 1.0}}


@given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from([(), (1,), (7,)]),
       order=st.sampled_from([1, 2]), numeric=st.sampled_from(sorted(_NUMERIC)))
@settings(max_examples=300, deadline=None)
def test_quadratic_form_on_seeds_equals_the_generic_jet_rules(seed, shape, order, numeric):
    rng = np.random.default_rng(seed)
    _, _, p1, p2 = seed_phase(PhasePoint(*rng.uniform(-2.0, 2.0, (4,) + shape)), order)
    coefs = _coefficients(rng, shape, order)
    coefs = [_NUMERIC[numeric].get(i, c) for i, c in enumerate(coefs)]
    four = [c.lift(order) if isinstance(c, Jet2) else c for c in coefs]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Jet2, "__mul__", _no_jet_product)   # the assembly is taken
        got, got_four = systems._quadratic(p1, p2, *coefs), systems._quadratic(p1, p2, *four)
    want = _generic(p1, p2, *coefs)
    scale = _generic(*map(_magnitude, (p1, p2, *coefs)))
    assert type(got) is Jet2 and got.order == want.order == order
    for part in _parts(want):
        g, w = getattr(got, part), getattr(want, part)
        assert g.shape == w.shape and np.array_equal(g, getattr(got_four, part)), part
        assert (np.abs(g - w) <= 4 * np.finfo(float).eps * getattr(scale, part)).all(), part
    # a numeric 0.0 coefficient of p2^2 leaves d2/dp_eta2 at +0.0
    if order == 2 and isinstance(coefs[2], float) and coefs[2] == 0.0:
        assert (got.hess_at(3, 3) == 0.0).all() and not np.signbit(got.hess_at(3, 3)).any()
    # order 1 carries the value and gradient of order 2
    _, _, q1, q2 = seed_phase(PhasePoint(p1.val, p2.val, p1.val, p2.val), 1)
    one = systems._quadratic(q1, q2, *(c.first_order() if isinstance(c, Jet2) else c
                                       for c in coefs))
    assert one.order == 1
    assert np.array_equal(one.val, got.val) and np.array_equal(one.grad, got.grad)


_OTHER_MOMENTA = {
    "scaled momentum": lambda xi, p1, p2, c: (2.0 * p1, p2, c),
    "swapped momenta": lambda xi, p1, p2, c: (p2, p1, c),
    "coordinate as momentum": lambda xi, p1, p2, c: (xi, p2, c),
    "coefficient of a momentum": lambda xi, p1, p2, c: (p1, p2, [c[0] * p1, *c[1:]]),
}


@pytest.mark.parametrize("case", sorted(_OTHER_MOMENTA))
def test_quadratic_form_of_other_jets_takes_the_generic_rules(case, monkeypatch):
    # the assembly holds for seed_phase's momentum seeds alone
    rng = np.random.default_rng(27)
    xi, _, p1, p2 = seed_phase(PhasePoint(*rng.uniform(-2.0, 2.0, (4, 7))))
    q1, q2, coefs = _OTHER_MOMENTA[case](xi, p1, p2, _coefficients(rng, (7,), 2))
    got, want = systems._quadratic(q1, q2, *coefs), _generic(q1, q2, *coefs)
    for part in _parts(want):
        assert np.array_equal(getattr(got, part), getattr(want, part)), part
    monkeypatch.setattr(Jet2, "__mul__", _no_jet_product)
    with pytest.raises(AssertionError, match="jet product"):
        systems._quadratic(q1, q2, *coefs)


@pytest.mark.parametrize("tag", CLASS_TAGS)
def test_plain_values_of_a_and_b_equal_their_jet_values(tag):
    # the plain expression on arrays and the assembly on seeds, to rounding
    spec = SystemSpec(tag, **GENERIC)
    pts = sample_points(spec, 300, np.random.default_rng(26))
    for obs in (integral_A(spec), integral_B(spec)):
        plain, jet = obs.value(pts), obs.eval(pts).val
        tol = 16 * np.finfo(float).eps * (1 + np.abs(jet).max())
        assert np.abs(plain - jet).max() <= tol, obs.label


# -- characteristic equation ---------------------------------------------


def test_characteristic_examples():
    assert characteristic_residual(SystemSpec("I1"), 0.7) == 0.0
    assert characteristic_residual(SystemSpec("I2"), 0.7) == 0.0


def test_characteristic_i3_constant_a_derivation():
    # solve the characteristic equation for the inhomogeneous constant and
    # confirm xi-independence: it comes out 0 for the printed alpha, gamma
    fns = build_fns(SystemSpec("I3"))
    alpha, gamma, a = fns.char_constants
    xs = np.array([-1.0, 0.0, 0.7] + list(np.linspace(-1.2, 1.2, 17)))
    from superint.systems import _univariate_jet

    A, A1, _ = _univariate_jet(fns.A_of_xi, xs)
    derived = -(6.0 * A1**2 - 3.0 * gamma * A**2 - 3.0 * alpha * A)
    assert np.abs(derived.mean() - a) <= 1e-10
    assert derived.std() <= 1e-10


@pytest.mark.parametrize("tag", CLASS_TAGS)
def test_characteristic_residual_sweep(tag):
    rng = np.random.default_rng(21)
    for _ in range(50):
        spec = SystemSpec(tag, *rng.uniform(-2, 2, 8))
        try:
            pts = sample_points(spec, 20, rng)
        except SamplingError:
            continue
        r = np.abs(characteristic_residual(spec, pts.xi))
        scale = 1.0 + np.abs(pts.xi).max()
        assert (r / scale).max() <= 1e-10


# -- structural PDEs ------------------------------------------------------


def test_pde_i1_generic_point():
    spec = SystemSpec("I1", kappa=1.0, lam=0.5, mu=-0.3, nu=2.0)
    r = structural_pde_residual(spec, "metric_pair", 1.2, 0.4)
    assert float(r) <= 1e-9


def test_pde_zero_potential_exact():
    spec = SystemSpec("I1", kappa=1.0, lam=0.5, mu=-0.3, nu=2.0)
    r = structural_pde_residual(spec, "potential_pair", 1.2, 0.4)
    assert float(r) == 0.0


def test_pde_ii1_linear_forms_exact():
    spec = SystemSpec("II1", **GENERIC)
    assert float(structural_pde_residual(spec, "metric_pair", 1.0, 1.4)) == 0.0


@pytest.mark.parametrize("tag", CLASS_TAGS)
def test_pde_sweep(tag):
    rng = np.random.default_rng(31)
    for _ in range(10):
        spec = SystemSpec(tag, *rng.uniform(-2, 2, 8))
        try:
            pts = sample_points(spec, 20, rng)
        except SamplingError:
            continue
        for which in ("metric_pair", "potential_pair"):
            r = structural_pde_residual(spec, which, pts.xi, pts.eta)
            assert r.max() <= 1e-9, (tag, which)


# -- algebra constants ----------------------------------------------------


def test_constants_i1_delta():
    con = algebra_constants(SystemSpec("I1", kappa=1.0), 2.0)
    assert con.delta == 32.0


def test_constants_ii3_shape():
    con = algebra_constants(SystemSpec("II3", **GENERIC), 1.3)
    assert (con.alpha, con.gamma, con.a) == (8.0, 0.0, 0.0)
    assert con.delta == 0.0 and con.epsilon == 0.0


def test_constants_i3_bare():
    con = algebra_constants(SystemSpec("I3"), 0.9)
    assert (con.alpha, con.gamma) == (-32.0, 8.0)
    for name in ("a", "delta", "epsilon", "zeta", "d", "z", "K_casimir"):
        assert getattr(con, name) == 0.0


# The reference the structure-constant helpers reproduce: numpy.polynomial.

def _ref_pmul(*polys):
    out = np.array([1.0])
    for p in polys:
        out = P.polymul(out, np.atleast_1d(p))
    return out


def _ref_padd(*polys):
    out = np.array([0.0])
    for p in polys:
        out = P.polyadd(out, np.atleast_1d(p))
    return out


def _same(got, want):
    """Equal shape, type and bytes: signed zeros and NaN payloads included."""
    return (type(got) is type(want) and np.shape(got) == np.shape(want)
            and np.asarray(got).tobytes() == np.asarray(want).tobytes())


# zeros of both signs often, so trailing coefficients vanish and are trimmed
_COEF = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5]),
                  st.floats(-1e6, 1e6), st.floats(allow_nan=False))
_POLY = st.lists(_COEF, min_size=1, max_size=4).map(np.array)
_LINEAR = st.lists(_COEF, min_size=1, max_size=2).map(tuple)
_ENERGY = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3))


@given(polys=st.lists(_POLY, min_size=1, max_size=4),
       factors=st.lists(_LINEAR, min_size=1, max_size=4),
       energies=st.lists(_ENERGY, min_size=0, max_size=5))
@settings(max_examples=400, deadline=None)
def test_polynomial_helpers_equal_numpy_polynomial(polys, factors, energies):
    # _pmul multiplies factors of at most two coefficients, as constants_poly
    # does: numpy may fuse a product of longer factors into its sum
    with np.errstate(all="ignore"):
        assert _same(np.array(_pmul(*factors)), _ref_pmul(*factors))
        assert _same(np.array(_padd(*polys)), _ref_padd(*polys))
        for c in (polys[0], _ref_pmul(*polys), _ref_padd(*polys)):
            for E in (np.array(energies), np.asarray(energies[0] if energies else -0.0)):
                assert _same(_polyval(E, c), P.polyval(E, c))


# The numpy helpers that built constants_poly's polynomials before it moved
# to Python floats, copied here as its oracle.

def _np_trim(c):
    n = len(c)
    while n > 1 and c[n - 1] == 0:
        n -= 1
    return c[:n]


def _np_lin(c, c0):
    return np.array([-c0, c])


def _np_pmul(*polys):
    out = np.array([1.0])
    for p in polys:
        out = _np_trim(np.convolve(out, _np_trim(p)))
    return out


def _np_padd(*polys):
    out = np.array([0.0])
    for p in polys:
        a, b = out, _np_trim(p)
        if len(a) <= len(b):
            a, b = b, a
        a = np.array(a, dtype=float)
        a[:len(b)] += b
        out = _np_trim(a)
    return out


# zeros of both signs, magnitudes from 1e-150 to 1e150 (so products
# overflow and underflow) and values of order one
_PARAM = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0),
                   st.builds(lambda m, e: m * 10.0**e, st.floats(-1.0, 1.0),
                             st.integers(-150, 150)))


@given(tag=st.sampled_from(CLASS_TAGS), params=st.lists(_PARAM, min_size=8, max_size=8))
@settings(max_examples=600, deadline=None)
def test_constants_on_floats_equal_the_numpy_helpers(tag, params):
    import superint.systems as systems_mod

    spec = SystemSpec(tag, *params)
    got = constants_poly(spec)
    saved = systems_mod._lin, systems_mod._pmul, systems_mod._padd
    systems_mod._lin, systems_mod._pmul, systems_mod._padd = _np_lin, _np_pmul, _np_padd
    try:
        with np.errstate(all="ignore"):
            want = constants_poly(spec)
    finally:
        systems_mod._lin, systems_mod._pmul, systems_mod._padd = saved
    assert (got.alpha, got.gamma, got.a) == (want.alpha, want.gamma, want.a)
    for field in ("delta", "epsilon", "zeta", "d", "z", "K"):
        g, w = getattr(got, field), getattr(want, field)
        assert (g.dtype, g.shape) == (w.dtype, w.shape), field
        assert g.tobytes() == w.tobytes(), field


@pytest.mark.parametrize("tag", CLASS_TAGS)
def test_constants_at_energy_equal_numpy_polyval(tag):
    # vanishing top coefficients: kappa = 0 leaves K_ = (-k, 0), and so on
    energies = np.array([0.0, -0.0, 1.5, -2.0, 1e3])
    for spec in (SystemSpec(tag, **GENERIC), SystemSpec(tag),
                 SystemSpec(tag, **dict(GENERIC, kappa=0.0, lam=0.0, mu=0.0))):
        cp = constants_poly(spec)
        for E in (energies, 0.7, -0.0):
            con = cp.at_energy(E)
            for field in ("delta", "epsilon", "zeta", "d", "z", "K"):
                c = getattr(cp, field)
                got = getattr(con, "K_casimir" if field == "K" else field)
                assert c.ndim == 1 and c.size >= 1
                assert _same(got, P.polyval(np.asarray(E, dtype=float), c))


# -- shift redundancy ------------------------------------------------------


@pytest.mark.parametrize("tag", CLASS_TAGS)
def test_shift_redundancy(tag):
    from superint.poisson import bracket, verify_algebra

    c = 0.7
    base = SystemSpec(tag, **GENERIC)
    shifted = SystemSpec(tag, kappa=base.kappa, lam=base.lam, mu=base.mu,
                         nu=base.nu, k=base.k + c * base.kappa,
                         ell=base.ell + c * base.lam, m=base.m + c * base.mu,
                         n=base.n + c * base.nu)
    rng = np.random.default_rng(41)
    pts = sample_points(base, 60, rng)
    dH = hamiltonian(shifted).value(pts) - hamiltonian(base).value(pts)
    assert np.abs(dH - c).max() <= 1e-10
    # A and B themselves are invariant under the shift, so every bracket is
    dA = integral_A(shifted).value(pts) - integral_A(base).value(pts)
    dB = integral_B(shifted).value(pts) - integral_B(base).value(pts)
    scale_A = 1.0 + np.abs(integral_A(base).value(pts)).max()
    scale_B = 1.0 + np.abs(integral_B(base).value(pts)).max()
    assert np.abs(dA).max() <= 1e-10 * scale_A
    assert np.abs(dB).max() <= 1e-10 * scale_B
    dC = (bracket(integral_A(shifted), integral_B(shifted), pts).val
          - bracket(integral_A(base), integral_B(base), pts).val)
    assert np.abs(dC).max() <= 1e-10 * (1.0 + np.abs(dC).max() + scale_A * scale_B)
    rep = verify_algebra(shifted, n_points=60, seed=99)
    assert rep.passed and not rep.correction_applied


# -- metric separability (same code path, bit-consistent) ------------------


def test_metric_separability_bitwise():
    rng = np.random.default_rng(51)
    for tag in CLASS_TAGS:
        spec = SystemSpec(tag, **GENERIC)
        fns = build_fns(spec)
        pts = sample_points(spec, 30, rng)
        g = fns.metric(pts.xi, pts.eta)
        if spec.is_class_one():
            again = fns.F(pts.xi + pts.eta) + fns.G(pts.xi - pts.eta)
        else:
            again = fns.F(pts.eta) * pts.xi + fns.G(pts.eta)
        assert np.array_equal(g, again)


# -- serialization ---------------------------------------------------------


def test_spec_roundtrip():
    spec = SystemSpec("II2", **GENERIC)
    doc = spec_to_dict(spec)
    assert set(doc) == {"class", "kappa", "lambda", "mu", "nu", "k", "ell", "m", "n"}
    assert doc["class"] == "II2" and doc["lambda"] == 0.5
    assert spec_from_dict(doc) == spec


def test_spec_from_dict_rejects_bad_docs():
    doc = spec_to_dict(SystemSpec("I1", **GENERIC))
    with pytest.raises(ValueError):
        spec_from_dict({k: v for k, v in doc.items() if k != "mu"})
    with pytest.raises(ValueError):
        spec_from_dict({**doc, "extra": 1.0})
    with pytest.raises(ValueError):
        SystemSpec("I9")
    for value in (None, [1.0], {"v": 1.0}, "one", 10**400):
        with pytest.raises(ValueError):
            spec_from_dict({**doc, "mu": value})
    for not_a_doc in (3, [doc], "I1", None):
        with pytest.raises(ValueError):
            spec_from_dict(not_a_doc)
    # what float() takes is still taken
    assert spec_from_dict({**doc, "mu": "-0.3", "nu": 2, "k": True}) == SystemSpec(
        "I1", **dict(GENERIC, k=1.0))


_PAIRS = (("F", "f_pot"), ("G", "g_pot"), ("F_tilde", "f_tilde"),
          ("G_tilde", "g_tilde"), ("intF", "intf"))


def _bits(fn, x):
    """``fn(x)`` as bytes (value, gradient and Hessian of a jet), or the
    error it raises."""
    try:
        with np.errstate(all="ignore"):
            out = fn(x)
    except (DomainError, ArithmeticError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    if isinstance(out, Jet2):
        return out.val.tobytes() + out.grad.tobytes() + out.hess.tobytes()
    return np.asarray(out, dtype=float).tobytes()


@pytest.mark.parametrize("tag", CLASS_TAGS)
@given(params=st.lists(st.floats(-3.0, 3.0), min_size=8, max_size=8),
       xs=st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=5))
@settings(max_examples=30, deadline=None)
def test_swapping_parameters_swaps_the_pairs(tag, params, xs):
    # the metric and the potential forms are the same forms at the other
    # parameter quadruple, so swapping the quadruples swaps them bit for bit
    fns = build_fns(SystemSpec(tag, *params))
    swapped = build_fns(SystemSpec(tag, *params[4:], *params[:4]))
    xs = np.array(xs)
    arguments = (lambda: xs, lambda: float(xs[0]), lambda: CoordJet.seed(xs, 0))
    for metric, potential in _PAIRS:
        for a, b in ((fns, swapped), (swapped, fns)):
            if getattr(a, metric) is None:   # no antiderivatives in Class I
                assert tag in ("I1", "I2", "I3") and getattr(b, potential) is None
                continue
            for argument in arguments:   # fresh jets, so that no value is shared
                assert (_bits(getattr(a, metric), argument())
                        == _bits(getattr(b, potential), argument())), (metric, argument)


# -- sampling ---------------------------------------------------------------


def _eager_sample_points(spec, n, rng):
    """The reference: every candidate of a batch is screened on g and the
    tilde metric before the kept ones are taken."""
    dom = sample_domain(spec)
    fns = build_fns(spec)
    out = []
    total = 0
    accepted = 0
    batch = max(4 * n, 256)
    max_candidates = max(20 * n, 4000)
    while accepted < n and total < max_candidates:
        xi = rng.uniform(*dom.xi_range, size=batch)
        eta = rng.uniform(*dom.eta_range, size=batch)
        p_xi = rng.uniform(*MOMENTUM_RANGE, size=batch)
        p_eta = rng.uniform(*MOMENTUM_RANGE, size=batch)
        ok = dom.admits(xi, eta)
        with np.errstate(all="ignore"):
            g = np.where(ok, fns.metric(xi, eta), np.inf)
            ok &= np.abs(g) >= MIN_ABS_G
            ok &= np.isfinite(g)
            gt = np.where(ok, fns.tilde_metric(np.where(ok, xi, 1.0), np.where(ok, eta, 1.0)), np.inf)
            ok &= np.abs(gt) >= MIN_ABS_G
            ok &= np.isfinite(gt)
        total += batch
        accepted += int(ok.sum())
        out.append(np.stack([xi[ok], eta[ok], p_xi[ok], p_eta[ok]]))
    if accepted < n:
        raise SamplingError(
            f"domain for {spec.tag} rejected {100.0 * (1 - accepted / max(total, 1)):.1f}% "
            f"of {total} candidates (need {n} points); degenerate parameters?")
    return np.concatenate(out, axis=1)[:, :n]


class _CountingRng:
    """A generator that counts its draws (four per batch of candidates)."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.draws = 0

    def uniform(self, *args, **kwargs):
        self.draws += 1
        return self.rng.uniform(*args, **kwargs)


def _sample_outcome(sample, spec, n, seed):
    """The points as an array, or the SamplingError text, and the batches drawn."""
    rng = _CountingRng(seed)
    try:
        pts = sample(spec, n, rng)
    except SamplingError as exc:
        return str(exc), rng.draws // 4
    return (pts if isinstance(pts, np.ndarray) else pts.as_array()), rng.draws // 4


@pytest.mark.parametrize("tag", CLASS_TAGS)
def test_lazy_screening_keeps_the_points_of_eager_screening(tag):
    # parameters of order 1e-3 reject most candidates on |g|: for I3 and the
    # Class II tags some of these draws take several batches, some raise
    rng = np.random.default_rng(3)
    specs = [SystemSpec(tag, **GENERIC), SystemSpec(tag)] + [
        SystemSpec(tag, *rng.uniform(-2.0, 2.0, size=8) * 1e-3) for _ in range(4)]
    kinds, batches = set(), set()
    for spec in specs:
        for n in (1, 7, 100, 2049):
            for seed in (0, 1):
                want, drawn = _sample_outcome(_eager_sample_points, spec, n, seed)
                got, lazy_drawn = _sample_outcome(sample_points, spec, n, seed)
                case = (spec, n, seed)
                assert lazy_drawn == drawn, case
                if isinstance(want, str):
                    assert isinstance(got, str) and got == want, case
                else:
                    assert not isinstance(got, str) and got.shape == want.shape, case
                    assert np.array_equal(got, want), case
                kinds.add(type(want))
                batches.add(drawn)
    assert kinds == {str, np.ndarray}
    assert tag in ("I1", "I2") or max(batches) > 1


def test_degenerate_spec_sampling_error():
    with pytest.raises(SamplingError):
        sample_points(SystemSpec("I1"), 50, np.random.default_rng(0))


@pytest.mark.parametrize("n", [0, -5])
def test_sample_points_rejects_non_positive_count(n):
    with pytest.raises(ValueError, match="at least one"):
        sample_points(SystemSpec("I1", **GENERIC), n, np.random.default_rng(0))


def test_samples_respect_domain():
    spec = SystemSpec("I1", **GENERIC)
    pts = sample_points(spec, 200, np.random.default_rng(7))
    assert np.abs(pts.xi - pts.eta).min() >= 0.15
    fns = build_fns(spec)
    assert np.abs(fns.metric(pts.xi, pts.eta)).min() >= MIN_ABS_G
    assert pts.p_xi.min() >= -2.0 and pts.p_xi.max() <= 2.0


def test_terms_drop_a_coefficient_only_where_it_is_zero_at_every_point():
    from superint.systems import _ident, _one, _sqrt, _terms

    form = _terms((np.array([0.0, 2.0]), _sqrt), (0.0, _one),
                  (np.zeros(2), _one), (np.array([3.0, 3.0]), _ident))
    assert [f for _, f in form.args[0]] == [_sqrt, _ident]
    x = CoordJet.seed(np.array([4.0, 9.0]), 0)
    out = form(x)
    assert np.array_equal(out.val, [0.0 * 2.0 + 12.0, 2.0 * 3.0 + 27.0])
    assert np.array_equal(out.grad[0], [0.0 * 0.25 + 3.0, 2.0 / 6.0 + 3.0])


@pytest.mark.parametrize("order", [2, 1])
def test_each_pass_inverts_each_divisor_once(order, monkeypatch):
    # g is inverted once: H divides by it, and so does A (Class I's
    # Liouville form by F + G, which is g)
    calls = _spied(monkeypatch, ("inv",))
    for tag in CLASS_TAGS:
        spec = SystemSpec(tag, **GENERIC)
        SampleJets.evaluate(spec, sample_points(spec, 64, np.random.default_rng(24)), order)
    assert len(calls) == 16


def test_a_group_pass_gives_each_spec_its_own_jets():
    from superint.systems import group_fns

    rng = np.random.default_rng(8)
    for tag in CLASS_TAGS:
        specs = [SystemSpec(tag, **{k: v * s for (k, v), s in
                                     zip(GENERIC.items(), rng.uniform(0.5, 1.5, 8))})
                 for _ in range(3)]
        pts = [sample_points(s, n, np.random.default_rng(n)) for s, n in zip(specs, (5, 1, 9))]
        joined = PhasePoint.from_array(np.concatenate([p.as_array() for p in pts], axis=1))
        group = SampleJets.evaluate(group_fns(specs, [5, 1, 9]), joined).hab
        lo = 0
        for spec, p in zip(specs, pts):
            alone = SampleJets.evaluate(spec, p).hab
            for g, a in zip(group, alone):
                for part in _parts(a):
                    got = getattr(g, part)[..., lo:lo + p.shape[0]]
                    assert got.tobytes() == getattr(a, part).tobytes(), (tag, part)
            lo += p.shape[0]


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_a_parameter_that_is_not_finite_is_a_value_error(bad):
    with pytest.raises(ValueError, match="parameter mu is not finite"):
        SystemSpec("I1", mu=bad)


def test_an_unknown_pair_of_the_structural_pde_is_a_value_error():
    with pytest.raises(ValueError, match="which must be 'metric_pair' or 'potential_pair'"):
        structural_pde_residual(SystemSpec("I1", mu=1.0), "metric", 0.5, 0.7)
