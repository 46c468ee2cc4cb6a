"""Bracket engine, algebra/Casimir verifiers and the membership oracle."""

import functools
import json
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import numpy.polynomial.polynomial as P
import pytest
from hypothesis import given, settings, strategies as st

from superint.errors import DomainError, IllConditioned
from superint.jets import Jet2, Observable, PhasePoint, _norm, norm_residual
from superint.poisson import (TOL_NESTED, _algebra, _chunked_max, _contract,
                              _row_residuals, bracket, bracket_fd, bracket_jets, c_observable,
                              casimir_coefficients, casimir_combination,
                              polynomial_membership, verify_algebra, verify_casimir)
from superint.systems import (CLASS_TAGS, ConstantsPoly, SampleJets, SystemSpec,
                              characteristic_residual, hamiltonian, integral_A,
                              integral_B, sample_points)

GENERIC = dict(kappa=1.0, lam=0.5, mu=-0.3, nu=2.0, k=0.4, ell=-0.1, m=0.2, n=1.0)

XI = Observable(lambda xi, eta, pxi, peta: xi + 0.0 * peta, "xi")
PXI = Observable(lambda xi, eta, pxi, peta: pxi + 0.0 * xi, "p_xi")


def test_canonical_pair():
    br = bracket(XI, PXI, PhasePoint(0.3, -1.2, 0.8, 2.0))
    assert float(br.val) == 1.0


def test_bracket_self_is_zero():
    H = hamiltonian(SystemSpec("I1", **GENERIC))
    br = bracket(H, H, PhasePoint(1.2, 0.4, 0.7, -1.1))
    assert float(br.val) == 0.0


def test_bracket_h_a_vanishes_and_matches_fd():
    spec = SystemSpec("I1", **GENERIC)
    H, A = hamiltonian(spec), integral_A(spec)
    pt = PhasePoint(1.2, 0.4, 0.7, -1.1)
    br = bracket(H, A, pt)
    assert abs(float(br.val)) / (1.0 + float(br.val_scale)) <= 1e-9
    fd = bracket_fd(H, A, pt)
    assert abs(float(fd)) <= 1e-6 * (1.0 + float(br.val_scale))


def test_bracket_antisymmetry():
    spec = SystemSpec("II2", **GENERIC)
    A, B = integral_A(spec), integral_B(spec)
    pts = sample_points(spec, 100, np.random.default_rng(8))
    ab = bracket(A, B, pts)
    ba = bracket(B, A, pts)
    assert norm_residual(ab.val, -ba.val).max() <= 1e-12
    assert norm_residual(ab.grad, -ba.grad).max() <= 1e-12


_TRIPLES = [
    (lambda xi, eta, pxi, peta: xi * peta,
     lambda xi, eta, pxi, peta: eta**2 + pxi),
    (lambda xi, eta, pxi, peta: pxi * peta + xi,
     lambda xi, eta, pxi, peta: xi * eta - peta),
    (lambda xi, eta, pxi, peta: xi**2 - eta * pxi,
     lambda xi, eta, pxi, peta: peta**2 + 0.5 * eta),
]


@pytest.mark.parametrize("pair", range(len(_TRIPLES)))
def test_leibniz_rule(pair):
    # {F G, H0} = F {G, H0} + G {F, H0} for fixed observable triples
    spec = SystemSpec("I2", **GENERIC)
    H = hamiltonian(spec)
    f_fn, g_fn = _TRIPLES[pair]
    F = Observable(f_fn, "F")
    G = Observable(g_fn, "G")
    FG = Observable(lambda *args: f_fn(*args) * g_fn(*args), "FG")
    pts = sample_points(spec, 50, np.random.default_rng(9))
    lhs = bracket(FG, H, pts).val
    f = F.eval(pts).val
    g = G.eval(pts).val
    rhs = f * bracket(G, H, pts).val + g * bracket(F, H, pts).val
    assert norm_residual(lhs, rhs).max() <= 1e-10


def test_c_observable_antisymmetry_and_smoothness():
    # free motion on the flat strip: C must still be finite and smooth
    spec = SystemSpec("I1", nu=2.0)
    C = c_observable(spec)
    pts = sample_points(spec, 100, np.random.default_rng(10))
    cv = C.value(pts)
    assert np.all(np.isfinite(cv))
    # C' = {B, A} = -C, bit-near
    A, B = integral_A(spec), integral_B(spec)
    cv2 = bracket(B, A, pts).val
    assert norm_residual(cv, -cv2).max() <= 1e-12
    # the order-1 evaluation, with its gradient, has the same value bit for bit
    assert np.array_equal(C(pts).val, cv)


@pytest.mark.parametrize("tag", CLASS_TAGS)
def test_verify_algebra_passes(tag):
    rep = verify_algebra(SystemSpec(tag, **GENERIC), n_points=100)
    assert rep.passed
    assert not rep.correction_applied
    assert [i.name for i in rep.identities] == ["HA", "HB", "HC", "AC_row", "BC_row"]


@pytest.mark.parametrize("tag", CLASS_TAGS)
def test_verify_casimir_passes(tag):
    rep = verify_casimir(SystemSpec(tag, **GENERIC), n_points=100)
    assert rep.passed and not rep.correction_applied


def test_corrupted_delta_detected(monkeypatch):
    import superint.poisson as poisson_mod
    from superint.systems import constants_poly as real_poly
    from dataclasses import replace

    def corrupted(spec):
        cp = real_poly(spec)
        return replace(cp, delta=P.polyadd(cp.delta, [1.0]))  # delta(E) + 1

    monkeypatch.setattr(poisson_mod, "constants_poly", corrupted)
    rep = verify_algebra(SystemSpec("I1", **GENERIC), n_points=100)
    assert not rep.passed
    failing = {i.name for i in rep.identities if not i.passed}
    assert "AC_row" in failing or "BC_row" in failing


def test_corrupted_casimir_detected(monkeypatch):
    import superint.poisson as poisson_mod
    from superint.systems import constants_poly as real_poly
    from dataclasses import replace

    def corrupted(spec):
        cp = real_poly(spec)
        return replace(cp, K=P.polyadd(cp.K, [0.0, 0.0, 0.0, 0.01]))  # K(E) + 0.01 E^3

    monkeypatch.setattr(poisson_mod, "constants_poly", corrupted)
    rep = verify_casimir(SystemSpec("I2", **GENERIC), n_points=100)
    assert not rep.passed


def test_affine_correction_absorbs_constant_offset(monkeypatch):
    # shifting A by a constant (an integration-constant convention change)
    # must be absorbed by the affine-match pre-step and flagged, while the
    # printed forms keep passing raw
    real_evaluate = SampleJets.evaluate.__func__

    def shifted(cls, spec, pts, order=2):
        jets = real_evaluate(cls, spec, pts, order)
        jets.A = jets.A + 3.0
        return jets

    monkeypatch.setattr(SampleJets, "evaluate", classmethod(shifted))
    spec = SystemSpec("II1", **GENERIC)
    rep = verify_algebra(spec, n_points=100)
    assert rep.passed
    assert rep.correction_applied
    assert rep.correction["a_offset"] == pytest.approx(-3.0, abs=1e-6)
    doc = rep.to_dict()
    assert doc["correction_applied"] is True and "correction" in doc


def test_nan_in_a_later_chunk_fails(monkeypatch):
    # a non-finite residual in any chunk, not only the first, must not vanish:
    # the verifier raises, as for any maximum that is not finite
    import superint.poisson as poisson_mod
    real_row_residuals = poisson_mod._row_residuals
    calls = []

    def poisoned(*args):
        residuals = real_row_residuals(*args)
        calls.append(None)
        poison = len(calls) == 2

        def at(*offsets):
            res = residuals(*offsets)
            if poison:
                res["HA"][0] = np.nan
            return res

        return at

    monkeypatch.setattr(poisson_mod, "_row_residuals", poisoned)
    with pytest.raises(DomainError, match="max HA residual is nan"):
        verify_algebra(SystemSpec("I2", **GENERIC), n_points=2 * poisson_mod._CHUNK)
    assert len(calls) == 2


@pytest.mark.parametrize("verifier, spec", [
    (verify_algebra, SystemSpec("II3", kappa=1e155, nu=1.0)),
    (verify_casimir, SystemSpec("II3", kappa=1e155, nu=1.0)),
    (verify_casimir, SystemSpec("I1", kappa=1e160)),
])
def test_a_residual_maximum_that_is_not_finite_raises(verifier, spec):
    # NaN and inf are no residuals a tolerance can judge, nor an affine fit fix
    with np.errstate(all="ignore"), pytest.raises(DomainError, match="not finite"):
        verifier(spec)


def test_the_affine_fit_refuses_a_cost_that_is_not_finite_at_zero_offsets():
    # the fit's cost holds the Casimir, which verify_algebra does not check first
    import superint.poisson as poisson_mod
    from superint.systems import constants_poly

    spec = SystemSpec("II3", kappa=1e155, nu=1.0)
    pts = sample_points(spec, 100, np.random.default_rng(0))
    with np.errstate(all="ignore"):
        fn = poisson_mod._row_residuals(constants_poly(spec), SampleJets.evaluate(spec, pts).hab,
                                        poisson_mod._FIT)
        with pytest.raises(DomainError, match="affine fit"):
            poisson_mod._fit_offsets([fn])


@pytest.mark.parametrize("chunk", [256, 1000])
def test_chunk_size_cannot_change_a_report(monkeypatch, chunk):
    # the residual max over chunks is exact, so the chunk size moves speed only
    import superint.poisson as poisson_mod

    runs = [(SystemSpec(tag, **GENERIC), 5000, {}) for tag in ("I2", "I3", "II2")]
    runs.append((SystemSpec("I3", **GENERIC), 2500, {"tol_nested": 1e-30}))
    default = [verify_algebra(spec, n_points=n, **kw).to_json() for spec, n, kw in runs]
    assert '"correction_applied": true' in default[-1]
    monkeypatch.setattr(poisson_mod, "_CHUNK", chunk)
    assert [verify_algebra(spec, n_points=n, **kw).to_json()
            for spec, n, kw in runs] == default


@pytest.mark.parametrize("tag", CLASS_TAGS)
def test_residuals_of_a_point_do_not_depend_on_its_batch(tag):
    # a point alone gets the residuals it gets in a batch, so no chunk size,
    # not even a one-point last chunk, and no chunking of the fit's cost
    # can move a bit
    from superint.systems import constants_poly

    spec = SystemSpec(tag, **GENERIC)
    pts = sample_points(spec, 30, np.random.default_rng(3))
    cp = constants_poly(spec)
    names = ("HA", "HB", "HC", "AC_row", "BC_row", "casimir")
    arr = pts.as_array()
    batch_fn = _row_residuals(cp, SampleJets.evaluate(spec, pts).hab, names)
    habs = [SampleJets.evaluate(spec, PhasePoint.from_array(arr[:, i:i + 1])).hab
            for i in range(arr.shape[1])]
    alone_fns = [_row_residuals(cp, hab, names) for hab in habs]
    for offsets in ((0.0, 0.0), (1e-9, -3e-9)):
        batch = batch_fn(*offsets)
        assert tuple(batch) == names
        for i, alone_fn in enumerate(alone_fns):
            alone = alone_fn(*offsets)
            for name, res in batch.items():
                assert alone[name].tobytes() == res[i:i + 1].tobytes(), (name, i)


def _spy_passes(monkeypatch, orders, points=None):
    """Record the order of every H, A, B jet that the verifiers evaluate, one
    tuple per pass, and in ``points`` each pass's points."""
    real = SampleJets.evaluate.__func__

    def spy(cls, spec, pts, order=2):
        jets = real(cls, spec, pts, order)
        orders.append((jets.H.order, jets.A.order, jets.B.order))
        if points is not None:
            points.append(pts)
        return jets

    monkeypatch.setattr(SampleJets, "evaluate", classmethod(spy))


def test_casimir_pass_builds_no_hessian(monkeypatch):
    from superint.poisson import _CHUNK

    orders = []
    _spy_passes(monkeypatch, orders)
    spec = SystemSpec("I3", **GENERIC)
    rep = verify_casimir(spec, n_points=2 * _CHUNK + 1)
    assert rep.passed and orders == [(1, 1, 1)] * 3
    orders.clear()
    assert verify_algebra(spec, n_points=2 * _CHUNK + 1).passed
    assert orders == [(1, 2, 2)] * 3   # only A's and B's Hessians are read


def test_forced_casimir_correction_fits_at_order_two(monkeypatch):
    # the fit reads the algebra rows; the verdict's pass does not, and the
    # fit's one pass also re-judges the sample
    orders = []
    _spy_passes(monkeypatch, orders)
    rep = verify_casimir(SystemSpec("II2", **GENERIC), n_points=100, tol=1e-30)
    assert rep.correction_applied
    assert orders == [(1, 1, 1), (1, 2, 2)]


def test_a_forced_correction_evaluates_each_chunk_once(monkeypatch):
    # one pass for the verdict and one for the fit and the re-judged maxima,
    # each over the sample's chunks in order
    import superint.poisson as poisson_mod

    orders, points = [], []
    _spy_passes(monkeypatch, orders, points)
    real_row_residuals = poisson_mod._row_residuals
    rows = []
    monkeypatch.setattr(poisson_mod, "_row_residuals",
                        lambda cp, hab, names: rows.append(hab[0].val.shape)
                        or real_row_residuals(cp, hab, names))
    spec, chunk = SystemSpec("I2", **GENERIC), poisson_mod._CHUNK
    rep = verify_algebra(spec, n_points=3 * chunk, tol_nested=1e-30)
    assert rep.correction_applied
    assert orders == [(1, 2, 2)] * 6
    xi = sample_points(spec, 3 * chunk, np.random.default_rng(poisson_mod.DEFAULT_SEED)).xi
    assert [float(p.xi[0]) for p in points] == [float(xi[lo]) for lo in (0, chunk, 2 * chunk)] * 2
    assert rows == [(chunk,)] * 6


@pytest.mark.parametrize("kw", [{}, {"tol_nested": 1e-30}], ids=["plain", "forced"])
def test_constants_are_built_once_per_verifier_call(monkeypatch, kw):
    import superint.poisson as poisson_mod
    from superint.systems import constants_poly as real_poly

    calls = []
    monkeypatch.setattr(poisson_mod, "constants_poly",
                        lambda spec: calls.append(spec) or real_poly(spec))
    rep = verify_algebra(SystemSpec("I2", **GENERIC), n_points=3 * poisson_mod._CHUNK,
                         **kw)
    assert rep.correction_applied == bool(kw)
    assert len(calls) == 1


def test_every_structure_constant_mutation_fails(monkeypatch):
    # mutation audit: x1.01 and +0.01 on each coefficient of every class's
    # constants_poly (189 mutants that differ from the printed constants);
    # the affine fit is stubbed out so that it cannot absorb a mutant
    import dataclasses
    import superint.poisson as poisson_mod
    from superint.systems import constants_poly

    monkeypatch.setattr(poisson_mod, "_fit_offsets", lambda *args: (0.0, 0.0))
    mutants = survivors = 0
    for tag in CLASS_TAGS:
        spec = SystemSpec(tag, **GENERIC)
        cp = constants_poly(spec)
        for f in dataclasses.fields(cp):
            coefs = np.atleast_1d(getattr(cp, f.name)).astype(float)
            for i in range(coefs.size):
                for mutated in (coefs[i] * 1.01, coefs[i] + 0.01):
                    if mutated == coefs[i]:
                        continue
                    new = coefs.copy()
                    new[i] = mutated
                    value = new if np.ndim(getattr(cp, f.name)) else float(new[0])
                    mutant = dataclasses.replace(cp, **{f.name: value})
                    monkeypatch.setattr(poisson_mod, "constants_poly",
                                        lambda s, mutant=mutant: mutant)
                    mutants += 1
                    survivors += (verify_algebra(spec).passed
                                  and verify_casimir(spec).passed)
    assert mutants == 189
    assert survivors == 0


@pytest.mark.parametrize("tag", CLASS_TAGS)
def test_every_characteristic_constant_mutation_fails(monkeypatch, tag):
    # (alpha, gamma, a) has one home, the class's characteristic solution,
    # which the characteristic equation and the algebra both read: x1.01
    # (+0.01 for a 0) on any one of them must fail both; the affine fit is
    # stubbed out so that it cannot absorb a mutant
    import superint.poisson as poisson_mod
    import superint.systems as systems_mod

    monkeypatch.setattr(poisson_mod, "_fit_offsets", lambda *args: (0.0, 0.0))
    spec = SystemSpec(tag, **GENERIC)
    xs = sample_points(spec, 50, np.random.default_rng(3)).xi

    def worst_characteristic():
        # criterion 4's normalization and tolerance
        return (np.abs(characteristic_residual(spec, xs)) / (1.0 + np.abs(xs))).max()

    assert worst_characteristic() <= 1e-10
    tags, sol = next((t, s) for t, s in systems_mod._CHARACTERISTIC.items() if tag in t)
    for i, c in enumerate(sol.char_constants):
        mutated = list(sol.char_constants)
        mutated[i] = c * 1.01 if c != 0.0 else 0.01
        monkeypatch.setitem(systems_mod._CHARACTERISTIC, tags,
                            sol._replace(char_constants=tuple(mutated)))
        assert worst_characteristic() > 1e-10, i
        assert not (verify_algebra(spec).passed and verify_casimir(spec).passed), i


@pytest.mark.parametrize("tag", CLASS_TAGS)
def test_a_mutation_of_bs_momentum_cross_term_fails(monkeypatch, tag):
    # x1.01 on B's coefficient of p_xi p_eta must fail an identity; the
    # affine fit is stubbed out so that it cannot absorb the mutant
    import superint.poisson as poisson_mod
    import superint.systems as systems_mod

    monkeypatch.setattr(poisson_mod, "_fit_offsets", lambda *args: (0.0, 0.0))
    spec = SystemSpec(tag, **GENERIC)
    assert verify_algebra(spec).passed
    quadratic = systems_mod._quadratic

    def mutant(p1, p2, c20, c11, c02, c00):
        # in a jet pass B's c20 is a jet, A's the number 1.0
        return quadratic(p1, p2, c20, c11 if isinstance(c20, float) else 1.01 * c11,
                         c02, c00)

    monkeypatch.setattr(systems_mod, "_quadratic", mutant)
    assert not verify_algebra(spec).passed


def test_report_document_schema():
    rep = verify_algebra(SystemSpec("I1", **GENERIC), n_points=50, seed=7)
    doc = rep.to_dict()
    assert doc["schema"] == "superint-report/1"
    assert doc["seed"] == 7 and doc["n_points"] == 50
    assert doc["correction_applied"] is False
    assert {"name", "max_residual", "tolerance", "pass"} == set(doc["identities"][0])
    json.dumps(doc)  # must be serializable as-is


def test_report_thread_count_invariance():
    spec = SystemSpec("I3", **GENERIC)
    r1 = verify_algebra(spec, n_points=300, seed=5, threads=1)
    r4 = verify_algebra(spec, n_points=300, seed=5, threads=4)
    assert r1.to_json() == r4.to_json()


# -- the one Casimir table ----------------------------------------------------
# C^2 = F(A, B) + K(H) is written once in the package, as poisson._CASIMIR;
# the printed rows, combination and coefficients are kept here as references.

_CONSTANTS = ("alpha", "gamma", "a", "delta", "epsilon", "zeta", "d", "z")


def _exact(table):
    """``table``'s rows with each float factor read back as the rational of
    denominator at most 3 whose float it is."""
    rows = [(n, Fraction(f).limit_denominator(3), i, j) for n, f, i, j in table]
    assert [float(q) for _, q, _, _ in rows] == [f for _, f, _, _ in table]
    return rows


def test_the_casimir_tables_sum_exactly_to_the_printed_forms():
    import superint.poisson as poisson_mod

    rng = np.random.default_rng(28)
    q = lambda: Fraction(int(rng.integers(-99, 100)), int(rng.integers(1, 100)))
    for _ in range(20):
        c = SimpleNamespace(**{n: q() for n in _CONSTANTS})
        A, B, C = q(), q(), q()
        terms = lambda table: poisson_mod._terms_of(_exact(table), c, A, B)
        assert sum(terms(poisson_mod._AC)) == (c.alpha * A**2 + 2 * c.gamma * A * B
                                               + c.delta * A + c.epsilon * B + c.zeta)
        assert sum(terms(poisson_mod._BC)) == (c.a * A**2 - c.gamma * B**2
                                               - 2 * c.alpha * A * B + c.d * A
                                               - c.delta * B + c.z)
        assert C**2 + sum(terms(poisson_mod._COMBINATION)) == (
            C**2 - 2 * c.alpha * A**2 * B - 2 * c.gamma * A * B**2 - 2 * c.delta * A * B
            - c.epsilon * B**2 - 2 * c.zeta * B + Fraction(2, 3) * c.a * A**3
            + c.d * A**2 + 2 * c.z * A)


def test_every_casimir_factor_mutation_fails(monkeypatch):
    # x1.01 on each factor of the Casimir table, read into the combination and
    # both rows, must fail an identity on GENERIC in every class where the
    # factor's constant is nonzero; the affine fit is stubbed out so that it
    # cannot absorb a mutant
    import superint.poisson as poisson_mod
    from superint.systems import constants_poly

    monkeypatch.setattr(poisson_mod, "_fit_offsets", lambda *args: (0.0, 0.0))
    table = poisson_mod._CASIMIR
    mutants = survivors = 0
    for row, (name, f, i, j) in enumerate(table):
        mutated = (*table[:row], (name, f * 1.01, i, j), *table[row + 1:])
        monkeypatch.setattr(poisson_mod, "_CASIMIR", mutated)
        for attr, derived in zip(("_COMBINATION", "_AC", "_BC"), poisson_mod._tables(mutated)):
            monkeypatch.setattr(poisson_mod, attr, derived)
        for tag in CLASS_TAGS:
            spec = SystemSpec(tag, **GENERIC)
            if not np.any(getattr(constants_poly(spec), name)):
                continue
            mutants += 1
            survivors += verify_algebra(spec).passed and verify_casimir(spec).passed
    assert mutants == 27
    assert survivors == 0


def _ref_casimir_coefficients(spec):
    """The printed coefficients of C^2, written out term by term."""
    from superint.systems import constants_poly

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


@pytest.mark.parametrize("tag", CLASS_TAGS)
def test_casimir_coefficients_are_the_printed_ones(tag):
    rng = np.random.default_rng(29)
    # a fifth of the random parameters are zero, so that terms drop out
    specs = [SystemSpec(tag, **GENERIC)] + [
        SystemSpec(tag, *np.where(rng.random(8) < 0.2, 0.0, rng.uniform(-2, 2, 8)))
        for _ in range(20)]
    for spec in specs:
        got, ref = casimir_coefficients(spec), _ref_casimir_coefficients(spec)
        assert sorted(got) == sorted(ref)
        assert {k: float(v).hex() for k, v in got.items()} == {
            k: float(v).hex() for k, v in ref.items()}


# -- membership -------------------------------------------------------------


class _Square:
    def __init__(self, obs):
        self._obs = obs
        self.label = f"{obs.label}^2"

    def value(self, pts):
        return self._obs.value(pts) ** 2


def _gens(spec):
    return [hamiltonian(spec), integral_A(spec), integral_B(spec)]


def test_membership_identity_h_squared():
    spec = SystemSpec("I1", **GENERIC)
    res = polynomial_membership(_Square(hamiltonian(spec)), _gens(spec), spec,
                                n_points=400)
    assert res.coefficients[(2, 0, 0)] == pytest.approx(1.0, abs=1e-8)
    others = [v for k, v in res.coefficients.items() if k != (2, 0, 0)]
    assert max(abs(v) for v in others) <= 1e-8
    assert res.rms_holdout <= 1e-9


@pytest.mark.parametrize("tag", CLASS_TAGS)
def test_membership_recovers_casimir(tag):
    spec = SystemSpec(tag, **GENERIC)
    C = c_observable(spec)

    class _Csq:
        label = "C^2"

        def value(self, pts):
            return C.value(pts) ** 2

    res = polynomial_membership(_Csq(), _gens(spec), spec, n_points=400)
    expected = casimir_coefficients(spec)
    for mono, coef in res.coefficients.items():
        assert abs(coef - expected.get(mono, 0.0)) <= 1e-6, (tag, mono)
    assert res.rms_holdout <= 1e-7


def test_membership_i1_pinned_coefficients():
    # I1: no A^2 B term (2 alpha = 0), A^3 coefficient -(2/3)a = 4,
    # H^3 coefficient is the cubic coefficient of the energy polynomial
    spec = SystemSpec("I1", **GENERIC)
    expected = casimir_coefficients(spec)
    assert expected.get((0, 2, 1), 0.0) == 0.0
    assert expected[(0, 3, 0)] == 4.0
    ka, la, mu, nu = spec.metric_params
    assert expected[(3, 0, 0)] == pytest.approx(
        32 * nu**3 + 512 * la * mu * nu - 64 * ka**2 * mu)


def test_membership_rejects_odd_target():
    spec = SystemSpec("I1", **GENERIC)
    res = polynomial_membership(PXI, _gens(spec), spec, n_points=400)
    assert res.rms_holdout > 0.1


def test_membership_point_count_precondition():
    spec = SystemSpec("I1", **GENERIC)
    with pytest.raises(ValueError):
        polynomial_membership(PXI, _gens(spec), spec, n_points=30)


def test_membership_ill_conditioned_signal():
    # sampling a single fiber (constant generators) must be flagged, not fit
    spec = SystemSpec("I1", **GENERIC)
    const = Observable(lambda xi, eta, pxi, peta: 1.0 + 0.0 * xi, "1")
    with pytest.raises(IllConditioned):
        polynomial_membership(PXI, [const, const, const], spec, n_points=400)


# -- one pass over many samples ---------------------------------------------


def _samples(specs, n=50, seed=11):
    return [(s, seed + i, sample_points(s, n, np.random.default_rng(seed + i)))
            for i, s in enumerate(specs)]


def _alone(samples, **tols):
    return [verify_algebra(s, n_points=p.shape[0], seed=seed, **tols).to_json()
            for s, seed, p in samples]


# the II2 spec of the precision study: its algebra rows fail after the fit
_FAILING_II2 = SystemSpec("II2", 1e6, -1.0, 1e-9, 1e6, 1e6, -1.0, -1.0, 1e6)


def _draws(tag, count, seed):
    rng = np.random.default_rng(seed)
    return [SystemSpec(tag, *rng.choice([-1.0, 1.0], 8) * rng.uniform(0.25, 2.0, 8))
            for _ in range(count)]


def test_a_group_gives_each_sample_its_own_report():
    # mixed classes, a spec whose correction runs inside the group, and
    # samples of different sizes
    specs = (_draws("II2", 2, 1) + [_FAILING_II2] + _draws("I3", 2, 2)
             + _draws("II2", 1, 3))
    samples = _samples(specs)
    samples[1] = (specs[1], 99, sample_points(specs[1], 7, np.random.default_rng(99)))
    reports = [r.to_json() for r in _algebra(samples)[1]]
    assert reports == _alone(samples)
    assert [json.loads(r)["correction_applied"] for r in reports] == [
        False, False, True, False, False, False]


def test_a_forced_correction_in_a_group_is_the_one_alone():
    samples = _samples(_draws("I2", 3, 4))
    reports = [r.to_json() for r in _algebra(samples, tol_nested=1e-30)[1]]
    assert reports == _alone(samples, tol_nested=1e-30)
    assert all(json.loads(r)["correction_applied"] for r in reports)


def test_a_casimir_pass_hands_back_order_two_jets_of_each_samples_own_points():
    # a casimir pass is of order 1 and keeps none of its jets: each sample
    # gets the jets of its own spec and points, at the orders the geometry
    # checks read
    from superint.geometry import curvature_class_of
    from superint.poisson import _verify
    from superint.systems import SampleJets

    samples = _samples(_draws("I2", 2, 4))
    jets, reports = _verify("casimir", samples, {"casimir": TOL_NESTED})
    assert all(r.passed for r in reports)
    got = [curvature_class_of(j) for j in jets]
    assert got == [curvature_class_of(SampleJets(spec, pts)) for spec, _, pts in samples]
    assert got[0] != got[1]


def test_a_group_raises_the_error_of_the_first_sample_that_raises(monkeypatch):
    # the passes run per class, so the third sample's pass (I2, with the
    # first) comes before the second's (II1); the error must still be the
    # second's, and the first report must come out before it
    import superint.systems as systems_mod
    from superint.errors import DomainError

    specs = [_draws("I2", 1, 5)[0], SystemSpec("II1", **GENERIC),
             _draws("I2", 1, 6)[0], SystemSpec("II1", **GENERIC)]
    samples = _samples(specs)
    marked = {1: samples[1][2].xi[3], 2: samples[2][2].xi[5]}
    real_seed = systems_mod.seed_phase

    def seed_phase(point, order=2):
        for i, xi in marked.items():
            if np.any(point.xi == xi):
                raise DomainError("metric", float(xi), f"sample {i}")
        return real_seed(point, order)

    monkeypatch.setattr(systems_mod, "seed_phase", seed_phase)
    with pytest.raises(DomainError, match="sample 1"):
        verify_algebra(specs[1], n_points=50, seed=samples[1][1])
    _, reports = _algebra(samples)
    assert next(reports).to_json() == _alone(samples[:1])[0]
    with pytest.raises(DomainError, match="sample 1"):
        next(reports)


def test_passes_pack_whole_samples_of_one_key():
    import superint.poisson as poisson_mod
    from superint.systems import constants_poly

    def group(specs, sizes):
        return [(s, 0, PhasePoint(*np.ones((4, n)))) for s, n in zip(specs, sizes)]

    spec, other = SystemSpec("I1", **GENERIC), SystemSpec("I1", **{**GENERIC, "mu": 0.0})
    chunk = poisson_mod._CHUNK
    g = group([spec, other, spec, spec, spec, other],
              [chunk // 2, 10, chunk // 2, 1, chunk + 5, 10])
    cps = [constants_poly(s) for s, _, _ in g]
    counts = [p.shape[0] for _, _, p in g]
    # mu = 0 drops a term of G and changes the length of no constant
    assert poisson_mod._passes(g, counts, cps) == [[0, 2], [3], [4], [1, 5]]
    assert poisson_mod._passes(g[:1], counts[:1], cps[:1]) == [[0]]


def test_specs_that_drop_different_terms_share_no_pass():
    specs = [SystemSpec("I1", **GENERIC), SystemSpec("I1", **{**GENERIC, "mu": 0.0}),
             SystemSpec("I1", **{**GENERIC, "kappa": 0.0}), SystemSpec("I1", **GENERIC)]
    samples = _samples(specs)
    assert [r.to_json() for r in _algebra(samples)[1]] == _alone(samples)


# The parent expressions of the rewritten reductions, copied here: each
# rewritten helper must give their bits.
_SPECIAL = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf])
_ZEROS = np.array([0.0, -0.0])
_SHAPES = [(), (1,), (7,), (2048,)]
_PAIRS = ((0, 2), (1, 3))


def _stacked(*terms):
    t = np.stack(terms)
    return t.sum(axis=0), np.abs(t).max(axis=0)


def _ref_contract(dF, dG):
    return _stacked(*[dF[q] * dG[p] for q, p in _PAIRS], *[-dF[p] * dG[q] for q, p in _PAIRS])


def _ref_casimir(con, c, a, b):
    terms = np.stack([c**2, -2.0 * con.alpha * a**2 * b,
                      -2.0 * con.gamma * a * b**2, -2.0 * con.delta * a * b,
                      -con.epsilon * b**2, -2.0 * con.zeta * b,
                      (2.0 / 3.0) * con.a * a**3, con.d * a**2,
                      2.0 * con.z * a])
    return functools.reduce(np.add, terms), np.abs(terms).max(axis=0)


def _ref_grad_bracket(X, C):
    val, term_scale = _ref_contract(X.grad, C.grad)
    carriers = ([np.abs(X.grad[q]) * C.grad_scale[p] for q, p in _PAIRS]
                + [np.abs(X.grad[p]) * C.grad_scale[q] for q, p in _PAIRS])
    return val, functools.reduce(np.maximum, carriers, term_scale)


def _ref_rows(cp, H, A, B, a_off, b_off):
    E = H.val
    con = cp.at_energy(E)
    Av, Bv = A.val + a_off, B.val + b_off
    C = bracket_jets(A, B)
    one = np.ones_like(E)
    AC_val, AC_scale = _ref_grad_bracket(A, C)
    rhs_AC, s_AC = _stacked(con.alpha * Av**2, 2.0 * con.gamma * Av * Bv,
                            con.delta * Av, con.epsilon * Bv, con.zeta * one)
    BC_val, BC_scale = _ref_grad_bracket(B, C)
    rhs_BC, s_BC = _stacked(-2.0 * con.alpha * Av * Bv, -con.gamma * Bv**2,
                            -con.delta * Bv, con.a * Av**2, con.d * Av, con.z * one)
    kcomb, s_K = _ref_casimir(con, C.val, Av, Bv)
    s_K = np.maximum(s_K, np.abs(C.val) * C.val_scale)
    return {"HA": _norm(*_ref_contract(H.grad, A.grad)),
            "HB": _norm(*_ref_contract(H.grad, B.grad)),
            "HC": _norm(*_ref_grad_bracket(H, C)),
            "AC_row": _norm(AC_val - rhs_AC, AC_scale, s_AC),
            "BC_row": _norm(BC_val - rhs_BC, BC_scale, s_BC),
            "casimir": _norm(kcomb - con.K_casimir, s_K, np.abs(con.K_casimir))}


def _floats(rng, shape, special):
    """Floats over 16 decades, a share of them drawn from a pool of specials:
    ``special`` is (share, pool)."""
    n = int(np.prod(shape))
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
    share, pool = special
    chosen = rng.random(n) < share
    x[chosen] = rng.choice(pool, chosen.sum())
    return x.reshape(shape)


def _jet(rng, shape, order, special):
    return Jet2(_floats(rng, shape, special), _floats(rng, (4,) + shape, special),
                _floats(rng, (10,) + shape, special) if order == 2 else None)


def _constants(rng, special):
    """A ConstantsPoly with random coefficients of one to three terms."""
    floats = lambda: float(_floats(rng, (), special))
    poly = lambda: _floats(rng, (int(rng.integers(1, 4)),), special)
    return ConstantsPoly(floats(), floats(), floats(), delta=poly(), epsilon=poly(),
                         zeta=poly(), d=poly(), z=poly(), K=poly())


_CASES = dict(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from(_SHAPES),
              special=st.sampled_from([(0.0, _SPECIAL), (0.05, _SPECIAL), (0.5, _SPECIAL),
                                       (1.0, _SPECIAL), (1.0, _ZEROS)]))


def _bits(parts):
    return [np.asarray(p).tobytes() for p in parts]


@given(**_CASES)
@settings(max_examples=100, deadline=None)
def test_the_contraction_keeps_the_bits_of_its_stacked_sums(seed, shape, special):
    rng = np.random.default_rng(seed)
    dF, dG = (_floats(rng, (4,) + shape, special) for _ in range(2))
    with np.errstate(all="ignore"):
        assert _bits(_contract(dF, dG)) == _bits(_ref_contract(dF, dG))


@given(**_CASES)
@settings(max_examples=100, deadline=None)
def test_the_casimir_combination_keeps_the_bits_of_its_stacked_sums(seed, shape, special):
    rng = np.random.default_rng(seed)
    c, a, b, E = (_floats(rng, shape, special) for _ in range(4))
    with np.errstate(all="ignore"):
        con = _constants(rng, special).at_energy(E)
        assert _bits(casimir_combination(con, c, a, b)) == _bits(_ref_casimir(con, c, a, b))


@given(**_CASES, offsets=st.sampled_from([(0.0, 0.0), (-0.0, 0.0), (1e-9, -3e-9)]))
@settings(max_examples=100, deadline=None)
def test_the_residual_rows_keep_the_bits_of_their_stacked_sums(seed, shape, special,
                                                                offsets):
    rng = np.random.default_rng(seed)
    H, A, B = _jet(rng, shape, 1, special), _jet(rng, shape, 2, special), _jet(
        rng, shape, 2, special)
    cp = _constants(rng, special)
    names = ("HA", "HB", "HC", "AC_row", "BC_row", "casimir")
    with np.errstate(all="ignore"):
        got = _row_residuals(cp, (H, A, B), names)(*offsets)
        ref = _ref_rows(cp, H, A, B, *offsets)
    assert list(got) == list(names)
    assert {k: v.tobytes() for k, v in got.items()} == {k: v.tobytes() for k, v in ref.items()}


@pytest.mark.parametrize("tag", CLASS_TAGS)
def test_the_max_over_one_chunk_is_the_max_over_several(monkeypatch, tag):
    import superint.poisson as poisson_mod
    from superint.systems import constants_poly

    spec = SystemSpec(tag, **GENERIC)
    pts = sample_points(spec, 300, np.random.default_rng(5))
    cp = constants_poly(spec)
    names = ("HA", "HB", "HC", "AC_row", "BC_row", "casimir")

    def chunked_max():
        chunks = (_row_residuals(cp, SampleJets.evaluate(spec, sub).hab, names)()
                  for sub in poisson_mod._chunks(pts))
        return _chunked_max(chunks, names)

    one, = chunked_max()
    monkeypatch.setattr(poisson_mod, "_CHUNK", 64)
    several, = chunked_max()
    assert {k: v.hex() for k, v in one.items()} == {k: v.hex() for k, v in several.items()}
    assert all(type(v) is float for v in one.values())


# -- an exact rescaling symmetry ----------------------------------------------
# Every closed form is linear in its parameter quadruple: with the metric
# parameters times c, the potential parameters times c^2 and the momenta times
# c, H becomes c H and A, B become c^2 A, c^2 B.  For c = 2^k every rounding
# scales too, so the jets scale bit for bit, and so does each term of every
# identity's residual: |num| / scale stays the same at every point.

_IDENTITIES = ("HA", "HB", "HC", "AC_row", "BC_row", "casimir")


@functools.cache
def _reference_sample(tag):
    spec = SystemSpec(tag, **GENERIC)
    return spec, sample_points(spec, 200, np.random.default_rng(3))


def _ratios(spec, pts):
    """|num| / scale per point for each identity, in the order the residual
    rows pass them to ``_norm``."""
    import superint.poisson as poisson_mod
    from superint.systems import constants_poly

    out = []

    def record(num, *scales):
        out.append(np.abs(num) / functools.reduce(np.maximum, scales))
        return _norm(num, *scales)

    poisson_mod._norm = record
    try:
        with np.errstate(all="ignore"):   # 0 / 0 where a scale is 0
            _row_residuals(constants_poly(spec), SampleJets.evaluate(spec, pts).hab,
                           _IDENTITIES)()
    finally:
        poisson_mod._norm = _norm
    return out


@given(tag=st.sampled_from(CLASS_TAGS), k=st.integers(1, 40))
@settings(max_examples=60, deadline=None)
def test_rescaling_the_parameters_and_momenta_scales_every_identity_exactly(tag, k):
    spec, pts = _reference_sample(tag)
    c = 2.0**k
    scaled = SystemSpec(tag, *(c * x for x in spec.metric_params),
                        *(c * c * x for x in spec.potential_params))
    moved = PhasePoint(pts.xi, pts.eta, c * pts.p_xi, c * pts.p_eta)
    # a derivative in a momentum carries one factor c less
    per_var = np.array([1.0, 1.0, c, c])[:, None]
    for power, jet, got in zip((1, 2, 2), SampleJets.evaluate(spec, pts).hab,
                               SampleJets.evaluate(scaled, moved).hab):
        factor = c**power
        assert np.array_equal(got.val, factor * jet.val)
        assert np.array_equal(got.grad, factor / per_var * jet.grad)
        if jet.order == 2:
            assert np.array_equal(
                got.hess, factor / (per_var[jet._IU] * per_var[jet._JU]) * jet.hess)
    want, have = _ratios(spec, pts), _ratios(scaled, moved)
    assert len(want) == len(have) == len(_IDENTITIES)
    for name, a, b in zip(_IDENTITIES, want, have):
        assert np.array_equal(a, b, equal_nan=True), name


def test_the_summary_has_one_line_per_identity():
    rep = verify_algebra(SystemSpec("I1", **GENERIC), n_points=20)
    lines = rep.summary_lines()
    assert [line.split()[0] for line in lines] == [i.name for i in rep.identities]
    assert lines[0] == (f"{'HA':12s} max_residual={rep.identities[0].max_residual:.3e} "
                        f"tol={rep.identities[0].tolerance:.1e} pass")
    failing = verify_algebra(SystemSpec("I1", **GENERIC), n_points=20, tol_nested=1e-30)
    assert any(line.endswith(" FAIL") for line in failing.summary_lines())
