"""Curvature, revolution and linear-integral checks against known rows."""

import numpy as np
import pytest
from superint.errors import DomainError
from superint.geometry import (TOL_LINEAR, classify_curvature, curvature, curvature_class_of,
                               linear_integral_check, linear_observable, linear_residual_of,
                               revolution_check, revolution_tag_of)
from superint.jets import CoordJet
from superint.poisson import DEFAULT_SEED
from superint.systems import SampleJets, SystemSpec, build_fns, sample_points


def _sampled(spec):
    """The 50 points the sampling wrappers draw by default."""
    return sample_points(spec, 50, np.random.default_rng(DEFAULT_SEED))


def _jets(spec):
    """The jets on those points that the revolution and linear wrappers
    read."""
    return SampleJets(spec, _sampled(spec))


def _fd_curvature_oracle(g_fn, xi, eta, h=1e-5):
    """K = -(1/2g) d^2 ln g / dxi deta by central differences on ln g."""
    lg = lambda x, e: np.log(g_fn(x, e))
    mixed = (lg(xi + h, eta + h) - lg(xi + h, eta - h)
             - lg(xi - h, eta + h) + lg(xi - h, eta - h)) / (4 * h * h)
    return -mixed / (2.0 * g_fn(xi, eta))


def test_flat_strip_curvature():
    spec = SystemSpec("I1", nu=2.0)
    K = curvature(spec, np.linspace(0.3, 1.9, 9), np.linspace(0.25, 1.7, 9))
    assert np.abs(K).max() == 0.0


def test_f4_row_curvature_zero():
    spec = SystemSpec("II1", kappa=1.0)
    c = classify_curvature(spec, n_points=50)
    assert c.tag == "Zero" and c.max_abs <= 1e-8


def test_c1_row_unit_curvature():
    spec = SystemSpec("I1", mu=1.0)
    rng = np.random.default_rng(2)
    pts = sample_points(spec, 50, rng)
    K = curvature(spec, pts.xi, pts.eta)
    assert np.abs(K - 1.0).max() <= 1e-8
    # independent finite-difference oracle on the explicit metric
    g_fn = lambda x, e: 1.0 / (x - e) ** 2
    K_fd = _fd_curvature_oracle(g_fn, 1.3, 0.4)
    assert abs(K_fd - 1.0) <= 1e-5


def test_classify_constant_and_nonconstant():
    c2 = classify_curvature(SystemSpec("I2", kappa=-1.0))
    assert c2.tag == "Constant" and abs(c2.mean - 1.0) <= 1e-7

    generic = classify_curvature(SystemSpec("I1", kappa=1.0, lam=0.5, mu=-0.3, nu=2.0))
    assert generic.tag == "NonConstant"
    # two sampled points differ by more than the constancy tolerance
    K = curvature(generic and SystemSpec("I1", kappa=1.0, lam=0.5, mu=-0.3, nu=2.0),
                  np.array([0.9, 1.7]), np.array([0.4, 0.6]))
    assert abs(K[0] - K[1]) > 1e-3


def _curvature_log_form(spec, xi, eta):
    """-(1/2g) d^2 ln(g) / dxi deta, by jets; needs g > 0."""
    g = build_fns(spec).metric(CoordJet.seed(xi, 0), CoordJet.seed(eta, 1))
    return -g.log().hess_at(0, 1) / (2.0 * g.val)


def test_log_free_form_matches_log_form():
    # wherever g > 0 the rational form equals the ln-based definition
    spec = SystemSpec("I1", kappa=0.3, lam=0.1, mu=0.5, nu=2.0)
    rng = np.random.default_rng(3)
    pts = sample_points(spec, 100, rng)

    g = build_fns(spec).metric(pts.xi, pts.eta)
    mask = g > 1e-3
    a = curvature(spec, pts.xi[mask], pts.eta[mask])
    b = _curvature_log_form(spec, pts.xi[mask], pts.eta[mask])
    assert np.abs(a - b).max() <= 1e-10 * (1.0 + np.abs(a).max())


@pytest.mark.parametrize("spec, n_bad", [
    (SystemSpec("II3", kappa=1e155, nu=1.0), 49),
    (SystemSpec("I1", kappa=1e160), 50),
])
def test_a_curvature_that_is_not_finite_is_a_domain_error(spec, n_bad):
    # g**3 overflows: K is NaN at n_bad of the 50 points, and a classification
    # of it would report NaN statistics and NonConstant
    pts = _sampled(spec)
    with np.errstate(all="ignore"):
        K = curvature(spec, pts.xi, pts.eta)
        assert (~np.isfinite(K)).sum() == n_bad
        with pytest.raises(DomainError, match="max [|]K[|] is nan, not finite"):
            curvature_class_of(SampleJets(spec, pts))
        with pytest.raises(DomainError, match="not finite"):
            classify_curvature(spec)


@pytest.mark.parametrize("xi, eta", [(np.nan, 1.0), (1.0, [0.5, np.inf])])
def test_a_curvature_at_a_coordinate_that_is_not_finite_is_a_domain_error(xi, eta):
    with pytest.raises(DomainError, match="non-finite component"):
        curvature(SystemSpec("I1", kappa=1.0, nu=2.0), xi, eta)


def test_negative_conformal_factor_supported():
    # C_4 at K = -1 gives g < 0 everywhere; the ln form would be undefined
    spec = SystemSpec("I3", mu=-4.0)
    c = classify_curvature(spec)
    assert c.tag == "Constant" and abs(c.mean + 1.0) <= 1e-7


def test_revolution_r1_diff_only():
    spec = SystemSpec("I1", mu=0.7, nu=1.3)
    assert revolution_check(spec) == "DiffOnly"


def test_revolution_r2_sum_only():
    spec = SystemSpec("I1", kappa=0.9, nu=1.1)
    assert revolution_check(spec) == "SumOnly"


def test_revolution_constant_metric_both():
    assert revolution_check(SystemSpec("I1", nu=2.0)) == "Both"


def test_revolution_generic_neither():
    spec = SystemSpec("I1", kappa=1.0, lam=0.5, mu=-0.3, nu=2.0)
    assert revolution_check(spec) == "Neither"


def test_revolution_r10_transformed_only():
    spec = SystemSpec("II1", kappa=0.8, nu=1.2)
    assert revolution_check(spec) == "Neither"
    assert revolution_tag_of(spec, _jets(spec), "transformed") == "SumOnly"


def test_linear_gl1_plus_sign():
    spec = SystemSpec("I1", mu=0.4, nu=1.2, m=0.3, n=0.5)
    assert linear_integral_check(spec, "plus") <= 1e-9
    assert linear_integral_check(spec, "minus") > 1e-3


def test_linear_generic_fails():
    spec = SystemSpec("I1", kappa=1.0, nu=2.0, k=0.2)
    r = linear_integral_check(spec, "plus")
    assert r > 1e-3
    # finite-difference cross-check that the bracket really is O(1)
    from superint.jets import PhasePoint
    from superint.poisson import bracket_fd
    from superint.geometry import linear_observable
    from superint.systems import hamiltonian

    H = hamiltonian(spec)
    L = linear_observable(spec, "plus")
    val = bracket_fd(H, L, PhasePoint(1.0, 0.5, 0.8, -0.6))
    assert abs(float(val)) > 1e-2


def test_linear_free_constant_metric_both_signs():
    spec = SystemSpec("I1", nu=2.0)
    assert linear_integral_check(spec, "plus") <= 1e-12
    assert linear_integral_check(spec, "minus") <= 1e-12
    # g and w of this Lie metric depend on eta alone: p_eta is not conserved
    lie = SystemSpec("II1", mu=0.5, nu=1.0, m=0.3, n=0.2)
    assert linear_residual_of(lie, _jets(lie), "plus", "eta-only") > 1e-3


def test_linear_gl3_needs_transformed_coordinates():
    spec = SystemSpec("I2", lam=0.6, nu=1.1, ell=0.2, n=0.4)
    assert linear_integral_check(spec, "minus") > 1e-3
    assert linear_residual_of(spec, _jets(spec), "minus", "transformed") <= 1e-9


@pytest.mark.xfail(strict=True, reason="|num| / (1 + scale) is an absolute test when "
                   "every term is far below 1, so a large kappa scales the residual "
                   "below the tolerance")
def test_a_missing_linear_integral_fails_at_any_scale():
    # {H, p_xi + p_eta} != 0 for II1 at kappa alone: 1.71 at kappa = 1, 1.2e-8 at
    # kappa = 1e9 (both fail), and 1.2e-11 at kappa = 1e12, which passes
    for kappa in (1.0, 1e9):
        assert linear_integral_check(SystemSpec("II1", kappa=kappa), "plus") > TOL_LINEAR
    assert linear_integral_check(SystemSpec("II1", kappa=1e12), "plus") > TOL_LINEAR


def test_unknown_coordinates_are_a_value_error():
    spec = SystemSpec("I1", mu=0.5, nu=1.5)
    jets = SampleJets(spec, sample_points(spec, 10, np.random.default_rng(0)))
    with pytest.raises(ValueError, match="coords must be 'liouville' or 'transformed'"):
        revolution_tag_of(spec, jets, "polar")
    with pytest.raises(ValueError, match="unknown coords 'polar'"):
        linear_observable(spec, "plus", "polar")
