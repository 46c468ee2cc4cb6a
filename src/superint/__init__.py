"""Verification library for 2D superintegrable systems with quadratic integrals.

The package instantiates the six fundamental classes of two-dimensional
superintegrable systems (I1, I2, I3 on Liouville surfaces; II1, II2, II3
on Lie surfaces) and numerically certifies the identities they satisfy:
commutation of the integrals, closure of the quadratic Poisson algebra,
the Casimir polynomial, curvature classification, and the classification
tables (surfaces of revolution, flat and constant-curvature potentials,
linear-plus-quadratic families).
"""

from .errors import (ConstraintError, DomainError, IllConditioned,
                     SamplingError, StepFailure)
from .jets import (Dual4, Jet2, Observable, PhasePoint, fd_derivatives,
                   norm_residual)
from .systems import (CLASS_TAGS, AlgebraConstants, SampleDomain, SystemFns,
                      SystemSpec, algebra_constants, build_fns,
                      characteristic_residual, constants_poly, hamiltonian,
                      integral_A, integral_B, sample_domain, sample_points,
                      spec_from_dict, spec_to_dict, structural_pde_residual)
from .poisson import (VerificationReport, bracket, bracket_fd, c_observable,
                      casimir_coefficients, polynomial_membership,
                      verify_algebra, verify_casimir)
from .geometry import (CurvatureClass, classify_curvature, curvature,
                       linear_integral_check, revolution_check)
from .dynamics import Trajectory, drift_report, integrate
from .catalog import (CatalogEntry, instantiate, load_catalog, lookup,
                      verify_entry)

__version__ = "0.1.0"
