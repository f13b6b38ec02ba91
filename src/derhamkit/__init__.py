"""derhamkit: exact desk-scale homological algebra over truncated p-adic rings.

Simplicial resolutions, cotangent complexes, Hodge-filtered derived de Rham
algebras, divided powers, Witt vectors, tilts and theta, with every claim
backed by finite exact linear algebra over Z, Z/p^n and F_p.
"""

from .exactlin import ModRing, PAdicValue, smith_normal_form, howell_form, quotient_invariants, resultant
from .upoly import Monogenic
from .polyalg import PolyAlgebra, graded_slice_basis
from .complexes import GradedSliceComplex, DoubleComplex, HomologyReport, slice_homology, total_complex, homology_report
from .simplex import (
    SimplicialModule,
    BisimplicialModule,
    normalized_complex,
    unnormalized_complex,
    kan_transform,
    diagonal,
    double_kan,
    shuffles,
)
from .cotangent import (
    AlgebraPresentation,
    FreeSimplicialResolution,
    kaehler_factors,
    kaehler_presentation,
    cotangent_homology,
)
from .pdpow import gamma_monomials, derived_power, koszul_gamma_complex
from .derham import build_derham, hodge_quotient_homology, universal_thickening, pd_envelope_report, h0_shuffle_product
from .witt import (
    structure_polynomials,
    WittRing,
    WittVector,
    lift_homomorphism,
    CyclotomicModel,
    tilt_ring,
    theta_map,
    ker_theta_report,
)
from .padicfield import (
    cyclotomic_extension,
    different_valuation,
    omega_invariants,
)
from .suites import list_suites, run_suite

__version__ = "0.1.0"
