"""The benchmark's fixed workloads and the library functions its trace wraps.

A workload is a list of ``(suite, params, seed)`` calls to ``run_suite`` at
the acceptance parameters of ``tests/test_acceptance.py``.  A call whose
seed is ``None`` gets the run's ``--seed``; a call with a number keeps that
seed.  The reasons for each choice are in ``perfbench/README.md``.
"""

# The acceptance seed.  Calls pinned to it are those whose cost swings with
# their random inputs: over seeds 1-8, eilenberg-zilber took 2.6-26.5 s and
# 114-603 MB peak, and dold-kan-roundtrip 3.0-5.6 s, which would swamp any
# change the benchmark is meant to show.
ACCEPTANCE_SEED = 1

WORKLOADS = {
    # A few large sparse eliminations (largest 735x975 over F_3): exactlin
    # kernels, cotangent certify and de Rham homology.  weight_bound=5 runs
    # the same code at about 46 s a run, too long for repeated runs.
    "derham-pd": (
        ("drpd-modp", {"weight_bound": 4}, None),
        ("drpd-envelope", {"weight_bound": 4, "f": "x^2"}, None),
        ("cotangent-regular", {}, None),
        ("universal-thickening", {}, None),
    ),
    # Thousands of tiny eliminations, Kan transforms and d∘d checks; the
    # memory workload.
    "simplicial": (
        ("dold-kan-roundtrip", {"cases": 20, "max_degree": 5, "max_rank": 3}, ACCEPTANCE_SEED),
        ("eilenberg-zilber", {"cases": 10}, ACCEPTANCE_SEED),
        ("quillen-shift", {"power": 3}, None),
        ("koszul-gamma", {"cases": 20}, None),
        ("different-valuation", {"p": 2, "r_max": 3}, None),
        ("different-valuation", {"p": 3, "r_max": 3}, None),
        ("different-valuation", {"p": 5, "r_max": 3}, None),
    ),
    # Witt arithmetic only, no linear algebra: the workload that a change to
    # exactlin or complexes must leave unchanged.
    "witt-tilt": (
        ("theta-epsilon", {"p": 2, "m": 3, "n": 2, "k": 2}, None),
        ("witt-layer", {"cases": 100}, None),
    ),
}

SUITE_NAMES = sorted({call[0] for calls in WORKLOADS.values() for call in calls})

# "<module>.<function>" or "<module>.<Class>.<method>" under derhamkit.
TRACED = (
    "exactlin.howell_form",
    "exactlin.local_smith",
    "exactlin.left_kernel",
    "exactlin.solve_in_span",
    "exactlin.smith_normal_form",
    "exactlin.mmul",
    "exactlin.resultant",
    "exactlin.quotient_invariants",
    "polyalg.graded_slice_basis",
    "simplex.kan_transform",
    "simplex.normalized_complex",
    "simplex.unnormalized_complex",
    "simplex.double_kan",
    "simplex.diagonal",
    "simplex.SimplicialModule.validate",
    "complexes.GradedSliceComplex.validate",
    "complexes.homology_quotient",
    "complexes.total_complex",
    "complexes.DoubleComplex.validate",
    "cotangent.FreeSimplicialResolution.chain_complex",
    "cotangent.FreeSimplicialResolution.certify",
    "cotangent.cotangent_homology",
    "pdpow.derived_power",
    "pdpow.apply_functor_to_module",
    "pdpow.koszul_gamma_complex",
    "pdpow.wedge_matrix",
    "derham.build_derham",
    "derham.FilteredDeRhamComplex.quotient_complex",
    "derham.hodge_quotient_homology",
    "derham.pd_envelope_report",
    "witt.WittRing.eval_poly",
    "witt.ker_theta_report",
    "witt.generator_ring_homomorphisms",
    "padicfield.different_valuation",
    "padicfield.omega_invariants",
)

# Kernels whose work is counted as the rows x cols of their first k
# positional (matrix) arguments.
CELL_ARGS = {
    "exactlin.howell_form": 1,
    "exactlin.local_smith": 1,
    "exactlin.left_kernel": 1,
    "exactlin.mmul": 2,
}


def homology_is_nonzero(quotient) -> bool:
    """Outcome of one homology_quotient call: did the slice have homology."""
    return bool(quotient.factors)


OUTCOMES = {"complexes.homology_quotient": homology_is_nonzero}
