"""Exact geometry of minimal length elements in finite twisted Coxeter groups.

The package builds finite Coxeter systems over the real cyclotomic field
Q(2cos(pi/L)), enumerates twisted conjugacy classes, walks the gradient flow
of the displacement function across chambers, certifies good elements in the
positive braid monoid via Garside normal forms, and verifies the conjugation
and braid-power theorems exhaustively on desk-scale groups.
"""

__version__ = "0.1.0"

from .errors import (CoxminError, NotFinite, TooLarge, FieldTooSmall,
                     FieldMismatch, ScalarDomainError, MultiplicityMismatch,
                     NoRegularPoint,
                     NotAdmissible, HypothesisFailed,
                     IdentityFailed, TheoremViolation)
from .scalars import AlgebraicScalar, ScalarField, get_field, minpoly_two_cos_pi_over
from .coxeter import (CoxeterMatrix, CoxeterSystem, DiagramTwist, GroupElement,
                      TwistedElement, Chamber, GroupTable, named_matrix,
                      build_system, enumerate_twists, untwisted,
                      parabolic_max, coset_decompose, conjugate_by_chamber)
from .eigen import (Angle, EigenDecomposition, Filtration, order,
                    eigen_decomposition, regular_point,
                    closure_holds_regular_point, hyperplanes_containing,
                    reflection_subgroup, fixed_space, is_elliptic,
                    is_quasi_elliptic, admissible_filtration,
                    good_position_chamber)
from .conjugacy import (TwistedCoset, ConjugacyClassRecord, ReductionChain,
                        PathGraph, enumerate_classes, arrow_reduce,
                        verify_arrow_reduction, approx_partition,
                        strong_partition, elementary_strong_targets,
                        path_graph, verify_tau_surjective,
                        verify_elliptic_approx, partial_conjugation_transfer,
                        parabolic_subsystem)
from .walk import (WalkResult, WalkStep, derivative_test, descent_walk,
                   special_length_formula, decompose_at_regular,
                   component_length, strongly_connected_step,
                   geometric_min_length)
from .braid import (BraidContext, TwistedBraid, GarsideNormalForm,
                    GoodCertificate, lift, delta_squared,
                    divisible_by_delta_squared, certify_good, good_min_element,
                    verify_rotation_identity, verify_quasi_elliptic_divisibility)

__all__ = [name for name in dir() if not name.startswith("_")]
