"""Verification toolkit for free companions of Bass units in PSL(2,q).

Builds PSL(2,q) with its canonical Bass and bicyclic units and checks,
in exact arithmetic, the combinatorial and spectral criteria under
which a bicyclic unit is a free companion of a Bass unit based on a
dihedral p-critical element.
"""

from .classify import DpcVerdict, dpc_brute_force, dpc_predicate, dpc_verdict, \
    multiplicative_order
from .criteria import CriterionReport, IntersectionCounts, balance_table, \
    companion_condition, criterion_report, intersection_counts, search_companion
from .engine import ConditionEngine
from .finite_fields import FieldSetup, PrimePower, build_setup, make_field
from .group_ring import GroupRingElement, bass_unit, bicyclic_left, \
    bicyclic_right, conjugate_unit, hat
from .orbits import OrbitTable, build_orbits, intersect_count, mask_of, points_of
from .projective import INF, CanonicalGenerators, PSL2, make_generators
from .spectral import CycloCoefficients, EigenData, ExactCertificate, \
    NumericCertificate, certified_recipe, diagonalizer_identities, eigen_data, \
    exact_certificate, integer_rank, nilpotent_part, numeric_oracle, \
    paired_companion, perm_matrix, projection_coeffs, recipe_element, \
    sigma_companion, unit_matrix
from .sweep import SweepRecord, SweepSummary, admissible_primes, check_single, \
    run_sweep

__version__ = "0.1.0"
