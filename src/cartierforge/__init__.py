"""Exact semilinear algebra over finite fields: Cartier and Frobenius
module structures on desk-scale rings, their duality, Sol, local duality,
and crystal-level tests, all reduced to verifiable linear algebra."""

__version__ = "0.1.0"

from .field import GF, FiniteField
from .twisted import (TwistedOperator, change_basis, fixed_point_attainment,
                      semilinear_fixed_points, stable_rank, twisted_compose)
from .poly import Poly, smith_normal_form
from .artinian import (ArtinRing, FinModule, f_flat, fin_module,
                       frobenius_pushforward, hom_module, i_torsion,
                       quotient_ring, regular_module, restrict_scalars,
                       ring_make)
from .structures import (CartierModule, FModule, adjoint_structural,
                         cartier_module, f_module, is_unit, iterate_structure,
                         kashiwara_counit, kashiwara_roundtrip,
                         nil_isomorphism_check, nilpotency_index,
                         stable_image, stable_kernel, twist_by_unit_line,
                         unitalize, validate)
from .pid import (PidModule, PresModule, Unsupported, cech_local_cohomology,
                  frobenius_pushforward_presentation, inverse_module, kappa_s,
                  pid_free, pid_sum, pid_torsion, pres_module)
from .duality import (DualizingData, crystal_possibly_equivalent,
                      crystal_signature, double_dual_check,
                      dual_base_change_check, dualizing_module, elliptic_ap,
                      extend_scalars, hasse_invariant, ordinarity,
                      pair_C_to_F, pair_F_to_C, sol_base_change_check,
                      sol_point)
from .complexes import (StructuredComplex, cartier_structure_on_ring,
                        coherent_model_of_localization, dualize, is_perverse,
                        local_duality_check, matlis_dual, shift_module,
                        unit_dualizing_complex)
