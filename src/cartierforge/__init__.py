"""Exact semilinear algebra over finite fields: Cartier and Frobenius
module structures on desk-scale rings, their duality, Sol, local duality,
and crystal-level tests, all reduced to verifiable linear algebra."""

__version__ = "0.1.0"

from .field import GF, FiniteField
from .twisted import fixed_point_attainment, semilinear_fixed_points
from .poly import Poly, smith_normal_form
from .artinian import (ArtinRing, FinModule, f_flat, fin_module,
                       frobenius_pushforward, hom_module, i_torsion,
                       quotient_ring, regular_module, restrict_scalars,
                       ring_make)
from .structures import (Structured, adjoint_structural, cartier_module,
                         f_module, is_unit, iterate_structure, kashiwara_counit,
                         nil_isomorphism_check, nilpotency_index, stable_image,
                         stable_kernel, twist_by_unit_line, unitalize, validate)
from .pid import (PidModule, Unsupported, inverse_module, pid_free, pid_sum,
                  pid_torsion)
from .duality import (crystal_class, crystal_equivalent, double_dual_check,
                      dual_base_change_check, dualizing_module, elliptic_ap,
                      extend_scalars, hasse_invariant, ordinarity,
                      pair_C_to_F, pair_F_to_C, sol_base_change_check,
                      sol_point)
from .complexes import (StructuredComplex, coherent_model_of_localization,
                        dualize, is_perverse, local_duality_check, matlis_dual,
                        shift_module)
