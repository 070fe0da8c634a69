"""Euler-angle geometry of SU(3).

Group elements factor into eight one-parameter subgroups; this package
provides the Gell-Mann algebra layer, the factorization and its inverse,
left/right invariant vector-field frames and one-form coframes, the
adjoint representation, and the Haar measure with exact sampling and
integration, plus a verification suite covering every identity involved.
"""

from .euler import (DecompositionError, EulerAngles, PHI_PERIOD, canonicalize,
                    compose, compose_many, decompose, factor_exponential)
from .gellmann import (LAMBDA, SQRT3, commutator, expand_in_basis,
                       gell_mann_matrix, structure_constants,
                       verify_cartan_split)
from .haar import (AngleRanges, IntegrationResult, RANGES_COVER, RANGES_QUAD,
                   RANGES_STATED, character, density, density_from_coframe,
                   group_volume, integrate_mc, integrate_quadrature,
                   mc_moments, quadrature_mean, sample_angles,
                   volume_report)
from .invariant_forms import (CoFrameMatrix, left_coframe, left_coframe_closed,
                              right_coframe, right_coframe_closed)
from .tangent_frames import (ChartSingularityError, FrameMatrix,
                             MaurerCartanCoefficients, adjoint_matrix,
                             left_field_frame, left_field_frame_closed,
                             maurer_cartan_coefficients, partial_derivatives,
                             right_field_frame, right_field_frame_closed)

__version__ = "0.1.0"
