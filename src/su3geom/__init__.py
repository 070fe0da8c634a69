"""Euler-angle geometry of SU(3).

Group elements factor into eight one-parameter subgroups; this package
provides the Gell-Mann algebra layer, the factorization and its inverse,
left/right invariant vector-field frames and one-form coframes, the
adjoint representation, and the Haar measure with exact sampling and
integration, plus a verification suite covering every identity involved.
"""

from .euler import (RANGES_COVER, RANGES_QUAD, RANGES_STATED, AngleRanges,
                    DecompositionError, EulerAngles, PHI_PERIOD, canonicalize,
                    compose, compose_many, decompose, factor_exponential)
from .gellmann import (LAMBDA, SQRT3, commutator, expand_in_basis,
                       gell_mann_matrix, structure_constants,
                       verify_cartan_split)
from .haar import (IntegrationResult, character, density, group_volume,
                   integrate_mc, integrate_quadrature, sample_angles)
from .invariant_forms import (CoFrameMatrix, left_coframe, left_coframe_closed,
                              right_coframe, right_coframe_closed)
from .tangent_frames import (ChartSingularityError, FrameMatrix,
                             adjoint_matrix, left_field_frame,
                             left_field_frame_closed,
                             maurer_cartan_coefficients, partial_derivatives,
                             right_field_frame, right_field_frame_closed)

__version__ = "0.1.0"
