"""Numerical laboratory for least superharmonic majorants of gains on the
unit ball, the optimal-stopping value functions they encode, and the branched
harmonic majorants that approximate them.
"""

from .gain import (GainField, gain_from_config, mollify, offset_bump_gain, radial_bump_gain,
                   spiked_gain)
from .geometry import (Annulus, Ball, Cap, FullBall, GridRegion, Intersection,
                       boundary_samples, hausdorff_distance, signed_distance,
                       smooth_inner_approximation)
from .grids import cartesian_grid, radial_grid, scale_coordinate
from .harmonic import (BoundaryData, poisson_ball_eval, radial_annulus_harmonic,
                       wos_harmonic_eval)
from .majorant import (BranchedMajorant, ExtensionMap, HarmonicPatch, annulus_patch,
                       annulus_to_boundary_patch, cap_patch, constant_patch,
                       continuous_regularisation, interior_boundary_samples, leaf,
                       majorises_gain, matching_error, upward_translate)
from .envelope import (ContactSet, EnvelopeSequence, GridField, balayage_step,
                       build_branched_witness, contact_set, envelope_step,
                       iterate_envelopes, unbranched_envelope)
from .oracle import (RadialProfile, cross_validate, psor_obstacle_solve,
                     radial_value_oracle)
from .pathsim import (ContactHit, EarlierOf, FirstExit, FixedTime, PathConfig, PathRecord,
                      euler_exits, optimality_test, payoff_estimate, run_algorithm1)

__version__ = "0.1.0"
