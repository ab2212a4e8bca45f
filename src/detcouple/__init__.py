"""Co-adapted Brownian couplings with deterministic mutual distance.

On each constant-curvature model space (Euclidean space, sphere, hyperbolic
half-space) a prescribed distance profile rho(t) is realizable by a coupled
pair of Brownian motions exactly when rho' stays inside a curvature-dependent
band; this package constructs the couplings, simulates them, and verifies the
constructions both algebraically and by Monte Carlo.
"""

from .coupling import euclidean_matrices, hyperbolic_matrices, sphere_matrices
from .errors import (AdmissibilityError, DegenerateStateError, DetcoupleError,
                     ValidationError)
from .model_space import (SpaceKind, SpaceSpec, canonical_start, euclidean, from_unit_model,
                          geodesic_distance, hyperbolic, point_at_distance, sphere,
                          to_unit_model)
from .profiles import (AdmissibilityReport, DistanceProfile, ProfileKind,
                       admissible_bounds, check_admissibility, clamped, constant, envelope,
                       euclidean_max_growth, hyperbolic_lower, hyperbolic_upper,
                       sphere_contracting, sphere_repulsive, tabulated, tabulated_from_csv)
from .sde import EnsembleResult, simulate_ensemble, time_grid
from .verify import (VerifyReport, convergence_study, distance_error_stats, identity_scan,
                     identity_scan_all, mean_decay_check, rotation_ensemble)

__version__ = "0.1.0"
