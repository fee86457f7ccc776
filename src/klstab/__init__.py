"""Strong (GKS) stability verification for totally upwind one-step schemes.

Builds the Kreiss-Lopatinskii determinant of a (scheme, boundary condition)
pair on the half line, counts its zeros outside the closed unit disk via an
adaptive winding number, cross-checks with the eigenvalues of the closed
boundary block of the update matrix,
classifies zeros on the unit circle, and corroborates verdicts with
time-domain simulation.
"""

from types import ModuleType as _ModuleType

from .config import DEFAULT_TOLS, Tolerances
from .scheme import AssumptionReport, Scheme, make_beam_warming, validate
from .boundary import BoundaryCondition, assemble_B, custom_condition, silw_condition
from .kl import (ExteriorRootCount, ReducedBoundary, exterior_zero_count_direct, k_matrix, reduce_boundary,
                 stable_roots)
from .winding import WindingResult, curve_to_csv, sample_kl_curve, winding_number
from .analyzer import (BoundaryZero, BoundaryZeroType, StabilityMap, StabilityStatus, StabilityVerdict, analyze,
                       analyze_many, bisect_stability_edge, classify_boundary_zero, sweep)
from .simulator import GaussianPulse, IBVPRun, SigmaScan, SolutionField, run_ibvp, sigma_scan
from .cli import run_cli
from . import errors

__version__ = "0.1.0"

# the public names are those imported above; the submodules are not, except errors
__all__ = sorted(
    name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)
) + ["errors"]
