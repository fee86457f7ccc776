"""The numeric tolerances of a verdict, which the CLI sets by flag.

Every tolerance that a caller may set is a field of one object threaded
through the pipeline. The fixed settings live as constants next to the code
that reads them: ``TRIM_REL`` here, as two modules trim with it, the
consistency residual in ``scheme`` and the winding walk's budget and
thresholds in ``winding``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

# Coefficients below TRIM_REL * max(|coeff|) count as zero when trimming stencils and polynomials
TRIM_REL = 1e-12


@dataclass(frozen=True)
class Tolerances:
    """Tolerances of root clustering, band classification and gating; each is refused unless positive and finite.

    ``cluster_radius``: roots of a polynomial closer than this merge into one root with summed multiplicity.
    ``unit_circle_tol``: half-width of the ambiguity band around the unit circle that classifies roots as
    interior, on-circle or exterior; a boundary zero lies on the symbol curve when a characteristic root there is in
    this band. ``origin_tol``: relative closest-approach threshold of the winding computation, whose absolute
    threshold is ``origin_tol * max(|curve point|)``. ``kernel_tol``: relative size below which a kernel-vector
    component counts as zero in the boundary-zero classification. ``cauchy_tol``: allowed excess of the sampled
    symbol modulus above 1 in the Cauchy stability check.
    """

    cluster_radius: float = 1e-7
    unit_circle_tol: float = 1e-6
    origin_tol: float = 1e-8
    kernel_tol: float = 1e-7
    cauchy_tol: float = 1e-10

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"tolerance {f.name} must be positive and finite, got {value}")


DEFAULT_TOLS = Tolerances()
