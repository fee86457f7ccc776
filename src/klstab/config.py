"""Numeric tolerances and winding refinement settings used throughout the package.

Every setting that influences a verdict is collected here so that a single
object can be threaded through the pipeline and overridden from the CLI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields


@dataclass(frozen=True)
class Tolerances:
    """Knobs controlling root clustering, band classification, gating and the winding walk; each must be positive
    and finite.

    ``cluster_radius``: roots of a polynomial closer than this merge into one root with summed multiplicity.
    ``trim_rel``: coefficients below ``trim_rel * max(|coeff|)`` count as zero when normalizing polynomials and
    stencils. ``unit_circle_tol``: half-width of the ambiguity band around the unit circle that classifies roots as
    interior, on-circle or exterior; a boundary zero lies on the symbol curve when a characteristic root there is in
    this band. ``origin_tol``: relative closest-approach threshold of the winding computation, whose absolute
    threshold is ``origin_tol * max(|curve point|)``. ``kernel_tol``: relative size below which a kernel-vector
    component counts as zero in the boundary-zero classification. ``cauchy_tol``: allowed excess of the sampled
    symbol modulus above 1 in the Cauchy stability check. ``consistency_tol``: allowed residual in the consistency
    relations on the coefficients. The winding walk splits a segment when its angle increment exceeds
    ``angle_threshold`` or its distance to the origin is below ``proximity_factor`` times its length, stops at
    ``max_evaluations`` curve evaluations, and trusts an angle sum within ``integer_tol`` turns of an integer.
    """

    cluster_radius: float = 1e-7
    trim_rel: float = 1e-12
    unit_circle_tol: float = 1e-6
    origin_tol: float = 1e-8
    kernel_tol: float = 1e-7
    cauchy_tol: float = 1e-10
    consistency_tol: float = 1e-10
    max_evaluations: int = 2**16
    angle_threshold: float = math.pi / 2.0
    proximity_factor: float = 4.0
    integer_tol: float = 1e-6

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"tolerance {f.name} must be positive and finite, got {value}")


DEFAULT_TOLS = Tolerances()
