"""Reference routes the tests check klstab against; not part of the package."""

import numpy as np

from klstab.boundary import BoundaryCondition, assemble_B
from klstab.config import DEFAULT_TOLS, Tolerances
from klstab.kl import ReducedBoundary, k_matrix, kl_det_stack, stable_roots
from klstab.scheme import Scheme
from klstab.winding import DEFAULT_POLICY, kl_curve_evaluator, sample_kl_curve, winding_number


def kl_det_direct(s: Scheme, bc: BoundaryCondition, z: complex, tols: Tolerances = DEFAULT_TOLS) -> complex:
    """Intrinsic determinant from the defining formula.

    Dividing the raw determinant by the mode matrix of lines ``0 .. r-1``
    removes the basis dependence. Root clustering makes this route
    ill-conditioned near multiple roots; it serves as the independent oracle
    for :func:`kl_det_explicit`.
    """
    roots = stable_roots(s, z, tols)
    K_all = k_matrix(roots, -s.r, bc.m - 1)
    K_norm = k_matrix(roots, 0, s.r - 1)
    numerator = complex(np.linalg.det(assemble_B(bc) @ K_all))
    denominator = complex(np.linalg.det(K_norm))
    return numerator / denominator


def kl_det_explicit(rb: ReducedBoundary, s: Scheme, z):
    """Intrinsic determinant via the explicit rational formula, as the winding route evaluates it."""
    zs = np.asarray(z, dtype=complex)
    value = kl_det_stack(rb.det_c.coeffs, s.a_lead, s.a_zero, rb.r, zs.ravel()).reshape(zs.shape)
    return complex(value) if np.isscalar(z) else value


def winding_count(s, rb, n0=1024, policy=DEFAULT_POLICY):
    """Exterior zero count by winding: minus the index of the normalized curve, as in ``analyze``."""
    curve = sample_kl_curve(s, rb, n0=n0, normalize=True)
    return -winding_number(curve, policy, evaluator=kl_curve_evaluator(s, rb, normalize=True)).index
