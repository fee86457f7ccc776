"""End-to-end stability decision procedure and parameter sweeps.

The verdict pipeline: gate the structural assumptions, reduce the boundary
pair to its closed update block and determinant polynomial, count exterior
determinant zeros by winding, cross-check against the block's eigenvalues,
and classify any zero sitting on the unit circle itself (eigenvalue away
from the symbol curve, eigenvalue on it, or generalized eigenvalue).
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import brentq

from .boundary import BoundaryCondition, assemble_B
from .config import DEFAULT_TOLS, Tolerances
from .errors import DegenerateLeadingCoefficient, IllConditionedKernel, KLStabError, OriginOnCurve
from .errors import RefinementBudgetExceeded
from .kl import (
    ExteriorRootCount,
    ReducedBoundary,
    exterior_zero_count_direct,
    k_matrix,
    reduce_boundary,
    stable_roots,
    upwind_block,
)
from .scheme import AssumptionReport, Scheme, validate
from .winding import (
    DEFAULT_POLICY,
    RefinementPolicy,
    WindingResult,
    kl_curve_evaluator,
    sample_kl_curve,
    winding_number,
)


class StabilityStatus(str, Enum):
    STRONGLY_STABLE = "StronglyStable"
    UNSTABLE_EXTERIOR_EIGENVALUE = "UnstableExteriorEigenvalue"
    UNSTABLE_BOUNDARY_ZERO = "UnstableBoundaryZero"
    ASSUMPTION_VIOLATED = "AssumptionViolated"
    INCONCLUSIVE = "Inconclusive"


class BoundaryZeroType(str, Enum):
    TYPE_II = "type_ii_eigenvalue_on_circle"
    TYPE_III = "type_iii_eigenvalue_in_gamma"
    TYPE_IV = "type_iv_generalized_eigenvalue"
    UNRESOLVED = "unresolved"


@dataclass(frozen=True)
class BoundaryZero:
    z0: complex
    classification: BoundaryZeroType


@dataclass(frozen=True)
class StabilityVerdict:
    """One verdict with enough diagnostics to audit it."""

    status: StabilityStatus
    exterior_zero_count: Optional[int]
    boundary_zeros: Tuple[BoundaryZero, ...]
    assumptions: AssumptionReport
    winding: Optional[WindingResult]
    direct_count: Optional[ExteriorRootCount]
    det_c_coeffs: Optional[Tuple[complex, ...]]
    notes: Tuple[str, ...] = ()

    def to_json(self) -> str:
        def cplx(z):
            return [float(np.real(z)), float(np.imag(z))]

        payload = {
            "status": self.status.value,
            "exterior_zero_count": self.exterior_zero_count,
            "boundary_zeros": [
                {"z0": cplx(b.z0), "classification": b.classification.value}
                for b in self.boundary_zeros
            ],
            "diagnostics": {
                "assumptions": self.assumptions.to_dict(),
                "winding": None
                if self.winding is None
                else {
                    "index": self.winding.index,
                    "min_distance": self.winding.min_distance,
                    "samples_used": self.winding.samples_used,
                    "origin_on_curve": self.winding.origin_on_curve,
                },
                "direct_count": None
                if self.direct_count is None
                else {
                    "count": self.direct_count.count,
                    "exterior_roots": [[cplx(v), m] for v, m in self.direct_count.exterior],
                    "boundary_band_roots": [[cplx(v), m] for v, m in self.direct_count.boundary_band],
                },
                "det_c_coefficients": None
                if self.det_c_coeffs is None
                else [cplx(c) for c in self.det_c_coeffs],
                "notes": list(self.notes),
            },
        }
        return json.dumps(payload, sort_keys=True)


def classify_boundary_zero(
    s: Scheme, bc: BoundaryCondition, z0: complex, tols: Tolerances = DEFAULT_TOLS
) -> BoundaryZeroType:
    """Classify a determinant zero sitting on the unit circle.

    ``z0`` lies on the symbol curve exactly when a characteristic root there
    has modulus 1. Without such a root the decaying modes all lie strictly
    inside the unit disk, so the zero is a genuine eigenvalue on the circle.
    With one, the verdict depends on whether the kernel vector of the
    boundary operator loads a unit-modulus root: an unloaded unit root
    leaves a square-summable eigenfunction, a loaded one only a generalized
    eigenvalue. Raises :class:`IllConditionedKernel` when the kernel
    dimension is ambiguous at tolerance.
    """
    bc = bc.restricted_to(s.r)
    roots = stable_roots(s, z0, tols)
    unit = np.array(
        [abs(abs(value) - 1.0) <= tols.unit_circle_tol for value, mult in roots for _ in range(mult)]
    )
    if not unit.any():
        return BoundaryZeroType.TYPE_II

    K = k_matrix(roots, -s.r, bc.m - 1)
    B = assemble_B(bc)
    M = B @ K
    _, svals, vh = np.linalg.svd(M)
    # The null direction is trusted only when exactly one singular value is
    # small relative to the operator's natural scale.
    reference = float(np.linalg.norm(B) * np.linalg.norm(K))
    if reference == 0.0 or (len(svals) >= 2 and svals[-2] <= tols.kernel_tol * reference):
        raise IllConditionedKernel(
            f"kernel dimension at z0={z0} is ambiguous (singular values {svals})"
        )
    kernel = vh[-1].conjugate()
    kernel = kernel / np.linalg.norm(kernel)
    if float(np.max(np.abs(kernel[unit]))) <= tols.kernel_tol:
        return BoundaryZeroType.TYPE_III
    return BoundaryZeroType.TYPE_IV


def analyze(
    s: Scheme,
    bc: BoundaryCondition,
    tols: Tolerances = DEFAULT_TOLS,
    n0: int = 1024,
    policy: RefinementPolicy = DEFAULT_POLICY,
) -> StabilityVerdict:
    """Full decision procedure for one (scheme, boundary condition) pair.

    ``policy`` sets the refinement budget and split thresholds of the
    winding route; its origin threshold is ``tols.origin_tol``.
    """
    bc = bc.restricted_to(s.r)
    report = validate(s, tols=tols)
    rb = direct = wres = count = None
    zeros: Tuple[BoundaryZero, ...] = ()
    notes: List[str] = []
    if not report.all_pass:
        status = StabilityStatus.ASSUMPTION_VIOLATED
    else:
        rb = reduce_boundary(s, bc, tols)
        direct = exterior_zero_count_direct(rb, tols)
        curve = sample_kl_curve(s, rb, n0=n0, normalize=True)
        try:
            wres = winding_number(
                curve,
                replace(policy, origin_rel_tol=tols.origin_tol),
                evaluator=kl_curve_evaluator(s, rb, normalize=True),
            )
        except OriginOnCurve as exc:
            status, wres = StabilityStatus.UNSTABLE_BOUNDARY_ZERO, exc.result
            zeros = _classify_band_zeros(s, bc, rb, direct, tols, notes)
        except RefinementBudgetExceeded as exc:
            status = StabilityStatus.INCONCLUSIVE
            notes.append(f"winding failed: {exc}")
        else:
            # dividing by z^r shifts the index by -r, leaving minus the exterior zero count
            count = -wres.index
            if direct.has_boundary_band:
                notes.append(
                    "determinant roots inside the unit-circle band while the winding succeeded; "
                    "counts compare strictly-exterior roots only"
                )
            if count != direct.count:
                notes.append(f"winding count {count} != direct count {direct.count}")
                status, count = StabilityStatus.INCONCLUSIVE, None
            elif count == 0:
                status = StabilityStatus.STRONGLY_STABLE
            else:
                status = StabilityStatus.UNSTABLE_EXTERIOR_EIGENVALUE
    return StabilityVerdict(
        status=status,
        exterior_zero_count=count,
        boundary_zeros=zeros,
        assumptions=report,
        winding=wres,
        direct_count=direct,
        det_c_coeffs=None if rb is None else tuple(complex(c) for c in rb.det_c.coeffs),
        notes=tuple(notes),
    )


def _classify_band_zeros(
    s: Scheme,
    bc: BoundaryCondition,
    rb: ReducedBoundary,
    direct: ExteriorRootCount,
    tols: Tolerances,
    notes: List[str],
) -> Tuple[BoundaryZero, ...]:
    """Locate and classify determinant zeros on (or numerically on) the circle.

    Eigenvalues of the update block in the band around the unit circle are
    sharper than curve-proximity estimates; if none are found the closest curve point is
    classified instead so the verdict still names a witness.
    """
    candidates = [complex(v) for v, _ in direct.boundary_band]
    if not candidates:
        thetas = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
        values = np.abs(kl_curve_evaluator(s, rb, normalize=True)(thetas))
        z0 = complex(np.exp(1j * thetas[int(np.argmin(values))]))
        candidates = [z0]
        notes.append("no determinant root inside the circle band; classified the closest curve point")
    zeros = []
    for z0 in candidates:
        z0_on_circle = z0 / abs(z0)
        try:
            classification = classify_boundary_zero(s, bc, z0_on_circle, tols)
        except (IllConditionedKernel, DegenerateLeadingCoefficient):
            classification = BoundaryZeroType.UNRESOLVED
        zeros.append(BoundaryZero(z0=z0, classification=classification))
    return tuple(zeros)


@dataclass(frozen=True, eq=False)
class StabilityMap:
    """Exterior zero counts over a (lambda, sigma) grid; -1 marks cells without one."""

    lambda_grid: np.ndarray
    sigma_grid: np.ndarray
    zero_counts: np.ndarray
    statuses: np.ndarray

    def to_csv(self) -> str:
        lines = ["lambda,sigma,zero_count,status"]
        for i, lam in enumerate(self.lambda_grid):
            for j, sig in enumerate(self.sigma_grid):
                lines.append(
                    f"{float(lam)!r},{float(sig)!r},{int(self.zero_counts[i, j])},"
                    f"{self.statuses[i, j]}"
                )
        return "\n".join(lines) + "\n"


def _sweep_cell(args) -> Tuple[int, int, int, str]:
    """One grid cell; a cell whose construction or analysis raises is recorded as inconclusive."""
    scheme_family, bc_family, i, j, lam, sigma, tols, n0 = args
    try:
        verdict = analyze(scheme_family(lam), bc_family(lam, sigma), tols=tols, n0=n0)
    except KLStabError:
        return i, j, -1, StabilityStatus.INCONCLUSIVE.value
    if verdict.exterior_zero_count is None:
        return i, j, -1, verdict.status.value
    return i, j, int(verdict.exterior_zero_count), verdict.status.value


def sweep(
    scheme_family: Callable[[float], Scheme],
    bc_family: Callable[[float, float], BoundaryCondition],
    lambda_grid: Sequence[float],
    sigma_grid: Sequence[float] = (0.0,),
    tols: Tolerances = DEFAULT_TOLS,
    n0: int = 1024,
    jobs: int = 1,
) -> StabilityMap:
    """Run the decision procedure over a parameter grid.

    Cells are independent; with ``jobs > 1`` they are computed in a pool of
    ``min(jobs, cells)`` processes (the families must be picklable) and
    written back by index, so the result is identical for any parallelism
    degree. A cell whose families or analysis raise a
    :class:`~klstab.errors.KLStabError` is ``Inconclusive`` with count -1
    instead of aborting the sweep.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    lambda_grid = np.asarray(list(lambda_grid), dtype=float)
    sigma_grid = np.asarray(list(sigma_grid), dtype=float)
    if lambda_grid.size == 0 or sigma_grid.size == 0:
        raise ValueError("grids must be nonempty")
    counts = np.zeros((lambda_grid.size, sigma_grid.size), dtype=int)
    statuses = np.empty((lambda_grid.size, sigma_grid.size), dtype=object)

    tasks = [
        (scheme_family, bc_family, i, j, float(lam), float(sig), tols, n0)
        for i, lam in enumerate(lambda_grid)
        for j, sig in enumerate(sigma_grid)
    ]
    # the pool forks all its workers up front, so it gets no more than there are cells
    workers = min(jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_cell, tasks, chunksize=max(1, len(tasks) // (4 * workers))))
    else:
        results = [_sweep_cell(task) for task in tasks]
    for i, j, count, status in results:
        counts[i, j] = count
        statuses[i, j] = status
    return StabilityMap(
        lambda_grid=lambda_grid, sigma_grid=sigma_grid, zero_counts=counts, statuses=statuses
    )


# First step from the rho(A) = 1 crossing toward the verdict flip, which sits up
# to 7.1e-8 inside the crossing on the stable side (the winding's origin_tol).
_FLIP_SEARCH_STEP = 1.5e-7


def bisect_stability_edge(
    scheme_family: Callable[[float], Scheme],
    bc_family: Callable[[float, float], BoundaryCondition],
    lam_a: float,
    lam_b: float,
    sigma: float = 0.0,
    tols: Tolerances = DEFAULT_TOLS,
    n0: int = 1024,
    max_iter: int = 30,
) -> float:
    """Locate a stability transition between two CFL values.

    ``lam_a`` and ``lam_b`` must give different strong-stability verdicts;
    the returned point brackets the ``analyze`` verdict flip to
    ``(lam_b - lam_a) / 2**max_iter``. The search starts where the spectral
    radius of the closed block ``A`` crosses 1 (brentq on ``rho(A) - 1``):
    one ``analyze`` there, then ``analyze`` steps of 1.5e-7, growing
    eightfold, toward the other verdict close a short bracket, and
    ``analyze`` bisection finishes it. When ``rho(A) - 1`` raises or keeps
    its sign on the bracket (a tangency, a scheme failing validation), the
    whole bracket is bisected.
    """

    def stable(lam: float) -> bool:
        verdict = analyze(scheme_family(lam), bc_family(lam, sigma), tols=tols, n0=n0)
        return verdict.status is StabilityStatus.STRONGLY_STABLE

    def excess(lam: float) -> float:
        s = scheme_family(lam)
        block = upwind_block(s, bc_family(lam, sigma).restricted_to(s.r))
        return float(np.max(np.abs(np.linalg.eigvals(block)))) - 1.0

    sa, sb = stable(lam_a), stable(lam_b)
    if sa == sb:
        raise ValueError(f"no transition: both endpoints have stable={sa}")
    lo, hi = float(lam_a), float(lam_b)
    width = abs(hi - lo) / 2**max_iter

    def probe(lam: float) -> bool:
        """Verdict at ``lam``; moves the bracket end with the same verdict there."""
        nonlocal lo, hi
        verdict = stable(lam)
        lo, hi = (lam, hi) if verdict == sa else (lo, lam)
        return verdict

    try:
        x = brentq(excess, lo, hi)
    except (KLStabError, ValueError, np.linalg.LinAlgError):
        pass
    else:
        at_x = probe(x)
        target = hi if at_x == sa else lo
        step = _FLIP_SEARCH_STEP
        while abs(target - x) > step and probe(x + (step if target > x else -step)) == at_x:
            step *= 8.0
    for _ in range(max_iter):
        if abs(hi - lo) <= width:
            break
        probe(0.5 * (lo + hi))
    return 0.5 * (lo + hi)
