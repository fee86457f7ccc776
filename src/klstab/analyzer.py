"""End-to-end stability decision procedure and parameter sweeps.

The verdict pipeline: gate the structural assumptions, reduce the boundary
pair to its closed update block and determinant polynomial, count exterior
determinant zeros by winding, cross-check against the block's eigenvalues,
and classify any zero sitting on the unit circle itself (eigenvalue away
from the symbol curve, eigenvalue on it, or generalized eigenvalue).
``analyze_many`` runs it for many pairs as stacked arrays; ``analyze`` is its one-pair call.
"""

from __future__ import annotations

import functools
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from enum import Enum
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .boundary import BoundaryCondition, assemble_B
from .config import DEFAULT_TOLS, Tolerances
from .core_numerics import ComplexPolynomial
from .errors import DegenerateLeadingCoefficient, IllConditionedKernel, KLStabError, OriginOnCurve
from .errors import RefinementBudgetExceeded
from .kl import ExteriorRootCount, ReducedBoundary, exterior_counts, k_matrix, parity, reduce_stack
from .kl import reduce_boundary, stable_roots, upwind_block
from .scheme import AssumptionReport, CurveSamples, Scheme, validate
from .winding import DEFAULT_POLICY, RefinementPolicy, WindingResult, first_pass, kl_curve_evaluator
from .winding import sample_kl_curve, sample_kl_curves, winding_number
# a one-pair stage that the engine runs stacked, bound here for perfbench/tracing.py to wrap
from .kl import exterior_zero_count_direct  # noqa: F401


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
    winding: Optional[WindingResult] = None
    direct_count: Optional[ExteriorRootCount] = None
    det_c_coeffs: Optional[Tuple[complex, ...]] = None
    notes: Tuple[str, ...] = ()

    def to_json(self) -> str:
        def cplx(z):
            return [float(np.real(z)), float(np.imag(z))]

        def roots(pairs):
            return [[cplx(v), m] for v, m in pairs]

        direct = self.direct_count
        payload = {
            "status": self.status.value,
            "exterior_zero_count": self.exterior_zero_count,
            "boundary_zeros": [
                {"z0": cplx(b.z0), "classification": b.classification.value} for b in self.boundary_zeros
            ],
            "diagnostics": {
                "assumptions": asdict(self.assumptions),
                "winding": None if self.winding is None else asdict(self.winding),
                "direct_count": None if direct is None else {
                    "count": direct.count,
                    "exterior_roots": roots(direct.exterior),
                    "boundary_band_roots": roots(direct.boundary_band),
                },
                "det_c_coefficients": None if self.det_c_coeffs is None else [cplx(c) for c in self.det_c_coeffs],
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


# Cells decided by one stacked reduction and eigvals call. Their curves are sampled and
# wound 8 rows at a time: an (8, n0 + 1) temporary stays near 128 KiB, where numpy gets
# reused memory instead of fresh pages, which cost more than the arithmetic on them.
_BLOCK, _CURVE_ROWS = 64, 8

# Errors that make a pair's outcome an error rather than a verdict
_ROW_ERRORS = (KLStabError, ValueError, ArithmeticError)


def analyze(s: Scheme, bc: BoundaryCondition, tols: Tolerances = DEFAULT_TOLS, n0: int = 1024,
            policy: RefinementPolicy = DEFAULT_POLICY) -> StabilityVerdict:
    """Full decision procedure for one (scheme, boundary condition) pair: its :func:`analyze_many`.

    ``policy`` sets the refinement budget and split thresholds of the winding route; its origin
    threshold is ``tols.origin_tol``."""
    (outcome,) = analyze_many([(s, bc)], tols, n0, policy)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def analyze_many(pairs: Sequence[Tuple[Scheme, BoundaryCondition]], tols: Tolerances = DEFAULT_TOLS, n0: int = 1024,
                 policy: RefinementPolicy = DEFAULT_POLICY) -> List[Union[StabilityVerdict, Exception]]:
    """The verdict of each (scheme, boundary) pair, or the error that deciding it raised.

    Each boundary is fitted to its scheme and each distinct scheme validated
    once. The pairs that pass are grouped by ``(r, m)`` and decided in
    stacked blocks; only the curves whose first winding level needs a split
    or comes near the origin take the walk one at a time. Each verdict is
    bit for bit the one the pair gets alone.
    """
    outcomes: List = [None] * len(pairs)
    reports, groups = {}, {}
    for k, (s, bc) in enumerate(pairs):
        try:
            bc = bc.restricted_to(s.r)
            report = reports[id(s)] = reports.get(id(s)) or validate(s, tols=tols)
        except _ROW_ERRORS as exc:
            outcomes[k] = exc
            continue
        if report.all_pass:
            groups.setdefault((s.r, bc.m), []).append((k, s, bc, report))
        else:
            outcomes[k] = StabilityVerdict(StabilityStatus.ASSUMPTION_VIOLATED, None, (), report)
    policy = replace(policy, origin_rel_tol=tols.origin_tol)
    for rows in groups.values():
        for start in range(0, len(rows), _BLOCK):
            _decide_block(rows[start:start + _BLOCK], outcomes, tols, n0, policy)
    return outcomes


def _decide_block(block, outcomes: list, tols: Tolerances, n0: int, policy: RefinementPolicy) -> None:
    """Decide validated ``(k, scheme, boundary, report)`` rows that share ``r`` and ``m`` into ``outcomes``."""
    a = np.array([s.a for _, s, _, _ in block])
    try:
        blocks, det_c = reduce_stack(a, np.array([bc.b for _, _, bc, _ in block]))
        directs = exterior_counts(blocks, tols)
    except _ROW_ERRORS as exc:
        # a row whose factor a_{-r}^(-m) overflows, or whose block is not finite, fails the stacked
        # calls; alone, that is its error, and in a block the rows are decided one at a time
        if len(block) == 1:
            outcomes[block[0][0]] = exc
        else:
            for row in block:
                _decide_block([row], outcomes, tols, n0, policy)
        return
    for start in range(0, len(block), _CURVE_ROWS):
        part = slice(start, start + _CURVE_ROWS)
        params, points = sample_kl_curves(det_c[part], a[part, 0], a[part, -1], a.shape[1] - 1, n0)
        index, low, decided, level = first_pass(params, points, policy)
        for i, (k, s, bc, report) in enumerate(block[part]):
            first = (WindingResult(int(index[i]), float(low[i]), n0 + 1, False) if decided[i]
                     else (CurveSamples(params=params, points=points[i], closed=True), level(i)))
            try:
                outcomes[k] = _verdict(s, bc, report, blocks[start + i], det_c[start + i], directs[start + i],
                                       first, tols, policy)
            except _ROW_ERRORS as exc:
                outcomes[k] = exc


def _verdict(s, bc, report, block, det_c, direct, first, tols, policy) -> StabilityVerdict:
    """The verdict of a validated pair from its reduction, its direct count and either its
    first-pass winding result or its sampled curve and first level, which the walk starts from."""
    zeros: Tuple[BoundaryZero, ...] = ()
    notes: List[str] = []
    count, wres = None, first
    if not isinstance(first, WindingResult):
        rb = ReducedBoundary(r=s.r, m=bc.m, sign=parity(s.r, bc.m), block=block, det_c=ComplexPolynomial(det_c))
        curve, level = first
        try:
            wres = winding_number(curve, policy, evaluator=kl_curve_evaluator(s, rb), first_level=level)
        except OriginOnCurve as exc:
            status, wres = StabilityStatus.UNSTABLE_BOUNDARY_ZERO, exc.result
            zeros = _classify_band_zeros(s, bc, rb, direct, tols, notes)
        except RefinementBudgetExceeded as exc:
            status, wres = StabilityStatus.INCONCLUSIVE, None
            notes.append(f"winding failed: {exc}")
    if wres is not None and not wres.origin_on_curve:
        # dividing by z^r shifts the index by -r, leaving minus the exterior zero count
        count = -wres.index
        if direct.has_boundary_band:
            notes.append("determinant roots inside the unit-circle band while the winding succeeded; "
                         "counts compare strictly-exterior roots only")
        if count != direct.count:
            notes.append(f"winding count {count} != direct count {direct.count}")
            status, count = StabilityStatus.INCONCLUSIVE, None
        else:
            status = StabilityStatus.UNSTABLE_EXTERIOR_EIGENVALUE if count else StabilityStatus.STRONGLY_STABLE
    return StabilityVerdict(status, count, zeros, report, wres, direct, tuple(det_c.tolist()), tuple(notes))


def _classify_band_zeros(s: Scheme, bc: BoundaryCondition, rb: ReducedBoundary, direct: ExteriorRootCount,
                         tols: Tolerances, notes: List[str]) -> Tuple[BoundaryZero, ...]:
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
                lines.append(f"{float(lam)!r},{float(sig)!r},{int(self.zero_counts[i, j])},{self.statuses[i, j]}")
        return "\n".join(lines) + "\n"


def _sweep_chunk(scheme_family, bc_family, tols: Tolerances, n0: int, cells) -> List[Tuple[int, str]]:
    """``(count, status)`` of each ``(lambda, sigma)`` cell, from one :func:`analyze_many` call."""
    schemes, pairs, index = {}, [], []
    for k, (lam, sigma) in enumerate(cells):
        try:
            schemes[lam] = schemes.get(lam) or scheme_family(lam)
            pairs.append((schemes[lam], bc_family(lam, sigma)))
            index.append(k)
        except KLStabError:
            pass
    results = [(-1, StabilityStatus.INCONCLUSIVE.value)] * len(cells)
    for k, verdict in zip(index, analyze_many(pairs, tols, n0)):
        if isinstance(verdict, StabilityVerdict):
            count = verdict.exterior_zero_count
            results[k] = (-1 if count is None else count, verdict.status.value)
    return results


def sweep(scheme_family: Callable[[float], Scheme], bc_family: Callable[[float, float], BoundaryCondition],
          lambda_grid: Sequence[float], sigma_grid: Sequence[float] = (0.0,), tols: Tolerances = DEFAULT_TOLS,
          n0: int = 1024, jobs: int = 1) -> StabilityMap:
    """Run the decision procedure over a parameter grid.

    The cells, in row-major order, are cut into contiguous chunks of
    ``max(1, cells // (4 * workers))``, and each chunk is decided by one
    :func:`analyze_many` call, with one scheme built per CFL value. With
    ``jobs > 1`` the chunks run in a pool of ``workers = min(jobs, cells)``
    processes (the families must be picklable) and come back in order, so
    the result is identical for any parallelism degree. A cell whose
    families raise a :class:`~klstab.errors.KLStabError`, or whose pair
    raises, is ``Inconclusive`` with count -1 instead of aborting the sweep.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    lambda_grid = np.asarray(list(lambda_grid), dtype=float)
    sigma_grid = np.asarray(list(sigma_grid), dtype=float)
    if lambda_grid.size == 0 or sigma_grid.size == 0:
        raise ValueError("grids must be nonempty")
    cells = [(float(lam), float(sig)) for lam in lambda_grid for sig in sigma_grid]
    # the pool forks all its workers up front, so it gets no more than there are cells
    workers = min(jobs, len(cells))
    size = max(1, len(cells) // (4 * workers))
    chunks = [cells[k:k + size] for k in range(0, len(cells), size)]
    decide = functools.partial(_sweep_chunk, scheme_family, bc_family, tols, n0)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = [cell for chunk in pool.map(decide, chunks) for cell in chunk]
    else:
        results = [cell for chunk in map(decide, chunks) for cell in chunk]
    shape = (lambda_grid.size, sigma_grid.size)
    return StabilityMap(
        lambda_grid=lambda_grid,
        sigma_grid=sigma_grid,
        zero_counts=np.array([count for count, _ in results], dtype=int).reshape(shape),
        statuses=np.array([status for _, status in results], dtype=object).reshape(shape),
    )


def bisect_stability_edge(scheme_family: Callable[[float], Scheme],
                          bc_family: Callable[[float, float], BoundaryCondition], lam_a: float, lam_b: float,
                          sigma: float = 0.0, tols: Tolerances = DEFAULT_TOLS, n0: int = 1024,
                          max_iter: int = 30) -> float:
    """Locate a stability transition between two CFL values.

    ``lam_a`` and ``lam_b`` must give different strong-stability verdicts;
    the returned point brackets the ``analyze`` verdict flip to
    ``width = |lam_b - lam_a| / 2**max_iter``. :func:`_predict_flip` predicts
    the flip from where the spectral radius of the closed block ``A`` crosses
    1 (:func:`_illinois` on ``rho(A) - 1``). One ``analyze`` runs ``0.45 * width``
    short of the prediction; ``analyze`` steps of ``0.9 * width``, growing
    eightfold, toward the other verdict close a bracket (the first one does
    when the prediction holds), and ``analyze`` bisection finishes it. When
    the prediction raises, the crossing stands in for it; when
    ``rho(A) - 1`` raises or keeps its sign on the bracket, the whole bracket
    is bisected.
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
        x = _illinois(excess, lo, hi)
    except (KLStabError, ValueError):
        pass
    else:
        # the flip lies on the stable side of the crossing, within 7.1e-8 (the winding's origin_tol)
        stable_end = lo if sa else hi
        toward = 1.0 if stable_end > x else -1.0
        end = x + toward * min(1e-5, abs(stable_end - x))
        try:
            flip = _predict_flip(scheme_family, bc_family, sigma, x, end, tols, n0)
        except _ROW_ERRORS:
            flip = x
        start, step = flip - toward * 0.45 * width, 0.9 * width
        at_start = probe(start)
        target = hi if at_start == sa else lo
        while abs(target - start) > step and probe(start + (step if target > start else -step)) == at_start:
            step *= 8.0
    for _ in range(max_iter):
        if abs(hi - lo) <= width:
            break
        probe(0.5 * (lo + hi))
    return 0.5 * (lo + hi)


def _predict_flip(scheme_family, bc_family, sigma: float, x: float, end: float, tols: Tolerances,
                  n0: int) -> float:
    """The CFL value between the ``rho(A) = 1`` crossing ``x`` and ``end`` where the normalized curve at
    ``mu / |mu|``, ``mu`` the block eigenvalue nearest the unit circle, is ``origin_tol`` times the largest
    first-pass sample at ``x`` away from the origin: there the winding's origin test stops firing.
    Raises ``ValueError`` when that distance does not cross the threshold between ``x`` and ``end``."""

    def reduced(lam: float):
        s = scheme_family(lam)
        return s, reduce_boundary(s, bc_family(lam, sigma).restricted_to(s.r), tols)

    scale = float(np.max(np.abs(sample_kl_curve(*reduced(x), n0=n0).points)))

    def gap(lam: float) -> float:
        s, rb = reduced(lam)
        mu = min(np.linalg.eigvals(rb.block), key=lambda v: abs(abs(v) - 1.0))
        return float(abs(kl_curve_evaluator(s, rb)(np.angle([mu]))[0])) / scale - tols.origin_tol

    return _illinois(gap, x, end)


def _illinois(f: Callable[[float], float], a: float, b: float, xtol: float = 2e-12,
              rtol: float = 4 * np.finfo(float).eps, maxiter: int = 100) -> float:
    """A root of ``f`` on ``[a, b]`` by the Illinois variant of regula falsi.

    It stops where ``f`` vanishes or once the bracket is narrower than
    ``xtol + rtol * |x|``, brentq's default tolerance. Raises ``ValueError``
    when ``f`` has the same sign at both ends.
    """
    fa, fb = f(a), f(b)
    if np.sign(fa) == np.sign(fb) != 0.0:
        raise ValueError("f must have different signs at the ends of the bracket")
    x, side = a, 0
    for _ in range(maxiter):
        x = b - fb * (b - a) / (fb - fa)
        fx = f(x)
        if fx == 0.0:
            break
        # x replaces the end where f has its sign; the other end's value is halved when kept twice in a row
        if np.sign(fx) == np.sign(fb):
            b, fb, fa, side = x, fx, fa * (0.5 if side == -1 else 1.0), -1
        else:
            a, fa, fb, side = x, fx, fb * (0.5 if side == 1 else 1.0), 1
        if abs(b - a) < xtol + rtol * abs(x):
            break
    return x
