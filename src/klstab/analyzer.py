"""End-to-end stability decision procedure and parameter sweeps.

The verdict pipeline: gate the structural assumptions, reduce the boundary
pair to its closed update block and determinant polynomial, count exterior
determinant zeros by winding, cross-check against the block's eigenvalues,
and classify any zero sitting on the unit circle itself (eigenvalue away
from the symbol curve, eigenvalue on it, or generalized eigenvalue).
``analyze_many`` runs it, unclassified, for many pairs as stacked arrays; ``analyze`` is its one-pair call.
"""

from __future__ import annotations

import functools
import itertools
import json
import multiprocessing
import os
from dataclasses import asdict, dataclass, replace
from enum import Enum
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .boundary import BoundaryCondition, assemble_B
from .config import DEFAULT_TOLS, Tolerances
from .errors import DegenerateLeadingCoefficient, IllConditionedKernel, KLStabError, OriginOnCurve
from .kl import (ExteriorRootCount, check_finite, exterior_counts, k_matrix, kl_det_stack, reduce_stack, stable_roots,
                 upwind_blocks)
from .scheme import AssumptionReport, Scheme, validate
from .winding import WindingResult, sample_kl_curves, winding_numbers
# one-curve and one-pair stages that the engine runs stacked, bound here for perfbench/tracing.py to wrap
from .kl import exterior_zero_count_direct, reduce_boundary  # noqa: F401
from .winding import sample_kl_curve, winding_number  # noqa: F401


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

    ``z0`` lies on the symbol curve exactly when a characteristic root there has modulus 1. Without such a root the
    decaying modes all lie strictly inside the unit disk, so the zero is a genuine eigenvalue on the circle. With
    one, the verdict depends on whether the kernel vector of the boundary operator loads a unit-modulus root: an
    unloaded unit root leaves a square-summable eigenfunction, a loaded one only a generalized eigenvalue. Raises
    :class:`IllConditionedKernel` when the kernel dimension is ambiguous at tolerance.
    """
    bc = bc.restricted_to(s.r)
    roots = stable_roots(s, z0, tols)
    unit = np.array([abs(abs(value) - 1.0) <= tols.unit_circle_tol for value, mult in roots for _ in range(mult)])
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
        raise IllConditionedKernel(f"kernel dimension at z0={z0} is ambiguous (singular values {svals})")
    kernel = vh[-1].conjugate()
    kernel = kernel / np.linalg.norm(kernel)
    if float(np.max(np.abs(kernel[unit]))) <= tols.kernel_tol:
        return BoundaryZeroType.TYPE_III
    return BoundaryZeroType.TYPE_IV


# Cells decided by one stacked reduction and eigvals call. Their curves are sampled and wound 4 rows at a time: a
# (4, 1025) complex temporary (n0 = 1024) stays below glibc's 128 KiB mmap threshold, so numpy reuses heap memory
# instead of faulting in fresh pages, which cost more than the arithmetic on them (8 rows took 128 bytes more).
_BLOCK, _CURVE_ROWS = 64, 4

# Errors that make a pair's outcome an error rather than a verdict
_ROW_ERRORS = (KLStabError, ValueError, ArithmeticError)


def analyze(s: Scheme, bc: BoundaryCondition, tols: Tolerances = DEFAULT_TOLS, n0: int = 1024) -> StabilityVerdict:
    """Full decision procedure for one (scheme, boundary condition) pair: its :func:`analyze_many`, classified."""
    (outcome,) = analyze_many([(s, bc)], tols, n0)
    if isinstance(outcome, Exception):
        raise outcome
    on_circle = outcome.status is StabilityStatus.UNSTABLE_BOUNDARY_ZERO
    return _classify_band_zeros(s, bc, outcome, tols) if on_circle else outcome


def analyze_many(pairs: Sequence[Tuple[Scheme, BoundaryCondition]], tols: Tolerances = DEFAULT_TOLS,
                 n0: int = 1024) -> List[Union[StabilityVerdict, Exception]]:
    """The verdict of each (scheme, boundary) pair, or the error that deciding it raised.

    Each boundary is fitted to its scheme, and each scheme's report comes from :func:`validate`: one report per
    scheme value per process, from a bounded cache. The pairs that pass are grouped by ``(r, m)`` and decided in
    stacked blocks; the curves are wound 4 at a time, those whose first winding level needs a split or comes near
    the origin walked together. Each verdict is bit for bit the one the pair gets alone.
    The zeros of an ``UnstableBoundaryZero`` verdict are left unclassified, ``boundary_zeros`` empty.
    """
    if n0 < 64:  # an error of the call, not of a pair
        raise ValueError("n0 must be at least 64")
    outcomes: List = [None] * len(pairs)
    groups: dict = {}
    for k, (s, bc) in enumerate(pairs):
        try:
            bc = bc.restricted_to(s.r)
            report = validate(s, tols=tols)
        except _ROW_ERRORS as exc:
            outcomes[k] = exc
            continue
        if report.all_pass:
            groups.setdefault((s.r, bc.m), []).append((k, s, bc, report))
        else:
            outcomes[k] = StabilityVerdict(StabilityStatus.ASSUMPTION_VIOLATED, None, (), report)
    for rows in groups.values():
        for start in range(0, len(rows), _BLOCK):
            _decide_block(rows[start:start + _BLOCK], outcomes, tols, n0)
    return outcomes


def _decide_block(block, outcomes: list, tols: Tolerances, n0: int) -> None:
    """Decide validated ``(k, scheme, boundary, report)`` rows that share ``r`` and ``m`` into ``outcomes``."""
    a = np.array([s.a for _, s, _, _ in block])
    try:
        blocks, det_c = reduce_stack(a, np.array([bc.b for _, _, bc, _ in block]))
        directs = exterior_counts(blocks, tols)
        windings = [winding for start in range(0, len(a), _CURVE_ROWS) for winding in
                    _windings(det_c[start:start + _CURVE_ROWS], a[start:start + _CURVE_ROWS], n0, tols)]
    except _ROW_ERRORS as exc:
        # a row whose factor a_{-r}^(-m), block or det C leaves the float range, or whose curve raises, fails
        # the stacked calls; alone, that is its error, and in a block the rows are decided one at a time
        if len(block) == 1:
            outcomes[block[0][0]] = exc
        else:
            for row in block:
                _decide_block([row], outcomes, tols, n0)
        return
    for (k, _, _, report), det, direct, winding in zip(block, det_c, directs, windings):
        outcomes[k] = _verdict(report, det, direct, winding)


def _windings(det_c: np.ndarray, a: np.ndarray, n0: int, tols: Tolerances) -> list:
    """Each row's winding result or walk error, from one :func:`winding_numbers` call. Called a chunk of rows at a
    time, so that a chunk's arrays are freed before the next chunk's are made and numpy reuses their heap memory:
    kept until then, they cost a jobs-1 ``sigma-map`` sweep about 400 more minor faults and 8 %."""
    r = a.shape[1] - 1
    with np.errstate(over="ignore", invalid="ignore"):  # the walk refuses a curve value that is not finite
        params, points = sample_kl_curves(det_c, a[:, 0], a[:, -1], r, n0)

    def evaluate(rows, theta):
        z = np.exp(1j * theta)[:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            return (kl_det_stack(det_c[rows], a[rows, 0], a[rows, -1], r, z) / z**r)[:, 0]

    return winding_numbers(params, points, tols, evaluate)


def _verdict(report, det_c, direct, winding) -> StabilityVerdict:
    """The verdict of a validated pair from its ``det C`` coefficients, its direct count and its winding
    result, or the error that stopped its winding walk; its boundary zeros are left unclassified."""
    notes, count = [], None
    if isinstance(winding, OriginOnCurve):
        status, winding = StabilityStatus.UNSTABLE_BOUNDARY_ZERO, winding.result
    elif isinstance(winding, Exception):  # a budget exceeded or a curve value that is not finite
        notes.append(f"winding failed: {winding}")
        status, winding = StabilityStatus.INCONCLUSIVE, None
    if winding is not None and not winding.origin_on_curve:
        # dividing by z^r shifts the index by -r, leaving minus the exterior zero count
        count = -winding.index
        if direct.has_boundary_band:
            notes.append("determinant roots inside the unit-circle band while the winding succeeded; "
                         "counts compare strictly-exterior roots only")
        if count != direct.count:
            notes.append(f"winding count {count} != direct count {direct.count}")
            status, count = StabilityStatus.INCONCLUSIVE, None
        else:
            status = StabilityStatus.UNSTABLE_EXTERIOR_EIGENVALUE if count else StabilityStatus.STRONGLY_STABLE
    return StabilityVerdict(status, count, (), report, winding, direct, tuple(det_c.tolist()), tuple(notes))


def _classify_band_zeros(s: Scheme, bc: BoundaryCondition, verdict: StabilityVerdict,
                         tols: Tolerances) -> StabilityVerdict:
    """``verdict`` with its determinant zeros on (or numerically on) the circle located and classified.

    Eigenvalues of the update block in the band around the unit circle are
    sharper than curve-proximity estimates; if none are found the closest curve point is
    classified instead so the verdict still names a witness, and a note says so.
    """
    candidates, notes = [complex(v) for v, _ in verdict.direct_count.boundary_band], ()
    if not candidates:
        # the closing point repeats the first, so it is never the first minimum
        params, points = sample_kl_curves(np.array(verdict.det_c_coeffs), s.a_lead, s.a_zero, s.r, 4096)
        candidates = [complex(np.exp(1j * params[int(np.argmin(np.abs(points)))]))]
        notes = ("no determinant root inside the circle band; classified the closest curve point",)
    zeros = []
    for z0 in candidates:
        z0_on_circle = z0 / abs(z0)
        try:
            classification = classify_boundary_zero(s, bc, z0_on_circle, tols)
        except (IllConditionedKernel, DegenerateLeadingCoefficient):
            classification = BoundaryZeroType.UNRESOLVED
        zeros.append(BoundaryZero(z0=z0, classification=classification))
    return replace(verdict, boundary_zeros=tuple(zeros), notes=verdict.notes + notes)


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
        except _ROW_ERRORS:  # the cell stays Inconclusive, as does a pair that raises
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

    The cells, in row-major order, are cut into contiguous chunks of ``max(1, cells // (4 * workers))``, and each
    chunk is decided by one :func:`analyze_many` call, with one scheme built per CFL value. Of ``workers = min(jobs,
    cells, CPUs)`` processes, ``workers - 1`` are forked (in-process where ``fork`` does not exist) and, with the
    caller, claim the next undecided chunk from one shared counter until none is left. The chunks join in order,
    so the result is identical for any parallelism degree, and an error is the one of the lowest chunk that
    raised, as at ``jobs=1``. A cell whose families or pair raise a :class:`~klstab.errors.KLStabError`, a
    ``ValueError`` or an ``ArithmeticError`` is ``Inconclusive`` with count -1, not an abort.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    lambda_grid = np.asarray(list(lambda_grid), dtype=float)
    sigma_grid = np.asarray(list(sigma_grid), dtype=float)
    if lambda_grid.size == 0 or sigma_grid.size == 0:
        raise ValueError("grids must be nonempty")
    cells = [(float(lam), float(sig)) for lam in lambda_grid for sig in sigma_grid]
    # every worker is forked up front, so there are no more than there are cells and CPUs
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(jobs, len(cells), cpus)
    size = max(1, len(cells) // (4 * workers))
    chunks = [cells[k:k + size] for k in range(0, len(cells), size)]
    decide = functools.partial(_sweep_chunk, scheme_family, bc_family, tols, n0)
    if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
        decided = _forked(decide, chunks, workers - 1)
    else:
        decided = _claim_chunks(decide, chunks, itertools.count().__next__)
    results = []
    for k in range(len(chunks)):  # every chunk before the first error was decided
        if isinstance(decided[k], Exception):
            raise decided[k]
        results.extend(decided[k])
    shape = (lambda_grid.size, sigma_grid.size)
    return StabilityMap(
        lambda_grid=lambda_grid,
        sigma_grid=sigma_grid,
        zero_counts=np.array([count for count, _ in results], dtype=int).reshape(shape),
        statuses=np.array([status for _, status in results], dtype=object).reshape(shape),
    )


def _claim_chunks(decide, chunks: list, claim: Callable[[], int]) -> dict:
    """``{index: cells}`` of the chunks whose indices ``claim()`` returns, until it returns one past the last chunk;
    a chunk that raises maps to its error and ends the claims."""
    decided = {}
    while (k := claim()) < len(chunks):
        try:
            decided[k] = decide(chunks[k])
        except Exception as exc:  # raised by sweep, unless a lower chunk raised too
            return {**decided, k: exc}
    return decided


def _forked(decide, chunks: list, forks: int) -> dict:
    """:func:`_claim_chunks` of the caller and of ``forks`` forked processes that share its counter, each of which
    sends its chunks once, over its own pipe; one that exits without sending is a ``RuntimeError``. No process
    outlives the call."""
    ctx = multiprocessing.get_context("fork")
    counter, started = ctx.Value("i", 0), []

    def claim() -> int:
        with counter.get_lock():
            counter.value += 1
            return counter.value - 1

    try:
        for _ in range(forks):
            receiver, sender = ctx.Pipe(duplex=False)
            process = ctx.Process(target=lambda end: end.send(_claim_chunks(decide, chunks, claim)), args=(sender,),
                                  daemon=True)
            process.start()
            sender.close()  # the caller's copy, so that the receiver meets the end of the pipe if the process dies
            started.append((process, receiver))
        decided = _claim_chunks(decide, chunks, claim)
        for process, receiver in started:
            try:
                decided.update(receiver.recv())
            except EOFError:
                process.join()
                raise RuntimeError(f"a sweep worker exited with code {process.exitcode} without sending its "
                                   "chunks") from None
        return decided
    except BaseException:  # the outcome is an error: the processes still working are stopped
        for process, _ in started:
            process.terminate()
        raise
    finally:
        for process, receiver in started:
            receiver.close()
            process.join()


def bisect_stability_edge(scheme_family: Callable[[float], Scheme],
                          bc_family: Callable[[float, float], BoundaryCondition], lam_a: float, lam_b: float,
                          sigma: float = 0.0, tols: Tolerances = DEFAULT_TOLS, n0: int = 1024,
                          max_iter: int = 30) -> float:
    """Locate a stability transition between two CFL values with differing strong-stability verdicts.

    The result brackets the ``analyze`` verdict flip to ``width = |lam_b - lam_a| / 2**max_iter``.
    :func:`_predict_flip` predicts the flip near where ``rho(A)`` crosses 1, on the side where it is below 1; both
    root solves read one spectrum of ``A`` per CFL value. One :func:`analyze_many` call decides both ends, a point
    ``0.45 * width`` short of the prediction and a step of ``0.9 * width`` from it; the search then steps (growing
    eightfold) and bisects as if it asked for one verdict at a time, using a verdict decided ahead only at its own
    CFL value, and reading only its status (zeros unclassified). A prediction for the wrong side is made again;
    one that raises is replaced by the crossing; without a crossing, the whole bracket is bisected.
    """
    pair = functools.lru_cache(maxsize=None)(lambda lam: (scheme_family(lam), bc_family(lam, sigma)))
    known: dict = {}

    @functools.lru_cache(maxsize=None)
    def spectrum(lam: float):
        s, bc = pair(lam)
        with np.errstate(over="ignore", invalid="ignore"):  # eigvals refuses a block that is not finite
            block = upwind_blocks(s.a[None], bc.restricted_to(s.r).b[None])[0]
        try:
            return s, np.linalg.eigvals(block)
        except np.linalg.LinAlgError:
            check_finite(block)  # the reduction's OverflowError for a block that is not finite
            raise

    def stable(lam: float) -> bool:
        if lam not in known:
            (known[lam],) = analyze_many([pair(lam)], tols, n0)
        verdict = known[lam]
        if isinstance(verdict, Exception):
            raise verdict
        return verdict.status is StabilityStatus.STRONGLY_STABLE

    def excess(lam: float) -> float:
        return float(np.max(np.abs(spectrum(lam)[1]))) - 1.0

    lo, hi = float(lam_a), float(lam_b)
    width = abs(hi - lo) / 2**max_iter
    step = 0.9 * width

    def search_start(stable_end: float) -> float:
        # the flip lies on the stable side of the crossing, within 7.1e-8 (the winding's origin_tol)
        toward = 1.0 if stable_end > x else -1.0
        end = x + toward * min(1e-5, abs(stable_end - x))
        try:
            flip = _predict_flip(spectrum, x, end, tols, n0)
        except _ROW_ERRORS:
            flip = x
        return flip - toward * 0.45 * width

    try:
        x = _illinois(excess, lo, hi)
    except _ROW_ERRORS:
        x = None
    lams = [lam_a, lam_b]
    if x is not None:
        rho_sa = excess(lo) < 0.0
        stable_end = lo if rho_sa else hi
        start = search_start(stable_end)
        lams.append(start)
        if abs(stable_end - start) > step:
            # the first step, taken when the verdict at start is the unstable one that the prediction expects
            lams.append(start + (step if stable_end > start else -step))
    known.update(zip(lams, analyze_many([pair(lam) for lam in lams], tols, n0)))
    sa, sb = stable(lam_a), stable(lam_b)
    if sa == sb:
        raise ValueError(f"no transition: both endpoints have stable={sa}")

    def probe(lam: float) -> bool:
        """Verdict at ``lam``; moves the bracket end with the same verdict there."""
        nonlocal lo, hi
        verdict = stable(lam)
        lo, hi = (lam, hi) if verdict == sa else (lo, lam)
        return verdict

    if x is not None:
        if sa != rho_sa:
            start = search_start(lo if sa else hi)
        at_start = probe(start)
        target = hi if at_start == sa else lo
        while abs(target - start) > step and probe(start + (step if target > start else -step)) == at_start:
            step *= 8.0
    for _ in range(max_iter):
        if abs(hi - lo) <= width:
            break
        probe(0.5 * (lo + hi))
    return 0.5 * (lo + hi)


def _predict_flip(spectrum, x: float, end: float, tols: Tolerances, n0: int) -> float:
    """The CFL value between the ``rho(A) = 1`` crossing ``x`` and ``end`` where the normalized curve ``D`` at
    ``mu / |mu|`` (``mu`` the eigenvalue of ``A`` nearest the circle) is ``origin_tol`` times its largest first-pass
    sample at ``x`` from the origin, where the winding's origin test stops firing; ``ValueError`` if none is, an
    ``ArithmeticError`` if ``|D|`` leaves the float range. ``spectrum(lam)`` gives the scheme and the eigenvalues
    ``mu_j`` of ``A``: ``det(zI - A) = prod(z - mu_j)``, times the prefactors of :func:`kl_det_stack`, over ``z**r``."""

    def modulus(lam: float, z: np.ndarray) -> np.ndarray:
        s, mu = spectrum(lam)
        lead, m = abs(s.a_lead), mu.size
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            return np.prod(np.abs(z[:, None] - mu), axis=1) / lead**m * (lead / np.abs(s.a_zero - z)) ** (m - s.r)

    def gap(lam: float) -> float:
        mu = min(spectrum(lam)[1], key=lambda v: abs(abs(v) - 1.0))
        return float(modulus(lam, np.exp(1j * np.angle([mu])))[0]) / scale - tols.origin_tol

    scale = float(np.max(modulus(x, np.exp(1j * np.linspace(0.0, 2.0 * np.pi, n0 + 1)))))
    return _illinois(gap, x, end)


def _illinois(f: Callable[[float], float], a: float, b: float) -> float:
    """A root of ``f`` on ``[a, b]`` by the Illinois variant of regula falsi.

    It stops where ``f`` vanishes, after 100 steps, or once the bracket is
    narrower than ``2e-12 + 4 eps |x|`` (``4 eps = 2**-50``), brentq's default
    tolerance. Raises ``ValueError`` when ``f`` has the same sign at both ends.
    """
    fa, fb = f(a), f(b)
    if np.sign(fa) == np.sign(fb) != 0.0:
        raise ValueError("f must have different signs at the ends of the bracket")
    x, side = a, 0
    for _ in range(100):
        x = b - fb * (b - a) / (fb - fa)
        fx = f(x)
        if fx == 0.0:
            break
        # x replaces the end where f has its sign; the other end's value is halved when kept twice in a row
        if np.sign(fx) == np.sign(fb):
            b, fb, fa, side = x, fx, fa * (0.5 if side == -1 else 1.0), -1
        else:
            a, fa, fb, side = x, fx, fb * (0.5 if side == 1 else 1.0), 1
        if abs(b - a) < 2e-12 + 2.0**-50 * abs(x):
            break
    return x
