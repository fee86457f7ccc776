"""Winding number of the origin for sampled closed curves, with insertion refinement.

The zero count of the determinant outside the closed unit disk equals minus
the winding index of the normalized determinant curve around the origin, so
getting an integer reliably matters more than raw accuracy. The polygon
angle sum is refined by inserting curve midpoints wherever a single turn is
too large or a segment passes suspiciously close to the origin, within a
fixed evaluation budget.

One numpy pass gives every segment its angle increment, distance to the
origin and split flag. The flagged ones are refined one level at a time,
several curves in lockstep: the midpoints of a level (near a stop, of part
of it) of all open curves go to the evaluator in one array call. Running
scalars show whether anything known so far could stop a curve's walk;
only then are its levels merged into depth-first order to find the stop.
The refined polygon, the evaluation count and the error are those of a
depth-first walk that splits segments in parameter order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .config import DEFAULT_TOLS
from .errors import OriginOnCurve, RefinementBudgetExceeded
from .kl import ReducedBoundary, kl_det_stack
from .scheme import CurveSamples, Scheme


@dataclass(frozen=True)
class RefinementPolicy:
    """Controls for the adaptive winding computation.

    A segment is split when its angle increment exceeds ``angle_threshold``
    or its distance to the origin is below ``proximity_factor`` times its
    length; splitting stops at ``max_evaluations`` total curve evaluations.
    The origin counts as lying on the curve when the closest approach falls
    below ``origin_rel_tol`` times the largest sampled modulus.
    """

    max_evaluations: int = 2**16
    angle_threshold: float = math.pi / 2.0
    proximity_factor: float = 4.0
    origin_rel_tol: float = DEFAULT_TOLS.origin_tol
    integer_tol: float = 1e-6


DEFAULT_POLICY = RefinementPolicy()


@dataclass(frozen=True)
class WindingResult:
    """Index of the origin (None when the origin lies on the curve)."""

    index: Optional[int]
    min_distance: float
    samples_used: int
    origin_on_curve: bool


def _segments(ta, tb, pa, pb, policy: RefinementPolicy) -> dict:
    """Segments ``pa -> pb`` over ``[ta, tb]`` as a block of arrays, with their increments, distances,
    split flags and midpoint moduli (nan until evaluated, and for leaves)."""
    d = pb - pa
    length = np.abs(d)
    len2 = length**2
    # parameter of the point of the segment closest to the origin; 0 when degenerate;
    # explicit products, as in kl_det_stack, so stacked curves round like single ones
    t = np.divide(-np.multiply(pa, np.conjugate(d)).real, len2, out=np.zeros(len2.shape), where=len2 > 0.0)
    distance = np.abs(pa + np.clip(t, 0.0, 1.0, out=t) * d)
    turn = np.multiply(pb, np.conjugate(pa))
    increment = np.arctan2(turn.imag, turn.real)
    sharp = (np.abs(increment) > policy.angle_threshold) | (distance < policy.proximity_factor * length)
    split = (length > 0.0) & sharp
    return dict(ta=ta, tb=tb, pa=pa, pb=pb, increment=increment, distance=distance, split=split,
                mid=np.full(length.shape, np.nan))


def _pairs(left, right) -> np.ndarray:
    """``left[0], right[0], left[1], right[1], ...``: the halves of each parent side by side."""
    out = np.empty(2 * left.size, dtype=left.dtype)
    out[0::2], out[1::2] = left, right
    return out


def _depth_first(blocks, keys=None) -> dict:
    """The segments of ``blocks`` (their ``keys``, by default all) merged in the order of the depth-first walk:
    a split segment before its halves, the left half first, so ``ta`` ascending, then ``tb`` descending. A
    single block (the first level, or one merged before) is already in that order."""
    if len(blocks) == 1:
        return blocks[0]
    ta, tb = (np.concatenate([block[key] for block in blocks]) for key in ("ta", "tb"))
    order = np.lexsort((-tb, ta))
    return {key: np.concatenate([block[key] for block in blocks])[order] for key in keys or blocks[0]}


def _on_curve(distance: float, threshold: float, evaluations: int) -> OriginOnCurve:
    return OriginOnCurve(f"curve passes within {distance:.3e} of the origin (threshold {threshold:.3e})",
                         WindingResult(None, float(distance), int(evaluations), True))


def winding_number(curve: CurveSamples, policy: RefinementPolicy = DEFAULT_POLICY,
                   evaluator: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                   first_level: Optional[dict] = None) -> WindingResult:
    """Signed number of turns of a closed sampled curve around the origin: :func:`winding_numbers` of one curve.

    ``evaluator`` maps an array of parameter values to the array of curve points; it is called with arrays of
    midpoints, batched by refinement level, and without it any segment that needs refinement is a hard error.
    ``first_level`` is the first level of segments when :func:`first_pass` has built it. ``samples_used`` counts the
    evaluations of the depth-first walk alone. Raises :class:`OriginOnCurve` when the refined polygon comes closer
    to the origin than the relative threshold, and :class:`RefinementBudgetExceeded` when the angle sum cannot be
    trusted within the evaluation budget.
    """
    if not curve.closed:
        raise ValueError("winding numbers are defined for closed curves only")
    rows_evaluator = None if evaluator is None else lambda rows, t: evaluator(t)
    (outcome,) = winding_numbers([(curve.params, curve.points)], policy, rows_evaluator, [first_level])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def winding_numbers(curves: Sequence[Tuple[np.ndarray, np.ndarray]], policy: RefinementPolicy = DEFAULT_POLICY,
                    evaluator: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
                    first_levels: Optional[Sequence[Optional[dict]]] = None) -> List[Union[WindingResult, Exception]]:
    """The :func:`winding_number` of each closed curve ``(params, points)``, or its error, walked in lockstep:
    each level, the pending midpoints of all open curves go to ``evaluator(rows, params)`` in one call, ``rows[i]``
    naming the curve of ``params[i]``, and their halves through one segment pass. Each curve keeps its own stop
    tests and replay, so its outcome is bit for bit the one it gets alone."""
    outcomes: List = [None] * len(curves)
    walks = [_walk(params, points, policy, evaluator is not None, level)
             for (params, points), level in zip(curves, first_levels or [None] * len(curves))]
    requests = {}

    def advance(k: int, sent) -> None:
        try:
            requests[k] = walks[k].send(sent)
        except StopIteration as stop:
            outcomes[k] = stop.value

    for k in range(len(walks)):
        advance(k, None)
    while requests:
        keys, parts, requests = list(requests), list(requests.values()), {}
        sizes = [part[0].size for part in parts]
        ta, tb, pa, pb = (arrays[0] if len(parts) == 1 else np.concatenate(arrays) for arrays in zip(*parts))
        tm = 0.5 * (ta + tb)
        pm = np.asarray(evaluator(np.array(keys).repeat(sizes), tm), dtype=complex)
        modulus = np.abs(pm)
        level = _segments(_pairs(ta, tm), _pairs(tm, tb), _pairs(pa, pm), _pairs(pm, pb), policy)
        if len(keys) == 1:
            advance(keys[0], (modulus, level))
            continue
        stop = 0
        for k, size in zip(keys, sizes):
            start, stop = stop, stop + size
            advance(k, (modulus[start:stop], {key: value[2 * start:2 * stop] for key, value in level.items()}))
    return outcomes


def _walk(params: np.ndarray, points: np.ndarray, policy: RefinementPolicy, refine: bool,
          first_level: Optional[dict]):
    """One curve's walk in :func:`winding_numbers`: a generator that yields the pending splits ``(ta, tb, pa, pb)``
    of each level, is sent their midpoint moduli and halves, and returns the :class:`WindingResult` or the error
    that stops it, unraised, so that no traceback keeps the walk's arrays alive."""
    n = params.size
    if n < 4:
        return ValueError("need at least 3 distinct points on a closed curve")

    moduli = np.abs(points)
    scale = float(np.max(moduli))
    if scale == 0.0:
        return OriginOnCurve("curve is identically zero", WindingResult(None, 0.0, n, True))
    rel = policy.origin_rel_tol
    close = np.flatnonzero(moduli < rel * scale)
    if close.size:
        return _on_curve(moduli[close[0]], rel * scale, n)

    # While no stop is possible, the pending splits are those of the newest
    # block. Once one is (it then stays possible), the replay over the merged
    # blocks fixes the evaluation count and running scale of each segment up
    # to the first unevaluated split and finds the first segment that stops
    # the walk: a leaf by its distance, a split by its midpoint or the budget.
    # Only the pending splits ahead of it are evaluated.
    blocks, splits, top, low_mid, low_leaf, first = [], 0, scale, np.inf, np.inf, None
    seg = first_level or _segments(params[:-1], params[1:], points[:-1], points[1:], policy)
    while True:
        blocks.append(seg)
        splits += int(np.count_nonzero(seg["split"]))
        low_leaf = float(np.minimum.reduce(seg["distance"][~seg["split"]], initial=low_leaf))
        if refine and n + splits <= policy.max_evaluations and min(low_leaf, low_mid) >= rel * top:
            pending = seg["split"].nonzero()[0]
        else:
            seg = _depth_first(blocks)
            blocks = [seg]
            split, mid, distance = seg["split"], seg["mid"], seg["distance"]
            before = np.cumsum(split) - split
            scale_with = np.maximum.accumulate(np.fmax(mid, scale))
            scale_before = np.concatenate(([scale], scale_with[:-1]))
            over_budget = split & (n + before >= policy.max_evaluations)
            if not refine:
                stops = split | (distance < rel * scale_before)
            else:
                stops = np.where(split, over_budget | (mid < rel * scale_with), distance < rel * scale_before)
            first = int(np.argmax(stops)) if stops.any() else None
            pending = (split[:first] & np.isnan(mid[:first])).nonzero()[0]
        if pending.size == 0:
            break
        modulus, halves = yield tuple(seg[key][pending] for key in ("ta", "tb", "pa", "pb"))
        seg["mid"][pending] = modulus
        top = float(np.fmax.reduce(modulus, initial=top))
        low_mid = float(np.fmin.reduce(modulus, initial=low_mid))
        seg = halves

    if first is not None:
        evaluations = n + int(before[first])
        threshold = rel * scale_before[first]
        if not split[first]:
            return _on_curve(distance[first], threshold, evaluations)
        if not refine:
            return RefinementBudgetExceeded("segment needs refinement but no curve evaluator was provided")
        if over_budget[first]:
            if distance[first] < threshold:
                return _on_curve(distance[first], threshold, evaluations)
            return RefinementBudgetExceeded(f"refinement exceeded {policy.max_evaluations} curve evaluations")
        return _on_curve(mid[first], rel * scale_with[first], evaluations + 1)

    if low_leaf < rel * top:
        return _on_curve(low_leaf, rel * top, n + splits)
    seg = _depth_first(blocks, ("increment", "split"))
    turns = float(np.sum(seg["increment"][~seg["split"]])) / (2.0 * math.pi)
    index = round(turns)
    if abs(turns - index) > policy.integer_tol:
        return RefinementBudgetExceeded(f"angle sum {turns:.3e} turns is not within {policy.integer_tol} of an integer")
    return WindingResult(index=int(index), min_distance=low_leaf, samples_used=n + splits, origin_on_curve=False)


def first_pass(params: np.ndarray, points: np.ndarray, policy: RefinementPolicy = DEFAULT_POLICY):
    """The first level of :func:`winding_number` on each row of ``points``, a closed curve at ``params``.

    Returns each row's index and ``min_distance``, a mask of the rows that ``winding_number`` returns from that
    level unrefined (the values are then bit for bit its own), and a map from a row to its first level.
    """
    rows, n = points.shape
    # all rows as one contiguous run, as for a single curve; the segment joining two rows is dropped
    flat = points.ravel()
    seg = _segments(None, None, flat, np.concatenate((flat[1:], flat[:1])), policy)
    increment, distance, split = (seg[key].reshape(rows, n)[:, :-1] for key in ("increment", "distance", "split"))
    moduli = np.abs(points)
    threshold = policy.origin_rel_tol * np.maximum.reduce(moduli, axis=1)
    low = np.minimum.reduce(distance, axis=1)
    turns = np.add.reduce(increment, axis=1) / (2.0 * math.pi)
    index = np.rint(turns)
    decided = (
        (threshold > 0.0)
        & np.logical_and.reduce(moduli >= threshold[:, None], axis=1)
        & ~np.logical_or.reduce(split, axis=1)
        & (low >= threshold)
        & (np.abs(turns - index) <= policy.integer_tol)
    )

    def level(i: int) -> dict:
        part = slice(i * n, (i + 1) * n - 1)
        return dict({key: seg[key][part] for key in ("pa", "pb", "increment", "distance", "split", "mid")},
                    ta=params[:-1], tb=params[1:])

    return index, low, decided, level


def kl_curve_evaluator(s: Scheme, rb: ReducedBoundary, normalize: bool = True) -> Callable:
    """Parameter-to-point map for the determinant curve on the unit circle; vectorized.

    With ``normalize`` the determinant is divided by ``z**r``, which shifts
    the winding index so that the exterior zero count is simply its negative.
    """

    def evaluate(theta):
        z = np.exp(1j * np.asarray(theta, dtype=float))
        value = kl_det_stack(rb.det_c.coeffs, s.a_lead, s.a_zero, rb.r, z)
        if normalize:
            value = value / z**rb.r
        return value

    return evaluate


@functools.lru_cache(maxsize=8)
def _circle(n0: int, r: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``n0 + 1`` uniform parameters on [0, 2pi], their points ``z`` and ``z**r``; read-only."""
    params = np.linspace(0.0, 2.0 * np.pi, n0 + 1)
    arrays = (params, np.exp(1j * params), np.exp(1j * params) ** r)
    for array in arrays:
        array.setflags(write=False)
    return arrays


def sample_kl_curve(s: Scheme, rb: ReducedBoundary, n0: int = 1024, normalize: bool = True) -> CurveSamples:
    """Sample the determinant curve at ``n0 + 1`` uniform parameters on [0, 2pi]."""
    params, points = sample_kl_curves(rb.det_c.coeffs, s.a_lead, s.a_zero, rb.r, n0, normalize)
    return CurveSamples(params=params, points=points, closed=True)


def sample_kl_curves(coeffs: np.ndarray, a_lead, a_zero, r: int, n0: int = 1024, normalize: bool = True):
    """The parameters and points of :func:`sample_kl_curve` for ``det C`` coefficients ``coeffs``
    (..., m+1) and stencil ends (...): a stack gives one row of points per pair."""
    if n0 < 64:
        raise ValueError("n0 must be at least 64")
    params, z, zr = _circle(n0, r)
    points = kl_det_stack(coeffs, a_lead, a_zero, r, z)
    if normalize:
        points = points / zr
    points[..., -1] = points[..., 0]
    return params, points


def curve_to_csv(curve: CurveSamples) -> str:
    """CSV dump with columns theta, re, im."""
    lines = ["theta,re,im"]
    for theta, point in zip(curve.params, curve.points):
        lines.append(f"{float(theta)!r},{float(point.real)!r},{float(point.imag)!r}")
    return "\n".join(lines) + "\n"
