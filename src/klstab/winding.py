"""Winding number of the origin for sampled closed curves, with insertion refinement.

The zero count of the determinant outside the closed unit disk equals minus
the winding index of the normalized determinant curve around the origin, so
getting an integer reliably matters more than raw accuracy. The polygon
angle sum is refined by inserting curve midpoints wherever a single turn is
too large or a segment passes suspiciously close to the origin, within a
fixed evaluation budget.

One numpy pass computes the angle increment, distance to the origin and
split flag of every segment; segments that need no split are summed as
they are. The flagged ones are refined one level at a time: all midpoints
of a level go to the curve evaluator in one array call (near a stop, only
part of a level), so an evaluator maps an array of parameters to an array
of points. The refined polygon, the evaluation count and the error raised
are those of a depth-first walk that splits segments in parameter order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .config import DEFAULT_TOLS
from .errors import OriginOnCurve, RefinementBudgetExceeded
from .kl import ReducedBoundary, kl_det_explicit
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


# One record per segment of the refinement tree: its end parameters and
# points, angle increment, distance to the origin, split flag, and the
# modulus of its midpoint once evaluated (nan before that, and for leaves).
_SEGMENT = np.dtype([
    ("ta", float), ("tb", float), ("pa", complex), ("pb", complex),
    ("increment", float), ("distance", float), ("split", bool), ("mid", float),
])


def _segments(ta, tb, pa, pb, policy: RefinementPolicy) -> np.ndarray:
    """Segment records ``pa -> pb`` over ``[ta, tb]``, with their increments, distances and split flags."""
    d = pb - pa
    length = np.abs(d)
    len2 = length**2
    # parameter of the point of the segment closest to the origin; 0 when degenerate
    t = np.divide(-(pa * np.conjugate(d)).real, len2, out=np.zeros(len2.shape), where=len2 > 0.0)
    distance = np.abs(pa + np.clip(t, 0.0, 1.0, out=t) * d)
    turn = pb * np.conjugate(pa)
    increment = np.arctan2(turn.imag, turn.real)
    seg = np.empty(length.size, dtype=_SEGMENT)
    seg["ta"], seg["tb"], seg["pa"], seg["pb"] = ta, tb, pa, pb
    seg["increment"], seg["distance"], seg["mid"] = increment, distance, np.nan
    seg["split"] = (length > 0.0) & (
        (np.abs(increment) > policy.angle_threshold) | (distance < policy.proximity_factor * length)
    )
    return seg


def _on_curve(distance: float, threshold: float, evaluations: int) -> OriginOnCurve:
    return OriginOnCurve(
        f"curve passes within {distance:.3e} of the origin (threshold {threshold:.3e})",
        WindingResult(
            index=None, min_distance=float(distance), samples_used=int(evaluations), origin_on_curve=True
        ),
    )


def winding_number(
    curve: CurveSamples,
    policy: RefinementPolicy = DEFAULT_POLICY,
    evaluator: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> WindingResult:
    """Signed number of turns of a closed sampled curve around the origin.

    ``evaluator`` maps an array of parameter values to the array of curve
    points; it is called with arrays of midpoints, batched by refinement
    level, and without it any segment that needs refinement is a hard
    error. ``samples_used`` counts the evaluations of the depth-first walk
    alone. Raises :class:`OriginOnCurve` when the refined polygon comes
    closer to the origin than the relative threshold, and
    :class:`RefinementBudgetExceeded` when the angle sum cannot be trusted
    within the evaluation budget.
    """
    if not curve.closed:
        raise ValueError("winding numbers are defined for closed curves only")
    params = curve.params
    points = curve.points
    n = params.size
    if n < 4:
        raise ValueError("need at least 3 distinct points on a closed curve")

    moduli = np.abs(points)
    scale = float(np.max(moduli))
    if scale == 0.0:
        raise OriginOnCurve(
            "curve is identically zero",
            WindingResult(index=None, min_distance=0.0, samples_used=n, origin_on_curve=True),
        )
    rel = policy.origin_rel_tol
    close = np.flatnonzero(moduli < rel * scale)
    if close.size:
        raise _on_curve(moduli[close[0]], rel * scale, n)

    # ``seg`` lists the segments of the refinement tree in depth-first order:
    # a split segment is followed by its two halves. Until some value comes
    # near the origin or the budget runs short, every pending split is
    # evaluated at once. Otherwise the depth-first walk is replayed over
    # everything known so far; that fixes the evaluation count and running
    # curve scale of each segment up to the first unevaluated split, finds
    # the first segment that stops the walk (origin too close, or budget
    # spent), and only the pending splits ahead of it are evaluated.
    seg = _segments(params[:-1], params[1:], points[:-1], points[1:], policy)
    while True:
        split, mid, distance = seg["split"], seg["mid"], seg["distance"]
        splits = int(np.count_nonzero(split))
        top = float(np.fmax.reduce(mid, initial=scale))
        if (
            evaluator is not None
            and n + splits <= policy.max_evaluations
            and np.min(distance) >= rel * top
            and np.fmin.reduce(mid, initial=np.inf) >= rel * top
        ):
            # no segment known so far can stop the walk
            first = seg.size
        else:
            before = np.cumsum(split) - split
            scale_with = np.maximum.accumulate(np.fmax(mid, scale))
            scale_before = np.concatenate(([scale], scale_with[:-1]))
            over_budget = split & (n + before >= policy.max_evaluations)
            if evaluator is None:
                stops = split | (distance < rel * scale_before)
            else:
                stops = np.where(split, over_budget | (mid < rel * scale_with), distance < rel * scale_before)
            first = int(np.argmax(stops)) if stops.any() else seg.size
        pending = np.flatnonzero(split[:first] & np.isnan(mid[:first]))
        if pending.size == 0:
            break
        parents = seg[pending]
        tm = 0.5 * (parents["ta"] + parents["tb"])
        pm = np.asarray(evaluator(tm), dtype=complex)
        seg["mid"][pending] = np.abs(pm)
        halves = _segments(
            np.concatenate((parents["ta"], tm)),
            np.concatenate((tm, parents["tb"])),
            np.concatenate((parents["pa"], pm)),
            np.concatenate((pm, parents["pb"])),
            policy,
        )
        counts = np.ones(seg.size, dtype=int)
        counts[pending] = 3
        left = np.cumsum(counts)[pending] - 2
        seg = np.repeat(seg, counts)
        seg[np.concatenate((left, left + 1))] = halves

    if first < seg.size:
        evaluations = n + int(before[first])
        threshold = rel * scale_before[first]
        if not split[first]:
            raise _on_curve(distance[first], threshold, evaluations)
        if evaluator is None:
            raise RefinementBudgetExceeded(
                "segment needs refinement but no curve evaluator was provided"
            )
        if over_budget[first]:
            if distance[first] < threshold:
                raise _on_curve(distance[first], threshold, evaluations)
            raise RefinementBudgetExceeded(
                f"refinement exceeded {policy.max_evaluations} curve evaluations"
            )
        raise _on_curve(mid[first], rel * scale_with[first], evaluations + 1)

    leaves = ~split
    evaluations = n + splits
    min_distance = float(np.min(distance[leaves]))
    if min_distance < rel * top:
        raise _on_curve(min_distance, rel * top, evaluations)
    turns = float(np.sum(seg["increment"][leaves])) / (2.0 * math.pi)
    index = round(turns)
    if abs(turns - index) > policy.integer_tol:
        raise RefinementBudgetExceeded(
            f"angle sum {turns:.3e} turns is not within {policy.integer_tol} of an integer"
        )
    return WindingResult(
        index=int(index),
        min_distance=min_distance,
        samples_used=evaluations,
        origin_on_curve=False,
    )


def kl_curve_evaluator(
    s: Scheme, rb: ReducedBoundary, normalize: bool = True
) -> Callable[[np.ndarray], np.ndarray]:
    """Parameter-to-point map for the determinant curve on the unit circle; vectorized.

    With ``normalize`` the determinant is divided by ``z**r``, which shifts
    the winding index so that the exterior zero count is simply its negative.
    """

    def evaluate(theta):
        z = np.exp(1j * np.asarray(theta, dtype=float))
        value = kl_det_explicit(rb, s, z)
        if normalize:
            value = value / z**rb.r
        return value

    return evaluate


def sample_kl_curve(
    s: Scheme,
    rb: ReducedBoundary,
    n0: int = 1024,
    normalize: bool = True,
) -> CurveSamples:
    """Sample the determinant curve at ``n0 + 1`` uniform parameters on [0, 2pi]."""
    if n0 < 64:
        raise ValueError("n0 must be at least 64")
    params = np.linspace(0.0, 2.0 * np.pi, n0 + 1)
    points = np.asarray(kl_curve_evaluator(s, rb, normalize)(params), dtype=complex)
    points[-1] = points[0]
    return CurveSamples(params=params, points=points, closed=True)


def curve_to_csv(curve: CurveSamples) -> str:
    """CSV dump with columns theta, re, im."""
    lines = ["theta,re,im"]
    for theta, point in zip(curve.params, curve.points):
        lines.append(f"{float(theta)!r},{float(point.real)!r},{float(point.imag)!r}")
    return "\n".join(lines) + "\n"
