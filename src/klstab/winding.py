"""Winding number of the origin for sampled closed curves, with insertion refinement.

The zero count of the determinant outside the closed unit disk equals minus the winding index of the normalized
determinant curve around the origin, so getting an integer reliably matters more than raw accuracy. The polygon angle
sum is refined by inserting curve midpoints wherever a single turn is too large or a segment passes suspiciously close
to the origin, within a fixed evaluation budget.

One numpy pass gives every segment its angle increment, distance to the origin and split flag. The open curves are
refined together, one level at a time, as one frontier: a level of all of them is one block of arrays, its midpoints
go to the evaluator in one call, and the curves' running scalars are arrays updated once a level. Only a curve that a
known segment could stop has its levels merged into depth-first order, to find the stop. The refined polygon, the
evaluation count and the error are those of a depth-first walk that splits segments in parameter order.
"""

from __future__ import annotations

import functools
import itertools
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

    A segment is split when its angle increment exceeds ``angle_threshold`` or its distance to the origin is below
    ``proximity_factor`` times its length; splitting stops at ``max_evaluations`` total curve evaluations. The origin
    counts as lying on the curve when the closest approach falls below ``origin_rel_tol`` times the largest sampled
    modulus.
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
    distance = np.abs(pa + np.minimum(np.maximum(t, 0.0, out=t), 1.0, out=t) * d)  # np.clip, without its wrapper
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


_KEYS = ("ta", "tb", "pa", "pb", "increment", "distance", "split", "mid")


def _depth_first(levels: list, k: int, keys, leaves: bool = False) -> dict:
    """The segments (their ``keys``; only the leaves with ``leaves``) of curve ``k`` in the frontier blocks ``levels``,
    in the order of the depth-first walk: a split segment before its halves, the left half first. That is ``ta``
    ascending; the stable sort keeps a segment before the halves that share its ``ta``, and the first level, already
    in order, is one run of it."""
    lo, hi = levels[0]["rows"].searchsorted((k, k + 1))  # the first level holds one run of each curve
    others = len(levels) > 1 and hi - lo < levels[0]["rows"].size  # refined levels may hold other curves
    levels = [{key: levels[0][key][lo:hi] for key in {"ta", "split", "rows", *keys}}] + levels[1:]
    ta = np.concatenate([level["ta"] for level in levels])
    mine = ~np.concatenate([level["split"] for level in levels]) if leaves else np.ones(ta.size, dtype=bool)
    if others:
        mine &= np.concatenate([level["rows"] for level in levels]) == k
    order = mine.nonzero()[0]
    order = order[ta[order].argsort(kind="stable")]
    return {key: np.concatenate([level[key] for level in levels])[order] for key in keys}


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
    """The :func:`winding_number` of each closed curve ``(params, points)`` (``params`` increasing), or its error,
    returned unraised so that no traceback keeps the walk's arrays alive. The curves are walked as one frontier:
    each level, the pending midpoints of all open curves go to ``evaluator(rows, params)`` in one call, ``rows[i]``
    naming the curve of ``params[i]``, and their halves through one segment pass. Each curve's outcome is bit for
    bit the one it gets alone."""
    outcomes: List = [None] * len(curves)
    rel, budget, refine = policy.origin_rel_tol, policy.max_evaluations, evaluator is not None
    firsts, info = [], {}
    for k, ((params, points), level) in enumerate(zip(curves, first_levels or [None] * len(curves))):
        if params.size < 4:
            outcomes[k] = ValueError("need at least 3 distinct points on a closed curve")
            continue
        moduli = np.abs(points)
        scale = float(moduli.max())
        close = (moduli < rel * scale).nonzero()[0]
        if scale == 0.0:
            outcomes[k] = OriginOnCurve("curve is identically zero", WindingResult(None, 0.0, params.size, True))
        elif close.size:
            outcomes[k] = _on_curve(moduli[close[0]], rel * scale, params.size)
        else:
            firsts.append(level or _segments(params[:-1], params[1:], points[:-1], points[1:], policy))
            info[k] = params.size, scale
    if not info:
        return outcomes

    # The frontier F is the newest level of every open curve, grouped by curve in ascending order, each group in
    # parameter order and ending at ``bounds``; the ``g*`` arrays hold each group's running scalars. While they show
    # that no stop is possible, a curve's pending splits are all its splits in F. Once one is (it stays possible),
    # its levels are merged in depth-first order into ``slow[k]``, where the replay finds the first segment that
    # stops the walk, and only the pending splits ahead of that segment are evaluated.
    sizes = [first["ta"].size for first in firsts]
    gk, bounds, spent = np.array(list(info)), np.array([0, *itertools.accumulate(sizes)]), max(sizes) + 1
    F = {key: np.concatenate([first[key] for first in firsts]) for key in _KEYS} if len(firsts) > 1 else dict(firsts[0])
    F["rows"], history, slow = gk.repeat(sizes), [F], {}
    groom, gtop, glow_mid, glow_leaf = np.array([(budget - n, scale, np.inf, np.inf) for n, scale in info.values()]).T
    while True:
        split = F["split"]
        at = split.nonzero()[0]
        marks = at.searchsorted(bounds)
        count = marks[1:] - marks[:-1]
        groom -= count
        spent += at.size  # no curve's budget test can fail while the largest n plus all splits so far fits
        np.minimum(glow_leaf, np.minimum.reduceat(np.where(split, np.inf, F["distance"]), bounds[:-1]), out=glow_leaf)
        fast = np.minimum(glow_leaf, glow_mid) >= rel * gtop
        if spent > budget:
            fast &= groom >= 0
        if refine and all(fast.tolist()) and all(count.tolist()):
            pending, (ta, tb, pa, pb, rows) = [(F, at)], (F[key][at] for key in ("ta", "tb", "pa", "pb", "rows"))
        else:
            pending, ends = [], bounds.tolist()
            for g, k in enumerate(gk.tolist()):
                if refine and fast[g]:
                    pending.append((F, at[marks[g]:marks[g + 1]]))
                    continue
                if k in slow:  # the halves of its pending splits go in right after them
                    (seg, after), size = slow[k], slow[k][0]["ta"].size
                    index = np.insert(np.arange(size), after.repeat(2) + 1, np.arange(size, size + 2 * after.size))
                    seg = {key: np.concatenate((seg[key], F[key][ends[g]:ends[g + 1]]))[index] for key in _KEYS}
                else:
                    seg = _depth_first(history, k, _KEYS)
                seg, after, outcomes[k] = _replay(seg, *info[k], policy, refine)
                slow[k], count[g] = (seg, after), after.size
                pending.append((seg, after))
            for g in (count == 0).nonzero()[0].tolist():
                k, threshold, evaluations = int(gk[g]), rel * gtop[g], int(budget - groom[g])
                if outcomes[k] is None and glow_leaf[g] < threshold:
                    outcomes[k] = _on_curve(glow_leaf[g], threshold, evaluations)
                elif outcomes[k] is None:
                    leaves = slow[k][0]["increment"][~slow[k][0]["split"]] if k in slow else \
                        _depth_first(history, k, ("increment",), leaves=True)["increment"]
                    outcomes[k] = _result(leaves, float(glow_leaf[g]), evaluations, policy)
            keep = count > 0
            if not keep.any():
                return outcomes
            gk, groom, gtop, glow_mid, glow_leaf, count = (
                array[keep] for array in (gk, groom, gtop, glow_mid, glow_leaf, count))
            pending, marks = [part for part in pending if part[1].size], np.array([0, *itertools.accumulate(count)])
            ta, tb, pa, pb = (np.concatenate([seg[key][at] for seg, at in pending]) for key in ("ta", "tb", "pa", "pb"))
            rows = gk.repeat(count)
        tm = 0.5 * (ta + tb)
        pm = np.asarray(evaluator(rows, tm), dtype=complex)
        modulus = np.abs(pm)
        for (seg, at), start in zip(pending, itertools.accumulate([at.size for _, at in pending], initial=0)):
            seg["mid"][at] = modulus[start:start + at.size]
        gtop = np.fmax(gtop, np.fmax.reduceat(modulus, marks[:-1]))
        glow_mid = np.fmin(glow_mid, np.fmin.reduceat(modulus, marks[:-1]))
        F = _segments(_pairs(ta, tm), _pairs(tm, tb), _pairs(pa, pm), _pairs(pm, pb), policy)
        F["rows"], bounds = rows.repeat(2), 2 * marks
        history.append(F)


def _replay(seg: dict, n: int, scale: float, policy: RefinementPolicy, refine: bool):
    """The depth-first replay of one curve's merged segments: those up to the first one that stops the walk (a stop
    stays one, so what follows it never matters again; without an evaluator every split is one), the pending splits
    ahead of it and, when none is, the error it stops the walk with."""
    rel, split, mid, distance = policy.origin_rel_tol, seg["split"], seg["mid"], seg["distance"]
    before = np.cumsum(split) - split
    scale_with = np.maximum.accumulate(np.fmax(mid, scale))
    scale_before = np.concatenate(([scale], scale_with[:-1]))
    over_budget = split & (n + before >= policy.max_evaluations)
    stops = np.where(split, over_budget | (mid < rel * scale_with) | (not refine), distance < rel * scale_before)
    first = int(np.argmax(stops)) if stops.any() else None
    pending = (split[:first] & np.isnan(mid[:first])).nonzero()[0]
    if pending.size or first is None:
        return (seg if first is None else {key: value[:first + 1] for key, value in seg.items()}), pending, None
    evaluations, threshold = n + int(before[first]), rel * scale_before[first]
    if not split[first] or (refine and over_budget[first] and distance[first] < threshold):
        error = _on_curve(distance[first], threshold, evaluations)
    elif not refine:
        error = RefinementBudgetExceeded("segment needs refinement but no curve evaluator was provided")
    elif over_budget[first]:
        error = RefinementBudgetExceeded(f"refinement exceeded {policy.max_evaluations} curve evaluations")
    else:
        error = _on_curve(mid[first], rel * scale_with[first], evaluations + 1)
    return seg, pending, error


def _result(increments: np.ndarray, low_leaf: float, evaluations: int, policy: RefinementPolicy):
    """The outcome of a walk that no segment stops, from its leaves' increments in depth-first order."""
    turns = float(np.sum(increments)) / (2.0 * math.pi)
    index = round(turns)
    if abs(turns - index) > policy.integer_tol:
        return RefinementBudgetExceeded(f"angle sum {turns:.3e} turns is not within {policy.integer_tol} of an integer")
    return WindingResult(index=int(index), min_distance=low_leaf, samples_used=evaluations, origin_on_curve=False)


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
        return dict({key: seg[key][i * n:(i + 1) * n - 1] for key in _KEYS[2:]}, ta=params[:-1], tb=params[1:])

    return index, low, decided, level


def kl_curve_evaluator(s: Scheme, rb: ReducedBoundary, normalize: bool = True) -> Callable:
    """Parameter-to-point map for the determinant curve on the unit circle; vectorized. With ``normalize`` the
    determinant is divided by ``z**r``, which shifts the winding index so that the exterior zero count is simply its
    negative."""

    def evaluate(theta):
        z = np.exp(1j * np.asarray(theta, dtype=float))
        value = kl_det_stack(rb.det_c.coeffs, s.a_lead, s.a_zero, rb.r, z)
        return value / z**rb.r if normalize else value

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
