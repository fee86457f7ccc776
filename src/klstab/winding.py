"""Winding number of the origin for sampled closed curves, with insertion refinement.

The zero count of the determinant outside the closed unit disk equals minus the winding index of the normalized
determinant curve around the origin, so getting an integer reliably matters more than raw accuracy. The polygon angle
sum is refined by inserting curve midpoints wherever a single turn is too large or a segment passes suspiciously close
to the origin, within a fixed evaluation budget.

A stack of curves at shared parameters goes through one numpy pass that gives every segment its angle increment,
distance to the origin and split flag. That pass decides each curve that is not finite, is zero, has a sample at the
origin, or needs no split; the open curves are refined together from its segments as one frontier, several levels a
pass: each pending split brings its dyadic subtree _DEPTH levels deep, the points of all of them go to the evaluator in
one call and their halves through one segment pass. A point is counted only where the depth-first walk meets it, below
halves that all split; the others were evaluated ahead for nothing, and no stop test reads them, not even when they are
not finite. The curves' running scalars are arrays updated once a pass. Only a curve that a known segment could stop has
its segments merged into depth-first order, to find the stop. The refined polygon, the evaluation count and the error
are those of a depth-first walk that splits segments in parameter order, the adaptive argument-principle count of X.
Ying and I. N. Katz (Numer. Math. 53, 1988).

A split whose midpoint parameter rounds to an end is below the parameter resolution: the evaluator is taken for a
function of the parameter, so the midpoint's point is the end's and one half is the split again, which the depth-first
walk splits until the budget runs out. A pass finds such splits as equal adjacent parameters of its subtrees, evaluates
only the new parameters, and the replay ends the walk at the first one with the outcome the budget would give.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .errors import OriginOnCurve, RefinementBudgetExceeded
from .kl import ReducedBoundary, kl_det_stack
from .scheme import Scheme


@dataclass(frozen=True)
class WindingResult:
    """Index of the origin (None when the origin lies on the curve)."""

    index: Optional[int]
    min_distance: float
    samples_used: int
    origin_on_curve: bool


def _segments(ta, tb, pa, pb) -> dict:
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
    sharp = (np.abs(increment) > _ANGLE_THRESHOLD) | (distance < _PROXIMITY_FACTOR * length)
    split = (length > 0.0) & sharp
    return dict(ta=ta, tb=tb, pa=pa, pb=pb, increment=increment, distance=distance, split=split,
                mid=np.full(length.shape, np.nan))


def _unit(scale: float) -> float:
    """The power of two a curve with largest modulus ``scale`` is walked divided by, as its segment arithmetic
    overflows beyond about 1e154 and underflows below about 1e-154; 1 in range, at 0 and when not finite."""
    return 1.0 if 2.0**-500 <= scale <= 2.0**500 else math.ldexp(1.0, math.frexp(scale)[1])


_KEYS = ("ta", "tb", "pa", "pb", "increment", "distance", "split", "mid")

# The walk splits a segment whose angle increment exceeds _ANGLE_THRESHOLD or whose distance to the origin is below
# _PROXIMITY_FACTOR times its length, stops at _MAX_EVALUATIONS curve evaluations, and trusts an angle sum within
# _INTEGER_TOL turns of an integer.
_MAX_EVALUATIONS, _ANGLE_THRESHOLD, _PROXIMITY_FACTOR, _INTEGER_TOL = 2**16, math.pi / 2.0, 4.0, 1e-6

# A pass takes each pending split's subtree _DEPTH (K) levels deep: its 2^K + 1 points in parameter order, the split's
# ends first and last, and its halves, those of level d (1 to K) between the points 2^(K-d) apart, level after level.
# Of 2, 3 and 4 levels a pass, 3 was measured best: 2 gains little on deep walks, 4 slows shallow walks.
_DEPTH = 3
_N, _STEPS = 2**_DEPTH, [2**d for d in reversed(range(_DEPTH))]
_LEVEL = np.repeat(np.arange(1, _DEPTH + 1), 2 ** np.arange(1, _DEPTH + 1))
_START = np.concatenate([np.arange(0, _N, step) for step in _STEPS])
_END = _START + (_N >> _LEVEL)
# the midpoint of each half and of the subtree's split, indexing the 2^K - 1 points between its ends
_W, _ABOVE, _MID, _CENTER = _START.size, _LEVEL < _DEPTH, (_START + _END) // 2 - 1, _N // 2 - 1
_ANCESTOR = (_START[:, None] <= _START) & (_END <= _END[:, None]) & (_LEVEL[:, None] < _LEVEL)


def _depth_first(levels: list, k: int, keys, leaves: bool = False) -> dict:
    """The real segments (their ``keys``; only the leaves with ``leaves``) of curve ``k`` in the frontier blocks
    ``levels``, in the order of the depth-first walk: a split segment before its halves, the left half first. That is
    ``ta`` ascending, sorted stably, as a block lays out a segment before its halves and blocks follow in turn."""
    runs = [(level, *level["runs"][k]) for level in levels]
    mine = np.concatenate([level["leaf" if leaves else "real"][lo:hi] for level, lo, hi in runs]).nonzero()[0]
    order = mine[np.concatenate([level["ta"][lo:hi] for level, lo, hi in runs])[mine].argsort(kind="stable")]
    return {key: np.concatenate([level[key][lo:hi] for level, lo, hi in runs])[order] for key in keys}


def _on_curve(distance: float, threshold: float, evaluations: int, unit: float = 1.0) -> OriginOnCurve:
    distance, threshold = distance * unit, threshold * unit  # of a curve walked divided by unit
    return OriginOnCurve(f"curve passes within {distance:.3e} of the origin (threshold {threshold:.3e})",
                         WindingResult(None, float(distance), int(evaluations), True))


def winding_number(params: np.ndarray, points: np.ndarray, tols: Tolerances = DEFAULT_TOLS, *,
                   evaluator: Callable[[np.ndarray], np.ndarray]) -> WindingResult:
    """Signed number of turns around the origin of the closed curve sampled as ``points`` at the strictly increasing
    ``params``: :func:`winding_numbers` of one curve.

    ``evaluator`` maps an array of parameter values to the array of curve points; it is called with one array a
    pass of several refinement levels. ``samples_used`` counts the evaluations of the depth-first walk alone. Raises
    :class:`OriginOnCurve` when the refined polygon comes closer to the origin than the relative threshold,
    :class:`RefinementBudgetExceeded` when the angle sum cannot be trusted within the evaluation budget, and
    ``ValueError`` when a sample or an evaluated midpoint is not finite, when ``params`` and ``points`` differ in
    length, when ``params`` does not increase strictly, or when the curve does not end where it starts.
    """
    params, points = np.asarray(params, dtype=float), np.asarray(points, dtype=complex)
    if params.shape != points.shape:
        raise ValueError("params and points must have the same length")
    if np.any(np.diff(params) <= 0):
        raise ValueError("params must be strictly increasing")
    if points.size and abs(points[0] - points[-1]) > 1e-12 * max(1.0, float(np.max(np.abs(points)))):
        raise ValueError("closed curve must end where it starts")
    (outcome,) = winding_numbers(params, points[None], tols, lambda rows, t: evaluator(t))
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def winding_numbers(params: np.ndarray, points: np.ndarray, tols: Tolerances,
                    evaluator: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> List[Union[WindingResult, Exception]]:
    """The :func:`winding_number` of each row of ``points``, a closed curve at the increasing ``params`` all rows
    share, or its error, returned unraised so that no traceback keeps the walk's arrays alive. One segment pass over
    the stack decides each row that is not finite, is zero, has a sample under the origin threshold, or needs no split
    and sums to an integer. The other rows are walked as one frontier: each pass, the subtrees _DEPTH levels deep of
    the pending splits of all open rows go to ``evaluator(rows, params)`` in one call, grouped by row and each row's
    in parameter order, ``rows[i]`` naming the row of ``params[i]``; their halves go through one segment pass. Only
    the points the depth-first walk meets are counted, and the points below a half that does not split, evaluated
    ahead, are never read. A row and its points are divided by its :func:`_unit` (distances scaled back). Each row's
    outcome is bit for bit the one it gets alone."""
    rows, n = points.shape
    if n < 4:
        return [ValueError("need at least 3 distinct points on a closed curve") for _ in range(rows)]
    rel, budget = tols.origin_tol, _MAX_EVALUATIONS
    moduli = np.abs(points)
    top = np.maximum.reduce(moduli, axis=1)
    units = [_unit(scale) for scale in top.tolist()]
    divided = units.count(1.0) < rows
    units = np.array(units)
    if divided:
        points = points / units[:, None]
    # all rows as one contiguous run, as for a single curve; the segment joining two rows is dropped
    flat = points.ravel()
    with np.errstate(over="ignore", invalid="ignore"):  # a row that is not finite; it is decided before any walk
        seg = _segments(None, None, flat, np.concatenate((flat[1:], flat[:1])))
    increment, distance, split = (seg[key].reshape(rows, n)[:, :-1] for key in ("increment", "distance", "split"))
    scales = top / units if divided else top
    low = np.minimum.reduce(distance, axis=1)
    turns = np.add.reduce(increment, axis=1) / (2.0 * math.pi)
    index = np.rint(turns)
    outcomes: List = [None] * rows
    walk = []
    # each row's scalars, decided in Python
    columns = (array.tolist() for array in (top, np.minimum.reduce(moduli, axis=1),
                                            np.logical_or.reduce(split, axis=1), low, scales, turns, index))
    for k, (scale, near, splits, low_k, scale_k, turns_k, index_k) in enumerate(zip(*columns)):
        if not math.isfinite(scale):
            outcomes[k] = ValueError(f"curve is not finite at t={float(params[np.argmin(np.isfinite(moduli[k]))])!r}")
        elif scale == 0.0:
            outcomes[k] = OriginOnCurve("curve is identically zero", WindingResult(None, 0.0, n, True))
        elif near < rel * scale:  # the first sample under the threshold
            outcomes[k] = _on_curve(moduli[k, np.argmax(moduli[k] < rel * scale)], rel * scale, n)
        elif not splits and low_k >= rel * scale_k and abs(turns_k - index_k) <= _INTEGER_TOL:
            outcomes[k] = WindingResult(int(index_k), float(low_k * units[k]), n, False)
        else:
            walk.append(k)
    if not walk:
        return outcomes

    # The frontier F is the newest block of segments of every open curve, grouped by curve in ascending order and
    # ending at ``bounds``, with masks of its ``real`` segments, its real ``leaf`` segments and the real splits that
    # ``pend``, in parameter order; the ``g*`` arrays hold each group's running scalars. While they show that no stop
    # is possible, a curve's pending splits are all those of F. Once one is (it stays possible), its segments are
    # merged in depth-first order each pass, the replay finds the first segment that stops the walk, and only the
    # pending splits ahead of that segment, all in F, are taken.
    F = {key: seg[key].reshape(rows, n)[walk, :-1].ravel() for key in _KEYS[2:]}
    F.update(ta=np.tile(params[:-1], len(walk)), tb=np.tile(params[1:], len(walk)),
             real=np.ones(F["split"].size, dtype=bool), leaf=~F["split"], pend=F["split"])
    history, gk, bounds = [F], np.array(walk), (n - 1) * np.arange(len(walk) + 1)
    groom, gtop = np.full(len(walk), float(budget - n)), scales[walk]
    glow_mid = glow_leaf = np.full(len(walk), np.inf)
    while True:
        F["runs"] = dict(zip(gk.tolist(), itertools.pairwise(bounds.tolist())))  # each curve's (start, end) in F
        at = F["pend"].nonzero()[0]
        marks = at.searchsorted(bounds)
        count = marks[1:] - marks[:-1]
        groom -= count
        glow_leaf = np.minimum(glow_leaf, np.minimum.reduceat(np.where(F["leaf"], F["distance"], np.inf), bounds[:-1]))
        fast = (np.minimum(glow_leaf, glow_mid) >= rel * gtop) & (groom >= 0)
        if all(fast.tolist()) and all(count.tolist()):
            take = at
        else:
            parts = []
            for g, k in enumerate(gk.tolist()):
                part = at[marks[g]:marks[g + 1]]
                if not fast[g]:  # the replay takes the pending splits of F ahead of the first stop
                    merged = _depth_first(history, k, _KEYS)
                    ahead, outcomes[k] = _replay(merged, n, scales[k], units[k], tols)
                    part = part[F["ta"][part].searchsorted(ahead)]
                    count[g] = part.size
                parts.append(part)
            for g in (count == 0).nonzero()[0].tolist():
                k, threshold, evaluations = int(gk[g]), rel * gtop[g], int(budget - groom[g])
                if outcomes[k] is None and glow_leaf[g] < threshold:
                    outcomes[k] = _on_curve(glow_leaf[g], threshold, evaluations, units[k])
                elif outcomes[k] is None:
                    leaves = _depth_first(history, k, ("increment",), leaves=True)["increment"]
                    outcomes[k] = _result(leaves, float(glow_leaf[g] * units[k]), evaluations)
            keep = count > 0
            if not keep.any():
                return outcomes
            gk, groom, gtop, glow_mid, glow_leaf, count = (
                array[keep] for array in (gk, groom, gtop, glow_mid, glow_leaf, count))
            take, marks = np.concatenate(parts), np.array([0, *itertools.accumulate(count)])
        ta, tb, pa, pb = (F[key][take] for key in ("ta", "tb", "pa", "pb"))
        # one row a pending split: the 2^K + 1 points of its subtree in parameter order, and its halves
        T = np.empty((ta.size, _N + 1))
        T[:, 0], T[:, _N] = ta, tb
        for step in _STEPS:
            T[:, step::2 * step] = 0.5 * (T[:, :-1:2 * step] + T[:, 2 * step::2 * step])
        rows_of, params_of = gk.repeat((_N - 1) * count), T[:, 1:-1].ravel()
        fresh = None
        if (T[:, 1:] == T[:, :-1]).any():  # a sub-resolution split: only the new parameters are evaluated
            fresh = (T[:, 1:-1] != T[:, :-2]) & (T[:, 1:-1] != T[:, -1:])
            rows_of, params_of = rows_of[fresh.ravel()], params_of[fresh.ravel()]
        pm = np.asarray(evaluator(rows_of, params_of) if params_of.size else [], dtype=complex)
        if divided:
            pm = pm / units[rows_of]
        modulus = np.abs(pm)
        if not np.isfinite(modulus).all():  # a midpoint that is not finite is a stop with an error, at modulus -1
            pm, modulus = np.where(np.isfinite(modulus), pm, 0j), np.where(np.isfinite(modulus), modulus, -1.0)
        P = np.empty(T.shape, dtype=complex)
        P[:, 0], P[:, _N] = pa, pb
        if fresh is None:
            P[:, 1:-1], M = pm.reshape(ta.size, _N - 1), modulus.reshape(ta.size, _N - 1)
        else:
            M = np.empty((ta.size, _N - 1))
            P[:, 1:-1][fresh], M[fresh] = pm, modulus
            for j in range(1, _N):  # a repeated parameter's point is its left neighbour's, or the right end's
                copy = ~fresh[:, j - 1]
                P[copy, j] = np.where(T[copy, j] == tb[copy], pb[copy], P[copy, j - 1])
                M[copy, j - 1] = np.abs(P[copy, j])
            # such a split's curve leaves the fast path, so that _replay ends its walk there
            groom[np.logical_or.reduceat(~fresh.all(axis=1), marks[:-1])] = -1.0
        F["mid"][take] = M[:, _CENTER]
        with np.errstate(over="ignore", invalid="ignore"):  # a point evaluated ahead may be huge, and is never read
            F = _segments(*(X.take(ends, axis=1).ravel() for X in (T, P) for ends in (_START, _END)))
        # a half is real, met by the depth-first walk, when every ancestor in its subtree splits (a boolean product,
        # not BLAS); real splits above the last level are walked past, midpoints counted, and the last level's pend
        split = F["split"].reshape(ta.size, _W)
        real = ~np.matmul(~split, _ANCESTOR)
        past = (both := real & split) & _ABOVE
        mid = np.where(past, M.take(_MID, axis=1), np.nan)
        gtop = np.fmax(gtop, np.fmax.reduceat(np.fmax(np.fmax.reduce(mid, axis=1), M[:, _CENTER]), marks[:-1]))
        glow_mid = np.fmin(glow_mid, np.fmin.reduceat(np.fmin(np.fmin.reduce(mid, axis=1), M[:, _CENTER]), marks[:-1]))
        walked = np.add.reduceat(past.sum(axis=1), marks[:-1])
        groom = groom - walked
        F.update(mid=mid.ravel(), real=real.ravel(), leaf=(real ^ both).ravel(), pend=(both ^ past).ravel())
        bounds = _W * marks
        history.append(F)


def _replay(seg: dict, n: int, scale: float, unit: float, tols: Tolerances):
    """The depth-first replay of one curve's merged segments up to the first one that stops the walk (a stop stays
    one, so what follows it never matters again): the ``ta`` of the pending splits ahead of it and, when none is, the
    error it stops the walk with (the curve divided by ``unit``)."""
    rel, split, mid, distance = tols.origin_tol, seg["split"], seg["mid"], seg["distance"]
    # a split whose midpoint parameter rounds to an end has that end's point as its midpoint, and one half equal
    # to itself: the walk repeats it until the budget runs out, so it stops the walk (sub-resolution)
    ta, tb = seg["ta"], seg["tb"]
    tm = 0.5 * (ta + tb)
    repeats = split & ((tm == ta) | (tm == tb))
    if repeats.any():
        mid = np.where(repeats, np.abs(np.where(tm == ta, seg["pa"], seg["pb"])), mid)
    before = np.cumsum(split) - split
    scale_with = np.maximum.accumulate(np.fmax(mid, scale))
    scale_before = np.concatenate(([scale], scale_with[:-1]))
    over_budget = split & (n + before >= _MAX_EVALUATIONS)
    stops = np.where(split, over_budget | repeats | (mid < rel * scale_with), distance < rel * scale_before)
    first = int(np.argmax(stops)) if stops.any() else None
    pending = (split[:first] & np.isnan(mid[:first])).nonzero()[0]
    if pending.size or first is None:
        return ta[pending], None
    evaluations, threshold = n + int(before[first]), rel * scale_before[first]
    if split[first] and not over_budget[first]:
        if mid[first] < 0.0:
            return ta[pending], ValueError(f"curve is not finite at t={float(tm[first])!r}")
        if mid[first] < rel * scale_with[first]:
            return ta[pending], _on_curve(mid[first], rel * scale_with[first], evaluations + 1, unit)
        # a repeated split, walked until the budget is spent
        evaluations, threshold = _MAX_EVALUATIONS, rel * scale_with[first]
    if not split[first] or distance[first] < threshold:
        return ta[pending], _on_curve(distance[first], threshold, evaluations, unit)
    return ta[pending], RefinementBudgetExceeded(f"refinement exceeded {_MAX_EVALUATIONS} curve evaluations")


def _result(increments: np.ndarray, low_leaf: float, evaluations: int):
    """The outcome of a walk that no segment stops, from its leaves' increments in depth-first order."""
    turns = float(np.sum(increments)) / (2.0 * math.pi)
    index = np.rint(turns)
    if not abs(turns - index) <= _INTEGER_TOL:  # nor when not finite
        return RefinementBudgetExceeded(f"angle sum {turns:.3e} turns is not within {_INTEGER_TOL} of an integer")
    return WindingResult(index=int(index), min_distance=low_leaf, samples_used=evaluations, origin_on_curve=False)


@functools.lru_cache(maxsize=8)
def _circle(n0: int, r: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``n0 + 1`` uniform parameters on [0, 2pi], their points ``z`` and ``z**r``; read-only."""
    params = np.linspace(0.0, 2.0 * np.pi, n0 + 1)
    arrays = (params, np.exp(1j * params), np.exp(1j * params) ** r)
    for array in arrays:
        array.setflags(write=False)
    return arrays


def sample_kl_curve(s: Scheme, rb: ReducedBoundary, n0: int = 1024, normalize: bool = True):
    """The ``n0 + 1`` uniform parameters on [0, 2pi] and the determinant curve's points there."""
    return sample_kl_curves(rb.det_c, s.a_lead, s.a_zero, rb.r, n0, normalize)


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


def curve_to_csv(params: np.ndarray, points: np.ndarray) -> str:
    """CSV dump of a sampled curve with columns theta, re, im."""
    lines = ["theta,re,im"]
    for theta, point in zip(params, points):
        lines.append(f"{float(theta)!r},{float(point.real)!r},{float(point.imag)!r}")
    return "\n".join(lines) + "\n"
