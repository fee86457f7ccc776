import cmath
import math

import numpy as np
import pytest

from klstab.boundary import custom_condition, silw_condition
from klstab.errors import OriginOnCurve, RefinementBudgetExceeded
from klstab.kl import exterior_zero_count_direct, reduce_boundary
from klstab.scheme import CurveSamples, Scheme, make_beam_warming, validate
from klstab.winding import (
    RefinementPolicy,
    curve_to_csv,
    kl_curve_evaluator,
    sample_kl_curve,
    winding_number,
)
from oracles import winding_count

AGREEMENT_PRESETS = [(1, 2), (2, 3), (1, 3)]


def circle_curve(fn, n):
    params = np.linspace(0.0, 2.0 * np.pi, n + 1)
    points = np.asarray(fn(params), dtype=complex)
    points[-1] = points[0]
    return CurveSamples(params=params, points=points, closed=True)


def test_unit_circle_index_one():
    curve = circle_curve(lambda t: np.exp(1j * t), 64)
    result = winding_number(curve)
    assert result.index == 1
    assert abs(result.min_distance - 1.0) < 0.01
    assert not result.origin_on_curve


def test_offset_circle_index_zero():
    curve = circle_curve(lambda t: 3.0 + np.exp(1j * t), 256)
    assert winding_number(curve, evaluator=lambda t: 3.0 + np.exp(1j * t)).index == 0


def test_reversed_double_cover_index_minus_two():
    curve = circle_curve(lambda t: np.exp(-2j * t), 128)
    assert winding_number(curve).index == -2


def test_constant_curve_has_index_zero():
    params = np.linspace(0.0, 2.0 * np.pi, 65)
    points = np.full(65, 2.0 - 1.0j)
    result = winding_number(CurveSamples(params=params, points=points, closed=True))
    assert result.index == 0
    assert abs(result.min_distance - abs(2.0 - 1.0j)) < 1e-12


def test_open_curve_rejected():
    params = np.array([0.0, 1.0, 2.0])
    points = np.array([1.0 + 0j, 1j, -1.0 + 0j])
    with pytest.raises(ValueError):
        winding_number(CurveSamples(params=params, points=points, closed=False))


def test_origin_on_curve_raises():
    curve = circle_curve(lambda t: np.exp(1j * t) - 1.0, 64)
    with pytest.raises(OriginOnCurve) as excinfo:
        winding_number(curve, evaluator=lambda t: np.exp(1j * t) - 1.0)
    assert excinfo.value.result.origin_on_curve
    assert excinfo.value.result.index is None


def test_refinement_needed_without_evaluator():
    curve = circle_curve(lambda t: np.exp(1j * t), 4)
    with pytest.raises(RefinementBudgetExceeded):
        winding_number(curve)


def test_refinement_budget_exceeded():
    policy = RefinementPolicy(max_evaluations=6)
    curve = circle_curve(lambda t: np.exp(1j * t), 4)
    with pytest.raises(RefinementBudgetExceeded):
        winding_number(curve, policy, evaluator=lambda t: np.exp(1j * t))


def test_coarse_start_refines_to_correct_index():
    # a near-origin passage forces insertion; the index must match a dense run
    fn = lambda t: np.exp(1j * t) - 0.985
    coarse = winding_number(circle_curve(fn, 64), evaluator=fn)
    dense = winding_number(circle_curve(fn, 16384), evaluator=fn)
    assert coarse.index == dense.index == 1
    # pinned to the depth-first refinement: 44 inserted midpoints
    assert coarse.samples_used == 109
    assert dense.samples_used == 16385


def test_evaluator_called_once_per_level_with_an_array():
    # four chords of the unit circle are too long for their distance to the
    # origin; every segment is split until there are 32, one level per call
    calls = []

    def fn(t):
        calls.append(t)
        return np.exp(1j * t)

    result = winding_number(circle_curve(lambda t: np.exp(1j * t), 4), evaluator=fn)
    assert result.index == 1
    assert all(isinstance(t, np.ndarray) for t in calls)
    assert [t.size for t in calls] == [4, 8, 16]
    assert result.samples_used == 5 + 4 + 8 + 16


def depth_first_reference(curve, policy, evaluator):
    """The refinement as a scalar depth-first walk over the segments in parameter order."""
    params, points = curve.params, curve.points
    scale = float(np.max(np.abs(points)))
    evaluations = params.size

    def tol():
        return policy.origin_rel_tol * scale

    if scale == 0.0:
        return ("origin", evaluations, 0.0)
    for p in points:
        if abs(p) < tol():
            return ("origin", evaluations, abs(p))
    total, min_distance = 0.0, math.inf
    stack = [(params[k], complex(points[k]), params[k + 1], complex(points[k + 1]))
             for k in range(params.size - 2, -1, -1)]
    while stack:
        ta, pa, tb, pb = stack.pop()
        d = pb - pa
        length = abs(d)
        t = min(1.0, max(0.0, -(pa * d.conjugate()).real / length**2)) if length else 0.0
        dist = abs(pa + t * d)
        increment = cmath.phase(pb * pa.conjugate())
        if length > 0 and (abs(increment) > policy.angle_threshold or dist < policy.proximity_factor * length):
            if evaluator is None:
                return ("budget",)
            if evaluations + 1 > policy.max_evaluations:
                return ("origin", evaluations, dist) if dist < tol() else ("budget",)
            tm = 0.5 * (ta + tb)
            pm = complex(evaluator(np.array([tm]))[0])
            evaluations += 1
            scale = max(scale, abs(pm))
            if abs(pm) < tol():
                return ("origin", evaluations, abs(pm))
            stack += [(tm, pm, tb, pb), (ta, pa, tm, pm)]
            continue
        if dist < tol():
            return ("origin", evaluations, dist)
        min_distance = min(min_distance, dist)
        total += increment
    if min_distance < tol():
        return ("origin", evaluations, min_distance)
    turns = total / (2.0 * math.pi)
    if abs(turns - round(turns)) > policy.integer_tol:
        return ("budget",)
    return ("ok", evaluations, min_distance, round(turns))


def random_trig_curve(rng):
    """A short trigonometric sum in real arithmetic, often shifted onto or next to the origin."""
    ks = rng.integers(-3, 4, size=rng.integers(1, 5))
    coeffs = rng.normal(size=(ks.size, 2))

    def raw(t):
        t = np.asarray(t, dtype=float)
        re, im = np.zeros(t.shape), np.zeros(t.shape)
        for k, (a, b) in zip(ks, coeffs):
            cos, sin = np.cos(k * t), np.sin(k * t)
            re, im = re + (a * cos - b * sin), im + (a * sin + b * cos)
        return re + 1j * im

    shift = 0j
    kind = rng.integers(0, 3)
    if kind > 0:
        shift = complex(raw(rng.uniform(0.0, 2.0 * np.pi)))
    if kind == 2:
        shift += 10.0 ** rng.uniform(-9, -1) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    return lambda t: raw(t) - shift


def test_matches_depth_first_reference_on_random_curves():
    # same refined polygon, evaluation count and error as the depth-first
    # walk, including origin hits and budget exhaustion mid-refinement
    rng = np.random.default_rng(7)
    outcomes = set()
    for _ in range(300):
        fn = random_trig_curve(rng)
        n = int(rng.integers(3, 120))
        curve = circle_curve(fn, n)
        policy = RefinementPolicy(
            max_evaluations=int(rng.choice([n + 1 + int(rng.integers(0, 40)), n + 300, 4096])),
            angle_threshold=float(rng.choice([np.pi / 2, 0.3, 2.5])),
            proximity_factor=float(rng.choice([4.0, 1.0, 0.5, 10.0])),
            origin_rel_tol=float(rng.choice([1e-8, 1e-4, 1e-2, 0.3])),
        )
        evaluator = None if rng.uniform() < 0.1 else fn
        outcomes.add(assert_matches_reference(curve, policy, evaluator))
    assert outcomes == {"ok", "origin", "budget"}


def assert_matches_reference(curve, policy, evaluator):
    """Check ``winding_number`` against ``depth_first_reference``; returns the outcome."""
    expected = depth_first_reference(curve, policy, evaluator)
    try:
        result = winding_number(curve, policy, evaluator=evaluator)
        got = ("ok", result.samples_used, result.min_distance, result.index)
    except OriginOnCurve as exc:
        got = ("origin", exc.result.samples_used, exc.result.min_distance)
    except RefinementBudgetExceeded:
        got = ("budget",)
    assert got[:2] == expected[:2] and got[3:] == expected[3:], (got, expected)
    if len(got) > 2:
        assert got[2] == pytest.approx(expected[2], rel=1e-9, abs=1e-300)
    return got[0]


# Beam-Warming CFL numbers within about 1e-8 of a stability edge, where the
# determinant curve passes within about 1e-7 of the origin: (k_d, d), CFL and
# the outcome of the winding there
NEAR_EDGE = [((2, 3), 1.5175048439, "ok"), ((2, 3), 1.5175048345, "origin"), ((1, 4), 0.5299007398, "origin")]


def near_edge_curve(orders, lam):
    s = make_beam_warming(lam)
    rb = reduce_boundary(s, silw_condition(s.r, *orders, 0.0))
    return sample_kl_curve(s, rb, n0=1024), kl_curve_evaluator(s, rb)


@pytest.mark.parametrize("orders, lam, outcome", NEAR_EDGE)
def test_matches_depth_first_reference_near_stability_edges(orders, lam, outcome):
    # the random curves above build shallow trees; these refine about 20 levels deep
    curve, evaluator = near_edge_curve(orders, lam)
    assert assert_matches_reference(curve, RefinementPolicy(), evaluator) == outcome


@pytest.mark.parametrize("orders, lam", [(None, None)] + [entry[:2] for entry in NEAR_EDGE])
def test_evaluator_gets_only_new_parameters(orders, lam):
    # never an empty array, never a parameter twice, and on success exactly
    # the midpoints that samples_used counts
    if orders is None:
        # the curve of test_coarse_start_refines_to_correct_index
        fn = lambda t: np.exp(1j * t) - 0.985
        curve, evaluator, levels = circle_curve(fn, 64), fn, 1
    else:
        (curve, evaluator), levels = near_edge_curve(orders, lam), 19
    calls = []

    def record(t):
        calls.append(np.array(t, copy=True))
        return evaluator(t)

    try:
        result = winding_number(curve, evaluator=record)
    except OriginOnCurve:
        result = None
    assert len(calls) >= levels
    assert all(t.size > 0 for t in calls)
    evaluated = np.concatenate([curve.params[:-1]] + calls)
    assert np.unique(evaluated).size == evaluated.size
    if result is not None:
        assert sum(t.size for t in calls) == result.samples_used - curve.params.size


def test_scale_invariance_of_kl_curve_index():
    rng = np.random.default_rng(13)
    s = make_beam_warming(1.4)
    rb = reduce_boundary(s, silw_condition(2, 2, 3, 0.0))
    curve = sample_kl_curve(s, rb, n0=1024)
    base = winding_number(curve, evaluator=kl_curve_evaluator(s, rb)).index
    for _ in range(20):
        c = rng.uniform(0.1, 10.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        scaled = CurveSamples(params=curve.params, points=curve.points * c, closed=True)
        result = winding_number(scaled, evaluator=lambda t, c=c: c * kl_curve_evaluator(s, rb)(t))
        assert result.index == base


def test_normalized_counts_match_direct_on_grid():
    lams = np.linspace(0.04, 1.96, 49)
    for kd, d in AGREEMENT_PRESETS:
        for lam in lams:
            s = make_beam_warming(lam)
            bc = silw_condition(s.r, kd, d, 0.0)
            rb = reduce_boundary(s, bc)
            direct = exterior_zero_count_direct(rb)
            if direct.has_boundary_band:
                continue
            try:
                count = winding_count(s, rb, n0=1024)
            except OriginOnCurve:
                continue
            assert count == direct.count, (kd, d, lam)


def test_count_takes_origin_threshold_from_policy():
    # near the Fig. 5 edge the curve passes about 0.05 from the origin
    s = make_beam_warming(1.52)
    rb = reduce_boundary(s, silw_condition(s.r, 2, 3, 0.0))
    assert winding_count(s, rb) == 0
    with pytest.raises(OriginOnCurve):
        winding_count(s, rb, policy=RefinementPolicy(origin_rel_tol=0.9))


def test_halving_samples_keeps_index():
    lams = np.linspace(0.04, 1.96, 49)
    for kd, d in AGREEMENT_PRESETS:
        for lam in lams:
            s = make_beam_warming(lam)
            rb = reduce_boundary(s, silw_condition(s.r, kd, d, 0.0))
            try:
                full = winding_count(s, rb, n0=256)
                half = winding_count(s, rb, n0=128)
            except OriginOnCurve:
                continue
            assert full == half, (kd, d, lam)


def test_sample_kl_curve_shape_and_closure():
    s = make_beam_warming(0.7)
    rb = reduce_boundary(s, silw_condition(2, 2, 3, 0.0))
    curve = sample_kl_curve(s, rb, n0=128)
    assert curve.params.size == 129
    assert curve.closed
    # stable case: curve stays away from the origin
    assert np.min(np.abs(curve.points)) > 1.0


def test_normalization_shifts_index_by_r():
    s = make_beam_warming(0.7)
    rb = reduce_boundary(s, silw_condition(2, 2, 3, 0.0))
    plain = winding_number(
        sample_kl_curve(s, rb, n0=1024, normalize=False),
        evaluator=kl_curve_evaluator(s, rb, normalize=False),
    )
    normalized = winding_number(
        sample_kl_curve(s, rb, n0=1024, normalize=True),
        evaluator=kl_curve_evaluator(s, rb, normalize=True),
    )
    assert plain.index - s.r == normalized.index
    assert normalized.index == 0  # strongly stable here


def test_curve_csv_format():
    s = make_beam_warming(0.7)
    rb = reduce_boundary(s, silw_condition(2, 2, 3, 0.0))
    text = curve_to_csv(sample_kl_curve(s, rb, n0=64))
    lines = text.strip().split("\n")
    assert lines[0] == "theta,re,im"
    assert len(lines) == 66
    theta, re, im = lines[1].split(",")
    assert float(theta) == 0.0
    complex(float(re), float(im))


def test_winding_and_direct_counts_agree_on_random_pairs(lagrange_upwind):
    # consistent, Cauchy-stable upwind stencils of widths 1..5, twelve pairs
    # per width with SkILWd boundaries at random offsets, then twelve per width
    # with random custom b, m = r..r+3
    rng = np.random.default_rng(2207)
    compared, skipped, counts = 0, 0, set()
    for r in range(1, 6):
        pairs = 0
        while pairs < 12:
            lam = float(rng.uniform(0.05, r))
            s = Scheme.from_coefficients(lagrange_upwind(r, lam), lam)
            if not validate(s).all_pass:
                continue
            pairs += 1
            d = int(rng.integers(1, 6))
            kd = int(rng.integers(0, d + 1))
            sigma = float(rng.uniform(-0.5, 0.5))
            rb = reduce_boundary(s, silw_condition(s.r, kd, d, sigma))
            direct = exterior_zero_count_direct(rb)
            if direct.has_boundary_band:
                # k_d = 0 keeps constants, which puts a determinant root at z = 1
                assert kd == 0
                skipped += 1
                continue
            count = winding_count(s, rb)
            assert count == direct.count, (r, lam, kd, d, sigma)
            compared += 1
            counts.add(count)
    assert (compared, skipped) == (41, 19)
    assert {0, 1, 2} <= counts

    rng = np.random.default_rng(2208)
    compared, skipped, counts = 0, 0, set()
    for r in range(1, 6):
        pairs = 0
        while pairs < 12:
            lam = float(rng.uniform(0.05, r))
            s = Scheme.from_coefficients(lagrange_upwind(r, lam), lam)
            if s.r != r or not validate(s).all_pass:
                continue
            pairs += 1
            b = rng.uniform(-1, 1, (r, int(rng.integers(r, r + 4))))
            rb = reduce_boundary(s, custom_condition(b))
            direct = exterior_zero_count_direct(rb)
            if direct.has_boundary_band:
                skipped += 1
                continue
            count = winding_count(s, rb)
            assert count == direct.count, (r, lam, b)
            compared += 1
            counts.add(count)
    assert (compared, skipped) == (60, 0)
    assert {0, 1, 2, 3, 4} <= counts
