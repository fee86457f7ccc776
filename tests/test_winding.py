import cmath
import contextlib
import math
from collections import namedtuple

import numpy as np
import pytest

from klstab import winding
from klstab.boundary import custom_condition, silw_condition
from klstab.config import Tolerances
from klstab.errors import OriginOnCurve, RefinementBudgetExceeded
from klstab.kl import exterior_zero_count_direct, reduce_boundary
from klstab.scheme import Scheme, make_beam_warming, validate
from klstab.winding import (
    _DEPTH,
    _result,
    curve_to_csv,
    sample_kl_curve,
    winding_number,
    winding_numbers,
)
from oracles import kl_curve_evaluator, winding_count

AGREEMENT_PRESETS = [(1, 2), (2, 3), (1, 3)]

# a sampled closed curve; winding_number(*curve, ...) takes its arrays
Curve = namedtuple("Curve", "params points")


@contextlib.contextmanager
def walk_constants(**values):
    """The winding walk's constants set for a block: ``max_evaluations=6`` sets ``winding._MAX_EVALUATIONS``."""
    with pytest.MonkeyPatch.context() as patch:
        for name, value in values.items():
            patch.setattr(winding, f"_{name.upper()}", value)
        yield


def circle_curve(fn, n):
    params = np.linspace(0.0, 2.0 * np.pi, n + 1)
    points = np.asarray(fn(params), dtype=complex)
    points[-1] = points[0]
    return Curve(params, points)


def test_unit_circle_index_one():
    curve = circle_curve(lambda t: np.exp(1j * t), 64)
    result = winding_number(*curve, evaluator=lambda t: np.exp(1j * t))
    assert result.index == 1
    assert abs(result.min_distance - 1.0) < 0.01
    assert not result.origin_on_curve


def test_offset_circle_index_zero():
    curve = circle_curve(lambda t: 3.0 + np.exp(1j * t), 256)
    assert winding_number(*curve, evaluator=lambda t: 3.0 + np.exp(1j * t)).index == 0


def test_reversed_double_cover_index_minus_two():
    curve = circle_curve(lambda t: np.exp(-2j * t), 128)
    assert winding_number(*curve, evaluator=lambda t: np.exp(-2j * t)).index == -2


def test_constant_curve_has_index_zero():
    params = np.linspace(0.0, 2.0 * np.pi, 65)
    points = np.full(65, 2.0 - 1.0j)
    result = winding_number(params, points, evaluator=lambda t: np.full(t.shape, 2.0 - 1.0j))
    assert result.index == 0
    assert abs(result.min_distance - abs(2.0 - 1.0j)) < 1e-12


def test_open_curve_rejected():
    params = np.array([0.0, 1.0, 2.0])
    points = np.array([1.0 + 0j, 1j, -1.0 + 0j])
    with pytest.raises(ValueError):
        winding_number(params, points, evaluator=lambda t: np.exp(1j * t))


@pytest.mark.parametrize("params, points, message", [
    (np.array([0.0, 1.0, 1.0, 2.0, 3.0]), np.array([1.0, 1j, -1.0, -1j, 1.0]), "params must be strictly increasing"),
    (np.array([0.0, 2.0, 1.0, 3.0, 4.0]), np.array([1.0, 1j, -1.0, -1j, 1.0]), "params must be strictly increasing"),
    (np.linspace(0.0, 2.0 * np.pi, 5), np.array([1.0, 1j, -1.0, 1.0]), "params and points must have the same length"),
    (np.linspace(0.0, 2.0 * np.pi, 6), np.array([1.0, 1j, -1.0, -1j, 0.5, 0.9]),
     "closed curve must end where it starts"),
    (np.linspace(0.0, 2.0 * np.pi, 3), np.array([1.0, -1.0, 1.0]), "need at least 3 distinct points on a closed curve"),
])
def test_winding_number_checks_its_curve(params, points, message):
    # a strictly increasing parameter, one point a parameter, and a curve that closes: each checked before any walk
    with pytest.raises(ValueError, match=message):
        winding_number(params, points, evaluator=lambda t: pytest.fail("evaluated an invalid curve"))


def test_origin_on_curve_raises():
    curve = circle_curve(lambda t: np.exp(1j * t) - 1.0, 64)
    with pytest.raises(OriginOnCurve) as excinfo:
        winding_number(*curve, evaluator=lambda t: np.exp(1j * t) - 1.0)
    assert excinfo.value.result.origin_on_curve
    assert excinfo.value.result.index is None


def test_refinement_budget_exceeded():
    curve = circle_curve(lambda t: np.exp(1j * t), 4)
    with walk_constants(max_evaluations=6), pytest.raises(RefinementBudgetExceeded):
        winding_number(*curve, evaluator=lambda t: np.exp(1j * t))


def test_coarse_start_refines_to_correct_index():
    # a near-origin passage forces insertion; the index must match a dense run
    fn = lambda t: np.exp(1j * t) - 0.985
    coarse = winding_number(*circle_curve(fn, 64), evaluator=fn)
    dense = winding_number(*circle_curve(fn, 16384), evaluator=fn)
    assert coarse.index == dense.index == 1
    # pinned to the depth-first refinement: 44 inserted midpoints
    assert coarse.samples_used == 109
    assert dense.samples_used == 16385


def test_evaluator_called_once_per_pass_with_an_array():
    # four chords of the unit circle are too long for their distance to the
    # origin; every segment is split until there are 32: three levels, each
    # pass evaluating the subtrees of its splits _DEPTH levels deep in one call
    calls = []

    def fn(t):
        calls.append(t)
        return np.exp(1j * t)

    result = winding_number(*circle_curve(lambda t: np.exp(1j * t), 4), evaluator=fn)
    assert result.index == 1
    assert all(isinstance(t, np.ndarray) for t in calls)
    assert len(calls) == math.ceil(3 / _DEPTH) and calls[0].size == 4 * (2**_DEPTH - 1)
    assert result.samples_used == 5 + 4 + 8 + 16


def depth_first_reference(curve, tols, evaluator):
    """The refinement as a scalar depth-first walk over the segments in parameter order, with the walk's
    constants of ``winding``."""
    params, points = curve.params, curve.points
    scale = float(np.max(np.abs(points)))
    evaluations = params.size

    def tol():
        return tols.origin_tol * scale

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
        if length > 0 and (abs(increment) > winding._ANGLE_THRESHOLD or dist < winding._PROXIMITY_FACTOR * length):
            if evaluations + 1 > winding._MAX_EVALUATIONS:
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
    if abs(turns - round(turns)) > winding._INTEGER_TOL:
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
        walk = walk_constants(
            max_evaluations=int(rng.choice([n + 1 + int(rng.integers(0, 40)), n + 300, 4096])),
            angle_threshold=float(rng.choice([np.pi / 2, 0.3, 2.5])),
            proximity_factor=float(rng.choice([4.0, 1.0, 0.5, 10.0])),
        )
        tols = Tolerances(origin_tol=float(rng.choice([1e-8, 1e-4, 1e-2, 0.3])))
        with walk:
            outcomes.add(assert_matches_reference(curve, tols, fn))
    assert outcomes == {"ok", "origin", "budget"}


def assert_matches_reference(curve, tols, evaluator):
    """Check ``winding_number`` against ``depth_first_reference``; returns the outcome."""
    expected = depth_first_reference(curve, tols, evaluator)
    try:
        result = winding_number(*curve, tols, evaluator=evaluator)
        got = ("ok", result.samples_used, result.min_distance, result.index)
    except OriginOnCurve as exc:
        got = ("origin", exc.result.samples_used, exc.result.min_distance)
    except RefinementBudgetExceeded:
        got = ("budget",)
    assert got[:2] == expected[:2] and got[3:] == expected[3:], (got, expected)
    if len(got) > 2:
        assert got[2] == pytest.approx(expected[2], rel=1e-9, abs=1e-300)
    return got[0]


def test_a_midpoint_that_is_not_finite_ends_the_walk():
    # the curve passes 1e-3 from the origin at t = 0, and the evaluator gives NaN within 0.01 of t = 0.02
    calls = []

    def holed(t):
        calls.append(t.size)
        if len(calls) > 3000:
            raise RuntimeError("still walking")
        return np.where(np.abs(t - 0.02) < 0.01, np.nan, np.exp(1j * t) - 0.999)

    with pytest.raises(ValueError, match="curve is not finite at t=") as excinfo:
        winding_number(*circle_curve(lambda t: np.exp(1j * t) - 0.999, 64), evaluator=holed)
    assert 0.01 < float(str(excinfo.value).split("t=")[1]) < 0.03
    assert len(calls) <= 10 and 65 + sum(calls) <= winding._MAX_EVALUATIONS


class NotFinite(Exception):
    pass


OUTCOME_TYPES = {"ok": "WindingResult", "origin": "OriginOnCurve", "budget": "RefinementBudgetExceeded",
                 "not finite": "ValueError"}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # arithmetic on infinities
def test_a_value_that_is_not_finite_ends_the_walk_where_the_depth_first_walk_meets_it(monkeypatch):
    # a sample that is not finite is an error before any walk; a midpoint is one where the depth-first walk
    # evaluates it, unless a stop comes first; a stack of curves gives each curve its own outcome
    rng = np.random.default_rng(13)
    outcomes = set()
    for _ in range(300):
        fn, bad = random_trig_curve(rng), complex(rng.choice([np.nan, np.inf, -np.inf]), rng.choice([0.0, np.nan]))
        centre, width = rng.uniform(0.0, 2.0 * np.pi), 10.0 ** rng.uniform(-3, 0)
        holed = lambda t, fn=fn, bad=bad, c=centre, w=width: np.where(np.abs(t - c) < w, bad, fn(t))
        n = int(rng.integers(3, 120))
        curve = circle_curve(holed, n)
        monkeypatch.setattr(winding, "_MAX_EVALUATIONS", int(rng.choice([n + 40, 4096])))
        tols = Tolerances(origin_tol=float(rng.choice([1e-8, 1e-2])))

        def reference_evaluator(t, holed=holed):
            value = holed(t)
            if not np.isfinite(value).all():
                raise NotFinite(float(t[0]))
            return value

        unfinite = ~np.isfinite(curve.points)
        try:
            expected = ("not finite", float(curve.params[unfinite.argmax()])) if unfinite.any() else \
                depth_first_reference(curve, tols, reference_evaluator)[:2]
        except NotFinite as exc:
            expected = ("not finite", exc.args[0])
        try:
            result = winding_number(*curve, tols, evaluator=holed)
            got = ("ok", result.samples_used)
        except OriginOnCurve as exc:
            got = ("origin", exc.result.samples_used)
        except RefinementBudgetExceeded:
            got = ("budget",)
        except ValueError as exc:
            got = ("not finite", float(str(exc).split("t=")[1]))
        assert got == expected, (got, expected)
        outcomes.add(got[0])
        together = winding_numbers(curve.params, np.stack([curve.points, fn(curve.params)]), tols,
                                   lambda rows, t: np.where(rows == 0, holed(t), fn(t)))
        alone = winding_numbers(curve.params, fn(curve.params)[None], tols, lambda rows, t: fn(t))
        assert repr(together[1]) == repr(alone[0]) and type(together[0]).__name__ == OUTCOME_TYPES[got[0]]
    assert outcomes == {"ok", "origin", "budget", "not finite"}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # arithmetic on infinities
def test_a_leaf_increment_that_is_not_finite_is_an_error_not_a_crash():
    for increments in ([np.nan, 1.0], [np.inf, -np.inf], [np.inf]):
        assert isinstance(_result(np.array(increments), 1.0, 10), RefinementBudgetExceeded)


# Beam-Warming CFL numbers within about 1e-8 of a stability edge, where the
# determinant curve passes within about 1e-7 of the origin: (k_d, d), CFL and
# the outcome of the winding there
NEAR_EDGE = [((2, 3), 1.5175048439, "ok"), ((2, 3), 1.5175048345, "origin"), ((1, 4), 0.5299007398, "origin")]


def near_edge_curve(orders, lam):
    s = make_beam_warming(lam)
    rb = reduce_boundary(s, silw_condition(s.r, *orders, 0.0))
    return Curve(*sample_kl_curve(s, rb, n0=1024)), kl_curve_evaluator(s, rb)


def sub_resolution_curve():
    """The determinant curve of the upwind scheme ``a = (0.5, 0.5)`` at CFL 0.5 with S2ILW36. Near ``t = 2e-4`` its
    values are rounding noise of about 2 against a largest sample of 164, so one segment there splits 58 levels deep,
    until its midpoint parameter rounds to one of its ends."""
    s = Scheme([0.5, 0.5], 0.5)
    rb = reduce_boundary(s, silw_condition(1, 2, 36, 0.0))
    return Curve(*sample_kl_curve(s, rb, n0=1024)), kl_curve_evaluator(s, rb)


@pytest.mark.parametrize("orders, lam, outcome", NEAR_EDGE + [("sub-resolution", None, "budget")])
def test_matches_depth_first_reference_near_stability_edges(orders, lam, outcome):
    # the random curves above build shallow trees; these refine about 20 levels deep, and the sub-resolution curve
    # 58, to a split that the depth-first walk repeats until the budget (2048 here) runs out: the walk ends there as
    # soon as it meets it, in at most one evaluator call a pass of _DEPTH levels
    if orders == "sub-resolution":
        (curve, evaluator), budget = sub_resolution_curve(), 2048
    else:
        (curve, evaluator), budget = near_edge_curve(orders, lam), winding._MAX_EVALUATIONS
    calls = []
    with walk_constants(max_evaluations=budget):
        assert assert_matches_reference(curve, Tolerances(), evaluator) == outcome
        _alone(curve, Tolerances(), lambda t: calls.append(t.size) or evaluator(t))
    assert len(calls) <= 20


def jump_curve(rng):
    """A circle about a random point inside the unit circle, turned by 1.7 to 3 radians (and sometimes shifted a
    little) past a random parameter: a segment across the jump splits until its midpoint parameter rounds to an
    end."""
    cut, centre = rng.uniform(0.1, 6.0), rng.uniform(-0.9, 0.9)
    turn, shift = np.exp(1j * rng.uniform(1.7, 3.0)), float(rng.choice([0.0, 1e-12, 1e-9, 1e-3]))

    def fn(t):
        t = np.asarray(t, dtype=float)
        return np.where(t < cut, np.exp(1j * t) - centre, turn * (np.exp(1j * t) - centre) + shift)

    return fn


def test_a_split_below_the_parameter_resolution_stops_the_walk_as_the_budget_would():
    # the outcome, evaluation count and distance of the depth-first walk, which repeats such a split until the
    # budget runs out, whatever comes first; a split that the origin threshold reaches at the budget is an origin
    # stop counting the whole budget
    rng = np.random.default_rng(5)
    outcomes = set()
    for _ in range(60):
        fn = jump_curve(rng)
        n = int(rng.integers(8, 80))
        curve, budget = circle_curve(fn, n), int(rng.choice([n + 30, 400, 2048]))
        tols = Tolerances(origin_tol=float(rng.choice([1e-8, 1e-3, 0.3])))
        calls = []
        with walk_constants(max_evaluations=budget):
            kind = assert_matches_reference(curve, tols, fn)
            outcome = _alone(curve, tols, lambda t: calls.append(t) or fn(t))
        evaluated = np.concatenate([curve.params[:-1]] + calls)
        assert np.unique(evaluated).size == evaluated.size and len(calls) <= 24
        outcomes.add((kind, getattr(getattr(outcome, "result", None), "samples_used", None) == budget))
    assert {("budget", False), ("origin", True), ("origin", False)} <= outcomes


# a pass evaluates at most the 2^K - 1 points of the subtree of each split it takes, and takes only splits the
# depth-first walk meets: on a walk that ends with a result, at most this many evaluated points a counted one
WASTE_BOUND = 2**_DEPTH - 1


def counted_levels(params, counted):
    """The number of levels of the midpoints ``counted`` below the segments between ``params``; a midpoint that
    rounds to an end of its segment starts no level."""
    deepest, stack = 0, [(a, b, 1) for a, b in zip(params[:-1].tolist(), params[1:].tolist())]
    while stack:
        a, b, level = stack.pop()
        if a < 0.5 * (a + b) < b and 0.5 * (a + b) in counted:
            deepest = max(deepest, level)
            stack += [(a, 0.5 * (a + b), level + 1), (0.5 * (a + b), b, level + 1)]
    return deepest


@pytest.mark.parametrize("orders, lam",
                         [(None, None)] + [entry[:2] for entry in NEAR_EDGE] + [("sub-resolution", None)])
def test_evaluator_gets_only_new_parameters(orders, lam):
    # never an empty array, never a parameter twice, every midpoint that samples_used counts among those
    # evaluated, at most WASTE_BOUND evaluated a counted one on success, and one call a pass of _DEPTH levels
    budget = winding._MAX_EVALUATIONS
    if orders is None:
        # the curve of test_coarse_start_refines_to_correct_index
        fn = lambda t: np.exp(1j * t) - 0.985
        curve, evaluator = circle_curve(fn, 64), fn
    elif orders == "sub-resolution":
        # its depth-first walk counts the split below the parameter resolution again and again, to the budget
        (curve, evaluator), budget = sub_resolution_curve(), 2048
    else:
        curve, evaluator = near_edge_curve(orders, lam)
    counted, calls = [], []

    def count(t):
        counted.append(float(t[0]))
        return evaluator(t)

    def record(t):
        calls.append(np.array(t, copy=True))
        return evaluator(t)

    with walk_constants(max_evaluations=budget):
        expected = depth_first_reference(curve, Tolerances(), count)
        outcome = _alone(curve, Tolerances(), record)
    if isinstance(outcome, RefinementBudgetExceeded):
        assert expected == ("budget",) and curve.params.size + len(counted) == budget
    else:
        result = getattr(outcome, "result", outcome)
        assert result.samples_used == expected[1] == curve.params.size + len(counted)
        if not result.origin_on_curve:
            assert sum(t.size for t in calls) <= WASTE_BOUND * len(counted)
    assert all(t.size > 0 for t in calls)
    evaluated = np.concatenate([curve.params[:-1]] + calls)
    assert np.unique(evaluated).size == evaluated.size
    assert set(counted) <= set(evaluated.tolist())
    levels = counted_levels(curve.params, set(counted))
    assert levels >= (1 if orders is None else 19)
    assert len(calls) <= math.ceil(levels / _DEPTH)


def _bits(outcome):
    """A walk's result with its float as bits, or the type, message and result of the error it stopped with."""
    if isinstance(outcome, Exception):
        return type(outcome), str(outcome), _bits(getattr(outcome, "result", None))
    if outcome is None:
        return None
    return outcome.index, float(outcome.min_distance).hex(), outcome.samples_used, outcome.origin_on_curve


def _alone(curve, tols, evaluator):
    try:
        return winding_number(*curve, tols, evaluator=evaluator)
    except (OriginOnCurve, RefinementBudgetExceeded, ValueError) as exc:
        return exc


def stacked(pairs):
    """The shared ``params``, the stacked points and the one evaluator of ``(curve, fn)`` pairs at equal params."""
    params = pairs[0][0].params
    assert all(np.array_equal(curve.params, params) for curve, _ in pairs)

    def evaluate(rows, t):
        out = np.empty(t.shape, dtype=complex)
        for k in np.unique(rows):
            out[rows == k] = pairs[k][1](t[rows == k])
        return out

    return params, np.stack([curve.points for curve, _ in pairs]), evaluate


def test_lockstep_walk_matches_each_curve_alone():
    # random trigonometric curves beside the near-edge determinant curves, walked together: every row's result
    # or error is bit for bit its own, and the walk takes one evaluator call a pass of the deepest curve
    rng = np.random.default_rng(11)
    near_edge = [near_edge_curve(orders, lam) for orders, lam, _ in NEAR_EDGE]
    settings = [(Tolerances(), {}), (Tolerances(), {"max_evaluations": 1100}),
                (Tolerances(origin_tol=1e-2), {"proximity_factor": 10.0}), (Tolerances(), {"angle_threshold": 0.3})]
    kinds = set()
    for trial in range(24):
        fns = [random_trig_curve(rng) for _ in range(int(rng.integers(0 if trial % 4 else 1, 6)))]
        n = 1024 if trial % 4 else int(rng.integers(3, 120))  # the params of the determinant curves, if any
        stack = [(circle_curve(fn, n), fn) for fn in fns] + near_edge[: trial % 4]
        order = rng.permutation(len(stack))
        stack = [stack[k] for k in order]
        tols, walk = settings[trial % len(settings)]
        params, points, evaluate = stacked(stack)
        levels = [0] * len(stack)

        def counted(rows, t):
            calls.append(t)
            for k in np.unique(rows):
                levels[k] += 1
            return evaluate(rows, t)

        def one(k):
            return lambda t: counted(np.full(t.size, k), t)

        calls = []
        with walk_constants(**walk):
            expected = [_bits(_alone(curve, tols, one(k))) for k, (curve, _) in enumerate(stack)]
            alone_levels = levels[:]
            levels[:], calls = [0] * len(stack), []
            walked = winding_numbers(params, points, tols, counted)
        assert [_bits(outcome) for outcome in walked] == expected, trial
        assert levels == alone_levels and len(calls) == max(levels, default=0), trial
        assert all(t.size > 0 for t in calls)
        kinds |= {outcome[0] if isinstance(outcome[0], type) else "ok" for outcome in expected}
    assert kinds == {"ok", OriginOnCurve, RefinementBudgetExceeded}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # arithmetic on the row that is not finite
def test_one_segment_pass_decides_a_stack_and_walks_only_its_open_rows():
    # one stack at the params of the determinant curves: a row that is not finite, a zero row, a row with a sample
    # under the origin threshold, a walked row at 2**600 and a decided one at 2**-600, a row decided on its first
    # level and two deep near-edge rows; each outcome is bit for bit the row's own, and only the walked rows reach
    # the evaluator
    near_edge = [near_edge_curve(orders, lam) for orders, lam, _ in NEAR_EDGE[:2]]
    fns = [lambda t: np.where(np.abs(t - 1.0) < 0.01, np.nan, np.exp(1j * t)), lambda t: np.zeros(t.shape, complex),
           lambda t: np.exp(1j * t) - 1.0, lambda t: 2.0**600 * (np.exp(1j * t) - 0.985),
           lambda t: 2.0**-600 * (3.0 + np.exp(1j * t)), lambda t: 3.0 + np.exp(1j * t)]
    stack = [(circle_curve(fn, 1024), fn) for fn in fns] + near_edge
    params, points, evaluate = stacked(stack)
    rows_seen = []
    walked = winding_numbers(params, points, Tolerances(),
                             lambda rows, t: rows_seen.append(rows) or evaluate(rows, t))
    assert [_bits(outcome) for outcome in walked] == [_bits(_alone(c, Tolerances(), f)) for c, f in stack]
    assert [type(outcome).__name__ for outcome in walked] == [
        "ValueError", "OriginOnCurve", "OriginOnCurve", "WindingResult", "WindingResult", "WindingResult",
        "WindingResult", "OriginOnCurve"]
    assert str(walked[1]) == "curve is identically zero" and walked[5].samples_used == params.size
    assert walked[4].min_distance == 2.0**-600 * walked[5].min_distance and walked[4].samples_used == params.size
    assert set(np.concatenate(rows_seen).tolist()) == {3, 6, 7}


def as_reference(outcome):
    """A walk's outcome in the terms of ``depth_first_reference``."""
    if isinstance(outcome, OriginOnCurve):
        return ("origin", outcome.result.samples_used, outcome.result.min_distance)
    if isinstance(outcome, RefinementBudgetExceeded):
        return ("budget",)
    return ("ok", outcome.samples_used, outcome.min_distance, outcome.index)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_frontier_passes_match_each_curve_alone_and_the_depth_first_walk(monkeypatch):
    # random curves beside the near-edge determinant curves in one call, under budgets just below, at and just
    # above what a deep walk needs, so that a pass's subtrees cross the budget: every outcome is bit for bit the
    # curve's own and that of the depth-first walk
    rng = np.random.default_rng(21)
    near_edge = [near_edge_curve(orders, lam) for orders, lam, _ in NEAR_EDGE]
    needs = [depth_first_reference(curve, Tolerances(), fn)[1] for curve, fn in near_edge]
    kinds = set()
    for trial in range(12):
        fns = [random_trig_curve(rng) for _ in range(int(rng.integers(0, 4)))]
        stack = [(circle_curve(fn, 1024), fn) for fn in fns]  # at the params of the determinant curves
        deep = rng.choice(len(near_edge), size=int(rng.integers(1, 4)), replace=False)
        stack += [near_edge[k] for k in deep]
        stack = [stack[k] for k in rng.permutation(len(stack))]
        monkeypatch.setattr(winding, "_MAX_EVALUATIONS", needs[deep[0]] + int(rng.integers(-2, 3)))
        tols = Tolerances()
        params, points, evaluate = stacked(stack)
        walked = winding_numbers(params, points, tols, evaluate)
        for outcome, (curve, fn) in zip(walked, stack):
            assert _bits(outcome) == _bits(_alone(curve, tols, fn)), trial
            got, expected = as_reference(outcome), depth_first_reference(curve, tols, fn)
            assert got[:2] + got[3:] == expected[:2] + expected[3:], (trial, got, expected)
            assert got[2:3] == pytest.approx(expected[2:3], rel=1e-9, abs=1e-300)
            kinds.add(got[0])
    assert kinds == {"ok", "origin", "budget"}
    monkeypatch.undo()

    # a value that is not finite, or that is far the largest (even beyond the segment pass's range), where a pass
    # evaluates ahead but the depth-first walk never does changes nothing, and warns of nothing; the determinant
    # curves sampled at the 41 params of the random curves
    fns = [fn for _, fn in near_edge] + [random_trig_curve(rng) for _ in range(3)]
    stack = [(circle_curve(fn, 40), fn) for fn in fns]
    params, points, evaluate = stacked(stack)
    walked = winding_numbers(params, points, Tolerances(), evaluate)
    for k, (curve, fn) in enumerate(stack):
        counted, evaluated = [], []
        depth_first_reference(curve, Tolerances(), lambda t: counted.append(float(t[0])) or fn(t))
        _alone(curve, Tolerances(), lambda t: evaluated.extend(t.tolist()) or fn(t))
        ahead = sorted(set(evaluated) - set(counted))
        if not ahead:
            continue
        hole = ahead[int(rng.integers(len(ahead)))]
        for value in (np.nan, 1e12, 1e300):
            holed = lambda t, fn=fn, hole=hole, value=value: np.where(t == hole, value, fn(t))
            assert _bits(_alone(curve, Tolerances(), holed)) == _bits(walked[k])
            holed_stack = stack[:k] + [(curve, holed)] + stack[k + 1:]
            rewalked = winding_numbers(params, points, Tolerances(), stacked(holed_stack)[2])
            assert [_bits(outcome) for outcome in rewalked] == [_bits(outcome) for outcome in walked]


def test_a_leaf_under_the_threshold_of_the_end_alone_puts_the_origin_on_the_curve():
    # |f| = e^cos(t - 7pi/4) peaks at the last midpoint of the first level, after the walk has passed its low at
    # 3pi/4: no leaf comes under the threshold of its own place in the walk, so the splits all run out, but the
    # lowest leaf comes under the threshold of the end, and the walk ends on the curve with every evaluation counted
    fn = lambda t: np.exp(1j * t + np.cos(t - 1.75 * np.pi))
    curve, tols = circle_curve(fn, 4), Tolerances(origin_tol=0.16)
    expected = depth_first_reference(curve, tols, fn)
    outcome = _alone(curve, tols, fn)
    assert isinstance(outcome, OriginOnCurve) and expected[0] == "origin"
    assert (outcome.result.samples_used, outcome.result.min_distance) == pytest.approx(expected[1:], rel=1e-12)
    assert outcome.result.min_distance >= tols.origin_tol * np.abs(curve.points).max()
    # beside the near-edge determinant curves and random curves, all sampled at its 5 params, in one call
    rng = np.random.default_rng(5)
    fns = [fn] + [random_trig_curve(rng) for _ in range(3)] + [near_edge_curve(*entry[:2])[1] for entry in NEAR_EDGE]
    order = rng.permutation(len(fns))
    stack = [(circle_curve(fns[k], 4), fns[k]) for k in order]
    params, points, evaluate = stacked(stack)
    walked = winding_numbers(params, points, tols, evaluate)
    assert [_bits(outcome) for outcome in walked] == [_bits(_alone(c, tols, f)) for c, f in stack]
    assert _bits(walked[int(np.argmin(order))]) == _bits(outcome)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # divided before its segment pass, no row over- or underflows
@pytest.mark.parametrize("power", [600, -600])
def test_a_curve_beyond_the_segment_range_is_walked_divided_by_a_power_of_two(power):
    # at 2**600 the squared lengths and the products of the segment pass overflow, at 2**-600 they underflow; such a
    # curve is walked divided by a power of two, so it refines as f does and its distance is exactly c times f's
    c, tols = 2.0**power, Tolerances()
    for fn, n in ((lambda t: np.exp(1j * t) - 0.985, 64), (lambda t: np.exp(1j * t) - 1.0, 64),
                  (lambda t: np.exp(2j * t) * (1.2 + np.cos(3 * t)) - 0.3, 40), (lambda t: 3.0 + np.exp(1j * t), 64)):
        big = lambda t: c * fn(t)
        curve, big_curve = circle_curve(fn, n), circle_curve(big, n)
        outcomes = [_alone(curve, tols, fn), _alone(big_curve, tols, big)]
        assert type(outcomes[0]) is type(outcomes[1])
        base, scaled = (getattr(outcome, "result", outcome) for outcome in outcomes)
        assert (scaled.index, scaled.samples_used) == (base.index, base.samples_used)
        assert scaled.min_distance == c * base.min_distance
        # beside a curve in range, in one stack: it is divided before the stack's segment pass and walks with f
        walked_rows = []
        walked = winding_numbers(curve.params, np.stack([curve.points, big_curve.points]), tols,
                                 lambda rows, t: walked_rows.append(rows) or np.where(rows == 0, fn(t), big(t)))
        assert [_bits(outcome) for outcome in walked] == [_bits(outcome) for outcome in outcomes]
        assert all(np.array_equal(rows, np.repeat([0, 1], rows.size // 2)) for rows in walked_rows)


def test_scale_invariance_of_kl_curve_index():
    rng = np.random.default_rng(13)
    s = make_beam_warming(1.4)
    rb = reduce_boundary(s, silw_condition(2, 2, 3, 0.0))
    curve = Curve(*sample_kl_curve(s, rb, n0=1024))
    base = winding_number(*curve, evaluator=kl_curve_evaluator(s, rb)).index
    for _ in range(20):
        c = rng.uniform(0.1, 10.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        result = winding_number(curve.params, curve.points * c,
                                evaluator=lambda t, c=c: c * kl_curve_evaluator(s, rb)(t))
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


def test_count_takes_origin_threshold_from_tolerances():
    # near the Fig. 5 edge the curve passes about 0.05 from the origin
    s = make_beam_warming(1.52)
    rb = reduce_boundary(s, silw_condition(s.r, 2, 3, 0.0))
    assert winding_count(s, rb) == 0
    with pytest.raises(OriginOnCurve):
        winding_count(s, rb, tols=Tolerances(origin_tol=0.9))


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
    params, points = sample_kl_curve(s, rb, n0=128)
    assert params.size == points.size == 129
    assert points[-1] == points[0]
    # stable case: curve stays away from the origin
    assert np.min(np.abs(points)) > 1.0


def test_normalization_shifts_index_by_r():
    s = make_beam_warming(0.7)
    rb = reduce_boundary(s, silw_condition(2, 2, 3, 0.0))
    plain = winding_number(
        *sample_kl_curve(s, rb, n0=1024, normalize=False),
        evaluator=kl_curve_evaluator(s, rb, normalize=False),
    )
    normalized = winding_number(
        *sample_kl_curve(s, rb, n0=1024, normalize=True),
        evaluator=kl_curve_evaluator(s, rb, normalize=True),
    )
    assert plain.index - s.r == normalized.index
    assert normalized.index == 0  # strongly stable here


def test_curve_csv_format():
    s = make_beam_warming(0.7)
    rb = reduce_boundary(s, silw_condition(2, 2, 3, 0.0))
    text = curve_to_csv(*sample_kl_curve(s, rb, n0=64))
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
            s = Scheme(lagrange_upwind(r, lam), lam)
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
            s = Scheme(lagrange_upwind(r, lam), lam)
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
