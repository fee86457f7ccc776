import json

import numpy as np
import pytest

from klstab import analyzer
from klstab.analyzer import (
    BoundaryZeroType,
    StabilityStatus,
    StabilityVerdict,
    analyze,
    analyze_many,
    bisect_stability_edge,
    classify_boundary_zero,
    sweep,
)
from klstab.boundary import custom_condition, silw_condition
from klstab.errors import IllConditionedKernel
from klstab.kl import exterior_zero_count_direct, reduce_boundary, stable_roots
from klstab.scheme import Scheme, make_beam_warming
from klstab.winding import kl_curve_evaluator, sample_kl_curve, winding_number


def bw_family(lam):
    return make_beam_warming(lam)


def s2ilw3_family(lam, sigma):
    return silw_condition(2, 2, 3, sigma)


def s2ilw3_invalid_at_one_cfl(lam, sigma):
    """S2ILW3, except at CFL 0.75, where k_d > d and building the boundary raises InvalidOrder."""
    return silw_condition(2, 4 if lam == 0.75 else 2, 3, sigma)


def test_analyze_stable():
    verdict = analyze(make_beam_warming(0.7), silw_condition(2, 2, 3, 0.0))
    assert verdict.status is StabilityStatus.STRONGLY_STABLE
    assert verdict.exterior_zero_count == 0
    assert not verdict.boundary_zeros
    assert verdict.winding.index == 0
    assert verdict.direct_count.count == 0


def test_analyze_unstable_exterior():
    verdict = analyze(make_beam_warming(1.4), silw_condition(2, 2, 3, 0.0))
    assert verdict.status is StabilityStatus.UNSTABLE_EXTERIOR_EIGENVALUE
    assert verdict.exterior_zero_count >= 1


def test_analyze_assumption_violated():
    verdict = analyze(make_beam_warming(2.1), silw_condition(2, 2, 3, 0.0))
    assert verdict.status is StabilityStatus.ASSUMPTION_VIOLATED
    assert verdict.exterior_zero_count is None
    assert not verdict.assumptions.h2_cauchy_stable


def test_analyze_boundary_zero_at_unit_cfl():
    # the trimmed shift scheme has determinant zeros at +-i, on the circle and
    # on the symbol curve, with the unit root loaded: generalized eigenvalues
    verdict = analyze(make_beam_warming(1.0), silw_condition(2, 2, 3, 0.0))
    assert verdict.status is StabilityStatus.UNSTABLE_BOUNDARY_ZERO
    zs = sorted((b.z0 for b in verdict.boundary_zeros), key=lambda z: z.imag)
    np.testing.assert_allclose(zs, [-1j, 1j], atol=1e-8)
    assert all(
        b.classification is BoundaryZeroType.TYPE_IV for b in verdict.boundary_zeros
    )
    assert verdict.winding.origin_on_curve


def test_classify_type_ii_away_from_symbol_curve():
    # zero the first mode column at z0 = -1, which lies off the symbol curve
    s = make_beam_warming(0.5)
    z0 = -1.0 + 0j
    roots = stable_roots(s, z0)
    k1, k2 = sorted([v for v, _ in roots.roots], key=lambda v: v.real)
    b = np.zeros((2, 2))
    b[0, 0] = (k2**-2).real
    b[1, 0] = (k2**-1).real
    bc = custom_condition(b)
    classification = classify_boundary_zero(s, bc, z0)
    assert classification is BoundaryZeroType.TYPE_II


def test_classify_type_ii_near_but_off_symbol_curve():
    # z0 = e^{0.02i} passes 6.1e-7 from the symbol curve of Beam-Warming at
    # CFL 0.3, but its nearest characteristic root is 2.04e-6 off the unit
    # circle: no unit root, so an eigenvalue on the circle, not type III
    s = make_beam_warming(0.3)
    z0 = complex(np.exp(0.02j))
    gaps = sorted(abs(abs(v) - 1.0) for v in [v for v, _ in stable_roots(s, z0).roots])
    assert 2.0e-6 < gaps[0] < 2.1e-6
    assert classify_boundary_zero(s, silw_condition(2, 2, 3), z0) is BoundaryZeroType.TYPE_II


def test_classify_type_iii_unit_root_unloaded():
    # at z0 = 1 the roots are 1 and an interior root k2; kill the k2 column so
    # the kernel loads only the decaying mode: a true eigenvalue on the curve
    s = make_beam_warming(0.5)
    z0 = 1.0 + 0j
    roots = stable_roots(s, z0)
    values = sorted([v for v, _ in roots.roots], key=lambda v: abs(v - 1.0))
    k2 = values[1]
    assert abs(k2) < 1.0
    b = np.array([[(k2**-2).real, 0.0], [(k2**-1).real, 0.0]])
    bc = custom_condition(b)
    classification = classify_boundary_zero(s, bc, z0)
    assert classification is BoundaryZeroType.TYPE_III


def test_classify_type_iv_unit_root_loaded():
    # kill the unit-root column instead: the kernel loads the unit mode
    s = make_beam_warming(0.5)
    z0 = 1.0 + 0j
    b = np.array([[1.0, 0.0], [1.0, 0.0]])
    bc = custom_condition(b)
    classification = classify_boundary_zero(s, bc, z0)
    assert classification is BoundaryZeroType.TYPE_IV


def test_classify_ambiguous_kernel_raises():
    # zero both columns at a point on the symbol curve: the operator vanishes
    s = make_beam_warming(0.5)
    z0 = 1.0 + 0j
    roots = stable_roots(s, z0)
    k1, k2 = [v for v, _ in roots.roots]
    vander = np.array([[1.0, k1.real], [1.0, k2.real]])
    b = np.zeros((2, 2))
    for row in range(2):
        rhs = np.array([(k1 ** (row - 2)).real, (k2 ** (row - 2)).real])
        b[row] = np.linalg.solve(vander, rhs)
    bc = custom_condition(b)
    with pytest.raises(IllConditionedKernel):
        classify_boundary_zero(s, bc, z0)


def test_sweep_one_dimensional_matches_two_dimensional_row():
    lams = np.linspace(0.2, 1.8, 17)
    one = sweep(bw_family, s2ilw3_family, lams, (0.0,), n0=256)
    two = sweep(bw_family, s2ilw3_family, lams, (-0.2, 0.0, 0.2), n0=256)
    np.testing.assert_array_equal(one.zero_counts[:, 0], two.zero_counts[:, 1])


def test_sweep_sentinels():
    result = sweep(bw_family, s2ilw3_family, [1.0, 2.1], (0.0,), n0=256)
    assert result.zero_counts[0, 0] == -1
    assert result.statuses[0, 0] == "UnstableBoundaryZero"
    assert result.zero_counts[1, 0] == -1
    assert result.statuses[1, 0] == "AssumptionViolated"


def test_sweep_records_a_cell_that_raises_as_inconclusive():
    for jobs in (1, 2):
        result = sweep(bw_family, s2ilw3_invalid_at_one_cfl, [0.5, 0.75, 1.4], (0.0,), n0=256, jobs=jobs)
        assert result.zero_counts[:, 0].tolist() == [0, -1, 2]
        statuses = ["StronglyStable", "Inconclusive", "UnstableExteriorEigenvalue"]
        assert result.statuses[:, 0].tolist() == statuses


def test_sweep_grid_refinement_consistency():
    coarse = np.linspace(0.3, 1.9, 9)
    fine = np.linspace(0.3, 1.9, 17)
    res_coarse = sweep(bw_family, s2ilw3_family, coarse, n0=256)
    res_fine = sweep(bw_family, s2ilw3_family, fine, n0=256)
    np.testing.assert_array_equal(res_coarse.zero_counts[:, 0], res_fine.zero_counts[::2, 0])


def test_sweep_pool_never_exceeds_cells(monkeypatch):
    created = []

    class InProcessPool:
        """Records the requested pool size and runs the cells in this process."""

        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(analyzer, "ProcessPoolExecutor", InProcessPool)
    lams = [0.5, 1.4, 1.7]
    serial = sweep(bw_family, s2ilw3_family, lams, (0.0,), n0=256)
    for cells, jobs, pools in ((1, 8, []), (3, 8, [3]), (3, 2, [2])):
        created.clear()
        result = sweep(bw_family, s2ilw3_family, lams[:cells], (0.0,), n0=256, jobs=jobs)
        assert created == pools
        np.testing.assert_array_equal(result.zero_counts, serial.zero_counts[:cells])
        np.testing.assert_array_equal(result.statuses, serial.statuses[:cells])


def test_sweep_csv_schema():
    result = sweep(bw_family, s2ilw3_family, [0.5, 1.4], (0.0,), n0=256)
    lines = result.to_csv().strip().split("\n")
    assert lines[0] == "lambda,sigma,zero_count,status"
    assert lines[1] == "0.5,0.0,0,StronglyStable"
    assert lines[2].startswith("1.4,0.0,2,")


def test_bisect_stability_edge():
    edge = bisect_stability_edge(bw_family, s2ilw3_family, 1.45, 1.55, n0=256, max_iter=25)
    assert type(edge) is float
    assert 1.45 < edge < 1.55
    stable = analyze(make_beam_warming(edge + 5e-3), silw_condition(2, 2, 3, 0.0), n0=256)
    unstable = analyze(make_beam_warming(edge - 5e-3), silw_condition(2, 2, 3, 0.0), n0=256)
    assert stable.status is StabilityStatus.STRONGLY_STABLE
    assert unstable.status is not StabilityStatus.STRONGLY_STABLE
    with pytest.raises(ValueError):
        bisect_stability_edge(bw_family, s2ilw3_family, 0.3, 0.5, n0=256)


def _is_stable(lam, bc_family, n0=256):
    verdict = analyze(make_beam_warming(lam), bc_family(lam, 0.0), n0=n0)
    return verdict.status is StabilityStatus.STRONGLY_STABLE


def _plain_bisection(bc_family, lo, hi, max_iter, n0=256):
    """The oracle: halve the bracket ``max_iter`` times on ``analyze`` verdicts."""
    stable_lo = _is_stable(lo, bc_family, n0)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if _is_stable(mid, bc_family, n0) == stable_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _counting_analyze(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return analyze(*args, **kwargs)

    monkeypatch.setattr(analyzer, "analyze", counted)
    return calls


def _silw_family(kd, d):
    return lambda lam, sigma: silw_condition(2, kd, d, sigma)


def _edge_brackets():
    """Every verdict flip on a coarse CFL grid for S2ILW3 and S1ILW3, and the CFL-1 jump."""
    lams = 0.05 + 0.1 * np.arange(20)
    brackets = []
    for kd, d in ((2, 3), (1, 3)):
        stable = [_is_stable(lam, _silw_family(kd, d)) for lam in lams]
        brackets += [
            ((kd, d), float(lo), float(hi))
            for lo, hi, s_lo, s_hi in zip(lams, lams[1:], stable, stable[1:])
            if s_lo != s_hi
        ]
    return brackets + [((2, 3), 0.995, 1.005)]


def test_bisect_stability_edge_matches_plain_bisection(monkeypatch):
    brackets = _edge_brackets()
    # S2ILW3: the CFL-1 jump and the Fig. 5 window 1.52-1.78; S1ILW3: three flips
    assert len(brackets) == 7
    max_iter = 20
    for (kd, d), lo, hi in brackets:
        family = _silw_family(kd, d)
        oracle = _plain_bisection(family, lo, hi, max_iter)
        calls = _counting_analyze(monkeypatch)
        edge = bisect_stability_edge(bw_family, family, lo, hi, n0=256, max_iter=max_iter)
        monkeypatch.undo()
        width = (hi - lo) / 2**max_iter
        assert abs(edge - oracle) <= width, (kd, d, lo, hi, edge, oracle)
        # two endpoint verdicts and two that straddle the predicted flip; across the CFL-1 jump in
        # the narrow bracket the verdict flips 1.6e-8 below the prediction, so steps and bisection add more
        jump = (lo, hi) == (0.995, 1.005)
        assert len(calls) <= (10 if jump else 4), (kd, d, lo, hi, len(calls))
    # across the jump the verdict flips just below CFL 1, where the stencil loses a_-2
    assert 1.0 - 1e-7 < edge < 1.0


@pytest.mark.parametrize("miss", [1e-6, -1e-6, None], ids=["stable-side", "unstable-side", "raises"])
def test_bisect_stability_edge_survives_a_missed_prediction(monkeypatch, miss):
    # S2ILW3 turns stable at about 1.5175, so the stable end of the bracket is 1.55
    lo, hi, max_iter = 1.45, 1.55, 20
    oracle = _plain_bisection(s2ilw3_family, lo, hi, max_iter)
    predict, predictions = analyzer._predict_flip, []

    def missed(*args):
        predictions.append(args)
        if miss is None:
            raise ValueError("f must have different signs at the ends of the bracket")
        return predict(*args) + miss

    monkeypatch.setattr(analyzer, "_predict_flip", missed)
    edge = bisect_stability_edge(bw_family, s2ilw3_family, lo, hi, n0=256, max_iter=max_iter)
    assert len(predictions) == 1
    assert abs(edge - oracle) <= (hi - lo) / 2**max_iter, (edge, oracle)


@pytest.mark.parametrize("fake_block", [
    lambda s, bc: 0.5 * np.eye(bc.m),
    lambda s, bc: np.full((bc.m, bc.m), np.nan),
], ids=["no-sign-change", "eigvals-raises"])
def test_bisect_stability_edge_falls_back_to_plain_bisection(monkeypatch, fake_block):
    lo, hi, max_iter = 1.45, 1.55, 8
    oracle = _plain_bisection(s2ilw3_family, lo, hi, max_iter)
    monkeypatch.setattr(analyzer, "upwind_block", fake_block)
    calls = _counting_analyze(monkeypatch)
    edge = bisect_stability_edge(bw_family, s2ilw3_family, lo, hi, n0=256, max_iter=max_iter)
    assert edge == oracle
    assert len(calls) == 2 + max_iter


def test_verdict_json_roundtrip():
    verdict = analyze(make_beam_warming(0.7), silw_condition(2, 2, 3, 0.0))
    payload = json.loads(verdict.to_json())
    assert payload["status"] == "StronglyStable"
    assert payload["exterior_zero_count"] == 0
    assert payload["diagnostics"]["winding"]["index"] == 0
    assert len(payload["diagnostics"]["det_c_coefficients"]) == 4
    assert payload["diagnostics"]["assumptions"]["h3_consistent"] is True


def test_analyze_inconclusive_on_exhausted_refinement():
    from klstab.winding import RefinementPolicy

    # near the stability edge the curve grazes the origin; a tiny budget
    # cannot resolve it and the verdict must degrade instead of guessing
    verdict = analyze(
        make_beam_warming(1.5176),
        silw_condition(2, 2, 3, 0.0),
        n0=64,
        policy=RefinementPolicy(max_evaluations=70),
    )
    assert verdict.status is StabilityStatus.INCONCLUSIVE
    assert any("refinement exceeded" in note for note in verdict.notes)


def test_analyze_restricts_boundary_rows_at_unit_cfl():
    # passing the full two-row condition with the trimmed scheme must work
    verdict = analyze(make_beam_warming(1.0), silw_condition(2, 2, 3, 0.0))
    assert verdict.status is StabilityStatus.UNSTABLE_BOUNDARY_ZERO


def test_verdict_json_exports_det_c_coefficients():
    # det C of Beam-Warming with S2ILW3 has exact degree m = 3: four [re, im] pairs, ascending
    s, bc = make_beam_warming(0.7), silw_condition(2, 2, 3, 0.0)
    payload = json.loads(analyze(s, bc).to_json())
    coefficients = payload["diagnostics"]["det_c_coefficients"]
    assert len(coefficients) == 4 and all(len(c) == 2 for c in coefficients)
    assert coefficients[-1] != [0.0, 0.0]
    expected = reduce_boundary(s, bc).det_c.coeffs
    np.testing.assert_array_equal([complex(*c) for c in coefficients], expected)


def _alone(pair, n0=1024):
    """``analyze`` of one pair, or the error it raises."""
    try:
        return analyze(*pair, n0=n0)
    except Exception as exc:
        return exc


def _comparable(outcome):
    return outcome.to_json() if isinstance(outcome, StabilityVerdict) else (type(outcome), str(outcome))


def test_analyze_many_matches_one_pair_at_a_time(lagrange_upwind):
    pairs = []
    # the six Fig. 6 presets over 15 CFL values: more cells of one shape than a stacked block holds
    for kd, d in ((1, 2), (2, 3), (1, 3), (1, 4), (2, 4), (3, 4)):
        for lam in np.linspace(0.07, 1.93, 15):
            s = make_beam_warming(float(lam))
            pairs.append((s, silw_condition(s.r, kd, d, 0.0)))
    # Cauchy-unstable, a boundary zero, and a curve that needs refinement next to the Fig. 5 edge
    for lam in (2.1, 1.5175048345, 1.5175048439, 1.0):
        pairs.append((make_beam_warming(lam), silw_condition(2, 2, 3, 0.0)))
    rng = np.random.default_rng(31)
    for r in range(1, 5):
        for _ in range(6):
            lam = float(rng.uniform(0.05, r))
            s = Scheme.from_coefficients(lagrange_upwind(r, lam), lam)
            m = int(rng.integers(1, 6))
            bc = silw_condition(r, int(rng.integers(0, m + 1)), m, float(rng.uniform(-0.5, 0.49)))
            pairs.append((s, bc if rng.uniform() < 0.5 else custom_condition(rng.uniform(-1, 1, (r, m)))))
    # a boundary with fewer ghost rows than the scheme needs raises, and so does a_{-r}^(-m) beyond the
    # float range, in a block with a pair that does not
    pairs.append((make_beam_warming(0.7), custom_condition(np.zeros((1, 3)))))
    pairs.append((make_beam_warming(1e-9), custom_condition(np.full((2, 40), 0.1))))
    pairs.append((make_beam_warming(0.7), custom_condition(np.full((2, 40), 0.01))))

    expected = [_comparable(_alone(pair)) for pair in pairs]
    assert [e[0] for e in expected if isinstance(e, tuple)] == [ValueError, OverflowError]
    statuses = {json.loads(e)["status"] for e in expected if isinstance(e, str)}
    assert statuses >= {"StronglyStable", "UnstableExteriorEigenvalue", "UnstableBoundaryZero", "AssumptionViolated"}
    assert any(isinstance(e, str) and json.loads(e)["diagnostics"]["winding"] is not None
               and json.loads(e)["diagnostics"]["winding"]["samples_used"] > 1025 for e in expected)
    batched = analyze_many(pairs)
    assert [_comparable(o) for o in batched] == expected
    order = rng.permutation(len(pairs))
    shuffled = analyze_many([pairs[k] for k in order])
    assert [_comparable(o) for o in shuffled] == [expected[k] for k in order]
    # with n0 = 4096 a stack of curves is large enough for numpy to reuse temporaries in place
    some = pairs[::4]
    assert [_comparable(o) for o in analyze_many(some, n0=4096)] == [_comparable(_alone(p, 4096)) for p in some]
    # the stacked stages against the one-pair routes: the direct count, and the winding walk from scratch
    for (s, bc), verdict in zip(pairs, batched):
        if isinstance(verdict, StabilityVerdict) and verdict.direct_count is not None:
            rb = reduce_boundary(s, bc.restricted_to(s.r))
            assert verdict.direct_count == exterior_zero_count_direct(rb)
            if verdict.status is not StabilityStatus.UNSTABLE_BOUNDARY_ZERO:
                curve = sample_kl_curve(s, rb)
                assert verdict.winding == winding_number(curve, evaluator=kl_curve_evaluator(s, rb))


def test_illinois_finds_a_bracketed_root():
    calls = []

    def f(x):
        calls.append(x)
        return x**3 - 2.0

    root = analyzer._illinois(f, 1.0, 2.0)
    assert abs(root - 2.0 ** (1 / 3)) < 1e-11 and len(calls) <= 12
    with pytest.raises(ValueError):
        analyzer._illinois(f, 2.0, 3.0)


def test_sweep_csv_is_the_same_for_any_jobs():
    lams, sigmas = np.linspace(0.1, 1.9, 7), np.linspace(-0.5, 0.4, 4)
    serial = sweep(bw_family, s2ilw3_family, lams, sigmas, jobs=1).to_csv()
    assert sweep(bw_family, s2ilw3_family, lams, sigmas, jobs=2).to_csv() == serial
