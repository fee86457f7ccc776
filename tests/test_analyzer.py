import contextlib
import dataclasses
import functools
import json
import multiprocessing
import os
import signal
import time
import warnings

import numpy as np
import pytest

from klstab import analyzer, winding
from klstab import scheme as scheme_module
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
from klstab.config import Tolerances
from klstab.errors import IllConditionedKernel
from klstab.kl import exterior_zero_count_direct, kl_det_stack, reduce_boundary, stable_roots
from klstab.scheme import Scheme, make_beam_warming
from klstab.winding import sample_kl_curve, winding_number
from oracles import kl_curve_evaluator, predict_flip_by_reduction
from test_winding import NEAR_EDGE


def bw_family(lam):
    return make_beam_warming(lam)


def s2ilw3_family(lam, sigma):
    return silw_condition(2, 2, 3, sigma)


def s2ilw3_raising_at(bad_lam, lam, sigma):
    """S2ILW3, except at CFL ``bad_lam``, where the family itself fails."""
    if lam == bad_lam:
        raise RuntimeError(f"no boundary at CFL {lam}")
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
    k1, k2 = sorted([v for v, _ in roots], key=lambda v: v.real)
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
    gaps = sorted(abs(abs(v) - 1.0) for v in [v for v, _ in stable_roots(s, z0)])
    assert 2.0e-6 < gaps[0] < 2.1e-6
    assert classify_boundary_zero(s, silw_condition(2, 2, 3), z0) is BoundaryZeroType.TYPE_II


def test_classify_type_iii_unit_root_unloaded():
    # at z0 = 1 the roots are 1 and an interior root k2; kill the k2 column so
    # the kernel loads only the decaying mode: a true eigenvalue on the curve
    s = make_beam_warming(0.5)
    z0 = 1.0 + 0j
    roots = stable_roots(s, z0)
    values = sorted([v for v, _ in roots], key=lambda v: abs(v - 1.0))
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
    k1, k2 = [v for v, _ in roots]
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


def mark_and_wait(directory, processes: int) -> None:
    """Leave this process's pid in ``directory``, then wait until ``processes`` processes have left theirs: a
    process that calls it in its first cell holds its first chunk until every process has claimed one. The wait ends
    on the marks alone, so a slow host waits longer rather than running another schedule; a test that calls it runs
    under :func:`alarm_after`."""
    (directory / str(os.getpid())).touch()
    while len(list(directory.iterdir())) < processes:
        time.sleep(0.001)


@contextlib.contextmanager
def alarm_after(seconds: int, message: str):
    """Raise ``TimeoutError(message)`` in the body once ``seconds`` have passed: a sweep that hangs fails its test."""

    def expired(signum, frame):
        raise TimeoutError(message)

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_sweep_pool_never_exceeds_cells(monkeypatch):
    started = []
    fork_process = multiprocessing.get_context("fork").Process
    start = fork_process.start

    def counted(process):
        started.append(process)
        start(process)

    monkeypatch.setattr(fork_process, "start", counted)
    lams = list(np.linspace(0.3, 1.9, 20))
    serial = sweep(bw_family, s2ilw3_family, lams, (0.0,), n0=256)
    # (cells, jobs, CPUs, forks): the caller is one of the jobs, and jobs beyond the cells or CPUs start nothing
    rows = ((1, 8, 8, 0), (3, 8, 8, 2), (3, 2, 8, 1), (3, 8, 2, 1), (20, 100000, 8, 7), (3, 8, 1, 0))
    for cells, jobs, cpus, forks in rows:
        for affinity in (True, False):  # the CPUs this process may use, or all of them where that is unknown
            if affinity:
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
            else:
                monkeypatch.delattr(os, "sched_getaffinity", raising=False)
                monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            started.clear()
            result = sweep(bw_family, s2ilw3_family, lams[:cells], (0.0,), n0=256, jobs=jobs)
            assert len(started) == forks
            # every forked worker sent its chunks and was joined
            assert all(process.exitcode == 0 for process in started)
            np.testing.assert_array_equal(result.zero_counts, serial.zero_counts[:cells])
            np.testing.assert_array_equal(result.statuses, serial.statuses[:cells])


def test_sweep_leaves_no_process_behind():
    sweep(bw_family, s2ilw3_family, [0.5, 1.4, 1.7], (0.0,), n0=256, jobs=2)
    assert multiprocessing.active_children() == []


def test_sweep_takes_lambda_families_at_jobs_2(monkeypatch, tmp_path):
    # forked workers inherit the families, so they need not be picklable; the first cells of the caller and of the
    # worker wait until both have claimed a chunk, so that the worker decides cells with them
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    lams, sigmas = np.linspace(0.3, 1.9, 9), (0.0, 0.2)
    serial = sweep(bw_family, s2ilw3_family, lams, sigmas, n0=256)
    with alarm_after(60, "a process still waits for the other's mark"):
        result = sweep(lambda lam: make_beam_warming(lam),
                       lambda lam, sigma: mark_and_wait(tmp_path, 2) or silw_condition(2, 2, 3, sigma),
                       lams, sigmas, n0=256, jobs=2)
    assert len(list(tmp_path.iterdir())) == 2
    assert result.to_csv() == serial.to_csv()


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_sweep_raises_the_error_of_the_first_failing_chunk(monkeypatch, tmp_path, jobs):
    # four chunks of one cell, of which the second and the fourth raise; each process waits in its first chunk
    # until every process has claimed one, so that the first `jobs` chunks go to `jobs` processes, one meets the
    # second chunk's error, and with two processes or more another meets the fourth's
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)

    def family(lam, sigma):
        mark_and_wait(tmp_path, jobs)
        if lam in (0.75, 1.4):
            raise RuntimeError(f"no boundary at CFL {lam}")
        return silw_condition(2, 2, 3, sigma)

    with alarm_after(60, "a process still waits for the others' marks"):
        with pytest.raises(RuntimeError, match=r"^no boundary at CFL 0\.75$"):
            sweep(bw_family, family, [0.5, 0.75, 1.0, 1.4], n0=256, jobs=jobs)
    assert len(list(tmp_path.iterdir())) == jobs
    assert multiprocessing.active_children() == []


def test_sweep_worker_that_dies_is_one_error(monkeypatch, tmp_path):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    parent = os.getpid()

    def family(lam, sigma):
        mark_and_wait(tmp_path, 2)
        if os.getpid() != parent:
            os._exit(3)
        return silw_condition(2, 2, 3, sigma)

    start = time.perf_counter()
    with alarm_after(20, "the sweep still waits for its dead worker"):
        with pytest.raises(RuntimeError, match="^a sweep worker exited with code 3 without sending its chunks$"):
            sweep(bw_family, family, [0.5, 0.75, 1.0, 1.4], n0=256, jobs=2)
    assert time.perf_counter() - start < 10.0
    assert multiprocessing.active_children() == []


def test_sweep_decides_each_cell_once_with_more_workers_than_cores(monkeypatch, tmp_path):
    # eight processes on the host's cores claim 48 chunks of one cell; a claim that two processes both won would
    # build a cell's boundary twice, and the second build raises FileExistsError
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)

    def family(lam, sigma):
        open(tmp_path / f"{lam!r},{sigma!r}", "x").close()
        return silw_condition(2, 2, 3, sigma)

    lams, sigmas = np.linspace(0.3, 1.9, 12), (-0.2, 0.0, 0.2, 0.4)
    serial = sweep(bw_family, s2ilw3_family, lams, sigmas, n0=256)
    assert sweep(bw_family, family, lams, sigmas, n0=256, jobs=8).to_csv() == serial.to_csv()
    assert len(list(tmp_path.iterdir())) == 48
    assert multiprocessing.active_children() == []


def test_sweep_family_error_is_the_same_for_any_jobs():
    # three chunks of one cell: at jobs 2 a worker or the caller may decide the failing one
    for bad in (0.5, 1.4):
        errors = []
        for jobs in (1, 2):
            with pytest.raises(RuntimeError) as excinfo:
                sweep(bw_family, functools.partial(s2ilw3_raising_at, bad), [0.5, 0.75, 1.4], n0=256, jobs=jobs)
            errors.append((type(excinfo.value), str(excinfo.value)))
            assert multiprocessing.active_children() == []
        assert errors == [(RuntimeError, f"no boundary at CFL {bad}")] * 2


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
    """The pairs of each ``analyze_many`` call that ``bisect_stability_edge`` makes, one list per call."""
    calls = []

    def counted(pairs, *args, **kwargs):
        calls.append(list(pairs))
        return analyze_many(pairs, *args, **kwargs)

    monkeypatch.setattr(analyzer, "analyze_many", counted)
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
        # one call decides the two endpoint verdicts and two that straddle the predicted flip; across the
        # CFL-1 jump in the narrow bracket the verdict flips 1.6e-8 below the prediction, so steps and
        # bisection add more, one verdict a call
        jump = (lo, hi) == (0.995, 1.005)
        rows = sum(len(pairs) for pairs in calls)
        assert rows <= (10 if jump else 4) and len(calls[0]) == 4, (kd, d, lo, hi, rows)
        assert jump or len(calls) == 1, (kd, d, lo, hi, len(calls))
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


@pytest.mark.parametrize("fake_blocks", [
    lambda a, b: 0.5 * np.eye(b.shape[2])[None],
    lambda a, b: np.full((1, b.shape[2], b.shape[2]), np.nan),
], ids=["no-sign-change", "eigvals-raises"])
def test_bisect_stability_edge_falls_back_to_plain_bisection(monkeypatch, fake_blocks):
    lo, hi, max_iter = 1.45, 1.55, 8
    oracle = _plain_bisection(s2ilw3_family, lo, hi, max_iter)
    # the blocks of the rho(A) solve alone; the verdicts reduce their pairs in kl
    monkeypatch.setattr(analyzer, "upwind_blocks", fake_blocks)
    calls = _counting_analyze(monkeypatch)
    edge = bisect_stability_edge(bw_family, s2ilw3_family, lo, hi, n0=256, max_iter=max_iter)
    assert edge == oracle
    assert [len(pairs) for pairs in calls] == [2] + [1] * max_iter


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the overflowing block of the rho(A) solve warns of nothing
def test_bisect_stability_edge_reraises_the_error_of_a_bracket_end():
    # a finite boundary at the lower end whose update block overflows to inf (a boundary that is not finite is
    # refused when it is built): the rho(A) solve finds no crossing there, and the end's outcome is the
    # OverflowError of its reduction, raised
    inf_end = lambda lam, sigma: (custom_condition([[1.7e308, 0.1, 0.2], [1.7e308, 0.2, 0.3]]) if lam == 1.45 else
                                  s2ilw3_family(lam, sigma))
    with pytest.raises(OverflowError):
        bisect_stability_edge(bw_family, inf_end, 1.45, 1.55, n0=256)


def test_bisect_stability_edge_redoes_a_prediction_on_the_wrong_side(monkeypatch):
    # rho(A) is mirrored about 1, so the ends where rho(A) < 1 are the unstable ones: the batched
    # probes sit on the wrong side, and the search predicts again for the side the verdicts give
    lo, hi, max_iter = 1.45, 1.55, 20
    oracle = _plain_bisection(s2ilw3_family, lo, hi, max_iter)
    blocks, predict, predictions = analyzer.upwind_blocks, analyzer._predict_flip, []

    def mirrored(a, b):
        rho = np.max(np.abs(np.linalg.eigvals(blocks(a, b))))
        return (2.0 - rho) * np.eye(b.shape[2])[None]

    def recorded(pair, x, end, *args):
        predictions.append(end > x)
        return predict(pair, x, end, *args)

    monkeypatch.setattr(analyzer, "upwind_blocks", mirrored)
    monkeypatch.setattr(analyzer, "_predict_flip", recorded)
    edge = bisect_stability_edge(bw_family, s2ilw3_family, lo, hi, n0=256, max_iter=max_iter)
    assert predictions == [False, True]
    assert abs(edge - oracle) <= (hi - lo) / 2**max_iter, (edge, oracle)


def test_flip_prediction_from_eigenvalues_matches_the_reduction_route(monkeypatch):
    # the search reads |D(mu / |mu|)| off the eigenvalues its rho(A) solve took; the reference reduces each pair
    # and evaluates det C by Horner: the edges agree to rounding, from the same verdict rows
    for (kd, d), lo, hi in _edge_brackets():
        family = _silw_family(kd, d)
        pair = functools.lru_cache(maxsize=None)(lambda lam: (bw_family(lam), family(lam, 0.0)))
        by_reduction = lambda spectrum, x, end, tols, n0: predict_flip_by_reduction(pair, x, end, tols, n0)
        runs = []
        for predict in (analyzer._predict_flip, by_reduction):
            with monkeypatch.context() as patch:
                patch.setattr(analyzer, "_predict_flip", predict)
                calls = _counting_analyze(patch)
                edge = bisect_stability_edge(bw_family, family, lo, hi, n0=256, max_iter=20)
            runs.append((edge, [[s.lam for s, _ in pairs] for pairs in calls]))
        (edge, lams), (reference, reference_lams) = runs
        assert abs(edge - reference) <= 1e-12, (kd, d, lo, hi, edge, reference)
        assert [len(row) for row in lams] == [len(row) for row in reference_lams], (kd, d, lo, hi)
        assert np.allclose(sum(lams, []), sum(reference_lams, []), rtol=0.0, atol=1e-12), (kd, d, lo, hi)


def test_an_edge_reads_at_most_11_spectra(monkeypatch):
    # one upwind_blocks call a spectrum: the rho(A) - 1 solve takes five to ten on a 0.1 bracket, and the secant
    # flip prediction one more, as it reads the crossing's; the parent read 11 to 32 with an Illinois prediction
    blocks = analyzer.upwind_blocks
    for (kd, d), lo, hi in _edge_brackets():
        spectra = []
        monkeypatch.setattr(analyzer, "upwind_blocks", lambda a, b: spectra.append(a) or blocks(a, b))
        bisect_stability_edge(bw_family, _silw_family(kd, d), lo, hi, n0=256, max_iter=20)
        monkeypatch.undo()
        assert len(spectra) <= 11, (kd, d, lo, hi, len(spectra))


def test_flip_prediction_raises_where_its_curve_leaves_the_float_range():
    # a_0 = 1 puts the pole of the prefactor a_{-r} / (a_0 - z) at z = 1, the first sampled point; the search
    # replaces a prediction that raises by the crossing
    s = Scheme([0.5, -0.5, 1.0], 0.5)
    with pytest.raises(ArithmeticError):
        analyzer._predict_flip(lambda lam: (s, np.array([0.9, 0.5 + 0.1j])), 0.5, 0.6, analyzer.DEFAULT_TOLS, 64)


def test_verdicts_without_classification_differ_only_in_their_boundary_zeros():
    schemes = [make_beam_warming(lam) for _, lam, _ in NEAR_EDGE]
    pairs = [(s, silw_condition(s.r, *orders, 0.0)) for s, (orders, _, _) in zip(schemes, NEAR_EDGE)]
    classified, unclassified = [analyze(*pair) for pair in pairs], analyze_many(pairs)
    assert StabilityStatus.UNSTABLE_BOUNDARY_ZERO in [verdict.status for verdict in classified]
    assert any(verdict.boundary_zeros for verdict in classified)
    for full, bare in zip(classified, unclassified, strict=True):
        assert bare.boundary_zeros == ()
        assert bare.status is full.status and bare.exterior_zero_count == full.exterior_zero_count
        assert (bare.winding, bare.direct_count, bare.det_c_coeffs) == (full.winding, full.direct_count,
                                                                      full.det_c_coeffs)


def test_without_a_band_root_the_closest_of_4096_curve_points_is_classified(monkeypatch):
    # the witness of the fallback is the first of 4096 uniform circle points where the normalized curve comes
    # closest to the origin; the curve's closing point repeats its first and is never taken
    witnesses = []
    monkeypatch.setattr(analyzer, "classify_boundary_zero", lambda s, bc, z0, tols: witnesses.append(z0) or
                        BoundaryZeroType.TYPE_II)
    thetas = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    z = np.exp(1j * thetas)
    for lam, orders in ((0.3, (1, 2)), (0.7, (2, 3)), (1.3, (3, 4)), (1.5175048345, (2, 3))):
        s = make_beam_warming(lam)
        bc = silw_condition(s.r, *orders, 0.0)
        (verdict,) = analyze_many([(s, bc)])
        bandless = dataclasses.replace(verdict, status=StabilityStatus.UNSTABLE_BOUNDARY_ZERO,
                                       direct_count=dataclasses.replace(verdict.direct_count, boundary_band=()))
        classified = analyzer._classify_band_zeros(s, bc, bandless, analyzer.DEFAULT_TOLS)
        values = np.abs(kl_det_stack(np.array(verdict.det_c_coeffs), s.a_lead, s.a_zero, s.r, z) / z**s.r)
        expected = complex(np.exp(1j * thetas[int(np.argmin(values))]))
        assert [zero.z0 for zero in classified.boundary_zeros] == [expected] == witnesses[-1:]
        assert classified.notes[-1] == "no determinant root inside the circle band; classified the closest curve point"


def test_the_edge_search_classifies_no_boundary_zero(monkeypatch):
    classified, statuses = [], []

    def counted(*args, **kwargs):
        classified.append(args)
        return classify_boundary_zero(*args, **kwargs)

    def recorded(pairs, *args, **kwargs):
        verdicts = analyze_many(pairs, *args, **kwargs)
        statuses.extend(verdict.status for verdict in verdicts)
        return verdicts

    monkeypatch.setattr(analyzer, "classify_boundary_zero", counted)
    monkeypatch.setattr(analyzer, "analyze_many", recorded)
    bisect_stability_edge(bw_family, s2ilw3_family, 1.51, 1.52)
    # the search meets a boundary zero just below the edge, and leaves it unclassified
    assert StabilityStatus.UNSTABLE_BOUNDARY_ZERO in statuses and classified == []
    verdict = analyze(make_beam_warming(1.5175048345), silw_condition(2, 2, 3, 0.0))
    assert verdict.status is StabilityStatus.UNSTABLE_BOUNDARY_ZERO and verdict.boundary_zeros
    assert len(classified) >= 1


def test_a_sweep_classifies_no_boundary_zero(monkeypatch):
    classified = []

    def counted(*args, **kwargs):
        classified.append(args)
        return classify_boundary_zero(*args, **kwargs)

    monkeypatch.setattr(analyzer, "classify_boundary_zero", counted)
    # S2ILW3 meets a boundary zero at CFL 1 and next to the Fig. 5 edge, at offset 0; the CSV drops its classes
    result = sweep(bw_family, s2ilw3_family, [0.7, 1.0, 1.5175048345], [0.0, 0.2])
    assert classified == []
    assert result.to_csv() == ("lambda,sigma,zero_count,status\n"
                               "0.7,0.0,0,StronglyStable\n0.7,0.2,0,StronglyStable\n"
                               "1.0,0.0,-1,UnstableBoundaryZero\n1.0,0.2,0,StronglyStable\n"
                               "1.5175048345,0.0,-1,UnstableBoundaryZero\n1.5175048345,0.2,0,StronglyStable\n")


def test_a_boundary_whose_curve_passes_1e154_is_decided_at_once():
    # the curve of this pair reaches about 1e200, where the winding's segment arithmetic overflows unless the walk
    # divides the curve by a power of two; the first pass leaves the curve to the walk without a warning
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdict = analyze(make_beam_warming(0.7), custom_condition(np.full((2, 3), 1e100)))
    assert time.perf_counter() - start < 2.0
    assert verdict.status is StabilityStatus.INCONCLUSIVE
    assert verdict.notes == ("winding count 2 != direct count 1",)


def test_s1ilw2_inside_the_unit_circle_band_is_never_strongly_stable():
    # at CFL 1.5 - 1e-6 and 1.5 - 1e-7 both zeros of det(zI - A) have modulus 1 + 3.7e-7 and 1 + 3.7e-8,
    # inside unit_circle_tol: the direct count is 0 and the winding count 2; the verdict must not be stable
    for lam in (1.499999, 1.4999999):
        verdict = analyze(make_beam_warming(lam), silw_condition(2, 1, 2, 0.0))
        assert verdict.status is not StabilityStatus.STRONGLY_STABLE, (lam, verdict.notes)


def test_verdict_json_roundtrip():
    verdict = analyze(make_beam_warming(0.7), silw_condition(2, 2, 3, 0.0))
    payload = json.loads(verdict.to_json())
    assert payload["status"] == "StronglyStable"
    assert payload["exterior_zero_count"] == 0
    assert payload["diagnostics"]["winding"]["index"] == 0
    assert len(payload["diagnostics"]["det_c_coefficients"]) == 4
    assert payload["diagnostics"]["assumptions"]["h3_consistent"] is True


def test_analyze_inconclusive_on_exhausted_refinement(monkeypatch):
    # near the stability edge the curve grazes the origin; a tiny budget
    # cannot resolve it and the verdict must degrade instead of guessing
    monkeypatch.setattr(winding, "_MAX_EVALUATIONS", 70)
    verdict = analyze(make_beam_warming(1.5176), silw_condition(2, 2, 3, 0.0), n0=64)
    assert verdict.status is StabilityStatus.INCONCLUSIVE
    assert any("refinement exceeded" in note for note in verdict.notes)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the curve overflows on purpose, without numpy's warnings
def test_analyze_inconclusive_on_a_curve_that_is_not_finite():
    # an extrapolation weight of 8e307 leaves det C finite, with coefficients 8e307 and -1.6e308, and its curve
    # beyond the float range around z = -1, where they add up
    verdict = analyze(Scheme([0.5, 0.5], 0.5), custom_condition([[8e307, 0.0]]))
    assert verdict.status is StabilityStatus.INCONCLUSIVE and verdict.winding is None
    assert verdict.notes == ("winding failed: curve is not finite at t=2.2457478734645786",)
    # weights of 1e250 and 1e305 leave det C itself beyond the float range: the reduction refuses the pair
    for weight in (1e250, 1e305):
        with pytest.raises(OverflowError, match="det C or its prefactor leaves the float range"):
            analyze(make_beam_warming(0.7), custom_condition(np.full((2, 3), weight)))


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
    expected = reduce_boundary(s, bc).det_c
    np.testing.assert_array_equal([complex(*c) for c in coefficients], expected)


def _alone(pair, n0=1024):
    """The outcome of one pair in a stack of its own."""
    (outcome,) = analyze_many([pair], n0=n0)
    return outcome


def _analyzed(pair):
    """``analyze`` of one pair, or the error it raises."""
    try:
        return analyze(*pair)
    except Exception as exc:
        return exc


def _unclassified(outcome):
    """An outcome of ``analyze`` without its classified zeros and the note of their classification."""
    if isinstance(outcome, Exception):
        return outcome
    notes = tuple(note for note in outcome.notes if not note.startswith("no determinant root inside the circle"))
    return dataclasses.replace(outcome, boundary_zeros=(), notes=notes)


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
            s = Scheme(lagrange_upwind(r, lam), lam)
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
    # analyze adds the classification of the boundary zeros alone
    analyzed = [_analyzed(pair) for pair in pairs]
    assert any(isinstance(outcome, StabilityVerdict) and outcome.boundary_zeros for outcome in analyzed)
    assert [_comparable(_unclassified(outcome)) for outcome in analyzed] == expected
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
                assert verdict.winding == winding_number(*curve, evaluator=kl_curve_evaluator(s, rb))


def test_illinois_finds_a_bracketed_root():
    calls = []

    def f(x):
        calls.append(x)
        return x**3 - 2.0

    root = analyzer._illinois(f, 1.0, 2.0)
    assert abs(root - 2.0 ** (1 / 3)) < 1e-11 and len(calls) <= 12
    # on [1, 5] the end 5 is kept twice in a row, and its value is scaled by 1 - f(x)/f(e) = 0.105, not halved:
    # the cube root of 2 to the last bit in 10 values of f, where halving took 12
    calls.clear()
    assert analyzer._illinois(f, 1.0, 5.0) == float.fromhex("0x1.428a2f98d728bp+0") and len(calls) == 10
    with pytest.raises(ValueError):
        analyzer._illinois(f, 2.0, 3.0)


def test_sweep_csv_is_the_same_for_any_jobs():
    lams, sigmas = np.linspace(0.1, 1.9, 7), np.linspace(-0.5, 0.4, 4)
    serial = sweep(bw_family, s2ilw3_family, lams, sigmas, jobs=1).to_csv()
    assert sweep(bw_family, s2ilw3_family, lams, sigmas, jobs=2).to_csv() == serial


def test_verdicts_are_the_same_bytes_from_a_cold_and_a_warm_report_cache():
    # the six Fig. 6 presets at CFL values on either side of 1 and 2, CFL 1 itself (a_0 = -0.0) included: each
    # verdict's JSON with the report cache cleared before it equals the JSON from a cache warmed by equal schemes
    cold = []
    for kd, d in ((1, 2), (2, 3), (1, 3), (1, 4), (2, 4), (3, 4)):
        for lam in (0.3, 0.7, 1.0, 1.4, 1.6, 2.1):
            scheme_module._validate.cache_clear()
            s = make_beam_warming(lam)
            cold.append((lam, kd, d, analyze(s, silw_condition(s.r, kd, d, 0.0)).to_json()))
    for lam, kd, d, expected in cold:
        s = make_beam_warming(lam)
        assert analyze(s, silw_condition(s.r, kd, d, 0.0)).to_json() == expected, (lam, kd, d)
    assert sum('"a0": -0.0' in expected for lam, _, _, expected in cold if lam == 1.0) == 6
