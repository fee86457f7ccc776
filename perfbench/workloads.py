"""Inputs, timed passes and output checks of the four benchmark workloads.

Every workload is a closed loop from one caller: each operation starts when
the previous one has returned. Inputs come from the seed only; ``klstab``
receives nothing but the generated schemes, boundaries, grids and argument
lists. Calls go through the module attributes (``analyzer.analyze`` rather
than a name bound at import) so that a traced run can wrap them.

A workload object exposes

* ``inputs(seed, sizes)`` to build the inputs,
* ``first_op(inputs)`` for the set-up probe (first completed operation),
* ``run_pass(inputs, between)`` for one timed pass, returning a
  :class:`PassResult`; it calls ``between()`` before each timed operation,
* ``record(inputs, result)`` to reduce a pass to its reference form, and
* ``check(inputs, results, reference)`` to count failed operations.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import sys
import traceback
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from klstab import analyzer, cli, simulator
from klstab.boundary import silw_condition
from klstab.kl import exterior_zero_count_direct, reduce_boundary
from klstab.scheme import make_beam_warming

# The six SkILWd presets of Fig. 6, as (k_d, d); S2ILW3 is the Fig. 5 pair.
PRESETS = ((1, 2), (2, 3), (1, 3), (1, 4), (2, 4), (3, 4))
FIG5 = (2, 3)
FIG5_EDGES = (1.52, 1.78)
FIG5_EDGE_TOL = 0.02
# Stability edges are located to a bracket of at most this width.
EDGE_BRACKET = 1e-8
# Relative tolerance on simulated max amplitudes: float64 round-off amplified
# by at most a few thousand time steps stays far below it.
AMPLITUDE_RTOL = 1e-9
SIM_LAMBDAS = (0.45, 0.6, 1.3, 1.69)
SIM_T = 0.3
MAP_JOBS = 2  # process-pool workers of the sigma-map sweep: one per core on 2 cores
OUT_DIR = ".perfbench_out"

STATUS_CODES = {
    "StronglyStable": "S",
    "UnstableExteriorEigenvalue": "E",
    "UnstableBoundaryZero": "B",
    "AssumptionViolated": "A",
    "Inconclusive": "I",
}
GOOD_STATUSES = ("S", "E", "B")


@dataclass(frozen=True)
class Sizes:
    presets: Tuple[Tuple[int, int], ...] = PRESETS
    panel_lambdas: int = 50
    panel_lambda_step: float = 0.04
    edge_lambdas: int = 200
    edge_lambda_step: float = 0.01
    map_lambdas: int = 13
    map_lambda_step: float = 0.15
    map_sigmas: int = 25
    map_sigma_step: float = 0.04
    sim_sigmas: int = 50
    sim_J: int = 1000


FULL = Sizes()
TOY = Sizes(
    presets=(FIG5,), panel_lambdas=20, panel_lambda_step=0.1, edge_lambdas=20, edge_lambda_step=0.1,
    map_lambdas=4, map_lambda_step=0.5,
    map_sigmas=3, map_sigma_step=0.3, sim_sigmas=4, sim_J=100,
)


@dataclass
class PassResult:
    records: list
    latencies: List[float]
    ops: int
    work: int = 0  # interior cell updates (simulator only)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _nothing() -> None:
    pass


def _report_exception(what: str) -> None:
    print(f"operation failed: {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def cfl_grid(seed: int, n: int, step: float) -> np.ndarray:
    """A CFL grid of Fig. 5/6 from 0, shifted by a seeded offset so it never hits 1."""
    offset = _rng(seed, 1).uniform(0.1, 0.9) * step
    return offset + step * np.arange(n)


def silw_family(lam: float, sigma: float, kd: int, d: int):
    return silw_condition(make_beam_warming(lam).r, kd, d, sigma)


def _count_char(count: int) -> str:
    """Exterior zero counts stay below 10; -1 (no count) is written as '-'."""
    return "-" if count < 0 else str(count)


def _status_code(verdict) -> Tuple[str, int]:
    count = verdict.exterior_zero_count
    return STATUS_CODES[verdict.status.value], -1 if count is None else int(count)


class Fig6Panel:
    """Beam-Warming with the six Fig. 6 presets, one ``analyze`` per (preset, CFL) cell."""

    name = "fig6-panel"
    op_unit = "analyze verdict"
    rate_name, latency_name = "verdicts_per_s", "verdict_p50_ms"

    def inputs(self, seed: int, sizes: Sizes):
        cells = []
        for kd, d in sizes.presets:
            for lam in cfl_grid(seed, sizes.panel_lambdas, sizes.panel_lambda_step):
                s = make_beam_warming(float(lam))
                cells.append(((kd, d), float(lam), s, silw_condition(s.r, kd, d, 0.0)))
        return cells

    def first_op(self, cells) -> None:
        _, _, s, bc = cells[0]
        analyzer.analyze(s, bc)

    def run_pass(self, cells, between=_nothing) -> PassResult:
        records, latencies = [], []
        for preset, lam, s, bc in cells:
            between()
            t0 = perf_counter()
            try:
                record = _status_code(analyzer.analyze(s, bc))
            except Exception:
                _report_exception(f"analyze S{preset[0]}ILW{preset[1]} lambda={lam!r}")
                record = ("X", -1)
            latencies.append(perf_counter() - t0)
            records.append(record)
        return PassResult(records=records, latencies=latencies, ops=len(cells))

    def record(self, cells, result: PassResult) -> dict:
        return {
            "status": "".join(code for code, _ in result.records),
            "count": "".join(_count_char(count) for _, count in result.records),
        }

    def check(self, cells, results, reference) -> Tuple[int, int, List[str]]:
        failed, notes = 0, []
        for result in results:
            for k, (code, count) in enumerate(result.records):
                bad = code not in GOOD_STATUSES
                if reference is not None:
                    bad = bad or code != reference["status"][k] or _count_char(count) != reference["count"][k]
                if bad:
                    failed += 1
                    preset, lam = cells[k][0], cells[k][1]
                    notes.append(f"cell S{preset[0]}ILW{preset[1]} lambda={lam!r}: {code}{count}")
        return failed, 0, notes


class WindowEdges:
    """Every stability transition of the coarse panel grid, bisected to ``EDGE_BRACKET``."""

    name = "window-edges"
    op_unit = "located edge"
    rate_name, latency_name = "edges_per_s", "edge_p50_ms"

    def inputs(self, seed: int, sizes: Sizes):
        """Brackets ``(preset, lo, hi, max_iter)`` where the strong-stability verdict flips.

        The transitions are found with the direct root count, which costs a
        tenth of a full verdict; ``bisect_stability_edge`` re-checks both
        endpoints with ``analyze`` and raises if they do not differ. The
        stencil-width jump at CFL 1 is left out: there ``analyze`` raises
        ``DegreeMismatch`` for S2ILW3 at every CFL within 1e-6 of 1, a known
        defect, so bisecting across it fails on some seeds.
        """
        lams = cfl_grid(seed, sizes.edge_lambdas, sizes.edge_lambda_step)
        brackets = []
        for kd, d in sizes.presets:
            previous = None
            for lam in lams:
                lam = float(lam)
                s = make_beam_warming(lam)
                direct = exterior_zero_count_direct(reduce_boundary(s, silw_condition(s.r, kd, d, 0.0)))
                stable = direct.count == 0 and not direct.has_boundary_band
                if previous is not None and stable != previous[1] and not previous[0] < 1.0 < lam:
                    width = lam - previous[0]
                    max_iter = math.ceil(math.log2(width / EDGE_BRACKET))
                    brackets.append(((kd, d), previous[0], lam, max_iter))
                previous = (lam, stable)
        return brackets

    def _locate(self, bracket) -> float:
        (kd, d), lo, hi, max_iter = bracket
        family = functools.partial(silw_family, kd=kd, d=d)
        return analyzer.bisect_stability_edge(make_beam_warming, family, lo, hi, max_iter=max_iter)

    def first_op(self, brackets) -> None:
        self._locate(brackets[0])

    def run_pass(self, brackets, between=_nothing) -> PassResult:
        records, latencies = [], []
        for bracket in brackets:
            between()
            t0 = perf_counter()
            try:
                edge: Optional[float] = float(self._locate(bracket))
            except Exception:
                _report_exception(f"bisect_stability_edge {bracket}")
                edge = None
            latencies.append(perf_counter() - t0)
            records.append(edge)
        return PassResult(records=records, latencies=latencies, ops=len(brackets))

    def record(self, brackets, result: PassResult) -> dict:
        return {"brackets": self.brackets_record(brackets), "edges": result.records}

    @staticmethod
    def brackets_record(brackets) -> list:
        return [[list(p), lo, hi, n] for p, lo, hi, n in brackets]

    def check(self, brackets, results, reference) -> Tuple[int, int, List[str]]:
        failed, checks, notes = 0, 0, []
        if reference is not None and self.brackets_record(brackets) != reference["brackets"]:
            notes.append("coarse-grid transitions differ from the reference")
            reference = None
            failed += 1
        for result in results:
            for k, edge in enumerate(result.records):
                bad = edge is None
                if not bad and reference is not None:
                    ref = reference["edges"][k]
                    bad = ref is None or abs(edge - ref) > 2 * EDGE_BRACKET
                if bad:
                    failed += 1
                    notes.append(f"edge {brackets[k]}: got {edge!r}")
            checks += len(FIG5_EDGES)
            fig5 = [e for b, e in zip(brackets, result.records) if b[0] == FIG5 and e is not None]
            for target in FIG5_EDGES:
                if not any(abs(e - target) <= FIG5_EDGE_TOL for e in fig5):
                    failed += 1
                    notes.append(f"no S2ILW3 edge within {FIG5_EDGE_TOL} of {target} (edges {fig5})")
        return failed, checks, notes


@dataclass(frozen=True)
class MapInputs:
    lambda_spec: str
    sigma_spec: str
    cells: int


class SigmaMap:
    """``klstab sweep`` on a Beam-Warming/S2ILW3 CFL x offset grid through the process pool."""

    name = "sigma-map"
    op_unit = "sweep cell verdict"
    # Two pool workers, each with its own BLAS threads, share the cores: the
    # single-process host probe does not track their speed, so run.py leaves
    # this workload's times unscaled.
    host_scaled = False
    rate_name, latency_name = "verdicts_per_s", "sweep_p50_ms"

    def inputs(self, seed: int, sizes: Sizes) -> MapInputs:
        rng = _rng(seed, 2)
        lam0 = 0.05 + rng.uniform(-0.02, 0.02)
        sig0 = -0.5 + rng.uniform(0.0, 0.02)

        def spec(start, step, n):
            # the upper end sits half a step past the last point so rounding cannot drop it
            return f"{start:.6f}:{start + step * (n - 0.5):.6f}:{step}"

        return MapInputs(
            lambda_spec=spec(lam0, sizes.map_lambda_step, sizes.map_lambdas),
            sigma_spec=spec(sig0, sizes.map_sigma_step, sizes.map_sigmas),
            cells=sizes.map_lambdas * sizes.map_sigmas,
        )

    def sweep_csv(self, inputs: MapInputs, jobs: int, lambda_spec: Optional[str] = None) -> bytes:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"sigma-map-{os.getpid()}-jobs{jobs}.csv")
        argv = [
            "sweep", "--preset", "beam-warming", "--silw", "2", "3",
            "--lambda-grid", lambda_spec or inputs.lambda_spec,
            f"--sigma-grid={inputs.sigma_spec}", "--jobs", str(jobs), "--out", path,
        ]
        code = cli.run_cli(argv)
        if code != 0:
            raise RuntimeError(f"klstab sweep exited {code}")
        with open(path, "rb") as fh:
            data = fh.read()
        os.remove(path)
        return data

    def first_op(self, inputs: MapInputs) -> None:
        start = inputs.lambda_spec.split(":")[0]
        self.sweep_csv(inputs, MAP_JOBS, lambda_spec=f"{start}:{start}:1")

    def run_pass(self, inputs: MapInputs, between=_nothing, jobs: int = MAP_JOBS) -> PassResult:
        between()
        t0 = perf_counter()
        try:
            csv: Optional[bytes] = self.sweep_csv(inputs, jobs)
        except Exception:
            _report_exception(f"klstab sweep {inputs}")
            csv = None
        return PassResult(records=[csv], latencies=[perf_counter() - t0], ops=inputs.cells)

    def parity(self, inputs: MapInputs, result: PassResult) -> Tuple[float, bool]:
        """Re-run the sweep with one job: its time, and whether the CSV bytes match."""
        t0 = perf_counter()
        try:
            csv: Optional[bytes] = self.sweep_csv(inputs, 1)
        except Exception:
            _report_exception(f"klstab sweep --jobs 1 {inputs}")
            csv = None
        return perf_counter() - t0, csv is not None and csv == result.records[0]

    @staticmethod
    def cells(csv: bytes) -> List[Tuple[str, int]]:
        rows = csv.decode().strip().split("\n")[1:]
        return [(STATUS_CODES.get(row.split(",")[3], "X"), int(row.split(",")[2])) for row in rows]

    def record(self, inputs: MapInputs, result: PassResult) -> dict:
        csv = result.records[0]
        cells = self.cells(csv)
        return {
            "csv_sha256": hashlib.sha256(csv).hexdigest(),
            "status": "".join(code for code, _ in cells),
            "count": "".join(_count_char(count) for _, count in cells),
        }

    def check(self, inputs: MapInputs, results, reference) -> Tuple[int, int, List[str]]:
        failed, notes = 0, []
        for result in results:
            csv = result.records[0]
            if csv is None:
                failed += inputs.cells
                notes.append("sweep raised")
                continue
            cells = self.cells(csv)
            if len(cells) != inputs.cells:
                failed += inputs.cells
                notes.append(f"sweep wrote {len(cells)} cells, expected {inputs.cells}")
                continue
            bad = [k for k, (code, _) in enumerate(cells) if code not in GOOD_STATUSES]
            if reference is not None:
                got = self.record(inputs, result)
                bad = sorted(set(bad) | {
                    k for k in range(inputs.cells)
                    if got["status"][k] != reference["status"][k] or got["count"][k] != reference["count"][k]
                })
                if not bad and got["csv_sha256"] != reference["csv_sha256"]:
                    bad = [-1]
                    notes.append("CSV bytes differ from the reference although every cell agrees")
            failed += len(bad)
            notes.extend(f"cell {k}: {cells[k]}" for k in bad[:10] if k >= 0)
        return failed, 0, notes


@dataclass(frozen=True)
class SimInputs:
    schemes: tuple
    sigmas: np.ndarray
    J: int


def _silw23(sigma: float, r: int):
    return silw_condition(r, 2, 3, sigma)


def _sim_run(sigma: float, s, J: int):
    return simulator.IBVPRun.from_cfl(s, J=J, T=SIM_T, a=1.0, sigma=sigma, g=simulator.GaussianPulse())


class SigmaScanSim:
    """``sigma_scan`` at the Fig. 7-8 CFL numbers: the simulator alone, no ``analyze``."""

    name = "sigma-scan-sim"
    op_unit = "sigma_scan call"
    rate_name, latency_name = "sim_updates_per_s", "sigma_scan_p50_ms"

    def inputs(self, seed: int, sizes: Sizes) -> SimInputs:
        sig0 = -0.5 + _rng(seed, 3).uniform(0.0, 0.019)
        step = 0.98 / (sizes.sim_sigmas - 1) if sizes.sim_sigmas > 1 else 0.0
        return SimInputs(
            schemes=tuple(make_beam_warming(lam) for lam in SIM_LAMBDAS),
            sigmas=sig0 + step * np.arange(sizes.sim_sigmas),
            J=sizes.sim_J,
        )

    def first_op(self, inputs: SimInputs) -> None:
        s, sigma = inputs.schemes[0], float(inputs.sigmas[0])
        simulator.run_ibvp(s, _silw23(sigma, s.r), _sim_run(sigma, s, inputs.J), keep_history=False)

    def run_pass(self, inputs: SimInputs, between=_nothing) -> PassResult:
        records, latencies, work = [], [], 0
        for s in inputs.schemes:
            between()
            t0 = perf_counter()
            try:
                scan = simulator.sigma_scan(
                    s,
                    bc_family=functools.partial(_silw23, r=s.r),
                    sigma_grid=inputs.sigmas,
                    run_factory=functools.partial(_sim_run, s=s, J=inputs.J),
                )
                record = {"blowup_steps": list(scan.blowup_steps),
                          "max_amplitudes": [float(a) for a in scan.max_amplitudes]}
            except Exception:
                _report_exception(f"sigma_scan lambda={s.lam!r}")
                record = None
            latencies.append(perf_counter() - t0)
            records.append(record)
            if record is not None:
                n_steps = math.ceil(SIM_T / _sim_run(0.0, s, inputs.J).dt - 1e-9)
                work += inputs.J * sum(n_steps if b is None else b for b in record["blowup_steps"])
        return PassResult(records=records, latencies=latencies, ops=len(inputs.schemes), work=work)

    def record(self, inputs: SimInputs, result: PassResult) -> dict:
        return {"scans": result.records}

    def check(self, inputs: SimInputs, results, reference) -> Tuple[int, int, List[str]]:
        failed, notes = 0, []
        for result in results:
            for k, (s, scan) in enumerate(zip(inputs.schemes, result.records)):
                bad = scan is None
                if not bad and s.lam == 0.45 and any(b is not None for b in scan["blowup_steps"]):
                    bad = True
                    notes.append("blow-up at lambda = 0.45, which Figs. 7-8 show stable")
                if not bad and reference is not None:
                    ref = reference["scans"][k]
                    bad = scan["blowup_steps"] != ref["blowup_steps"] or not np.allclose(
                        scan["max_amplitudes"], ref["max_amplitudes"], rtol=AMPLITUDE_RTOL, atol=0.0
                    )
                if bad:
                    failed += 1
                    notes.append(f"sigma_scan lambda={s.lam!r} differs from the reference")
        return failed, 0, notes


WORKLOADS: Dict[str, object] = {
    w.name: w for w in (Fig6Panel(), WindowEdges(), SigmaMap(), SigmaScanSim())
}
