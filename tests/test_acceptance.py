"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Two tests keep printed reference data that contain errata, and assert
the corrected values next to the printed ones:

- `closed_forms`: the printed alpha-beta expansion of ``det C`` has
  ``-2 alpha^2`` where expanding the displayed ``C(z)`` gives ``+2 alpha^2``
  (expected = printed + 4 alpha^2), and the printed unit-CFL coefficients
  are the negative of ``det C`` (the defining determinant gives
  ``Delta(1) = +1``, the printed coefficients sum to -1).
- `corollary_cross_check`: S1ILW4 has no strongly stable CFL window above 1;
  the other five Fig. 6 presets do. An independent route, the eigenvalues
  of the closed top-left block of the update matrix, confirms the S1ILW4
  claim.
"""

import time

import numpy as np
import pytest

from klstab.analyzer import StabilityStatus, analyze, bisect_stability_edge, sweep
from klstab.boundary import silw_condition
from klstab.cli import run_cli
from klstab.errors import OriginOnCurve
from klstab.kl import (
    exterior_zero_count_direct,
    k_matrix,
    reduce_boundary,
    stable_roots,
)
from klstab.scheme import make_beam_warming, validate
from klstab.simulator import GaussianPulse, IBVPRun, sigma_scan
from oracles import kl_det_direct, kl_det_explicit, winding_count

FIG6_PRESETS = [(1, 2), (2, 3), (1, 3), (1, 4), (2, 4), (3, 4)]
NO_WINDOW_PRESET = (1, 4)  # S1ILW4: unstable on the whole of (1, 2)


def upwind_block(s, bc):
    """Top-left ``m x m`` block of the half-line update matrix.

    Row ``j`` reads only ``U_{j-r..j}`` and the ghost values read only
    ``U_0..U_{m-1}``, so rows ``0..m-1`` form a closed block. For ``|z| > 1``
    every characteristic root lies inside the unit disk, so its eigenvalues
    outside the unit circle are the exterior Kreiss-Lopatinskii eigenvalues.
    Built from ``s.a`` and ``bc.b`` alone.
    """
    block = np.zeros((bc.m, bc.m))
    for j in range(bc.m):
        for offset, coeff in zip(range(-s.r, 1), s.a):
            if j + offset >= 0:
                block[j, j + offset] += coeff
            else:
                block[j] += coeff * bc.ghost_row(j + offset)
    return block


def bw(lam):
    return make_beam_warming(lam)


def s2ilw3(lam, sigma=0.0):
    return silw_condition(2, 2, 3, sigma)


def _report(name, failures):
    status = "FAIL" if failures else "PASS"
    print(f"\nACCEPTANCE {name}: {status}")
    assert not failures, f"{name}: " + " | ".join(failures)


def test_acceptance_1_fig5_reproduction():
    failures = []
    start = time.monotonic()
    lams = np.round(0.01 + 0.01 * np.arange(199), 12)  # 0.01 .. 1.99
    result = sweep(bw, s2ilw3, lams, (0.0,))
    counts = result.zero_counts[:, 0]

    for lam, count in zip(lams, counts):
        if 0.02 < lam < 0.99 and count != 0:
            failures.append(f"zero count {count} at lambda={lam}, expected 0")

    stable_high = [lam for lam, c in zip(lams, counts) if lam > 1.0 and c == 0]
    if not stable_high:
        failures.append("no zero-count-0 interval above lambda = 1")
    else:
        lo, hi = stable_high[0], stable_high[-1]
        left = bisect_stability_edge(bw, s2ilw3, lo - 0.01, lo, max_iter=30)
        right = bisect_stability_edge(bw, s2ilw3, hi, hi + 0.01, max_iter=30)
        if abs(left - 1.52) > 0.02:
            failures.append(f"left endpoint {left:.4f} not within 0.02 of 1.52")
        if abs(right - 1.78) > 0.02:
            failures.append(f"right endpoint {right:.4f} not within 0.02 of 1.78")
    elapsed = time.monotonic() - start
    if elapsed >= 60.0:
        failures.append(f"sweep plus refinement took {elapsed:.1f}s, budget 60s")
    _report("fig5-reproduction", failures)


def test_acceptance_2_closed_forms():
    failures = []
    # printed reference expansion in alpha = -a_{-1}/a_{-2}, beta = (z - a_0)/a_{-2}
    rng = np.random.default_rng(2024)
    worst = 0.0
    bad = 0
    checked = 0
    while checked < 100:
        lam = rng.uniform(0.05, 1.95)
        if abs(lam - 1.0) < 0.02:
            continue
        s = bw(lam)
        rb = reduce_boundary(s, s2ilw3(lam))
        z = rng.uniform(1.0, 3.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        alpha = -s.a[1] / s.a[0]
        beta = (z - s.a_zero) / s.a[0]
        printed = (
            -(beta**3) + beta**2 + 2 * beta
            - alpha * beta**2 / 2 + 3 * alpha * beta
            - alpha**2 * beta - 2 * alpha**2 - alpha**3 / 2
        )
        # erratum: expanding the displayed C(z) (pinned in test_kl) gives
        # +2*alpha^2 where the printed line has -2*alpha^2
        reference = printed + 4 * alpha**2
        rel = abs(rb.det_c(z) - reference) / abs(reference)
        worst = max(worst, rel)
        bad += rel > 1e-10
        checked += 1
    if bad:
        failures.append(
            f"det C disagreed with the corrected alpha-beta expansion (printed + 4*alpha^2) "
            f"at {bad}/100 points (worst rel {worst:.3e})"
        )

    s1 = bw(1.0)
    bc1 = silw_condition(2, 2, 3, 0.0).restricted_to(1)
    rb1 = reduce_boundary(s1, bc1)
    printed_coeffs = np.array([0.5, -1.0, 0.5, -1.0], dtype=complex)
    # At lambda = 1, z = 1 the one stable root is 1, so every modal value is 1
    # and the defining determinant is Delta(1) = 1 - sum_s b_{-1,s}.
    delta1 = 1.0 - float(np.sum(bc1.ghost_row(-1)))
    if abs(delta1 - 1.0) > 1e-12:
        failures.append(f"Delta(1) = 1 - sum_s b_(-1,s) = {delta1!r}, expected +1")
    # Delta = (-1)^{r(m-r)} (a_{-r}/(a_0 - z))^{m-r} det C, and the factor is 1 here
    r, m = s1.r, bc1.m
    factor = (-1.0) ** (r * (m - r)) * (s1.a_lead / (s1.a_zero - 1.0)) ** (m - r)
    # erratum: the printed coefficients sum to -1, so det C is their negative
    reference_coeffs = -printed_coeffs
    if abs(np.sum(reference_coeffs) - delta1 / factor) > 1e-12:
        failures.append(
            f"corrected unit-CFL coefficients give det C(1) = {np.sum(reference_coeffs).real}, "
            f"but Delta(1) / factor = {delta1 / factor}"
        )
    got = rb1.det_c.coeffs
    if got.shape != reference_coeffs.shape or np.max(np.abs(got - reference_coeffs)) > 1e-12:
        failures.append(
            f"unit-CFL det C coefficients {np.real(got).tolist()} differ from the corrected "
            f"reference {np.real(reference_coeffs).tolist()} (the negative of the printed one)"
        )
    _report("closed-forms-4.4", failures)


def test_acceptance_3_oracle_equivalence():
    failures = []
    rng = np.random.default_rng(777)
    worst = 0.0
    checked = 0
    while checked < 200:
        lam = rng.uniform(0.01, 1.99)
        if abs(lam - 1.0) < 1e-6:
            continue
        s = bw(lam)
        bc = s2ilw3(lam)
        z = rng.uniform(1.0, 3.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        values = [v for v, _ in stable_roots(s, z).roots]
        if len(values) > 1:
            gaps = np.abs(np.subtract.outer(values, values))
            if np.min(gaps[~np.eye(len(values), dtype=bool)]) < 1e-6:
                continue
        rb = reduce_boundary(s, bc)
        d_direct = kl_det_direct(s, bc, z)
        d_explicit = kl_det_explicit(rb, s, z)
        rel = abs(d_direct - d_explicit) / max(abs(d_explicit), 1e-300)
        worst = max(worst, rel)
        if rel > 1e-7:
            failures.append(f"rel {rel:.3e} at lambda={lam:.4f}, z={z:.4f}")
        checked += 1
    print(f"\n  oracle equivalence worst rel: {worst:.3e} over 200 points")
    _report("oracle-equivalence", failures)


def test_acceptance_4_corollary_cross_check():
    failures = []
    lams = np.round(0.005 + 0.01 * np.arange(200), 12)  # 200 points, skips 1.0
    for kd, d in FIG6_PRESETS:
        name = f"S{kd}ILW{d}"
        stable_high = False
        for lam in lams:
            s = bw(lam)
            bc = silw_condition(s.r, kd, d, 0.0)
            rb = reduce_boundary(s, bc)
            direct = exterior_zero_count_direct(rb)
            if direct.has_boundary_band:
                continue
            try:
                count = winding_count(s, rb)
            except OriginOnCurve:
                continue
            if count != direct.count:
                failures.append(
                    f"{name}: winding {count} != direct {direct.count} at lambda={lam}"
                )
            if lam > 1.0 and direct.count == 0:
                stable_high = True
        if (kd, d) == NO_WINDOW_PRESET:
            if stable_high:
                failures.append(f"{name}: strongly stable CFL above 1 found, expected none")
        elif not stable_high:
            failures.append(f"{name}: no strongly stable CFL above 1 anywhere on the grid")

    # S1ILW4 has no window: the closed block has an eigenvalue outside the
    # unit circle at every grid CFL in (1, 2)
    kd, d = NO_WINDOW_PRESET
    radii = []
    for lam in lams[(lams > 1.0) & (lams < 2.0)]:
        s = bw(lam)
        radii.append(max(abs(np.linalg.eigvals(upwind_block(s, silw_condition(s.r, kd, d, 0.0))))))
        if radii[-1] <= 1.0:
            failures.append(f"S{kd}ILW{d}: block spectral radius {radii[-1]:.6f} <= 1 at lambda={lam}")
    print(f"\n  S{kd}ILW{d} block spectral radius on (1, 2): {min(radii):.4f} .. {max(radii):.4f}")
    _report("corollary-cross-check", failures)


def test_acceptance_5_lemma_invariants():
    failures = []
    rng = np.random.default_rng(31415)

    # quotient identity for shifted mode-matrix determinants
    for lam in (0.5, 1.3, 1.9):
        s = bw(lam)
        for _ in range(50):
            z = rng.uniform(1.0, 3.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            roots = stable_roots(s, z)
            denom = np.linalg.det(k_matrix(roots, 0, s.r - 1))
            for ell in (1, 2, 3):
                numer = np.linalg.det(k_matrix(roots, ell, ell + s.r - 1))
                expected = (-1.0) ** (ell * s.r) * (s.a_lead / (s.a_zero - z)) ** ell
                if abs(numer / denom - expected) > 1e-9 * max(1.0, abs(expected)):
                    failures.append(f"quotient identity off at lambda={lam}, l={ell}, z={z:.3f}")

    # root separation for |z| > 1.05 on Cauchy-stable presets
    for lam in (0.5, 1.0, 1.5, 2.0):
        s = bw(lam)
        for _ in range(100):
            z = rng.uniform(1.05 + 1e-12, 3.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            if any(abs(v) >= 1.0 for v in [v for v, _ in stable_roots(s, z).roots]):
                failures.append(f"root modulus >= 1 at lambda={lam}, z={z:.3f}")

    # multiplicity-weighted root product identity
    for lam in (0.3, 0.9, 1.7):
        s = bw(lam)
        for _ in range(50):
            z = rng.uniform(1.0, 3.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            roots = stable_roots(s, z)
            product = np.prod([v**m for v, m in roots])
            expected = (-1.0) ** s.r * s.a_lead / (s.a_zero - z)
            if abs(product - expected) > 1e-9 * max(1.0, abs(expected)):
                failures.append(f"root product identity off at lambda={lam}, z={z:.3f}")

    # exact determinant degree for every preset
    for kd, d in FIG6_PRESETS:
        for lam in (0.2, 0.8, 1.2, 1.8):
            s = bw(lam)
            rb = reduce_boundary(s, silw_condition(s.r, kd, d, 0.0))
            degree = rb.det_c.coeffs.size - 1
            if degree != d:
                failures.append(f"deg det C = {degree} != {d} for S{kd}ILW{d}, lambda={lam}")

    # Cauchy stability boundary detected at CFL = 2 +- 0.01
    if not validate(bw(1.99)).h2_cauchy_stable:
        failures.append("lambda = 1.99 flagged Cauchy-unstable")
    if validate(bw(2.01)).h2_cauchy_stable:
        failures.append("lambda = 2.01 not flagged Cauchy-unstable")
    _report("lemma-invariants", failures)


def test_acceptance_6_fig7_fig8_agreement():
    failures = []
    sigmas = np.round(-0.5 + 0.02 * np.arange(50), 12)
    pulse = GaussianPulse()
    unstable_amps = []
    stable_amps = []
    for lam in (0.45, 0.6, 1.3, 1.69):
        s = bw(lam)
        statuses = [analyze(s, silw_condition(2, 2, 3, sg)).status for sg in sigmas]
        scan = sigma_scan(
            s,
            bc_family=lambda sg: silw_condition(2, 2, 3, sg),
            sigma_grid=sigmas,
            run_factory=lambda sg: IBVPRun.from_cfl(
                s, J=1000, T=0.3, a=1.0, sigma=sg, g=pulse
            ),
        )
        for status, amp in zip(statuses, scan.max_amplitudes):
            if status in (
                StabilityStatus.UNSTABLE_EXTERIOR_EIGENVALUE,
                StabilityStatus.UNSTABLE_BOUNDARY_ZERO,
            ):
                unstable_amps.append(float(amp))
            elif status is StabilityStatus.STRONGLY_STABLE:
                stable_amps.append(float(amp))
        if lam == 0.45 and any(step is not None for step in scan.blowup_steps):
            failures.append("blowup at lambda = 0.45")

    frac_unstable = np.mean([a > 10.0 for a in unstable_amps])
    frac_stable = np.mean([a < 2.0 for a in stable_amps])
    print(
        f"\n  corroboration: {frac_unstable:.1%} of {len(unstable_amps)} unstable cells "
        f"exceed amplitude 10; {frac_stable:.1%} of {len(stable_amps)} stable cells stay below 2"
    )
    if frac_unstable < 0.80:
        failures.append(f"only {frac_unstable:.1%} of unstable cells exceeded amplitude 10")
    if frac_stable < 0.95:
        failures.append(f"only {frac_stable:.1%} of stable cells stayed below amplitude 2")
    _report("fig7-fig8-agreement", failures)


def test_acceptance_7_sweep_determinism(tmp_path):
    failures = []
    args = [
        "sweep", "--preset", "beam-warming", "--silw", "2", "3",
        "--lambda-grid", "0.1:1.9:0.05", "--sigma-grid=-0.2:0.2:0.1",
    ]
    outputs = []
    for jobs in ("1", "2", "1"):
        path = tmp_path / f"sweep_{len(outputs)}.csv"
        code = run_cli(args + ["--jobs", jobs, "--out", str(path)])
        if code != 0:
            failures.append(f"sweep exited {code} with jobs={jobs}")
        outputs.append(path.read_bytes())
    if outputs[0] != outputs[1]:
        failures.append("jobs=1 and jobs=2 CSVs differ")
    if outputs[0] != outputs[2]:
        failures.append("repeated jobs=1 CSVs differ")
    _report("sweep-determinism", failures)
