import math

import numpy as np
import pytest

from klstab import simulator
from klstab.analyzer import analyze
from klstab.boundary import BoundaryCondition, custom_condition, silw_condition
from klstab.scheme import Scheme, make_beam_warming, validate
from klstab.simulator import GaussianPulse, IBVPRun, march, run_ibvp, sigma_scan
from oracles import full_width_march_group, nested_differences, upwind_block


def test_zero_data_stays_zero():
    s = make_beam_warming(1.3)
    bc = silw_condition(2, 2, 3, 0.0)
    run = IBVPRun.from_cfl(s, J=100, T=0.05, g=lambda t: 0.0)
    result = run_ibvp(s, bc, run)
    assert result.max_amplitude == 0.0
    assert not np.any(result.values)
    assert result.blowup_step is None


def test_unit_cfl_exact_transport_of_ghost_trace():
    # pure shift: the interior value at (n, j) is the ghost value at (n-j-1, -1)
    s = make_beam_warming(1.0)
    bc = silw_condition(1, 1, 1, 0.0)  # ghost = g(t) exactly, no extrapolation
    pulse = GaussianPulse(width=50.0, center=0.02)
    run = IBVPRun.from_cfl(s, J=60, T=0.05, g=pulse)
    result = run_ibvp(s, bc, run)
    n_steps = result.values.shape[0] - 1
    for n in (n_steps // 2, n_steps):
        for j in range(0, 40, 7):
            expected = pulse((n - j - 1) * run.dt) if n - j - 1 >= 0 else 0.0
            assert abs(result.values[n][1 + j] - expected) < 1e-14


def test_unit_cfl_transport_with_extrapolating_boundary():
    # whatever the ghost rule produces, interior transport is exact at lam = 1
    s = make_beam_warming(1.0)
    bc = silw_condition(2, 2, 3, 0.0)
    run = IBVPRun.from_cfl(s, J=50, T=0.04)
    result = run_ibvp(s, bc, run)
    ghost_trace = result.values[:, 0]  # single ghost cell after row restriction
    n_steps = result.values.shape[0] - 1
    for n in (n_steps,):
        for j in range(0, 30, 5):
            expected = ghost_trace[n - j - 1] if n - j - 1 >= 0 else 0.0
            assert abs(result.values[n][1 + j] - expected) < 1e-14


def test_gaussian_pulse_derivatives_match_finite_differences():
    pulse = GaussianPulse()
    h = 1e-6
    for t in (0.0, 0.13, 0.25, 0.4):
        fd1 = (pulse(t + h) - pulse(t - h)) / (2 * h)
        assert abs(pulse.derivative(1, t) - fd1) < 1e-5
        fd2 = (pulse(t + h) - 2 * pulse(t) + pulse(t - h)) / h**2
        assert abs(pulse.derivative(2, t) - fd2) < 1e-2
    with pytest.raises(ValueError):
        pulse.derivative(4, 0.1)


def test_fd_fallback_flagged_for_plain_callable():
    s = make_beam_warming(0.6)
    bc = silw_condition(2, 2, 3, 0.0)  # needs g' each step
    run = IBVPRun.from_cfl(s, J=50, T=0.01, g=lambda t: math.sin(10 * t))
    result = run_ibvp(s, bc, run)
    assert result.fd_derivative_fallback


def test_unstable_run_blows_up_and_stops_early():
    s = make_beam_warming(1.3)
    bc = silw_condition(2, 2, 3, -0.3)
    run = IBVPRun.from_cfl(s, J=1000, T=0.3, sigma=-0.3)
    result = run_ibvp(s, bc, run, keep_history=False)
    assert result.blowup_step is not None
    assert result.max_amplitude > 1e6
    n_steps_nominal = int(math.ceil(run.T / run.dt - 1e-9))
    assert result.blowup_step < n_steps_nominal


def test_stable_run_stays_bounded():
    s = make_beam_warming(0.45)
    bc = silw_condition(2, 2, 3, 0.0)
    run = IBVPRun.from_cfl(s, J=500, T=0.3)
    result = run_ibvp(s, bc, run, keep_history=False)
    assert result.blowup_step is None
    assert result.max_amplitude < 1.5


def test_profile_includes_ghost_cells():
    s = make_beam_warming(0.8)
    bc = silw_condition(2, 2, 3, 0.0)
    run = IBVPRun.from_cfl(s, J=40, T=0.02)
    result = run_ibvp(s, bc, run)
    assert result.values.shape[1] == 40 + 2
    assert result.x[0] == -2 * run.dx
    assert abs(result.x[-1] - (39 * run.dx)) < 1e-15


def test_run_guards():
    s = make_beam_warming(0.8)
    bc = silw_condition(2, 2, 3, 0.0)
    good = IBVPRun.from_cfl(s, J=40, T=0.02)
    bad_dt = IBVPRun(J=40, T=0.02, dt=good.dt * 1.5, a=good.a, sigma=0.0, g=good.g)
    with pytest.raises(ValueError):
        run_ibvp(s, bc, bad_dt)
    mismatched_sigma = IBVPRun(J=40, T=0.02, dt=good.dt, a=good.a, sigma=0.25, g=good.g)
    with pytest.raises(ValueError):
        run_ibvp(s, bc, mismatched_sigma)
    for bad in ({"J": 0}, {"T": 0.0}, {"T": -1.0}, {"a": 0.0}, {"a": -1.0}):
        with pytest.raises(ValueError):
            IBVPRun.from_cfl(s, **bad)


def test_run_refuses_ten_million_steps():
    s = make_beam_warming(0.5)
    dt = IBVPRun.from_cfl(s, J=10).dt
    assert IBVPRun.from_cfl(s, J=10, T=(10**7 - 1) * dt).T == (10**7 - 1) * dt
    for T in (10**7 * dt, 1e300, math.inf):
        with pytest.raises(ValueError, match=r"^the final time T=") as info:
            IBVPRun.from_cfl(s, J=10, T=T)
        assert "\n" not in str(info.value)


def test_march_refuses_ten_million_steps_of_a_direct_run():
    # a run built without from_cfl gets the same one-line refusal, before any array is allocated
    s = make_beam_warming(0.5)
    bc = silw_condition(2, 2, 3, 0.0)
    for T in (1e300, math.inf, 0.05 * 10**7):
        run = IBVPRun(J=10, T=T, dt=0.05, a=1.0, sigma=0.0, g=GaussianPulse())
        with pytest.raises(ValueError, match=r"^the final time T=") as info:
            run_ibvp(s, bc, run)
        assert "\n" not in str(info.value)
    good = IBVPRun(J=10, T=0.05 * (10**7 - 1), dt=0.05, a=1.0, sigma=0.0, g=GaussianPulse())
    with pytest.raises(ValueError, match=r"^the final time T="):
        march(s, [(bc, good), (bc, run)])


@pytest.mark.parametrize("field, value, message", [
    ("a", 0.0, r"^the advection velocity must be positive, got a=0\.0$"),
    ("a", math.nan, r"^the advection velocity must be positive, got a=nan$"),
    ("T", -1.0, r"^the final time must be positive, got T=-1\.0$"),
    ("dt", math.nan, r"^dt=nan does not match lambda\*dx/a=0\.05$"),
    ("a", math.inf, r"^the advection velocity must be finite, got a=inf$"),
])
def test_march_refuses_bad_fields_of_a_direct_run(field, value, message):
    # from_cfl and march share their checks; a NaN fails them instead of slipping past a > test
    s = make_beam_warming(0.5)
    fields = dict(J=10, T=0.1, dt=0.05, a=1.0, sigma=0.0, g=GaussianPulse())
    run = IBVPRun(**{**fields, field: value})
    with pytest.raises(ValueError, match=message) as info:
        run_ibvp(s, silw_condition(2, 2, 3, 0.0), run)
    assert "\n" not in str(info.value)
    if field != "dt":
        with pytest.raises(ValueError, match=message):
            IBVPRun.from_cfl(s, J=10, **{"T": 0.1, "a": 1.0, field: value})


def test_runs_with_initial_data_compare_by_identity():
    s = make_beam_warming(0.8)
    run = IBVPRun.from_cfl(s, J=10, f=np.zeros(10))
    copy = IBVPRun.from_cfl(s, J=10, f=np.zeros(10))
    assert run == run
    assert run != copy


def test_sigma_scan_single_point_reduces_to_run():
    s = make_beam_warming(0.6)
    bc = silw_condition(2, 2, 3, 0.0)
    run = IBVPRun.from_cfl(s, J=120, T=0.1)
    single = run_ibvp(s, bc, run, keep_history=False)
    scan = sigma_scan(
        s,
        bc_family=lambda sg: silw_condition(2, 2, 3, sg),
        sigma_grid=[0.0],
        run_factory=lambda sg: IBVPRun.from_cfl(s, J=120, T=0.1, sigma=sg),
    )
    np.testing.assert_allclose(scan.profiles_clipped[0], np.clip(single.final_profile, -1, 1))
    assert scan.max_amplitudes[0] == single.max_amplitude
    assert scan.fd_derivative_fallbacks == (single.fd_derivative_fallback,) == (False,)


def test_sigma_scan_csv_schema():
    s = make_beam_warming(0.6)
    scan = sigma_scan(
        s,
        bc_family=lambda sg: silw_condition(2, 2, 3, sg),
        sigma_grid=[-0.1, 0.1],
        run_factory=lambda sg: IBVPRun.from_cfl(s, J=30, T=0.02, sigma=sg),
    )
    lines = scan.to_csv().strip().split("\n")
    assert lines[0] == "sigma,x,value_clipped,max_amplitude_unclipped"
    assert len(lines) == 1 + 2 * 32
    sigma, x, value, amp = lines[1].split(",")
    assert float(sigma) == -0.1
    assert float(x) == -2 / 30


def test_custom_boundary_feeds_plain_trace():
    # custom conditions receive g itself on every ghost row
    s = make_beam_warming(1.0)
    bc = custom_condition(np.zeros((1, 1)))
    run = IBVPRun.from_cfl(s, J=30, T=0.02, g=lambda t: 1.0 if t > 0.005 else 0.0)
    result = run_ibvp(s, bc, run)
    assert result.values[-1][0] == 1.0


def one_step_jacobian(s, bc, sigma):
    """One simulator step restricted to cells 0..m-1, column k from f = e_k with zero boundary data."""
    J = bc.m + 3
    zero = lambda t: 0.0
    columns = []
    for k in range(bc.m):
        run = IBVPRun.from_cfl(s, J=J, T=s.lam / J, sigma=sigma, g=zero, f=np.eye(J)[k])
        result = run_ibvp(s, bc, run)
        assert result.times.size == 2
        columns.append(result.final_profile[s.r : s.r + bc.m])
    return np.column_stack(columns)


def test_upwind_block_is_one_simulator_step(lagrange_upwind):
    # the block whose eigenvalues decide the verdict is the operator the simulator marches
    cases = []
    for lam in (0.3, 0.8, 1.0, 1.4, 1.9):
        s = make_beam_warming(lam)
        for kd, d in ((1, 2), (2, 3), (1, 4), (3, 4)):
            for sigma in (-0.5, 0.0, 0.3):
                cases.append((s, silw_condition(2, kd, d, sigma).restricted_to(s.r), sigma))
    rng = np.random.default_rng(19)
    for r in range(1, 6):
        for _ in range(2):
            lam = float(rng.uniform(0.05, r))
            s = Scheme(lagrange_upwind(r, lam), lam)
            b = rng.uniform(-1, 1, (r, int(rng.integers(r, r + 4))))
            cases.append((s, custom_condition(b), 0.0))
    for s, bc, sigma in cases:
        block = upwind_block(s, bc)
        assert block.shape == (bc.m, bc.m)
        np.testing.assert_allclose(
            one_step_jacobian(s, bc, sigma), block, rtol=0, atol=1e-13 * max(1.0, np.max(np.abs(block)))
        )


def assert_scan_is_per_offset_runs(s, bc_family, grid, run_factory):
    """The batched scan equals one ``run_ibvp`` per offset, bit for bit."""
    scan = sigma_scan(s, bc_family, grid, run_factory)
    for i, sigma in enumerate(grid):
        one = run_ibvp(s, bc_family(sigma), run_factory(sigma), keep_history=False)
        assert scan.max_amplitudes[i].tobytes() == np.float64(one.max_amplitude).tobytes()
        assert scan.profiles_clipped[i].tobytes() == np.clip(one.final_profile, -1, 1).tobytes()
        assert scan.blowup_steps[i] == one.blowup_step
        assert scan.fd_derivative_fallbacks[i] == one.fd_derivative_fallback
    return scan


def test_batched_scan_matches_runs_with_staggered_blowups():
    s = make_beam_warming(1.3)
    scan = assert_scan_is_per_offset_runs(
        s,
        lambda sg: silw_condition(2, 2, 3, sg),
        np.linspace(-0.5, 0.45, 8),
        lambda sg: IBVPRun.from_cfl(s, J=100, T=3.0, sigma=sg),
    )
    steps = [step for step in scan.blowup_steps if step is not None]
    assert len(steps) >= 3 and len(set(steps)) == len(steps)
    assert None in scan.blowup_steps


def test_batched_scan_flags_fd_fallback_per_offset():
    s = make_beam_warming(0.6)

    def run_factory(sigma):
        g = (lambda t: math.sin(10 * t)) if sigma < 0 else GaussianPulse(width=100.0)
        return IBVPRun.from_cfl(s, J=50, T=0.05, sigma=sigma, g=g)

    scan = assert_scan_is_per_offset_runs(
        s, lambda sg: silw_condition(2, 2, 3, sg), [-0.3, -0.1, 0.1, 0.3], run_factory
    )
    assert scan.fd_derivative_fallbacks == (True, True, False, False)


def test_batched_scan_marches_a_custom_boundary_once(monkeypatch):
    from klstab import simulator

    s = make_beam_warming(0.6)
    bc = custom_condition([[0.5, 0.25], [0.0, 1.0]])
    run_factory = lambda sg: IBVPRun.from_cfl(s, J=50, T=0.1, sigma=sg)
    marched = []
    march = simulator.march
    monkeypatch.setattr(simulator, "march", lambda s, pairs, *a: marched.append(len(pairs)) or march(s, pairs, *a))
    scan = sigma_scan(s, lambda sg: bc, [0.0, 0.1, 0.2], run_factory)
    assert marched == [1]
    assert scan.blowup_steps == (None,) * 3
    assert_scan_is_per_offset_runs(s, lambda sg: bc, [0.0, 0.1, 0.2], run_factory)


def test_batched_scan_groups_runs_of_different_geometry():
    # offsets whose runs differ in T or a march in separate groups (or together
    # when the step counts agree); a J that varies cannot share one profile array
    s = make_beam_warming(0.8)
    family = lambda sg: silw_condition(2, 2, 3, sg)
    geometry = {
        -0.3: dict(T=0.2), -0.2: dict(T=0.05), -0.1: dict(T=0.05),
        0.0: dict(T=0.08), 0.2: dict(T=0.05, a=2.0), 0.3: dict(T=0.1, a=2.0),
    }
    scan = assert_scan_is_per_offset_runs(
        s, family, list(geometry), lambda sg: IBVPRun.from_cfl(s, J=40, sigma=sg, **geometry[sg])
    )
    assert scan.profiles_clipped.shape == (6, 42)
    with pytest.raises(ValueError):
        sigma_scan(s, family, [0.0, 0.2], lambda sg: IBVPRun.from_cfl(s, J=40 if sg == 0 else 50, sigma=sg))


def test_g_derivative_takes_a_pulse_in_closed_form_and_flags_finite_differences():
    s = make_beam_warming(0.6)
    pulse = GaussianPulse(width=100.0)
    run = IBVPRun.from_cfl(s, J=50, T=0.05, g=pulse)
    for t in (0.0, 0.13, 0.25):
        assert [run.g_derivative(k, t) for k in (1, 2, 3)] == [(pulse.derivative(k, t), False) for k in (1, 2, 3)]
        value, fd = run.g_derivative(4, t)
        assert fd and math.isfinite(value)
    plain = IBVPRun.from_cfl(s, J=50, T=0.05, g=lambda t: math.sin(10 * t))
    assert plain.g_derivative(0, 0.1) == (math.sin(1.0), False)
    value, fd = plain.g_derivative(1, 0.1)
    assert fd and abs(value - 10 * math.cos(1.0)) < 1e-3


class UnhashablePulse(GaussianPulse):
    """A Gaussian pulse that compares equal to any other, whatever its width, and cannot be hashed."""

    __hash__ = None

    def __eq__(self, other):
        return isinstance(other, UnhashablePulse)


def test_batched_scan_mixes_shared_and_separate_boundary_data():
    # shared pulses, another width, a plain callable and unhashable pulses (one
    # object on two rows; equal ones of another width and of the same) in one scan
    s = make_beam_warming(0.6)
    shared = UnhashablePulse()
    data = {
        -0.4: dict(), -0.3: dict(), -0.2: dict(),
        -0.1: dict(g=GaussianPulse(width=100.0)),
        0.0: dict(g=lambda t: math.sin(10 * t)),
        0.1: dict(g=shared), 0.2: dict(g=shared),
        0.3: dict(g=UnhashablePulse(width=100.0)),
        0.4: dict(g=UnhashablePulse()),
    }
    scan = assert_scan_is_per_offset_runs(
        s, lambda sg: silw_condition(2, 2, 3, sg), list(data),
        lambda sg: IBVPRun.from_cfl(s, J=100, T=0.3, sigma=sg, **data[sg]),
    )
    assert scan.fd_derivative_fallbacks == (False,) * 4 + (True,) + (False,) * 4


def test_non_finite_initial_data_is_rejected():
    s = make_beam_warming(0.8)
    for bad in (math.nan, math.inf):
        f = np.zeros(40)
        f[7] = bad
        with pytest.raises(ValueError, match="finite"):
            run_ibvp(s, silw_condition(2, 2, 3, 0.0), IBVPRun.from_cfl(s, J=40, T=0.02, f=f))


def test_nan_boundary_data_counts_as_blowup():
    s = make_beam_warming(0.8)
    run = IBVPRun.from_cfl(s, J=40, T=0.1, g=lambda t: math.nan if t > 0.05 else 0.0)
    result = run_ibvp(s, custom_condition(np.zeros((2, 2))), run)
    first_nan_step = next(n for n in range(10**3) if n * run.dt > 0.05)
    assert result.blowup_step == first_nan_step
    assert result.max_amplitude == math.inf
    assert result.times.size == first_nan_step + 1


def test_blowup_happens_exactly_at_positive_exterior_count(lagrange_upwind):
    # Random Cauchy-stable Lagrange upwind schemes of widths 1..4 (width 5 never
    # validates) with random custom b, m = 1..3, and random initial data: each
    # pair whose update-block eigenvalues stay 1e-2 away from the unit circle
    # blows up within 1,500 steps exactly when analyze counts a determinant
    # zero outside the unit disk.
    rng = np.random.default_rng(0)
    J, steps = 40, 1500
    blowups = 0
    for r in range(1, 5):
        while True:
            lam = float(rng.uniform(0.05, r))
            s = Scheme(lagrange_upwind(r, lam), lam)
            if s.r == r and validate(s).all_pass:
                break
        pairs, unstable = [], []
        while len(pairs) < 15:
            bc = custom_condition(rng.uniform(-1, 1, (r, int(rng.integers(1, 4)))))
            if np.min(np.abs(np.abs(np.linalg.eigvals(upwind_block(s, bc))) - 1)) <= 1e-2:
                continue
            f = rng.uniform(-1, 1, J)
            pairs.append((bc, IBVPRun.from_cfl(s, J=J, T=(steps - 0.5) * s.lam / J, g=lambda t: 0.0, f=f)))
            unstable.append(analyze(s, bc).exterior_zero_count > 0)
        blew_up = [field.blowup_step is not None for field in march(s, pairs)]
        assert blew_up == unstable, (r, lam)
        blowups += sum(blew_up)
    assert blowups > 0


def test_growth_rate_of_the_boundary_cells_is_log_rho(monkeypatch, lagrange_upwind):
    # With zero boundary data the cells U_0..U_{m-1} step by the closed block A, so on Lagrange upwind pairs of
    # widths 1..4 with rho(A) > 1.02 the per-step growth of their largest modulus, fitted over the second half of
    # the run, is log rho(A) within 5 %
    monkeypatch.setattr(simulator, "_BLOWUP_THRESHOLD", 1e300)
    rng = np.random.default_rng(5)
    J = 40
    for r in range(1, 5):
        while True:
            lam = float(rng.uniform(0.05, r))
            s = Scheme(lagrange_upwind(r, lam), lam)
            if s.r == r and validate(s).all_pass:
                break
        pairs, rhos = [], []
        while len(pairs) < 4:
            bc = custom_condition(rng.uniform(-1, 1, (r, int(rng.integers(1, 4)))))
            rho = float(np.max(np.abs(np.linalg.eigvals(upwind_block(s, bc)))))
            if not 1.02 < rho < 3.0:
                continue
            steps = min(300, int(600 / math.log(rho)))  # growth stays below 1e300
            run = IBVPRun.from_cfl(s, J=J, T=(steps - 0.5) * s.lam / J, g=lambda t: 0.0, f=rng.uniform(-1, 1, J))
            pairs.append((bc, run))
            rhos.append(rho)
        for (bc, _), rho, field in zip(pairs, rhos, march(s, pairs, keep_history=True)):
            head = np.max(np.abs(field.values[:, r : r + bc.m]), axis=1)
            second = np.arange(head.size // 2, head.size)
            rate = np.polyfit(second, np.log(head[second]), 1)[0]
            assert abs(rate / math.log(rho) - 1.0) <= 0.05, (r, lam, bc.b.tolist(), rho, rate)


def assert_march_is_full_width(monkeypatch, s, pairs, keep_history=False):
    """``march`` equals the full-width row-major march of the oracle, byte for byte."""
    with monkeypatch.context() as patch:
        patch.setattr(simulator, "_march_group", full_width_march_group)
        expected = march(s, pairs, keep_history=keep_history)
    for field, oracle in zip(march(s, pairs, keep_history=keep_history), expected, strict=True):
        assert field.values.tobytes() == oracle.values.tobytes()
        assert field.times.tobytes() == oracle.times.tobytes()
        assert np.float64(field.max_amplitude).tobytes() == np.float64(oracle.max_amplitude).tobytes()
        assert field.blowup_step == oracle.blowup_step
        assert field.fd_derivative_fallback == oracle.fd_derivative_fallback
    return expected


def test_causal_prefix_matches_full_width_on_random_lagrange_pairs(monkeypatch, lagrange_upwind):
    # widths 1..4, random b and random data in the head of the domain; some pairs blow up
    rng = np.random.default_rng(7)
    J, steps, blowups = 40, 300, 0
    for r in range(1, 5):
        while True:
            lam = float(rng.uniform(0.05, r))
            s = Scheme(lagrange_upwind(r, lam), lam)
            if s.r == r and validate(s).all_pass:
                break
        pairs = []
        for _ in range(8):
            bc = custom_condition(rng.uniform(-1, 1, (r, int(rng.integers(1, 4)))))
            f = np.zeros(J)
            f[: int(rng.integers(0, J // 2))] = rng.uniform(-1, 1)
            run = IBVPRun.from_cfl(s, J=J, T=(steps - 0.5) * s.lam / J, g=GaussianPulse(width=50.0, center=0.1), f=f)
            pairs.append((bc, run))
        fields = assert_march_is_full_width(monkeypatch, s, pairs)
        blowups += sum(field.blowup_step is not None for field in fields)
    assert blowups > 0


def test_causal_prefix_matches_full_width_on_head_data_and_negative_zero_tails(monkeypatch):
    # data non-zero in the head and zero in the tail (with no f beside it), then a
    # -0.0 tail far past the head beside an all -0.0 f, recorded every step; the
    # prefix is shared by a group, so the -0.0 runs march apart from the head run
    s = make_beam_warming(0.8)
    bc = silw_condition(2, 2, 3, 0.0)
    head = np.zeros(60)
    head[:5] = [0.3, -1.0, 0.5, 2.0, -0.25]
    negative_tail = head.copy()
    negative_tail[45:] = -0.0
    negative_tail[30] = -0.0
    zero = lambda t: 0.0
    for data in ((head, None), (negative_tail, np.full(60, -0.0))):
        pairs = [(bc, IBVPRun.from_cfl(s, J=60, T=0.1, g=zero, f=f)) for f in data]
        fields = assert_march_is_full_width(monkeypatch, s, pairs, keep_history=True)
    negative_zeros = [int(np.sum(np.signbit(u) & (u == 0))) for u in fields[0].values[:2]]
    assert negative_zeros == [16, 0]


def test_causal_prefix_matches_full_width_on_nan_data_and_staggered_blowups(monkeypatch):
    s = make_beam_warming(1.3)
    nan_later = lambda t: math.nan if t > 0.05 else GaussianPulse()(t)
    pairs = [
        (silw_condition(2, 2, 3, sigma), IBVPRun.from_cfl(s, J=100, T=3.0, sigma=sigma))
        for sigma in np.linspace(-0.5, 0.45, 8)
    ] + [(custom_condition(np.zeros((2, 2))), IBVPRun.from_cfl(s, J=100, T=3.0, g=nan_later))]
    for keep_history in (False, True):
        fields = assert_march_is_full_width(monkeypatch, s, pairs, keep_history)
        steps = [field.blowup_step for field in fields if field.blowup_step is not None]
        assert len(set(steps)) == len(steps) >= 4 and fields[-1].max_amplitude == math.inf


def test_rows_that_cross_at_one_step_leave_together_one_of_them_nan(monkeypatch):
    # three equal S2ILW3 rows cross at one step, a fourth whose boundary data turn NaN at that step crosses with
    # them, a fifth whose pulse is scaled by 0.6 crosses two steps later (the amplitude alternates, 1.32e6 at the
    # first step, 9.95e5 and 2.11e6 after it), and two rows march on past both
    s = make_beam_warming(1.3)
    bc, run = silw_condition(2, 2, 3, -0.3), IBVPRun.from_cfl(s, J=100, T=3.0, sigma=-0.3)
    step = run_ibvp(s, bc, run).blowup_step
    nan_at_step = lambda t: math.nan if t > (step - 0.5) * run.dt else GaussianPulse()(t)
    scaled = lambda t: 0.6 * GaussianPulse()(t)
    pairs = [(bc, run)] * 3 + [(custom_condition(np.zeros((2, 2))), IBVPRun.from_cfl(s, J=100, T=3.0, g=nan_at_step)),
                               (bc, IBVPRun.from_cfl(s, J=100, T=3.0, sigma=-0.3, g=scaled))]
    pairs += [(silw_condition(2, 2, 3, sigma), IBVPRun.from_cfl(s, J=100, T=3.0, sigma=sigma)) for sigma in (-0.1, 0.2)]
    for keep_history in (False, True):
        fields = assert_march_is_full_width(monkeypatch, s, pairs, keep_history)
        steps = [field.blowup_step for field in fields]
        assert steps == [step] * 4 + [step + 2, steps[5], None] and steps[5] > step + 2
        assert fields[3].max_amplitude == math.inf and math.isnan(fields[3].final_profile[0])


def test_boundary_data_that_jump_past_the_threshold_blow_up_at_the_jump(monkeypatch):
    # data that stay at 1e-3 for 300 steps, then jump to 2e6 in one step: no step of the quiet stretch may skip
    # the read that finds the jump, whether the row marches alone or beside a row whose data stay quiet
    s = make_beam_warming(0.8)
    dt, jump = s.lam / 60, 300
    jumping = lambda t: 2e6 if t > (jump - 0.5) * dt else 1e-3
    pairs = [(custom_condition([[0.1], [0.2]]), IBVPRun.from_cfl(s, J=60, T=400 * dt, g=jumping)),
             (silw_condition(2, 2, 3, 0.1), IBVPRun.from_cfl(s, J=60, T=400 * dt, sigma=0.1, g=lambda t: 1e-3))]
    for group in (pairs[:1], pairs):
        for keep_history in (False, True):
            fields = assert_march_is_full_width(monkeypatch, s, group, keep_history)
            assert [field.blowup_step for field in fields] == [jump, None][: len(group)]


@pytest.mark.parametrize("b, blowup_step", [
    ([[-0.599, -0.336], [0.342, 0.638]], 163),
    ([[48.865], [5.268]], 42),
], ids=["row-sums-below-1", "row-sums-far-above-1"])
def test_a_boundary_whose_rows_sum_below_or_far_above_1_blows_up_at_its_step(monkeypatch, b, blowup_step):
    # the bound on a step's growth takes the larger of 1 and the largest row sum of |b|. Rows summing to 0.94 and
    # 0.98 leave the stencil's factor sum |a_k| = 1.16 (Beam-Warming, CFL 0.8) whole: initial data -t, t, t
    # with t = 1e6 / 1.15 cross at step 1, where the third cell is 1.16 t. A row summing to 48.9 grows by that
    # factor too. Neither boundary may skip the read of the step it crosses at, and a stable boundary with
    # small rows marches beside each
    s = make_beam_warming(0.8)
    f, extremal = np.linspace(1.0, 0.0, 60), np.zeros(60)
    extremal[10:13] = np.array([-1.0, 1.0, 1.0]) * 1e6 / 1.15
    pulse = GaussianPulse(center=0.5)
    pairs = [(custom_condition(b), IBVPRun.from_cfl(s, J=60, T=8.0, f=f)),
             (custom_condition(np.asarray(b) * 0.1), IBVPRun.from_cfl(s, J=60, T=8.0, f=f, g=pulse)),
             (custom_condition(b), IBVPRun.from_cfl(s, J=60, T=8.0, g=lambda t: 0.0, f=extremal))]
    for keep_history in (False, True):
        fields = assert_march_is_full_width(monkeypatch, s, pairs, keep_history)
        assert [field.blowup_step for field in fields] == [blowup_step, None, 1]


def test_data_terms_of_each_ghost_are_summed_in_plan_order(monkeypatch):
    # the second ghost puts order 3 where the first has order 1, so its third term (order 2, a column and
    # position the first ghost has already used) must still come after its second: a ghost sums its terms in its
    # own plan order. With b = 0 a ghost is its data term
    s = make_beam_warming(0.8)
    plans = (((0, 1.0), (1, -0.7), (2, 0.3)), ((0, 0.9), (3, 1.3), (2, -0.55)))
    pairs = [(BoundaryCondition(b=np.zeros((2, 2)), g_plan=plans[::step]),
              IBVPRun.from_cfl(s, J=40, T=1.0, g=GaussianPulse(width=50.0, center=0.5))) for step in (1, -1)]
    for keep_history in (False, True):
        assert_march_is_full_width(monkeypatch, s, pairs, keep_history)


def test_rows_that_leave_before_the_prefix_spans_the_domain_match_full_width(monkeypatch):
    # J = 400 cells at CFL 1.3: six rows blow up at steps 10 to 98, while the prefix r + r n is still shorter
    # than J + r, one at step 242 and one never; the rows left march on past each event's width, so the cells
    # that the narrowed arrays hold past that width must read zero
    s = make_beam_warming(1.3)
    b = np.array([[48.865], [5.268]])
    pairs = [(custom_condition(b * scale), IBVPRun.from_cfl(s, J=400, T=1.0)) for scale in (1.0, 0.6, 0.4, 0.25)]
    pairs += [(silw_condition(2, 2, 3, sigma), IBVPRun.from_cfl(s, J=400, T=1.0, sigma=sigma))
              for sigma in (-0.5, -0.3, 0.0, 0.2)]
    for keep_history in (False, True):
        fields = assert_march_is_full_width(monkeypatch, s, pairs, keep_history)
        assert [field.blowup_step for field in fields] == [10, 12, 15, 20, 72, 98, 242, None]
        assert np.count_nonzero(fields[-1].final_profile) == 400 + s.r


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_a_pulse_column_is_its_scalar_derivatives_bit_for_bit(k):
    # the step times of the four benchmark scans (J = 1000, T = 0.3) and random times, at two pulses
    rng = np.random.default_rng(k)
    grids = [np.arange(int(math.ceil(0.3 / (lam / 1000) - 1e-9)) + 1) * (lam / 1000) for lam in (0.45, 0.6, 1.3, 1.69)]
    grids.append(rng.uniform(-1.0, 2.0, 500))
    for pulse in (GaussianPulse(), GaussianPulse(width=50.0, center=0.1)):
        for times in grids:
            column = pulse.derivative(k, times)
            scalars = np.array([pulse.derivative(k, t) for t in times.tolist()])
            assert column.tobytes() == scalars.tobytes()


def test_a_scalar_pulse_derivative_is_the_closed_form_in_python_floats():
    # numpy's cube of tau differs from Python's in the last bit on some times; the scalar takes Python's
    pulse, w = GaussianPulse(), 200.0
    for t in np.random.default_rng(3).uniform(0.0, 0.5, 2000).tolist():
        tau = t - 0.25
        g = math.exp(-w * tau * tau)
        expected = [g, -2.0 * w * tau * g, (4.0 * w * w * tau * tau - 2.0 * w) * g,
                    (12.0 * w * w * tau - 8.0 * w**3 * tau**3) * g]
        assert [float(pulse.derivative(k, t)) for k in range(4)] == expected


def benchmark_runs(g):
    """The runs of the four benchmark scans (J = 1000, T = 0.3) with boundary data ``g``, each with its step times."""
    runs = [IBVPRun.from_cfl(make_beam_warming(lam), J=1000, T=0.3, g=g) for lam in (0.45, 0.6, 1.3, 1.69)]
    return [(run, np.arange(int(math.ceil(run.T / run.dt - 1e-9)) + 1) * run.dt) for run in runs]


@pytest.mark.parametrize("g, orders", [(GaussianPulse(), range(9)), (lambda t: math.sin(10 * t) + t * t, range(7))],
                         ids=["pulse", "plain"])
def test_g_derivative_over_an_array_is_its_scalar_calls_bit_for_bit(g, orders):
    # the pulse in closed form to order 3 and by differences past it, a plain callable by differences past order 0
    runs = benchmark_runs(g)
    runs.append((runs[0][0], np.random.default_rng(5).uniform(-1.0, 2.0, 200)))
    for run, times in runs:
        for k in orders:
            column, fd = run.g_derivative(k, times)
            scalars = [run.g_derivative(k, t) for t in times.tolist()]
            assert fd == (k > (3 if isinstance(g, GaussianPulse) else 0))
            assert all(flag == fd for _, flag in scalars)
            assert np.array_equal(column.view(np.uint64), np.array([v for v, _ in scalars]).view(np.uint64))


def test_finite_differences_share_their_nodes_bit_for_bit():
    # each node of the recursion once: the values of the recursion that calls g 2**k times a time
    calls = []
    g = lambda t: calls.append(t) or math.sin(10 * t) * math.exp(-t)
    for run, times in benchmark_runs(g):
        times = np.concatenate([times[::40], np.random.default_rng(7).uniform(0.0, 0.3, 10)])
        for k in range(13):
            column, _ = run.g_derivative(k, times)
            expected = [nested_differences(g, k, t, run.dt / 10.0) for t in times.tolist()]
            assert np.array_equal(column.view(np.uint64), np.array(expected).view(np.uint64))
        calls.clear()
        run.g_derivative(16, times)
        assert len(calls) <= 17**2 * times.size


def test_data_table_samples_each_column_with_one_call(monkeypatch):
    # 50 offsets with one plain callable, or with equal Gaussian pulses, at one dt share each derivative column
    calls = []
    g_derivative = IBVPRun.g_derivative
    monkeypatch.setattr(IBVPRun, "g_derivative", lambda self, k, t: calls.append(k) or g_derivative(self, k, t))
    s, plain = make_beam_warming(0.6), lambda t: math.sin(10 * t)
    orders = {k for plan in silw_condition(2, 2, 3, 0.0).g_plan for k, _ in plan}
    for make_g in (lambda: plain, GaussianPulse):  # one callable object, or a new equal pulse for each offset
        calls.clear()
        sigma_scan(s, lambda sg: silw_condition(2, 2, 3, sg), np.linspace(-0.5, 0.48, 50),
                   lambda sg: IBVPRun.from_cfl(s, J=100, T=0.3, sigma=sg, g=make_g()))
        assert sorted(calls) == sorted(orders)
