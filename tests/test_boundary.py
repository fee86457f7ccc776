import math

import numpy as np
import pytest

from klstab import boundary
from klstab.boundary import assemble_B, custom_condition, silw_condition
from klstab.errors import InvalidOrder
from oracles import ghost_row


def falling_factorial(s, q):
    out = 1.0
    for t in range(q):
        out *= s - t
    return out


def test_s2ilw3_rows():
    bc = silw_condition(r=2, k_d=2, d=3, sigma=0.0)
    np.testing.assert_allclose(ghost_row(bc, -1), [0.5, -1.0, 0.5])
    np.testing.assert_allclose(ghost_row(bc, -2), [2.0, -4.0, 2.0])


def test_s2ilw3_assembled_matrix():
    bc = silw_condition(r=2, k_d=2, d=3, sigma=0.0)
    expected = np.array([[1, 0, -2, 4, -2], [0, 1, -0.5, 1, -0.5]], dtype=float)
    np.testing.assert_allclose(assemble_B(bc), expected)


def test_no_extrapolation_when_kd_equals_d():
    bc = silw_condition(r=2, k_d=3, d=3, sigma=0.0)
    assert not np.any(bc.b)
    np.testing.assert_allclose(assemble_B(bc), np.hstack([np.eye(2), np.zeros((2, 3))]))


def test_sigma_offset_row():
    bc = silw_condition(r=2, k_d=2, d=3, sigma=0.25)
    np.testing.assert_allclose(ghost_row(bc, -1), [0.28125, -0.5625, 0.28125])


def test_assemble_zero_matrix_single_row():
    bc = custom_condition(np.zeros((1, 2)))
    np.testing.assert_allclose(assemble_B(bc), [[1.0, 0.0, 0.0]])


def test_assembled_leading_block_is_identity():
    rng = np.random.default_rng(3)
    bc = custom_condition(rng.normal(size=(3, 4)))
    B = assemble_B(bc)
    np.testing.assert_allclose(B[:, :3], np.eye(3))
    assert abs(np.linalg.det(B[:, :3]) - 1.0) < 1e-15


def test_ghost_rows_encode_second_difference():
    # the two ghost updates are (1/2)(U2 - 2U1 + U0) and 2(U2 - 2U1 + U0)
    bc = silw_condition(r=2, k_d=2, d=3, sigma=0.0)
    rng = np.random.default_rng(11)
    u = rng.normal(size=3)
    second_difference = u[2] - 2 * u[1] + u[0]
    assert abs(ghost_row(bc, -1) @ u - 0.5 * second_difference) < 1e-14
    assert abs(ghost_row(bc, -2) @ u - 2.0 * second_difference) < 1e-14


def test_sigma_zero_matches_default_exactly():
    for kd, d in ((1, 2), (2, 3), (1, 3), (1, 4), (2, 4), (3, 4)):
        plain = silw_condition(r=2, k_d=kd, d=d)
        shifted = silw_condition(r=2, k_d=kd, d=d, sigma=0.0)
        assert np.array_equal(plain.b, shifted.b)


def test_extrapolation_reproduces_newton_basis():
    # On the Newton (falling factorial) basis the extrapolation weights act
    # exactly: sum_s b[j,s] s^(q) = (j+sigma)^q for k_d <= q <= d-1 and 0 below.
    # On plain powers s^q the same identity holds only up to q = k_d, because
    # higher undivided differences pick up lower-order terms.
    for kd, d, sigma in ((1, 2, 0.0), (2, 3, 0.0), (1, 3, -0.3), (1, 4, 0.25), (2, 4, 0.1), (3, 4, 0.49)):
        bc = silw_condition(r=2, k_d=kd, d=d, sigma=sigma)
        for i in range(2):
            j = i - 2
            base = j + sigma
            for q in range(d):
                newton = sum(bc.b[i, s] * falling_factorial(s, q) for s in range(d))
                expected = base**q if q >= kd else 0.0
                assert abs(newton - expected) < 1e-12, (kd, d, sigma, j, q)
            for q in range(kd + 1):
                powers = sum(bc.b[i, s] * float(s) ** q for s in range(d))
                expected = base**q if q >= kd else 0.0
                assert abs(powers - expected) < 1e-12, (kd, d, sigma, j, q)


def test_data_plan_weights():
    bc = silw_condition(r=2, k_d=2, d=3, sigma=0.25)
    for i, j in ((0, -2), (1, -1)):
        plan = bc.g_plan[i]
        assert [k for k, _ in plan] == [0, 1]
        np.testing.assert_allclose(
            [w for _, w in plan],
            [1.0, -(j + 0.25)],
        )


def test_invalid_orders():
    with pytest.raises(InvalidOrder):
        silw_condition(r=2, k_d=4, d=3)
    with pytest.raises(InvalidOrder):
        silw_condition(r=2, k_d=1, d=0)
    with pytest.raises(InvalidOrder):
        silw_condition(r=2, k_d=-1, d=3)
    with pytest.raises(ValueError):
        silw_condition(r=0, k_d=1, d=2)
    with pytest.raises(ValueError):
        silw_condition(r=2, k_d=1, d=2, sigma=0.5)


def test_silw_condition_is_shared_and_equals_a_fresh_build():
    args = [(2, 2, 3, 0.0), (2, 2, 3, -0.0), (2, 2, 3, 0), (2, 1, 4, 0.25), (3, 2, 3, -0.5), (1, 1, 2, 0.49)]
    cached = [silw_condition(*a) for a in args]
    assert all(silw_condition(*a) is bc for a, bc in zip(args, cached))
    # equal keys of other types, and zeros of the other sign, get their own entries
    assert len({id(bc) for bc in cached}) == len(args)
    assert silw_condition(np.int64(2), 2, 3, 0.0) is not cached[0]
    boundary._silw_condition.cache_clear()
    for a, bc in zip(args, cached):
        fresh = silw_condition(*a)
        assert fresh is not bc
        assert fresh.b.tobytes() == bc.b.tobytes() and repr(fresh.g_plan) == repr(bc.g_plan)
        assert (fresh.r, fresh.m, fresh.source) == (bc.r, bc.m, bc.source)
        assert fresh.sigma == bc.sigma and math.copysign(1.0, fresh.sigma) == math.copysign(1.0, a[3])
    assert cached[1].source == "S2ILW3 (sigma=-0.0)" and cached[2].source == "S2ILW3 (sigma=0)"


def test_silw_condition_checks_every_call():
    silw_condition(2, 2, 3, 0.0)
    for _ in range(2):
        with pytest.raises(InvalidOrder):
            silw_condition(2, 4, 3)
        with pytest.raises(ValueError):
            silw_condition(0, 1, 2)
        for sigma in (0.5, -0.51, float("nan")):
            with pytest.raises(ValueError):
                silw_condition(2, 2, 3, sigma)
        # 2.0 does not share the entry of 2: a float ghost count fails to build a matrix
        with pytest.raises(TypeError):
            silw_condition(2.0, 2, 3, 0.0)


def test_restrict_rows_keeps_innermost_ghosts():
    bc = silw_condition(r=2, k_d=2, d=3, sigma=0.0)
    one = bc.restricted_to(1)
    assert one.r == 1
    np.testing.assert_allclose(ghost_row(one, -1), ghost_row(bc, -1))
    assert bc.restricted_to(2) is bc
    with pytest.raises(ValueError, match="boundary condition has 2 ghost rows, scheme needs 3"):
        bc.restricted_to(3)


def test_custom_rows_fit_a_narrower_scheme():
    # a custom matrix keeps its innermost rows for a narrower scheme, and never gains rows
    bc = custom_condition([[1.0, 0.0], [0.5, 0.5]]).restricted_to(1)
    assert (bc.r, bc.m) == (1, 2)
    np.testing.assert_allclose(bc.b, [[0.5, 0.5]])
    with pytest.raises(ValueError, match="boundary condition has 1 ghost rows, scheme needs 2"):
        custom_condition([[0.0]]).restricted_to(2)
