import numpy as np
import pytest

from klstab.boundary import (
    assemble_B,
    boundary_from_descriptor,
    custom_condition,
    silw_condition,
)
from klstab.errors import InvalidOrder


def falling_factorial(s, q):
    out = 1.0
    for t in range(q):
        out *= s - t
    return out


def test_s2ilw3_rows():
    bc = silw_condition(r=2, k_d=2, d=3, sigma=0.0)
    np.testing.assert_allclose(bc.ghost_row(-1), [0.5, -1.0, 0.5])
    np.testing.assert_allclose(bc.ghost_row(-2), [2.0, -4.0, 2.0])


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
    np.testing.assert_allclose(bc.ghost_row(-1), [0.28125, -0.5625, 0.28125])


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
    assert abs(bc.ghost_row(-1) @ u - 0.5 * second_difference) < 1e-14
    assert abs(bc.ghost_row(-2) @ u - 2.0 * second_difference) < 1e-14


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


def test_restrict_rows_keeps_innermost_ghosts():
    bc = silw_condition(r=2, k_d=2, d=3, sigma=0.0)
    one = bc.restricted_to(1)
    assert one.r == 1
    np.testing.assert_allclose(one.ghost_row(-1), bc.ghost_row(-1))
    assert bc.restricted_to(2) is bc
    with pytest.raises(ValueError, match="boundary condition has 2 ghost rows, scheme needs 3"):
        bc.restricted_to(3)


def test_descriptor_forms():
    bc = boundary_from_descriptor({"silw": {"kd": 2, "d": 3, "sigma": 0.0}}, r=2)
    np.testing.assert_allclose(bc.ghost_row(-1), [0.5, -1.0, 0.5])
    bc2 = boundary_from_descriptor({"custom": {"b": [[0.0, 0.0]]}}, r=1)
    assert bc2.m == 2
    # a custom matrix keeps its innermost rows for a narrower scheme
    bc3 = boundary_from_descriptor({"custom": {"b": [[1.0, 0.0], [0.5, 0.5]]}}, r=1)
    np.testing.assert_allclose(bc3.b, [[0.5, 0.5]])
    with pytest.raises(ValueError, match="boundary condition has 1 ghost rows, scheme needs 2"):
        boundary_from_descriptor({"custom": {"b": [[0.0]]}}, r=2)
    with pytest.raises(ValueError):
        boundary_from_descriptor({}, r=2)
