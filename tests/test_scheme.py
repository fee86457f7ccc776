import numpy as np
import pytest

from klstab.scheme import (
    CurveSamples,
    Scheme,
    make_beam_warming,
    _symbol_from_basis,
    scheme_from_descriptor,
    symbol_basis,
    validate,
)
from oracles import symbol


def test_beam_warming_half():
    s = make_beam_warming(0.5)
    np.testing.assert_allclose(s.a, [-0.125, 0.75, 0.375])
    assert s.r == 2


def test_beam_warming_trims_at_unit_cfl():
    s = make_beam_warming(1.0)
    np.testing.assert_allclose(s.a, [1.0, 0.0])
    assert s.r == 1
    assert validate(s).h0_nondegenerate


def test_beam_warming_two():
    s = make_beam_warming(2.0)
    np.testing.assert_allclose(s.a, [1.0, 0.0, 0.0])
    assert s.r == 2


def test_symbol_at_zero_is_one_for_consistent_schemes():
    for lam in (0.3, 0.9, 1.2, 1.9):
        assert abs(symbol(make_beam_warming(lam), 0.0) - 1.0) < 1e-14


def test_symbol_pure_shift():
    assert abs(symbol(make_beam_warming(2.0), np.pi / 2) - (-1.0)) < 1e-14


def test_symbol_modulus_closed_form():
    # |gamma(xi)|^2 = 1 - lam(2-lam)(lam-1)^2 (1-cos xi)^2 for the preset
    rng = np.random.default_rng(5)
    xi = np.linspace(0, 2 * np.pi, 257)
    for lam in rng.uniform(0.05, 2.45, 12):
        s = make_beam_warming(lam)
        got = np.abs(symbol(s, xi)) ** 2
        expected = 1.0 - lam * (2 - lam) * (lam - 1) ** 2 * (1 - np.cos(xi)) ** 2
        np.testing.assert_allclose(got, expected, atol=1e-12)


def test_symbol_derivative_matches_cfl():
    # first-order consistency: -i gamma'(0) = -lambda, computed from coefficients
    for lam in (0.25, 0.8, 1.0, 1.5, 1.95):
        s = make_beam_warming(lam)
        ks = np.arange(-s.r, 1)
        assert abs(float(np.dot(ks, s.a)) + lam) < 1e-12
        assert abs(float(np.sum(s.a)) - 1.0) < 1e-12


def test_validate_cauchy_window():
    assert validate(make_beam_warming(1.5)).all_pass
    report = validate(make_beam_warming(2.1))
    assert not report.h2_cauchy_stable
    assert report.h2_max_symbol_modulus > 1.0 + 1e-4


def test_validate_cauchy_over_cfl_ranges():
    for lam in np.linspace(0.05, 2.0, 40):
        report = validate(make_beam_warming(lam))
        assert report.h2_max_symbol_modulus <= 1.0 + 1e-10, lam
    for lam in np.linspace(2.01, 2.5, 10):
        report = validate(make_beam_warming(lam))
        assert report.h2_max_symbol_modulus > 1.0 + 1e-4, lam


def test_validate_flags_inconsistent_coefficients():
    s = Scheme.from_coefficients([0.5, 0.5], lam=1.0)
    report = validate(s)
    assert not report.h3_consistent
    assert abs(report.h3_residual_order1 - 0.5) < 1e-14
    assert abs(report.h3_residual_sum) < 1e-14


def test_validate_rejects_tiny_sampling():
    with pytest.raises(ValueError):
        validate(make_beam_warming(0.5), n_xi=32)


def symbol_curve(s, n):
    """The symbol at ``n + 1`` uniform frequencies on [0, 2pi]."""
    return symbol(s, np.linspace(0.0, 2.0 * np.pi, n + 1))


def test_sample_symbol_curve_pure_shift():
    points = symbol_curve(make_beam_warming(2.0), 4)
    np.testing.assert_allclose(points, [1, -1, 1, -1, 1], atol=1e-12)
    assert abs(points[-1] - points[0]) < 1e-12


def test_sample_symbol_curve_starts_at_one():
    points = symbol_curve(make_beam_warming(0.7), 64)
    assert abs(points[0] - 1.0) < 1e-14


def test_symbol_curve_inside_disk_tangent_at_one():
    points = symbol_curve(make_beam_warming(1.8), 100)
    assert np.max(np.abs(points)) <= 1.0 + 1e-10
    assert abs(points[0] - 1.0) < 1e-14


def test_curve_samples_validation():
    with pytest.raises(ValueError):
        CurveSamples(params=np.array([0.0, 0.0, 1.0]), points=np.zeros(3, complex), closed=False)
    with pytest.raises(ValueError):
        CurveSamples(
            params=np.array([0.0, 1.0]), points=np.array([0.0 + 0j, 1.0 + 0j]), closed=True
        )


def test_scheme_descriptor_roundtrip():
    s = scheme_from_descriptor({"preset": "beam-warming", "lambda": 1.4})
    np.testing.assert_allclose(s.a, make_beam_warming(1.4).a)
    s2 = scheme_from_descriptor({"coefficients": [-0.125, 0.75, 0.375], "lambda": 0.5})
    np.testing.assert_allclose(s2.a, [-0.125, 0.75, 0.375])
    with pytest.raises(ValueError):
        scheme_from_descriptor({"preset": "unknown", "lambda": 1.0})
    with pytest.raises(ValueError):
        scheme_from_descriptor({"preset": "beam-warming"})


def test_scheme_construction_guards():
    with pytest.raises(ValueError):
        Scheme.from_coefficients([], lam=1.0)
    with pytest.raises(ValueError):
        Scheme.from_coefficients([0.0, 0.0], lam=1.0)
    with pytest.raises(ValueError):
        Scheme.from_coefficients([1.0], lam=-0.5)
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="scheme coefficients must be finite"):
            Scheme.from_coefficients([0.5, bad], lam=0.5)
    # trimming Beam-Warming below CFL 5e-13 leaves a_0 alone; at 1e-12 a_-1 survives
    with pytest.raises(ValueError, match="at CFL 1e-13 the trimmed stencil"):
        make_beam_warming(1e-13)
    assert make_beam_warming(1e-12).r == 1
    for lam in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="CFL number must be finite"):
            Scheme.from_coefficients([0.5, 0.5], lam=lam)
        with pytest.raises(ValueError, match="CFL number must be finite"):
            make_beam_warming(lam)


def test_cached_symbol_basis_is_bit_identical_to_symbol(lagrange_upwind):
    rng = np.random.default_rng(11)
    eps = np.finfo(float).eps
    for r in range(1, 6):
        lam = float(rng.uniform(0.1, 0.9))
        s = Scheme.from_coefficients(lagrange_upwind(r, lam), lam)
        for n in (64, 4096):
            xi = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
            direct = symbol(s, xi)
            cached_xi, basis = symbol_basis(n, r)
            assert np.array_equal(cached_xi, xi)
            assert np.array_equal(_symbol_from_basis(basis, s.a), direct)
            # the matrix product may sum in another order
            assert np.max(np.abs(direct - s.a @ basis)) <= 4 * eps * np.max(np.abs(direct))
            report = validate(s, n_xi=n)
            assert report.h2_max_symbol_modulus == float(np.max(np.abs(direct)))


def test_cached_symbol_basis_is_read_only():
    xi, basis = symbol_basis(64, 2)
    assert symbol_basis(64, 2)[1] is basis
    with pytest.raises(ValueError):
        basis[0, 0] = 0.0
    with pytest.raises(ValueError):
        xi[0] = 1.0
