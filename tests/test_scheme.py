import numpy as np
import pytest

from klstab.scheme import Scheme, _symbol_basis, make_beam_warming, validate
from oracles import stencil_by_numpy, symbol


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
    xi = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)  # the frequencies validate samples
    for r in range(1, 6):
        lam = float(rng.uniform(0.1, 0.9))
        s = Scheme.from_coefficients(lagrange_upwind(r, lam), lam)
        direct = symbol(s, xi)
        basis = _symbol_basis(r)
        assert np.array_equal(basis, np.exp(1j * np.multiply.outer(np.arange(-r, 1), xi)))
        # the matrix product may sum in another order
        assert np.max(np.abs(direct - s.a @ basis)) <= 4 * eps * np.max(np.abs(direct))
        assert validate(s).h2_max_symbol_modulus == float(np.max(np.abs(direct)))


def test_cached_symbol_basis_is_read_only():
    basis = _symbol_basis(2)
    assert _symbol_basis(2) is basis
    with pytest.raises(ValueError):
        basis[0, 0] = 0.0


def test_stencil_matches_numpy_construction_bit_for_bit(lagrange_upwind):
    # Beam-Warming on a CFL grid with 1 and 1 +- 1e-13, where a_{-2} falls below the trim threshold, and
    # Lagrange stencils r = 1..4; the stencil is the numpy construction's, bit for bit
    lams = [float(lam) for lam in np.linspace(0.01, 2.0, 200)] + [1.0, 1.0 - 1e-13, 1.0 + 1e-13, 1e-12]
    for lam in lams:
        coefficients = [lam * (lam - 1.0) / 2.0, lam * (2.0 - lam), (lam - 1.0) * (lam - 2.0) / 2.0]
        expected = stencil_by_numpy(coefficients, lam)
        assert make_beam_warming(lam).a.tobytes() == expected.tobytes(), lam
        assert Scheme.from_coefficients(np.array(coefficients), lam).a.tobytes() == expected.tobytes(), lam
    assert [make_beam_warming(lam).r for lam in lams[-4:-1]] == [1, 1, 1]
    rng = np.random.default_rng(31)
    for r in range(1, 5):
        for lam in rng.uniform(0.05, r, 25):
            coefficients = lagrange_upwind(r, float(lam))
            assert Scheme.from_coefficients(coefficients, lam).a.tobytes() == \
                stencil_by_numpy(coefficients, lam).tobytes()


@pytest.mark.parametrize("coefficients, lam", [
    ([np.nan, 0.5], 0.5), ([0.5, -np.inf], 0.5), ([0.0, 0.0, 0.0], 0.5), ([], 0.5), ([1e-13, 1.0], 1e-13),
])
def test_stencil_errors_match_numpy_construction(coefficients, lam):
    with pytest.raises(ValueError) as expected:
        stencil_by_numpy(coefficients, lam)
    with pytest.raises(ValueError) as got:
        Scheme.from_coefficients(coefficients, lam)
    assert str(got.value) == str(expected.value)
