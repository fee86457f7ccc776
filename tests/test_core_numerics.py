import numpy as np
import pytest

from klstab.core_numerics import ComplexPolynomial, _cluster, _newton_refine, _union_find, poly_roots
from klstab.errors import DegenerateLeadingCoefficient
from oracles import newton_refine_by_polynomials


def test_eval_constant():
    p = ComplexPolynomial([1.0])
    assert p(5 + 2j) == 1.0


def test_eval_known_root():
    p = ComplexPolynomial([-1.0, 0.0, 1.0])
    assert p(1.0) == 0.0


def test_eval_constant_term():
    p = ComplexPolynomial([-0.125, 0.75, -1.625])
    assert p(0.0) == -0.125


def test_eval_vectorized_matches_scalar():
    p = ComplexPolynomial([1.0, -2.0, 0.5j])
    zs = np.array([0.3 + 1j, -2.0, 5.0j])
    np.testing.assert_allclose(p(zs), [p(z) for z in zs])


def test_arithmetic_sanity():
    # sums and products on coefficient arrays
    p = ComplexPolynomial([1.0, 2.0])
    q = ComplexPolynomial([-1.0, 1.0])
    assert ComplexPolynomial(p.coeffs + q.coeffs).coeffs.tolist() == [0.0, 3.0]
    assert ComplexPolynomial(np.convolve(p.coeffs, q.coeffs)).coeffs.tolist() == [-1.0, -1.0, 2.0]
    assert p.derivative().coeffs.tolist() == [2.0]


def test_roots_factored_quadratic():
    roots = poly_roots(ComplexPolynomial([-1.0, 0.0, 1.0]), cluster_radius=1e-8)
    values = sorted([v for v, _ in roots.roots], key=lambda z: z.real)
    assert [m for _, m in roots.roots] == [1, 1]
    np.testing.assert_allclose(values, [-1.0, 1.0], atol=1e-12)


def test_roots_perfect_square():
    roots = poly_roots(ComplexPolynomial([0.25, -1.0, 1.0]), cluster_radius=1e-8)
    assert len(roots) == 1
    (value, mult), = roots
    assert mult == 2
    assert abs(value - 0.5) < 1e-7


def test_roots_beam_warming_quadratic_against_formula():
    # -1.625 k^2 + 0.75 k - 0.125: quadratic formula gives |k|^2 = c/a = 0.8125/10.5625
    coeffs = [-0.125, 0.75, -1.625]
    a, b, c = -1.625, 0.75, -0.125
    disc = np.sqrt(complex(b * b - 4 * a * c))
    expected = sorted([(-b + disc) / (2 * a), (-b - disc) / (2 * a)], key=lambda z: z.imag)
    roots = poly_roots(coeffs)
    got = sorted([v for v, _ in roots.roots], key=lambda z: z.imag)
    np.testing.assert_allclose(got, expected, atol=1e-12)
    for v in got:
        assert abs(abs(v) ** 2 - 0.8125 / 10.5625) < 1e-12


def test_degenerate_leading_raises_on_raw_coeffs():
    with pytest.raises(DegenerateLeadingCoefficient):
        poly_roots([1.0, 2.0, 1e-15])


def test_degree_below_one_rejected():
    with pytest.raises(ValueError):
        poly_roots(ComplexPolynomial([2.0]))


def test_reexpansion_of_random_polynomials():
    # product of (k - root)^mult re-expanded matches the monic input
    rng = np.random.default_rng(1234)
    for _ in range(60):
        degree = rng.integers(1, 9)
        coeffs = rng.uniform(-1, 1, degree + 1) + 1j * rng.uniform(-1, 1, degree + 1)
        while abs(coeffs[-1]) < 0.1:
            coeffs[-1] = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
        p = ComplexPolynomial(coeffs)
        roots = poly_roots(p)
        assert sum(m for _, m in roots.roots) == p.coeffs.size - 1
        expanded = np.poly([v for v, m in roots for _ in range(m)])[::-1]
        monic = p.coeffs / p.coeffs[-1]
        err = np.max(np.abs(expanded - monic))
        scale = np.max(np.abs(monic))
        assert err <= 1e-8 * scale


def test_eval_at_reported_simple_roots():
    rng = np.random.default_rng(99)
    for _ in range(60):
        degree = rng.integers(1, 9)
        coeffs = rng.uniform(-1, 1, degree + 1) + 1j * rng.uniform(-1, 1, degree + 1)
        while abs(coeffs[-1]) < 0.1:
            coeffs[-1] = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
        p = ComplexPolynomial(coeffs)
        bound = 1e-7 * (1.0 + float(np.max(np.abs(p.coeffs))))
        for value, mult in poly_roots(p):
            if mult == 1:
                assert abs(p(value)) <= bound


def test_root_set_invariant_under_scaling():
    rng = np.random.default_rng(7)
    for _ in range(20):
        degree = rng.integers(1, 7)
        coeffs = rng.uniform(-1, 1, degree + 1) + 1j * rng.uniform(-1, 1, degree + 1)
        while abs(coeffs[-1]) < 0.1:
            coeffs[-1] = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
        scalar = rng.uniform(0.2, 5.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        base = poly_roots(ComplexPolynomial(coeffs))
        scaled = poly_roots(ComplexPolynomial(coeffs * scalar))
        assert [m for _, m in base.roots] == [m for _, m in scaled.roots]
        np.testing.assert_allclose(
            sorted([v for v, _ in base.roots], key=lambda z: (z.real, z.imag)),
            sorted([v for v, _ in scaled.roots], key=lambda z: (z.real, z.imag)),
            atol=1e-6,
        )


def test_cluster_vectorized_rows_match_union_find():
    # the vectorized path of each row against the union-find it replaces, mean and order included
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(40, 5)) + 1j * rng.normal(size=(40, 5))
    rows[::4, 1] = rows[::4, 0] + 5e-8  # a pair inside the radius
    rows.imag[1::4, 2] = -0.0  # a real value with the imaginary part -0.0
    rows[2::4, 3] = 0.0 + 1j * rows[2::4, 3].imag  # a zero real part
    real = rng.normal(size=(10, 4))
    real[::3, 0] = -0.0
    for values in (rows, real, np.sort(real, axis=1)):
        # repr tells the signs of zeros apart
        assert repr(_cluster(values, 1e-7)) == repr([_union_find(row, 1e-7) for row in values])


def test_newton_refine_matches_polynomial_objects_bit_for_bit(lagrange_upwind):
    # the characteristic polynomials (a_{-r}, ..., a_{-1}, a_0 - z) of Lagrange stencils r = 1..4 at points on
    # and off the unit circle; the refined roots are those of Horner through polynomial objects, bit for bit
    rng = np.random.default_rng(41)
    compared = 0
    for r in range(1, 5):
        for lam in rng.uniform(0.05, r, 10):
            for z in np.concatenate((np.exp(2j * np.pi * rng.uniform(size=6)), [1.0, -1.0, 1.5j, 0.3 - 0.2j])):
                coeffs = np.array(lagrange_upwind(r, float(lam)), dtype=complex)
                coeffs[-1] -= z
                raw = np.roots(coeffs[::-1])
                assert _newton_refine(coeffs, raw).tobytes() == newton_refine_by_polynomials(coeffs, raw).tobytes()
                compared += 1
    assert compared == 400
