import itertools

import numpy as np
import pytest

from klstab.boundary import assemble_B, custom_condition, silw_condition
from klstab.config import DEFAULT_TOLS
from klstab.errors import DegenerateLeadingCoefficient, RootAtZero
from klstab.kl import (
    ExteriorRootCount,
    ReducedBoundary,
    _cluster,
    _newton_refine,
    _roots,
    _union_find,
    exterior_counts,
    exterior_zero_count_direct,
    k_matrix,
    kl_det_stack,
    parity,
    reduce_boundary,
    reduce_stack,
    stable_roots,
    upwind_blocks,
)
from klstab.scheme import Scheme, make_beam_warming, validate
from oracles import (exterior_counts_by_cluster, kl_det_direct, kl_det_explicit, kl_det_stack_by_power,
                     newton_refine_by_polynomials, poly_at, symbol, upwind_block, upwind_blocks_by_loop)

S2ILW3 = lambda: silw_condition(2, 2, 3, 0.0)
PRESETS = [(1, 2), (2, 3), (1, 3), (1, 4), (2, 4), (3, 4)]


def random_exterior_z(rng, lo=1.0, hi=3.0):
    return rng.uniform(lo, hi) * np.exp(1j * rng.uniform(0, 2 * np.pi))


def raw_det(s, bc, z):
    """Determinant of the boundary operator on the modal basis, unnormalized."""
    K = k_matrix(stable_roots(s, z), -s.r, bc.m - 1)
    return np.linalg.det(assemble_B(bc) @ K)


def c_matrix_at(entries, z):
    """C(z) from the coefficient arrays of :func:`entrywise_reduction`."""
    return np.array([[poly_at(entry, z) for entry in row] for row in entries])


def test_stable_roots_beam_warming():
    # at z = 2 the characteristic polynomial of Beam-Warming at CFL 0.5 is
    # -0.125 + 0.75 kappa - 1.625 kappa^2
    roots = stable_roots(make_beam_warming(0.5), 2.0)
    assert sum(m for _, m in roots) == 2
    for kappa, _ in roots:
        assert abs(-0.125 + 0.75 * kappa - 1.625 * kappa**2) < 1e-14
    product = np.prod([kappa**mult for kappa, mult in roots])
    assert abs(product - 0.125 / 1.625) < 1e-14


def test_stable_roots_symbol_curve_points(lagrange_upwind):
    # z on the symbol curve makes e^{i xi} a characteristic root; the
    # boundary-zero classification reads "on the curve" from this identity
    rng = np.random.default_rng(2)
    schemes = [make_beam_warming(lam) for lam in (0.4, 1.3, 1.9)]
    for r in range(1, 5):
        for lam in rng.uniform(0.05, r, 3):
            schemes.append(Scheme(lagrange_upwind(r, lam), lam))
    for s in schemes:
        for xi in rng.uniform(0, 2 * np.pi, 5):
            z = symbol(s, float(xi))
            gaps = [abs(kappa - np.exp(1j * xi)) for kappa, _ in stable_roots(s, z)]
            assert min(gaps) < 1e-12, (s.a, xi)


def test_stable_roots_unit_cfl():
    # the stencil trims to (1, 0), whose characteristic polynomial at z = 2 is 1 - 2 kappa
    s = make_beam_warming(1.0)
    np.testing.assert_allclose(s.a, [1.0, 0.0])
    roots = stable_roots(s, 2.0)
    assert len(roots) == 1
    assert abs([v for v, _ in roots][0] - 0.5) < 1e-12


def test_stable_roots_moduli():
    roots = stable_roots(make_beam_warming(0.5), 2.0)
    for v, m in roots:
        assert m == 1
        assert abs(abs(v) ** 2 - 0.8125 / 10.5625) < 1e-12


def test_stable_roots_unit_root_at_z_one():
    for lam in (0.3, 0.7, 1.5, 1.9):
        roots = stable_roots(make_beam_warming(lam), 1.0)
        assert min(abs(v - 1.0) for v in [v for v, _ in roots]) < 1e-9


def test_stable_roots_degenerate_leading():
    s = make_beam_warming(0.5)
    with pytest.raises(DegenerateLeadingCoefficient):
        stable_roots(s, s.a_zero)


def test_stable_roots_double_root_at_discriminant_zero():
    s = make_beam_warming(0.5)
    zstar = s.a_zero - s.a[1] ** 2 / (4 * s.a_lead)
    assert abs(zstar - 1.5) < 1e-14
    roots = stable_roots(s, zstar)
    assert len(roots) == 1
    (value, mult), = roots
    assert mult == 2
    assert abs(value - 1.0 / 3.0) < 1e-6


def test_k_matrix_distinct_roots_display():
    k1, k2 = 0.3 + 0.1j, -0.2 + 0.4j
    roots = ((k1, 1), (k2, 1))
    K = k_matrix(roots, -2, 2)
    expected = np.array(
        [
            [k1**-2, k2**-2],
            [k1**-1, k2**-1],
            [1, 1],
            [k1, k2],
            [k1**2, k2**2],
        ]
    )
    np.testing.assert_allclose(K, expected)


def test_k_matrix_double_root_display():
    k = 0.3 + 0.2j
    K = k_matrix(((k, 2),), 0, 3)
    expected = np.array([[1, 0], [k, k], [k**2, 2 * k**2], [k**3, 3 * k**3]])
    np.testing.assert_allclose(K, expected)


def test_k_matrix_single_root_geometric_column():
    K = k_matrix(((0.5 + 0j, 1),), 0, 1)
    np.testing.assert_allclose(K, [[1.0], [0.5]])


def test_k_matrix_root_at_zero():
    with pytest.raises(RootAtZero):
        k_matrix(((0.0 + 0j, 1),), -1, 1)
    # nonnegative lines are fine
    K = k_matrix(((0.0 + 0j, 2),), 0, 2)
    np.testing.assert_allclose(K, [[1, 0], [0, 0], [0, 0]])


def test_raw_determinant_matches_worked_two_by_two():
    # distinct-root 2x2 form: rows k^-2 - 2 + 4k - 2k^2 and k^-1 - 1/2 + k - k^2/2
    rng = np.random.default_rng(8)
    for _ in range(10):
        lam = rng.uniform(0.1, 1.9)
        if abs(lam - 1.0) < 0.05:
            continue
        s = make_beam_warming(lam)
        z = random_exterior_z(rng, 1.1, 3.0)
        roots = stable_roots(s, z)
        if len(roots) != 2:
            continue
        k1, k2 = [v for v, _ in roots]
        manual = np.array(
            [
                [k1**-2 - 2 + 4 * k1 - 2 * k1**2, k2**-2 - 2 + 4 * k2 - 2 * k2**2],
                [k1**-1 - 0.5 + k1 - 0.5 * k1**2, k2**-1 - 0.5 + k2 - 0.5 * k2**2],
            ]
        )
        got = raw_det(s, S2ILW3(), z)
        ref = np.linalg.det(manual)
        assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref))


def test_raw_determinant_double_root_column():
    # multiplicity-2 column applies the weighted rows to the modal derivatives
    k = 0.37 - 0.21j
    roots = ((k, 2),)
    K = k_matrix(roots, -2, 2)
    B = assemble_B(S2ILW3())
    M = B @ K
    expected_second_col = np.array(
        [-2 * k**-2 + 4 * k - 4 * k**2, -(k**-1) + k - k**2]
    )
    np.testing.assert_allclose(M[:, 1], expected_second_col, atol=1e-14)


def test_zero_extrapolation_uses_ghost_lines_only():
    # with b = 0 and m = r the raw determinant is det of lines -r..-1
    rng = np.random.default_rng(21)
    s = make_beam_warming(0.8)
    bc = custom_condition(np.zeros((2, 2)))
    for _ in range(5):
        z = random_exterior_z(rng)
        roots = stable_roots(s, z)
        K_ghost = k_matrix(roots, -2, -1)
        assert abs(raw_det(s, bc, z) - np.linalg.det(K_ghost)) < 1e-9
        K_norm = k_matrix(roots, 0, 1)
        expected = np.linalg.det(K_ghost) / np.linalg.det(K_norm)
        assert abs(kl_det_direct(s, bc, z) - expected) < 1e-9


def test_reduction_matches_displayed_c_matrix():
    # entries of C(z) in terms of alpha = -a_{-1}/a_{-2}, beta = (z - a_0)/a_{-2}
    rng = np.random.default_rng(17)
    for _ in range(25):
        lam = rng.uniform(0.05, 1.95)
        if abs(lam - 1.0) < 0.02:
            continue
        s = make_beam_warming(lam)
        z = random_exterior_z(rng)
        alpha = -s.a[1] / s.a[0]
        beta = (z - s.a_zero) / s.a[0]
        expected = np.array(
            [
                [4 + alpha * beta + alpha * (-2 + beta + alpha**2), -2 + beta * (-2 + beta + alpha**2)],
                [1 + beta + alpha * (-0.5 + alpha), -0.5 + beta * (-0.5 + alpha)],
            ]
        )
        got = c_matrix_at(entrywise_reduction(s, S2ILW3()), z)
        np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-10)


def entrywise_reduction(s, bc, trim_rel=1e-12):
    """C(z) by the elimination written out entry by entry, as nested lists of trimmed arrays."""

    def trim(c):
        # drop leading-power coefficients negligible against the largest one
        mag = np.abs(c)
        kept = np.flatnonzero(mag > trim_rel * mag.max(initial=0.0))
        return c[: kept[-1] + 1 if kept.size else 0]

    def minus(a, b):
        out = np.zeros(max(a.size, b.size), dtype=complex)
        out[: a.size] += a
        out[: b.size] -= b
        return trim(out)

    r, m = s.r, bc.m
    row = [np.array([s.a[t] / s.a_lead]) for t in range(1, r)]
    row.append(np.array([s.a_zero / s.a_lead, -1.0 / s.a_lead]))
    B = assemble_B(bc)
    work = [[trim(np.array([B[i, c]], dtype=complex)) for c in range(r + m)] for i in range(r)]
    for j in range(m):
        for i in range(r):
            pivot = work[i][j]
            for t in range(1, r + 1):
                if pivot.size:
                    work[i][j + t] = minus(work[i][j + t], trim(np.convolve(pivot, row[t - 1])))
    return [[work[i][m + t] for t in range(r)] for i in range(r)]


def test_reduction_matches_entrywise_elimination():
    # det C from the update block against the determinant of the elimination
    # written out entry by entry. Next to CFL 1 (a_{-r} ~ 5e-4) the elimination
    # itself cancels, by up to 1.4e-5 relative, while det C stays within 1e-14
    # of the defining formula there.
    rng = np.random.default_rng(43)
    for kd, d in PRESETS:
        for lam in (0.05, 0.45, 0.999, 1.001, 1.37, 1.9):
            s = make_beam_warming(lam)
            near_unit = abs(lam - 1.0) < 0.01
            for sigma in (-0.5, 0.0, 0.3):
                bc = silw_condition(s.r, kd, d, sigma)
                rb = reduce_boundary(s, bc)
                entries = entrywise_reduction(s, bc)
                for _ in range(3):
                    z = random_exterior_z(rng)
                    got = poly_at(rb.det_c, z)
                    want = np.linalg.det(c_matrix_at(entries, z))
                    assert abs(got - want) <= (1e-4 if near_unit else 1e-12) * abs(got), (kd, d, lam, sigma, z)
                    if near_unit:
                        prefactor = parity(rb.r, rb.m) * (s.a_lead / (s.a_zero - z)) ** (rb.m - rb.r)
                        defining = kl_det_direct(s, bc, z) / prefactor
                        assert abs(got - defining) <= 1e-12 * abs(defining), (kd, d, lam, sigma, z)


def test_reduction_det_matches_corrected_alpha_beta_expansion():
    # det of the displayed C(z): the +2 alpha^2 sign follows from expanding it
    rng = np.random.default_rng(23)
    for _ in range(100):
        lam = rng.uniform(0.05, 1.95)
        if abs(lam - 1.0) < 0.02:
            continue
        s = make_beam_warming(lam)
        rb = reduce_boundary(s, S2ILW3())
        z = random_exterior_z(rng)
        alpha = -s.a[1] / s.a[0]
        beta = (z - s.a_zero) / s.a[0]
        expected = (
            -(beta**3)
            + beta**2
            + 2 * beta
            - alpha * beta**2 / 2
            + 3 * alpha * beta
            - alpha**2 * beta
            + 2 * alpha**2
            - alpha**3 / 2
        )
        got = poly_at(rb.det_c, z)
        assert abs(got - expected) <= 1e-10 * abs(expected)


def test_reduction_unit_cfl_polynomial():
    # unique reduction for the trimmed shift scheme: det C = (z - 1/2)(z^2 + 1)
    s = make_beam_warming(1.0)
    bc = S2ILW3().restricted_to(1)
    rb = reduce_boundary(s, bc)
    np.testing.assert_allclose(rb.det_c, [-0.5, 1.0, -0.5, 1.0], atol=1e-12)
    # cross-check against the defining formula at a point
    assert abs(kl_det_direct(s, bc, 2.0) - kl_det_explicit(rb, s, 2.0)) < 1e-12
    assert abs(kl_det_direct(s, bc, 1.0) - 1.0) < 1e-12


def test_reduction_single_column_case():
    # b = 0, m = 1, r = 2: one elimination step by hand
    rng = np.random.default_rng(31)
    s = make_beam_warming(0.6)
    bc = custom_condition(np.zeros((2, 1)))
    rb = reduce_boundary(s, bc)
    entries = entrywise_reduction(s, bc)
    assert rb.m == 1 and rb.det_c.size == 2
    for _ in range(5):
        z = random_exterior_z(rng)
        expected_c = np.array(
            [[-s.a[1] / s.a[0], -(s.a_zero - z) / s.a[0]], [1.0, 0.0]]
        )
        got = c_matrix_at(entries, z)
        np.testing.assert_allclose(got, expected_c, atol=1e-12)
        assert abs(poly_at(rb.det_c, z) - (s.a_zero - z) / s.a[0]) < 1e-12


def test_reduction_requires_matching_rows_and_contractive_a0():
    s = make_beam_warming(1.0)
    with pytest.raises(ValueError):
        reduce_boundary(s, S2ILW3())
    bad = make_beam_warming(2.0)  # a_0 = 0 is fine; force violation via raw coefficients
    from klstab.scheme import Scheme

    shaky = Scheme([0.5, -0.7, 1.2], lam=0.2)
    with pytest.raises(ValueError):
        reduce_boundary(shaky, custom_condition(np.zeros((2, 2))))


def test_explicit_equals_det_c_when_m_equals_r():
    rng = np.random.default_rng(37)
    s = make_beam_warming(0.9)
    bc = silw_condition(2, 1, 2, 0.0)
    rb = reduce_boundary(s, bc)
    assert rb.m == rb.r == 2 and parity(rb.r, rb.m) == 1
    for _ in range(5):
        z = random_exterior_z(rng)
        assert abs(kl_det_explicit(rb, s, z) - poly_at(rb.det_c, z)) < 1e-12


def test_explicit_prefactor_beam_warming():
    # m = 3, r = 2: Delta = (-1/beta) det C
    rng = np.random.default_rng(41)
    s = make_beam_warming(1.3)
    rb = reduce_boundary(s, S2ILW3())
    for _ in range(5):
        z = random_exterior_z(rng)
        beta = (z - s.a_zero) / s.a[0]
        expected = -poly_at(rb.det_c, z) / beta
        assert abs(kl_det_explicit(rb, s, z) - expected) < 1e-10 * abs(expected)


def test_cross_oracle_single_point():
    s = make_beam_warming(0.7)
    bc = S2ILW3()
    rb = reduce_boundary(s, bc)
    z = 1.3 + 0.4j
    d1 = kl_det_direct(s, bc, z)
    d2 = kl_det_explicit(rb, s, z)
    assert abs(d1 - d2) <= 1e-8 * abs(d2)


def test_oracle_equivalence_random():
    rng = np.random.default_rng(97)
    checked = 0
    while checked < 100:
        lam = rng.uniform(0.01, 1.99)
        if abs(lam - 1.0) < 1e-6:
            continue
        s = make_beam_warming(lam)
        bc = S2ILW3()
        rb = reduce_boundary(s, bc)
        z = random_exterior_z(rng, 1.0, 3.0)
        roots = stable_roots(s, z)
        values = [v for v, _ in roots]
        if len(values) > 1 and np.min(np.abs(np.subtract.outer(values, values))[~np.eye(len(values), dtype=bool)]) < 1e-6:
            continue
        d1 = kl_det_direct(s, bc, z)
        d2 = kl_det_explicit(rb, s, z)
        assert abs(d1 - d2) <= 1e-7 * max(abs(d2), 1e-30), (lam, z)
        checked += 1


def test_reduction_matches_direct_on_random_upwind_pairs(lagrange_upwind):
    # Cauchy-stable Lagrange upwind stencils of widths 1..5 with random custom
    # b, m = r..r+3; every pair must reduce, and det C from the update block
    # meets the defining formula within 1e-12 relative at every width (9.9e-14
    # at worst on the draws of seeds 4111, 7 and 99).
    rng = np.random.default_rng(4111)
    compared = 0
    for r in range(1, 6):
        pairs = 0
        while pairs < 10:
            lam = float(rng.uniform(0.05, r))
            s = Scheme(lagrange_upwind(r, lam), lam)
            if s.r != r or not validate(s).all_pass:
                continue
            m = int(rng.integers(r, r + 4))
            bc = custom_condition(rng.uniform(-1, 1, (r, m)))
            rb = reduce_boundary(s, bc)
            assert rb.det_c.size == m + 1
            pairs += 1
            checked = 0
            while checked < 5:
                z = random_exterior_z(rng, 1.1, 3.0)
                values = [v for v, _ in stable_roots(s, z)]
                if len(values) > 1 and np.min(np.abs(np.subtract.outer(values, values))[~np.eye(len(values), dtype=bool)]) < 1e-3:
                    continue
                direct = kl_det_direct(s, bc, z)
                explicit = kl_det_explicit(rb, s, z)
                assert abs(direct - explicit) <= 1e-12 * abs(direct), (r, m, lam, z)
                checked += 1
                compared += 1
    assert compared == 250


def test_reduction_degree_mismatch_next_to_unit_cfl():
    # a_{-r} -> 0 next to CFL 1 once made the elimination lose the leading
    # coefficient of det C; the block keeps degree 3, and the direct count is
    # the block's exterior eigenvalue count
    for lam in (1.0 - 1e-7, 1.0 + 1e-7):
        s = make_beam_warming(lam)
        assert s.r == 2
        rb = reduce_boundary(s, S2ILW3())
        assert rb.det_c.size == 4
        eigenvalues = np.linalg.eigvals(upwind_block(s, S2ILW3()))
        exterior = int(np.sum(np.abs(eigenvalues) > 1.0 + DEFAULT_TOLS.unit_circle_tol))
        assert exterior_zero_count_direct(rb).count == exterior


def test_quotient_identity():
    # det K_{l, l+r-1} / det K_{0, r-1} = (-1)^(l r) (a_{-r}/(a_0 - z))^l
    rng = np.random.default_rng(53)
    for lam in (0.5, 1.3, 1.9):
        s = make_beam_warming(lam)
        for _ in range(50):
            z = random_exterior_z(rng, 1.0, 3.0)
            roots = stable_roots(s, z)
            denom = np.linalg.det(k_matrix(roots, 0, s.r - 1))
            for ell in (1, 2, 3):
                numer = np.linalg.det(k_matrix(roots, ell, ell + s.r - 1))
                expected = (-1.0) ** (ell * s.r) * (s.a_lead / (s.a_zero - z)) ** ell
                assert abs(numer / denom - expected) <= 1e-9 * max(1.0, abs(expected))


def test_hersh_root_separation():
    # for |z| > 1 every characteristic root of a Cauchy-stable scheme lies
    # strictly inside the unit disk
    rng = np.random.default_rng(59)
    for lam in (0.5, 1.0, 1.5, 2.0):
        s = make_beam_warming(lam)
        for _ in range(100):
            z = random_exterior_z(rng, 1.05 + 1e-9, 3.0)
            roots = stable_roots(s, z)
            assert all(abs(v) < 1.0 for v in [v for v, _ in roots]), (lam, z)


def test_hersh_violation_alarm():
    # a Cauchy-unstable stencil breaks root separation: a_{-1} = 1.8, a_0 = 0.5
    # has the root 1.8 / (z - 0.5) = 1.2 at z = 2
    s = Scheme([1.8, 0.5], lam=0.3)
    assert not validate(s).h2_cauchy_stable
    roots = stable_roots(s, 2.0)
    assert [v for v in [v for v, _ in roots] if abs(v) >= 1.0] == [pytest.approx(1.2 + 0j, abs=1e-12)]
    # no separation on the circle itself: z = 1 gives a Cauchy-stable scheme a unit root
    assert min(abs(abs(v) - 1.0) for v in [v for v, _ in stable_roots(make_beam_warming(0.5), 1.0)]) < 1e-9


def test_vieta_product():
    rng = np.random.default_rng(61)
    for lam in (0.3, 0.9, 1.7):
        s = make_beam_warming(lam)
        for _ in range(30):
            z = random_exterior_z(rng)
            roots = stable_roots(s, z)
            product = np.prod([v**m for v, m in roots])
            expected = (-1.0) ** s.r * s.a_lead / (s.a_zero - z)
            assert abs(product - expected) <= 1e-9 * max(1.0, abs(expected))


def test_degree_law_all_presets():
    for kd, d in PRESETS:
        for lam in (0.2, 0.8, 1.2, 1.8):
            s = make_beam_warming(lam)
            bc = silw_condition(s.r, kd, d, 0.0)
            rb = reduce_boundary(s, bc)
            assert rb.det_c.size - 1 == d == rb.m


def test_zero_set_invariant_under_rescaling():
    # multiplying the determinant by a_{-r}^2 must not move its zeros
    s = make_beam_warming(1.4)
    rb = reduce_boundary(s, S2ILW3())
    base = _roots(rb.det_c, DEFAULT_TOLS.cluster_radius)
    scaled = _roots(rb.det_c * s.a_lead**2, DEFAULT_TOLS.cluster_radius)
    key = lambda v: (round(v.real, 8), round(v.imag, 8))
    np.testing.assert_allclose(
        sorted([v for v, _ in base], key=key), sorted([v for v, _ in scaled], key=key), atol=1e-8
    )
    assert [m for _, m in base] == [m for _, m in scaled]


def test_exterior_count_examples():
    s = make_beam_warming(0.7)
    assert exterior_zero_count_direct(reduce_boundary(s, S2ILW3())).count == 0
    s = make_beam_warming(1.4)
    assert exterior_zero_count_direct(reduce_boundary(s, S2ILW3())).count >= 1


def test_exterior_count_all_roots_at_origin():
    rb = ReducedBoundary(
        r=2,
        m=3,
        block=np.zeros((3, 3)),
        det_c=np.array([0.0, 0.0, 0.0, 1.0], dtype=complex),
    )
    result = exterior_zero_count_direct(rb)
    assert result.count == 0
    assert not result.boundary_band


def test_det_stack_matches_the_power_of_every_exponent_bit_for_bit():
    # exponent 1 skips the power; the values are those of numpy's complex power, signs of zeros included
    rng = np.random.default_rng(5)
    z = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 257))
    z[::16] = np.round(z[::16])  # exact points 1, i, -1, -i
    for _ in range(200):
        r, excess, pairs = int(rng.integers(1, 4)), int(rng.integers(-1, 4)), int(rng.integers(1, 6))
        m = max(r + excess, 1)
        coeffs = rng.normal(size=(pairs, m + 1)) + 1j * rng.normal(size=(pairs, m + 1)) * rng.integers(0, 2)
        lead, zero = rng.normal(size=pairs), rng.uniform(-1.0, 1.0, size=pairs)
        for points in (z, np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(pairs, 1)))):
            got = kl_det_stack(coeffs, lead, zero, r, points)
            assert got.tobytes() == kl_det_stack_by_power(coeffs, lead, zero, r, points).tobytes()
    for kd, d in PRESETS:
        schemes = [make_beam_warming(lam) for lam in np.linspace(0.05, 1.95, 39) if abs(lam - 1.0) > 1e-6]
        a = np.array([s.a for s in schemes])
        _, det_c = reduce_stack(a, np.array([silw_condition(2, kd, d, 0.0).b] * len(schemes)))
        got = kl_det_stack(det_c, a[:, 0], a[:, -1], 2, z)
        assert got.tobytes() == kl_det_stack_by_power(det_c, a[:, 0], a[:, -1], 2, z).tobytes()


def test_upwind_blocks_match_the_loop_bit_for_bit():
    # the scatter plan adds each term where and when the loop does: 1 and 7 pairs, widths r = 1..5 with r and
    # r + 2 ghost rows and m of 1 (below r from r = 2), r and r + 4 columns, entries of either sign, of magnitudes
    # 1e-4 to 1e4, and signed zeros; about 0.03 s
    rng = np.random.default_rng(26)
    for n, r in itertools.product((1, 7), range(1, 6)):
        for ghosts, m in itertools.product((r, r + 2), (1, r, r + 4)):
            a = rng.standard_normal((n, r + 1)) * 10.0 ** rng.integers(-4, 5, (n, r + 1))
            b = rng.standard_normal((n, ghosts, m)) * 10.0 ** rng.integers(-4, 5, (n, ghosts, m))
            for array in (a, b):
                array[rng.random(array.shape) < 0.15] = 0.0
                array[rng.random(array.shape) < 0.15] = -0.0
            got, expected = upwind_blocks(a, b), upwind_blocks_by_loop(a, b)
            assert got.shape == (n, m, m)
            np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


# The root finding and clustering of kl (_roots, _newton_refine, _cluster) and oracles.poly_at


def roots_of(coeffs, cluster_radius=DEFAULT_TOLS.cluster_radius):
    """``kl._roots`` of the ascending coefficients ``coeffs``, taken as complex."""
    return _roots(np.asarray(coeffs, dtype=complex), cluster_radius)


def test_eval_constant():
    assert poly_at([1.0], 5 + 2j) == 1.0


def test_eval_known_root():
    assert poly_at([-1.0, 0.0, 1.0], 1.0) == 0.0


def test_eval_constant_term():
    assert poly_at([-0.125, 0.75, -1.625], 0.0) == -0.125


def test_eval_vectorized_matches_scalar():
    p = [1.0, -2.0, 0.5j]
    zs = np.array([0.3 + 1j, -2.0, 5.0j])
    np.testing.assert_allclose(poly_at(p, zs), [poly_at(p, z) for z in zs])


def test_arithmetic_sanity():
    # sums and products on ascending coefficient arrays are sums and products of the polynomials
    p, q = np.array([1.0, 2.0]), np.array([-1.0, 1.0])
    assert (p + q).tolist() == [0.0, 3.0]
    assert np.convolve(p, q).tolist() == [-1.0, -1.0, 2.0]
    for z in (0.5, -2.0 + 1j):
        assert poly_at(np.convolve(p, q), z) == pytest.approx(poly_at(p, z) * poly_at(q, z), abs=1e-14)


def test_roots_factored_quadratic():
    roots = roots_of([-1.0, 0.0, 1.0], cluster_radius=1e-8)
    values = sorted([v for v, _ in roots], key=lambda z: z.real)
    assert [m for _, m in roots] == [1, 1]
    np.testing.assert_allclose(values, [-1.0, 1.0], atol=1e-12)


def test_roots_perfect_square():
    roots = roots_of([0.25, -1.0, 1.0], cluster_radius=1e-8)
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
    roots = roots_of(coeffs)
    got = sorted([v for v, _ in roots], key=lambda z: z.imag)
    np.testing.assert_allclose(got, expected, atol=1e-12)
    for v in got:
        assert abs(abs(v) ** 2 - 0.8125 / 10.5625) < 1e-12


def test_reexpansion_of_random_polynomials():
    # product of (k - root)^mult re-expanded matches the monic input
    rng = np.random.default_rng(1234)
    for _ in range(60):
        degree = rng.integers(1, 9)
        coeffs = rng.uniform(-1, 1, degree + 1) + 1j * rng.uniform(-1, 1, degree + 1)
        while abs(coeffs[-1]) < 0.1:
            coeffs[-1] = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
        roots = roots_of(coeffs)
        assert sum(m for _, m in roots) == coeffs.size - 1
        expanded = np.poly([v for v, m in roots for _ in range(m)])[::-1]
        monic = coeffs / coeffs[-1]
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
        bound = 1e-7 * (1.0 + float(np.max(np.abs(coeffs))))
        for value, mult in roots_of(coeffs):
            if mult == 1:
                assert abs(poly_at(coeffs, value)) <= bound


def test_root_set_invariant_under_scaling():
    rng = np.random.default_rng(7)
    for _ in range(20):
        degree = rng.integers(1, 7)
        coeffs = rng.uniform(-1, 1, degree + 1) + 1j * rng.uniform(-1, 1, degree + 1)
        while abs(coeffs[-1]) < 0.1:
            coeffs[-1] = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
        scalar = rng.uniform(0.2, 5.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        base = roots_of(coeffs)
        scaled = roots_of(coeffs * scalar)
        assert [m for _, m in base] == [m for _, m in scaled]
        np.testing.assert_allclose(
            sorted([v for v, _ in base], key=lambda z: (z.real, z.imag)),
            sorted([v for v, _ in scaled], key=lambda z: (z.real, z.imag)),
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
    # a real triple cluster is merged as real numbers in a complex row too: numpy's complex mean of these three
    # values differs from the real one in the last bit
    triple = np.array([1.1, 1.1 + 1e-8, 1.1 + 2e-8])
    assert np.mean(triple.astype(complex)) != np.mean(triple)
    assert repr(_cluster(triple.astype(complex)[None], 1e-7)) == repr(_cluster(triple[None], 1e-7))
    # so a block of that spectrum counts the same in a stack with complex spectra as alone
    rotation = np.array([[0.5, -1.2, 0.0], [1.2, 0.5, 0.0], [0.0, 0.0, 0.3]])
    blocks = np.array([rotation, np.diag(triple), 0.5 * rotation])
    assert np.linalg.eigvals(blocks[1:2]).dtype == float and np.linalg.eigvals(blocks).dtype == complex
    counts = exterior_counts(blocks)
    assert counts[1].exterior == ((complex(np.mean(triple)), 3),)
    assert repr(counts) == repr([exterior_counts(block[None])[0] for block in blocks])


def test_exterior_counts_match_clustering_every_eigenvalue(monkeypatch):
    # a row with no eigenvalue near the band gets the empty count unclustered, and a row of singletons yields only
    # the values that reach the band; each count must still be the one of clustering and splitting every
    # eigenvalue, in a stack of 64 rows and alone, for triangular blocks whose diagonals are the spectra
    tol, radius = DEFAULT_TOLS.unit_circle_tol, DEFAULT_TOLS.cluster_radius
    threshold = (1.0 - tol) * (1.0 - 1e-9)
    rng = np.random.default_rng(38)

    def spectrum(m, family):
        """``m`` values, interior but for the first one or two, which by the row's kind are none, a band value, an
        exterior and a band value, a value within an ulp of the threshold, or a pair inside the cluster radius
        across the band's lower edge. Real values get random signs. Complex values get random angles, but the first
        two share one axis (zero real parts) or sign, and a real pair may get -0.0 imaginary parts, so their moduli
        stay exact."""
        values, kind = rng.uniform(0.05, 0.9, m), rng.integers(5)
        if kind == 1 or kind == 2 and m == 1:
            values[0] = 1.0 + rng.uniform(-0.9, 0.9) * tol
        elif kind == 2:
            values[:2] = rng.uniform(1.0 + 2.0 * tol, 1.5), 1.0 + rng.uniform(-0.9, 0.9) * tol
        elif kind == 3:
            values[0] = np.nextafter(threshold, rng.choice([0.0, threshold, 2.0]))
        elif kind == 4 and m > 1:
            below = rng.uniform(0.1, 0.9) * radius
            values[:2] = 1.0 - tol - below, 1.0 - tol + rng.uniform(0.0, 0.95 * radius - below)
        values[:2] *= rng.choice([1.0, -1.0])
        values[2:] *= rng.choice([1.0, -1.0], max(m - 2, 0))
        if family != "complex":
            return rng.permutation(values)
        turned = values * np.exp(2j * np.pi * rng.random(m))
        turned[:2] = values[:2] * (1j if rng.random() < 0.25 else 1.0)
        if rng.random() < 0.25:
            turned[:2] = np.conj(turned[:2])
        return rng.permutation(turned)

    def stack(m, family):
        blocks = np.triu(rng.normal(scale=0.3, size=(64, m, m)), 1)
        if family == "complex":
            blocks = blocks + 1j * np.triu(rng.normal(scale=0.3, size=(64, m, m)), 1)
        diagonals = np.array([spectrum(m, family) for _ in range(64)])
        blocks[:, np.arange(m), np.arange(m)] = diagonals  # set, not added: the signs of zeros stay
        if family == "rotated" and m > 1:
            for block, values in zip(blocks[::2], diagonals[::2]):  # a pair of complex conjugates of modulus v_0
                angle = 2.0 * np.pi * rng.random()
                block[:2, :2] = values[0] * np.array([[np.cos(angle), np.sin(angle)], [-np.sin(angle), np.cos(angle)]])
        return blocks

    counts = []
    for m in range(1, 15):
        for family in ("real", "rotated", "complex"):
            blocks = stack(m, family)
            assert (np.linalg.eigvals(blocks).dtype == float) == (family == "real" or m == 1 and family == "rotated")
            expected = exterior_counts_by_cluster(blocks)
            assert repr(exterior_counts(blocks)) == repr(expected)
            for block in blocks[::8]:
                assert repr(exterior_counts(block[None])) == repr(exterior_counts_by_cluster(block[None]))
            counts += expected
    # the kinds of rows all occur: clear, a band root alone, exterior roots, and a merged pair in the band
    assert any(count == ExteriorRootCount(0, (), ()) for count in counts)
    assert any(not count.exterior and len(count.boundary_band) == 1 for count in counts)
    assert any(count.count for count in counts)
    assert any(mult == 2 for count in counts for _, mult in count.boundary_band)
    # LAPACK returns the diagonal of a triangular block exactly, the threshold and its neighbours included, but
    # gives -0.0 imaginary parts as +0.0: an eigensolver that keeps them, the diagonal itself, counts the same
    blocks = stack(3, "complex")
    assert threshold in np.abs(np.linalg.eigvals(blocks))
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: np.diagonal(a, axis1=-2, axis2=-1).copy())
    imag = np.linalg.eigvals(blocks).imag
    assert (np.signbit(imag) & (imag == 0.0)).any()
    assert repr(exterior_counts(blocks)) == repr(exterior_counts_by_cluster(blocks))
    for block in blocks[::4]:
        assert repr(exterior_counts(block[None])) == repr(exterior_counts_by_cluster(block[None]))


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
