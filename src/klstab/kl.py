"""Kreiss-Lopatinskii determinant construction, two independent ways.

The boundary operator restricted to the decaying modal solutions has a
determinant whose zeros in ``|z| >= 1`` are exactly the (generalized)
eigenvalues obstructing strong stability. This module builds it

* directly from the characteristic roots and the mode matrix (the defining
  formula, used as a cross-check oracle), and
* through a polynomial elimination that reduces the boundary matrix against
  the interior recurrence, yielding an exact-degree polynomial ``det C(z)``
  and the explicit rational form

      Delta(z) = (-1)^(r(m-r)) det C(z) (a_{-r} / (a_0 - z))^(m-r).

The elimination runs on one complex coefficient array of shape
``(r, r + m, m + 1)`` (ascending powers of ``z``), one vectorized update per
eliminated column. For ``r <= 4``, ``det C`` is the cofactor expansion of the
remaining ``r x r`` block on 1-D coefficient arrays, every product and
partial sum trimmed as :class:`ComplexPolynomial` normalizes its
coefficients. For wider stencils that expansion cancels badly when
``a_{-r}`` is small, so ``det C`` is evaluated at ``m + 1`` points of
``|z| = 2`` and interpolated.

The second route is authoritative: it is holomorphic by construction, cheap
to evaluate along the unit circle, and its polynomial factor can be
root-counted outright.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
from numpy.polynomial.polynomial import polyval

from .boundary import BoundaryCondition, assemble_B
from .config import DEFAULT_TOLS, Tolerances
from .core_numerics import ComplexPolynomial, RootSet, _trim, _trim_batch, poly_roots
from .errors import DegenerateLeadingCoefficient, DegreeMismatch, RootAtZero
from .scheme import Scheme


def characteristic_poly(s: Scheme, z: complex) -> ComplexPolynomial:
    """Characteristic polynomial in the spatial mode variable.

    Inserting the modal solution ``U_j^n = z^n kappa^j`` into the interior
    update gives a degree-``r`` polynomial in ``kappa`` with coefficients
    ``(a_{-r}, ..., a_{-1}, a_0 - z)`` (ascending powers); the degree drops
    only when ``z`` hits ``a_0``, which cannot happen for ``|z| >= 1`` when
    ``|a_0| < 1``.
    """
    coeffs = np.asarray(s.a, dtype=complex).copy()
    coeffs[-1] -= z
    return ComplexPolynomial.from_coeffs(coeffs)


def stable_roots(s: Scheme, z: complex, tols: Tolerances = DEFAULT_TOLS) -> RootSet:
    """All ``r`` characteristic roots at ``z``, clustered with multiplicity.

    For a totally upwind stencil every root belongs to the decaying family,
    so nothing is discarded. Raises when ``a_0 - z`` degenerates (the
    polynomial would lose its leading term).
    """
    scale = float(np.max(np.abs(s.a))) + abs(z)
    if abs(s.a_zero - z) <= tols.trim_rel * scale:
        raise DegenerateLeadingCoefficient(
            f"characteristic polynomial degenerates at z={z} (leading coefficient a_0 - z ~ 0)"
        )
    coeffs = np.asarray(s.a, dtype=complex).copy()
    coeffs[-1] -= z
    return poly_roots(coeffs, cluster_radius=tols.cluster_radius, trim_rel=tols.trim_rel)


@dataclass(frozen=True, eq=False)
class KMatrix:
    """Mode matrix: extraction of index lines ``i .. j`` of the modal basis.

    One column per root and multiplicity power: a root ``kappa`` of
    multiplicity ``beta`` contributes the columns ``(l^q kappa^l)_{l=i..j}``
    for ``q = 0 .. beta-1``, with the convention ``0^0 = 1`` at line 0.
    """

    values: np.ndarray
    roots: RootSet
    i: int
    j: int
    z: complex | None = None


def k_matrix(roots: RootSet, i: int, j: int, z: complex | None = None) -> KMatrix:
    """Build the mode matrix for index lines ``i`` through ``j`` inclusive."""
    if j < i:
        raise ValueError(f"need j >= i, got i={i}, j={j}")
    lines = np.arange(i, j + 1)
    cols = []
    for value, mult in roots:
        if abs(value) < 1e-300 and i < 0:
            raise RootAtZero("a characteristic root sits at 0; negative index lines are undefined")
        powers = np.power(complex(value), lines)
        for q in range(mult):
            weights = np.array([float(l) ** q if (l, q) != (0, 0) else 1.0 for l in lines])
            cols.append(weights * powers)
    values = np.column_stack(cols)
    return KMatrix(values=values, roots=roots, i=i, j=j, z=z)


def kl_det_direct(s: Scheme, bc: BoundaryCondition, z: complex, tols: Tolerances = DEFAULT_TOLS) -> complex:
    """Intrinsic determinant from the defining formula.

    Dividing the raw determinant by the mode matrix of lines ``0 .. r-1``
    removes the basis dependence. Root clustering makes this route
    ill-conditioned near multiple roots; it serves as the independent oracle
    for :func:`kl_det_explicit`.
    """
    roots = stable_roots(s, z, tols)
    K_all = k_matrix(roots, -s.r, bc.m - 1, z=z)
    K_norm = k_matrix(roots, 0, s.r - 1, z=z)
    numerator = complex(np.linalg.det(assemble_B(bc) @ K_all.values))
    denominator = complex(np.linalg.det(K_norm.values))
    return numerator / denominator


@dataclass(frozen=True, eq=False)
class ReducedBoundary:
    """Reduction of a (scheme, boundary) pair to polynomial form.

    ``c_matrix`` is the r x r block left after eliminating the first ``m``
    columns of ``[I_r | -b]`` against the interior recurrence, as a read-only
    ``(r, r, m + 1)`` array of polynomial coefficients in ascending powers;
    ``det_c`` is its determinant, a polynomial of exact degree ``m``;
    ``sign`` is the parity prefactor ``(-1)^(r(m-r))`` of the explicit formula.
    """

    r: int
    m: int
    sign: int
    c_matrix: np.ndarray
    det_c: ComplexPolynomial

    def det_c_json(self) -> str:
        """Determinant coefficients as JSON (ascending, [re, im] pairs)."""
        coeffs = [[float(c.real), float(c.imag)] for c in self.det_c.coeffs]
        return json.dumps({"degree": int(self.det_c.degree), "coefficients": coeffs})


def _det_cofactor(matrix: List[List[np.ndarray]], trim_rel: float) -> np.ndarray:
    """Determinant of a square matrix of polynomials by expansion along the first row.

    Entries are trimmed ascending coefficient arrays; every product and
    partial sum is trimmed again.
    """
    if len(matrix) == 1:
        return matrix[0][0]
    acc = np.zeros(0, dtype=complex)
    for c, entry in enumerate(matrix[0]):
        minor = _det_cofactor([row[:c] + row[c + 1 :] for row in matrix[1:]], trim_rel)
        if entry.size and minor.size:
            term = _trim(np.convolve(entry, minor), trim_rel)
            total = np.zeros(max(acc.size, term.size), dtype=complex)
            total[: acc.size] += acc
            total[: term.size] += term if c % 2 == 0 else -term
            acc = _trim(total, trim_rel)
    return acc


def _det_interpolation(c_matrix: np.ndarray, trim_rel: float) -> ComplexPolynomial:
    """Determinant of an ``(r, r, m + 1)`` polynomial matrix, exact up to degree ``m``.

    Evaluates ``det C`` at ``m + 1`` equispaced points of ``|z| = 2`` and
    solves for the coefficients.
    """
    npts = c_matrix.shape[-1]
    nodes = 2.0 * np.exp(2j * np.pi * np.arange(npts) / npts)
    values = np.linalg.det(np.moveaxis(polyval(nodes, np.moveaxis(c_matrix, -1, 0)), -1, 0))
    coeffs = np.linalg.solve(np.vander(nodes, npts, increasing=True), values)
    return ComplexPolynomial.from_coeffs(coeffs, trim_rel)


def reduce_boundary(s: Scheme, bc: BoundaryCondition, tols: Tolerances = DEFAULT_TOLS) -> ReducedBoundary:
    """Eliminate the boundary matrix against the interior recurrence.

    Modal solutions satisfy ``U_{j-r} + (a_{-r+1}/a_{-r}) U_{j-r+1} + ...
    + ((a_0 - z)/a_{-r}) U_j = 0``, so subtracting multiples of that row
    zeroes the assembled boundary matrix column by column, left to right,
    without changing its action on modal solutions. After ``m`` steps only
    the last ``r`` columns remain; they form ``C(z)`` with polynomial
    entries and ``deg det C = m`` exactly.
    """
    if bc.r != s.r:
        raise ValueError(
            f"boundary condition has {bc.r} ghost rows but the scheme needs {s.r}; "
            "restrict the rows first"
        )
    if abs(s.a_zero) >= 1.0:
        raise ValueError(
            f"the reduction requires |a_0| < 1 (Cauchy-stable consistent schemes satisfy this); "
            f"got a_0 = {s.a_zero}"
        )
    scale = float(np.max(np.abs(s.a)))
    if abs(s.a_lead) <= tols.trim_rel * scale:
        raise DegenerateLeadingCoefficient("a_{-r} is below the trim tolerance; trim the scheme first")

    r, m, trim_rel = s.r, bc.m, tols.trim_rel
    # Entries t = 1..r of the elimination row, a_{-r+t}/a_{-r}; the last,
    # (a_0 - z)/a_{-r}, also has the z-term -1/a_{-r}.
    row = (s.a[1:] / s.a_lead).astype(complex)
    z_term = -1.0 / s.a_lead

    # work[i, c, k]: coefficient of z^k in entry (i, c) of the boundary matrix.
    work = np.zeros((r, r + m, m + 1), dtype=complex)
    work[:, :, 0] = assemble_B(bc)
    for j in range(m):
        pivot = work[:, j]
        product = pivot[:, None, :] * row[:, None]
        product[:, -1, 1:] += pivot[:, :-1] * z_term
        block = work[:, j + 1 : j + r + 1]
        block[...] = _trim_batch(block - _trim_batch(product, trim_rel), trim_rel)
    c_matrix = work[:, m:]
    c_matrix.setflags(write=False)

    if r <= 4:
        entries = [[_trim(entry, trim_rel) for entry in c_row] for c_row in c_matrix]
        det_c = ComplexPolynomial(_det_cofactor(entries, trim_rel))
    else:
        det_c = _det_interpolation(c_matrix, trim_rel)
    if det_c.degree != m:
        raise DegreeMismatch(
            f"det C has degree {det_c.degree}, expected {m}; the elimination broke down numerically"
        )
    sign = -1 if (r * (m - r)) % 2 else 1
    return ReducedBoundary(r=r, m=m, sign=sign, c_matrix=c_matrix, det_c=det_c)


def kl_det_explicit(rb: ReducedBoundary, s: Scheme, z):
    """Intrinsic determinant via the explicit rational formula; vectorized in ``z``."""
    exponent = rb.m - rb.r
    prefactor = (s.a_lead / (s.a_zero - np.asarray(z, dtype=complex))) ** exponent
    value = rb.sign * rb.det_c(z) * prefactor
    if np.isscalar(z):
        return complex(value)
    return value


@dataclass(frozen=True)
class ExteriorRootCount:
    """Root count of ``det C`` split by location relative to the unit circle."""

    count: int
    exterior: Tuple[Tuple[complex, int], ...]
    boundary_band: Tuple[Tuple[complex, int], ...]
    interior: Tuple[Tuple[complex, int], ...]

    @property
    def has_boundary_band(self) -> bool:
        return bool(self.boundary_band)


def exterior_zero_count_direct(rb: ReducedBoundary, tols: Tolerances = DEFAULT_TOLS) -> ExteriorRootCount:
    """Count zeros of the determinant outside the closed unit disk.

    The rational prefactor never vanishes for ``|z| >= 1``, so those zeros
    are exactly the roots of ``det C`` with modulus above 1. Roots inside
    the ambiguity band around the unit circle are reported separately; the
    caller decides whether to classify them as boundary zeros.
    """
    roots = poly_roots(rb.det_c, cluster_radius=tols.cluster_radius, trim_rel=tols.trim_rel)
    exterior, band, interior = [], [], []
    for value, mult in roots:
        modulus = abs(value)
        if modulus > 1.0 + tols.unit_circle_tol:
            exterior.append((complex(value), int(mult)))
        elif modulus >= 1.0 - tols.unit_circle_tol:
            band.append((complex(value), int(mult)))
        else:
            interior.append((complex(value), int(mult)))
    count = int(sum(mult for _, mult in exterior))
    return ExteriorRootCount(
        count=count, exterior=tuple(exterior), boundary_band=tuple(band), interior=tuple(interior)
    )
