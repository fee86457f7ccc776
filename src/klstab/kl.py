"""Kreiss-Lopatinskii determinant construction.

The boundary operator restricted to the decaying modal solutions has a
determinant whose zeros in ``|z| >= 1`` are exactly the (generalized)
eigenvalues obstructing strong stability. The defining formula applies the
boundary matrix to the mode matrix of the characteristic roots; this module
builds the determinant instead from the closed top-left ``m x m`` block
``A`` of the half-line update matrix. Row ``j`` of the update reads only
``U_{j-r..j}`` and the ghost values read only ``U_0..U_{m-1}``, so rows
``0..m-1`` close on themselves, and

    det C(z) = (-1)^((r+1)m) a_{-r}^(-m) det(z I_m - A),
    Delta(z) = (-1)^(r(m-r)) det C(z) (a_{-r} / (a_0 - z))^(m-r),

where ``C(z)`` is the ``r x r`` matrix left by eliminating the boundary
matrix against the interior recurrence. ``det C`` has exact degree ``m``.

The direct count takes the eigenvalues of ``A``; the winding evaluates
``det C``, whose coefficients come from LU determinants of ``z I - A`` at
the ``m + 1`` roots of unity and one FFT, so the two counts share no
arithmetic. The characteristic roots and their mode matrix remain for
classifying zeros on the unit circle. They are polished by Newton steps and,
like the eigenvalues of ``A``, clustered with multiplicity here.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .boundary import BoundaryCondition
from .config import DEFAULT_TOLS, TRIM_REL, Tolerances
from .errors import DegenerateLeadingCoefficient, RootAtZero
from .scheme import Scheme


def stable_roots(s: Scheme, z: complex, tols: Tolerances = DEFAULT_TOLS) -> Tuple[Tuple[complex, int], ...]:
    """All ``r`` characteristic roots at ``z``, clustered into ``(value, multiplicity)`` pairs.

    Inserting the modal solution ``U_j^n = z^n kappa^j`` into the interior
    update gives the degree-``r`` polynomial in ``kappa`` with ascending
    coefficients ``(a_{-r}, ..., a_{-1}, a_0 - z)``; these are its roots.
    For a totally upwind stencil every root belongs to the decaying family,
    so nothing is discarded. Raises when ``a_0 - z`` degenerates (the
    polynomial would lose its leading term).
    """
    scale = float(np.max(np.abs(s.a))) + abs(z)
    if abs(s.a_zero - z) <= TRIM_REL * scale:
        raise DegenerateLeadingCoefficient(f"characteristic polynomial degenerates at z={z} "
                                           "(leading coefficient a_0 - z ~ 0)")
    coeffs = np.asarray(s.a, dtype=complex).copy()
    coeffs[-1] -= z
    return _roots(coeffs, tols.cluster_radius)


def _roots(coeffs: np.ndarray, radius: float) -> Tuple[Tuple[complex, int], ...]:
    """``(value, multiplicity)`` roots of ascending complex ``coeffs`` (degree >= 1, leading term clear of 0)."""
    return _cluster(_newton_refine(coeffs, np.roots(coeffs[::-1]))[None], radius)[0]


def _newton_refine(coeffs: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Polish companion-matrix roots by two Newton passes; keep a step only when it reduces |p|."""
    coeffs, roots = np.asarray(coeffs, dtype=complex), np.asarray(roots, dtype=complex)
    descending, derivative = coeffs[::-1], (coeffs[1:] * np.arange(1, coeffs.size))[::-1]
    for _ in range(2):
        pv = np.polyval(descending, roots)
        dv = np.polyval(derivative, roots)
        safe = np.abs(dv) > 1e-300
        step = np.where(safe, pv / np.where(safe, dv, 1.0), 0.0)
        candidate = roots - step
        better = np.abs(np.polyval(descending, candidate)) <= np.abs(pv)
        roots = np.where(better, candidate, roots)
    return roots


def k_matrix(roots: Sequence[Tuple[complex, int]], i: int, j: int) -> np.ndarray:
    """Mode matrix: index lines ``i`` through ``j`` inclusive of the modal basis.

    One column per root and multiplicity power: a root ``kappa`` of
    multiplicity ``beta`` contributes the columns ``(l^q kappa^l)_{l=i..j}``
    for ``q = 0 .. beta-1``, with the convention ``0^0 = 1`` at line 0.
    """
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
    return np.column_stack(cols)


def upwind_blocks(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Closed top-left ``m x m`` blocks ``A`` of the half-line update matrices of stencils ``a`` (N, r+1) and
    boundaries ``b`` (N, r', m).

    Row ``j`` is the update of ``U_j``: ``a_k`` goes to column ``j + k`` when
    that is an interior point and, spread by ghost row ``j + k`` of ``b``,
    over columns ``0..m-1`` when it is a ghost point. The terms are added
    where the :func:`_scatter_plan` of ``(r, r', m)`` puts them.
    """
    (n, ghosts, m), r = b.shape, a.shape[1] - 1
    if ghosts < r:
        raise ValueError(f"boundary condition has {ghosts} ghost rows, scheme needs {r}")
    at, coeff, row, interior, diagonal = _scatter_plan(r, ghosts, m)
    blocks = np.zeros((n, m * m))
    np.add.at(blocks, (slice(None), at), a.take(coeff, axis=1) * b.reshape(n, -1).take(row, axis=1))
    blocks[:, interior] += a.take(diagonal, axis=1)
    return blocks.reshape(n, m, m)


@functools.lru_cache(maxsize=16)
def _scatter_plan(r: int, ghosts: int, m: int) -> Tuple[np.ndarray, ...]:
    """The flat entry of a block, the index into ``a`` and the flat index into ``b`` of each ghost term, in the order
    of a loop over rows ``j``, offsets ``k`` and columns, then the flat entry and the index into ``a`` of each
    interior term; cached and shared, hence read-only. A row's ghost offsets all precede its interior ones, so the
    sums are those of that loop."""
    ghost = [(j * m + c, k + r, (j + k + ghosts) * m + c) for j in range(m) for k in range(-r, -j) for c in range(m)]
    interior = [(j * m + j + k, k + r) for j in range(m) for k in range(max(-r, -j), 1)]
    plan = [np.array(terms, dtype=np.intp).reshape(-1, width).T.copy() for terms, width in ((ghost, 3), (interior, 2))]
    for array in plan:
        array.setflags(write=False)
    return (*plan[0], *plan[1])


def parity(r: int, m: int) -> int:
    """The prefactor ``(-1)^(r(m-r))`` of the explicit formula."""
    return -1 if (r * (m - r)) % 2 else 1


@dataclass(frozen=True, eq=False)
class ReducedBoundary:
    """Reduction of a (scheme, boundary) pair to polynomial form.

    ``block`` is the read-only closed update block ``A`` of
    :func:`upwind_blocks`; ``det_c`` holds the read-only ascending
    coefficients of ``det C``, a polynomial of exact degree ``m`` whose roots
    are the eigenvalues of ``A``.
    """

    r: int
    m: int
    block: np.ndarray
    det_c: np.ndarray


def reduce_boundary(s: Scheme, bc: BoundaryCondition) -> ReducedBoundary:
    """Reduce the pair to its closed update block and ``det C``."""
    if bc.r != s.r:
        raise ValueError(f"boundary condition has {bc.r} ghost rows but the scheme needs {s.r}; "
                         "restrict the rows first")
    if abs(s.a_zero) >= 1.0:
        raise ValueError(f"the reduction requires |a_0| < 1 (Cauchy-stable consistent schemes satisfy this); "
                         f"got a_0 = {s.a_zero}")
    blocks, det_c = reduce_stack(s.a[None], bc.b[None])
    det_c.setflags(write=False)
    return ReducedBoundary(s.r, bc.m, blocks[0], det_c[0])


def reduce_stack(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Read-only closed blocks ``A`` (N, m, m) and ``det C`` coefficients (N, m+1) of a stack of pairs.

    ``det(z I - A)`` is monic of degree ``m``; its values at the ``m + 1`` roots of unity (one stacked LU call) give
    its coefficients through one FFT, and ``det C`` is that polynomial times ``(-1)^((r+1)m) a_{-r}^(-m)``. Raises
    ``OverflowError`` when ``a_{-r}^(-m)``, a block or ``det C`` leaves the float range.
    """
    r, m = a.shape[1] - 1, b.shape[2]
    with np.errstate(over="ignore", invalid="ignore"):  # a result that is not finite is refused below
        blocks = upwind_blocks(a, b)
        blocks.setflags(write=False)
        values = np.linalg.det(_node_diagonals(m) - blocks[:, None])
        # values[k] = sum_j c_j z_k^j, an inverse DFT of the coefficients; A is real, so they are too
        coeffs = np.fft.fft(values, axis=-1).real / (m + 1)
        try:
            factor = np.array([(-1) ** ((r + 1) * m) * lead ** (-m) for lead in a[:, 0].tolist()])  # Python floats
        except OverflowError:
            lead = float(min(a[:, 0], key=abs))
            raise OverflowError(f"a_{{-r}}^(-m) = ({lead!r})^(-{m}) is beyond the float range") from None
        det_c = (factor[:, None] * coeffs).astype(complex)
    check_finite(blocks, det_c)
    return blocks, det_c


def check_finite(*arrays: np.ndarray) -> None:
    """Raise the reduction's ``OverflowError`` unless every entry of ``arrays`` is finite."""
    if not all(np.isfinite(array).all() for array in arrays):
        raise OverflowError("the determinant curve is not finite: det C or its prefactor leaves the float range")


@functools.lru_cache(maxsize=16)
def _node_diagonals(m: int) -> np.ndarray:
    """``z_k I_m`` (m+1, m, m) at the ``m + 1`` roots of unity ``z_k``; cached and shared, hence read-only."""
    diagonals = np.exp(2j * np.pi * np.arange(m + 1) / (m + 1))[:, None, None] * np.eye(m)
    diagonals.setflags(write=False)
    return diagonals


def kl_det_stack(coeffs: np.ndarray, a_lead, a_zero, r: int, z: np.ndarray) -> np.ndarray:
    """The intrinsic determinant ``sign * det C(z) * (a_{-r} / (a_0 - z))^(m-r)`` at the points ``z`` (n,), for
    ``det C`` coefficients ``coeffs`` (..., m+1) and stencil ends ``a_lead``, ``a_zero`` (...); with ``z`` (N, 1)
    and N pairs, at one point per pair. Each value is bit for bit its one-pair evaluation (but in a stack's row
    of length 1): products are explicit ufunc calls, as numpy may evaluate ``x * y`` as ``y * x`` in place."""
    m = coeffs.shape[-1] - 1
    acc = 0j
    for k in range(m, -1, -1):
        acc = np.multiply(acc, z) + coeffs[..., k, None]
    base = np.asarray(a_lead)[..., None] / (np.asarray(a_zero)[..., None] - z)
    # numpy's complex power returns its base unchanged for exponent 1, only slower
    return np.multiply(parity(r, m) * acc, base if m - r == 1 else base ** (m - r))


@dataclass(frozen=True)
class ExteriorRootCount:
    """Root count of ``det C`` split by location relative to the unit circle."""

    count: int
    exterior: Tuple[Tuple[complex, int], ...]
    boundary_band: Tuple[Tuple[complex, int], ...]

    @property
    def has_boundary_band(self) -> bool:
        return bool(self.boundary_band)


def exterior_zero_count_direct(rb: ReducedBoundary, tols: Tolerances = DEFAULT_TOLS) -> ExteriorRootCount:
    """The count of :func:`exterior_counts` for one reduced pair."""
    return exterior_counts(rb.block[None], tols)[0]


def exterior_counts(blocks: np.ndarray, tols: Tolerances = DEFAULT_TOLS) -> List[ExteriorRootCount]:
    """Zeros of the determinant outside the closed unit disk for each block of a stack (N, m, m).

    The rational prefactor never vanishes for ``|z| >= 1``, so those zeros are exactly the eigenvalues of
    the update block with modulus above 1, clustered with multiplicity (one ``eigvals`` call for all).
    Eigenvalues inside the band around the unit circle are reported apart, for the caller to classify.
    """
    roots = _cluster(np.linalg.eigvals(blocks), tols.cluster_radius)
    return [_split_by_modulus(row, tols) for row in roots]


# Relative margin by which the pairs of a row must clear the cluster radius for the vectorized
# path: numpy's stacked modulus may differ from the scalar one in the last bit.
_CLUSTER_MARGIN = 1e-9


def _cluster(values: np.ndarray, radius: float) -> List[Tuple[Tuple[complex, int], ...]]:
    """Each row of ``values`` as ``(mean, multiplicity)`` pairs of its values closer than ``radius``, sorted by real,
    then imaginary part. Rows of finite values whose pairs all clear the radius are singletons, sorted in one
    vectorized pass, when no real part is 0 and no imaginary part -0.0 (the mean of one member would change a zero's
    sign); the others go through union-find, as real numbers when all their imaginary parts are 0: ``eigvals`` of
    such a block alone returns them real, and numpy's complex mean of three or more may differ in the last bit."""
    n = values.shape[1]
    gaps = np.abs(values[:, :, None] - values[:, None, :])
    # a row of finite values has n gaps of 0, its own; all the others must clear the radius
    apart = np.add.reduce(gaps > radius * (1.0 + _CLUSTER_MARGIN), axis=(1, 2)) == n * (n - 1)
    imag = values.imag
    plain = np.isfinite(values) & (values.real != 0.0) & ((imag != 0.0) | ~np.signbit(imag))
    simple = (apart & np.logical_and.reduce(plain, axis=1)).tolist()
    order = np.lexsort((imag, values.real), axis=-1)
    ordered = values[np.arange(values.shape[0])[:, None], order].astype(complex).tolist()
    return [tuple((value, 1) for value in row) if single else
            _union_find(values[i].real if not imag[i].any() else values[i], radius)
            for i, (row, single) in enumerate(zip(ordered, simple))]


def _union_find(values: np.ndarray, radius: float) -> Tuple[Tuple[complex, int], ...]:
    """Merge values pairwise closer than ``radius`` (transitively, union-find)."""
    n = values.size
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(values[i] - values[j]) <= radius:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri

    clusters: dict[int, list[complex]] = {}
    for i in range(n):
        clusters.setdefault(find(i), []).append(values[i])
    merged = [(complex(np.mean(members)), len(members)) for members in clusters.values()]
    merged.sort(key=lambda item: (item[0].real, item[0].imag))
    return tuple(merged)


def _split_by_modulus(roots, tols: Tolerances) -> ExteriorRootCount:
    exterior, band = [], []
    for value, mult in roots:
        modulus = abs(value)
        if modulus > 1.0 + tols.unit_circle_tol:
            exterior.append((complex(value), int(mult)))
        elif modulus >= 1.0 - tols.unit_circle_tol:
            band.append((complex(value), int(mult)))
    return ExteriorRootCount(int(sum(mult for _, mult in exterior)), tuple(exterior), tuple(band))
